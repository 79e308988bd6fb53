"""Fixed-point load-flow iteration with convergence diagnostics.

One application of the update operator is

    G(v) = w + y_ll^-1 (conj(s) / conj(v))    (componentwise division),

whose fixed points are exactly the load-flow solutions.  Under a
passing certificate the operator contracts the normalized coordinates
u = v / w in the infinity norm, so convergence is measured there: the
step and residual reported are both w-weighted infinity norms.

Every solve runs through one loop, `_iterate_block`.  It iterates many
injections together as the columns of one block, each from its own
start, and applies G to the whole block with one `iterate_once` call,
that is one multi-right-hand-side solve, per iteration.  Pending
injections refill the block as columns retire, so it never holds more
than `sparse_lu.block_width` columns.  `converges` iterates the
points c * d of a ray in L such loops, one for every CPU the process may
run on but no more than the points fill full blocks: loop t takes the
points t, t + L, t + 2L, ... and makes each injection only when a column
is free for it, so no two loops share anything but the factors they
read.  The calling thread runs loop 0 and a thread pool the others.
The solves release the interpreter lock but each iteration's Python
bookkeeping holds it, so the loops overlap only when blocks are wide.
On a 2-vCPU x86-64 VM (best of 25 alternated runs), the benchmark's
1000-bus feeder ray in 4-column blocks took 16.0 ms in two loops against
10.0 ms in one, and its 300-bus meshed ray in 54-column blocks 35.4 ms
against 44.7 ms.  So a loop starts only for a full block of points:
`solve_fixed_point`, a ray that fills fewer than two blocks, and a
process on one CPU start no thread.  An exception in any loop stops the
others at the start of their next iteration.  A column retires

* converged, once its step falls below ``tol`` and the probe G(v) of
  the converged iterate, taken in the block's next iteration, passes the
  voltage floor; the probe's step is the residual;
* collapsed, when an entry of its iterate is below VOLTAGE_FLOOR, the
  converged iterate that the probe would divide by included:
  `iterate_once` refuses the whole block then, and the loop retires
  exactly the columns below the floor and repeats the update for the
  rest;
* failed, at its first step that is not finite, or after ``max_iter``
  steps.

SuperLU solves each column of a block bit for bit as it solves that
column alone, and every other operation is elementwise or per column,
so each column keeps the iterates, step history and outcome it has on
its own, whatever block it shares, and however many loops run or in
what order.  `solve_fixed_point` is the loop at one column; `converges`
runs the sweep's injections through it together.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .certificate import SolutionBall
from .errors import ConvergenceError, VoltageCollapseError
from .sparse_lu import LuFactors, block_width, solve
from .zero_load import ZeroLoadProfile

VOLTAGE_FLOOR = 1e-6  # p.u.; below this the injected-current division blows up
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class SolveResult:
    """Converged iteration outcome.

    ``final_step`` and ``residual`` are w-weighted infinity norms (the
    contraction metric); ``contained_in_d`` is None when no certificate
    ball was supplied, mirroring ``certified``.
    """

    v: np.ndarray
    iterations: int
    final_step: float
    residual: float
    contained_in_d: bool | None
    certified: bool
    step_history: np.ndarray


def _collapse(v: np.ndarray, low: np.ndarray) -> VoltageCollapseError:
    """The error for iterate ``v`` whose entries flagged in ``low`` are below the floor."""
    first = tuple(np.argwhere(low)[0])
    where = f"load index {first[0]}" + (f" of column {first[1]}" if v.ndim == 2 else "")
    return VoltageCollapseError(
        f"voltage magnitude {abs(v[first]):.3e} p.u. at {where} "
        f"is below the floor {VOLTAGE_FLOOR:g}"
    )


def iterate_once(
    factors: LuFactors,
    w: ZeroLoadProfile,
    s: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Apply the update operator once: w + y_ll^-1 (conj(s)/conj(v)).

    ``s`` and ``v`` are (n,), or (n, k) with one injection and its
    iterate per column, updated by one multi-right-hand-side solve.
    Raises VoltageCollapseError if any |v_i| is below VOLTAGE_FLOOR.
    """
    v = np.asarray(v, dtype=complex)
    # the smallest |v_i| that is not NaN: no NaN is below the floor
    if np.fmin.reduce(np.abs(v), axis=None, initial=np.inf) < VOLTAGE_FLOOR:
        raise _collapse(v, np.abs(v) < VOLTAGE_FLOOR)
    # conj(s / v) is conj(s) / conj(v) with one conjugation: the two differ
    # at most in the sign of an imaginary part that is exactly zero
    x = solve(factors, np.conj(s / v))
    x += w.w if x.ndim == 1 else w.w[:, None]
    return x


def _check_shape(n: int, name: str, x) -> None:
    if np.shape(x) != (n,):
        raise ValueError(f"{name} has shape {np.shape(x)}, expected ({n},)")


class _Column:
    """Bookkeeping of one column while it is in the block."""

    __slots__ = ("index", "ball", "steps", "probing")

    def __init__(self, index: int, ball: SolutionBall | None):
        self.index = index
        self.ball = ball
        self.steps: list[float] = []
        self.probing = False  # its last step fell below tol: its next update is the probe


def _check_limits(tol: float, max_iter: int) -> None:
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _iterate_block(factors, w, pending, tol, max_iter, stop=None):
    """The iteration loop: yield (index, outcome) for each column as it retires.

    ``pending`` is an iterator of (index, (s, ball)) pairs, read only
    when a column is free: an (n,) injection, and the certificate ball
    whose center starts the column, or None to start from the zero-load
    profile.  The outcome is a SolveResult, or the ConvergenceError or
    VoltageCollapseError that ends the column.  The shapes, ``tol`` and
    ``max_iter`` are checked by the callers.  The loop returns at the
    start of its next iteration once the threading.Event ``stop`` is set,
    whatever is still in the block or pending.
    """
    width = block_width(w.w.shape[0])
    scale = w.w[:, None]
    block: list[_Column] = []
    s = v = None  # (n, len(block)): the block's injections and iterates
    while stop is None or not stop.is_set():
        fresh = list(itertools.islice(pending, width - len(block)))
        if fresh:
            new = [_Column(index, ball) for index, (_, ball) in fresh]
            new_s = np.array([x for _, (x, _) in fresh], dtype=complex).T
            new_v = np.array([w.w if col.ball is None else col.ball.center for col in new],
                             dtype=complex).T
            if block:
                s, v = np.hstack([s, new_s]), np.hstack([v, new_v])
            else:
                s, v = new_s, new_v
            block += new
        if not block:
            return

        try:
            v_next = iterate_once(factors, w, s, v)
        except VoltageCollapseError:
            low = np.abs(v) < VOLTAGE_FLOOR
            collapsed = low.any(axis=0)
            for j in np.flatnonzero(collapsed):
                yield block[j].index, _collapse(v[:, j], low[:, j])
            keep = np.flatnonzero(~collapsed).tolist()
        else:
            keep = []
            step = v_next - v
            step /= scale
            for j, x in enumerate(np.abs(step).max(axis=0).tolist()):
                col = block[j]
                if col.probing:
                    v_j = v[:, j].copy()
                    outcome = SolveResult(
                        v=v_j, iterations=len(col.steps), final_step=col.steps[-1],
                        residual=x, certified=col.ball is not None,
                        contained_in_d=None if col.ball is None else col.ball.contains(v_j),
                        step_history=np.array(col.steps),
                    )
                else:
                    col.steps.append(x)
                    col.probing = x < tol
                    if col.probing or math.isfinite(x) and len(col.steps) < max_iter:
                        keep.append(j)
                        continue
                    if math.isfinite(x):
                        outcome = ConvergenceError(
                            f"fixed-point iteration did not converge in {max_iter} "
                            f"iterations (last step {x:.3e})",
                            iterations=max_iter, last_step=x, iterate=v_next[:, j].copy(),
                        )
                    else:
                        outcome = ConvergenceError(
                            f"fixed-point step {len(col.steps)} is not finite ({x})",
                            iterations=len(col.steps), last_step=x, iterate=v[:, j].copy(),
                        )
                yield col.index, outcome
            v = v_next
        if len(keep) < len(block):
            block = [block[j] for j in keep]
            if block:  # an emptied block starts afresh at the next refill
                s, v = s[:, keep], v[:, keep]


def solve_fixed_point(
    factors: LuFactors,
    w: ZeroLoadProfile,
    s: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    ball: SolutionBall | None = None,
) -> SolveResult:
    """Iterate to the fixed point from the certificate ball's center, or
    from the zero-load profile when no ball is given.

    Convergence requires the normalized step ||(v_next - v)/w||_inf to
    drop below ``tol``; the reported residual ||v - G(v)||_{w,inf} is
    then below 10*tol as well.  Runs without a ball are permitted
    (certified=False) so callers can map convergence behaviour
    empirically, but carry no guarantee fields.

    Raises ValueError unless ``s`` is one injection of shape (n,).
    Raises ConvergenceError (with the last iterate attached) after
    ``max_iter`` steps or at the first step that is not finite (a NaN or
    infinite injection), or VoltageCollapseError if an iterate
    degenerates.
    """
    _check_limits(tol, max_iter)
    n = w.w.shape[0]
    _check_shape(n, "injection", s)
    if ball is not None:
        _check_shape(n, "ball center", ball.center)
    ((_, outcome),) = _iterate_block(factors, w, iter([(0, (s, ball))]), tol, max_iter)
    if not isinstance(outcome, SolveResult):
        raise outcome
    return outcome


def converges(
    factors: LuFactors,
    w: ZeroLoadProfile,
    direction: np.ndarray,
    scales,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Whether `solve_fixed_point` without a ball returns for each point
    c * ``direction`` of the ray, c in ``scales``, as a boolean array in
    their order.

    The points are iterated together, in blocks of `block_width` columns,
    by L = max(1, min(CPUs, len(scales) // block_width)) block loops,
    CPUs being those the process may run on
    (`os.sched_getaffinity`, which ``taskset`` sets).  Loop t takes the
    points t, t + L, t + 2L, ...; the calling thread runs loop 0 and a
    thread pool the others.  The flags do not depend on L.  Every
    argument is checked before any loop starts.  An exception in any
    loop, a KeyboardInterrupt included, stops the other loops at the
    start of their next iteration and is raised here once all loops have
    ended, so no worker outlives the call.
    """
    _check_limits(tol, max_iter)
    _check_shape(w.w.shape[0], "direction", direction)
    loops = max(1, min(_cpu_count(), len(scales) // block_width(w.w.shape[0])))
    flags = np.empty(len(scales), dtype=bool)
    stop = threading.Event()  # set only when a loop raises

    def run(t: int) -> None:
        points = ((j, (scales[j] * direction, None)) for j in range(t, len(scales), loops))
        try:
            for j, outcome in _iterate_block(factors, w, points, tol, max_iter, stop):
                flags[j] = isinstance(outcome, SolveResult)
        except BaseException:
            stop.set()
            raise

    # the caller runs loop 0, so at most loops - 1 of the pool's threads start
    with ThreadPoolExecutor(loops, thread_name_prefix="flowcert-block-loop") as pool:
        workers = [pool.submit(run, t) for t in range(1, loops)]
        run(0)
        for worker in workers:
            worker.result()
    return flags
