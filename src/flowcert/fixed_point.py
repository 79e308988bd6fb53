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
than max(1, BLOCK_ENTRIES // n) columns.  `converges` runs the loop on
the calling thread and, while at least one full block of injections is
pending beyond the blocks handed out, one more copy in a worker thread,
up to the number of CPUs the process may run on; every copy holds its
own block and refills it from one shared source of numbered injections,
read under a lock.  The solves and the block arithmetic release the
interpreter lock, so the copies overlap.  `solve_fixed_point`, a set of
injections that fits one block, and a process on one CPU start no
thread.  A column retires

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
from dataclasses import dataclass

import numpy as np

from .certificate import SolutionBall
from .errors import ConvergenceError, VoltageCollapseError
from .sparse_lu import BLOCK_ENTRIES, LuFactors, solve
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


def _block(n: int, name: str, cols) -> np.ndarray:
    """The (n,) vectors ``cols`` as the columns of one complex (n, k) block.

    Each column's shape is checked on its own, so a wrong one gets the
    same message whatever columns share its refill.
    """
    for col in cols:
        if np.shape(col) != (n,):
            raise ValueError(f"{name} has shape {np.shape(col)}, expected ({n},)")
    return np.array(cols, dtype=complex).T


class _Column:
    """Bookkeeping of one column while it is in the block."""

    __slots__ = ("index", "ball", "steps", "probing")

    def __init__(self, index: int, ball: SolutionBall | None):
        self.index = index
        self.ball = ball
        self.steps: list[float] = []
        self.probing = False  # its last step fell below tol: its next update is the probe


class _Stopped(Exception):
    """Raised in a block loop by `_Pending.take` once another loop has failed."""


class _Pending:
    """The numbered (s, ball) pairs that no block loop has taken yet.

    Every read goes through one lock, because the pairs may come from a
    generator, which two threads may not advance at once.  Once a read
    comes back short the source is drained, and later takes skip the lock.
    """

    def __init__(self, columns):
        self._columns = enumerate(columns)
        self._lock = threading.Lock()
        self._drained = False
        self.error: BaseException | None = None  # the first failure of any loop

    def take(self, k: int) -> list:
        """Up to ``k`` pending pairs as (index, (s, ball)); raises _Stopped
        once a loop has failed."""
        if self.error is not None:
            raise _Stopped
        if self._drained:
            return []
        with self._lock:
            taken = list(itertools.islice(self._columns, k))
            self._drained = len(taken) < k
        return taken

    def ahead(self, k: int) -> int:
        """How many pairs, up to ``k``, are pending; reads them ahead to know."""
        with self._lock:
            read = list(itertools.islice(self._columns, k))
            self._columns = itertools.chain(read, self._columns)
        return len(read)

    def fail(self, error: BaseException) -> None:
        """Record a loop's failure; the other loops stop at their next take."""
        with self._lock:
            if self.error is None:
                self.error = error


def _check_limits(tol: float, max_iter: int) -> None:
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _width(w: ZeroLoadProfile) -> int:
    """Columns of a block: max(1, BLOCK_ENTRIES // n)."""
    return max(1, BLOCK_ENTRIES // w.w.shape[0])


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _iterate_block(factors, w, pending, tol, max_iter):
    """The iteration loop: yield (index, outcome) for each column as it retires.

    ``pending`` is the `_Pending` source of (s, ball) pairs: an (n,)
    injection, and the certificate ball whose center starts the column,
    or None to start from the zero-load profile.  ``index`` counts the
    pairs from 0.  The outcome is a SolveResult, or the ConvergenceError
    or VoltageCollapseError that ends the column.  ``tol`` and
    ``max_iter`` are checked by the callers (`_check_limits`).
    """
    n = w.w.shape[0]
    width = _width(w)
    scale = w.w[:, None]
    block: list[_Column] = []
    s = v = None  # (n, len(block)): the block's injections and iterates
    while True:
        fresh = pending.take(width - len(block))
        if fresh:
            new = [_Column(index, ball) for index, (_, ball) in fresh]
            new_s = _block(n, "injection", [x for _, (x, _) in fresh])
            new_v = _block(n, "ball center",
                           [w.w if col.ball is None else col.ball.center for col in new])
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
    ((_, outcome),) = _iterate_block(factors, w, _Pending([(s, ball)]), tol, max_iter)
    if not isinstance(outcome, SolveResult):
        raise outcome
    return outcome


def converges(
    factors: LuFactors,
    w: ZeroLoadProfile,
    injections,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Whether `solve_fixed_point` without a ball returns for each of the
    (n,) ``injections``, as a boolean array in their order.

    The injections are iterated together, in blocks of max(1,
    BLOCK_ENTRIES // n) columns.  The calling thread runs one block loop;
    while at least one full block of injections is pending beyond those
    handed out, one more loop starts in a worker thread, up to the number
    of CPUs the process may run on (`os.sched_getaffinity`, which
    ``taskset`` sets).  To count them, up to that many blocks of
    injections are read ahead; every other injection is read only when a
    column of some block is free for it.  The flags do not depend on the
    number of loops.  When any loop raises, the others stop at their next
    iteration, every worker is joined, and the first exception is raised
    here; no worker outlives the call.
    """
    _check_limits(tol, max_iter)
    pending = _Pending((s, None) for s in injections)
    width = _width(w)
    loops = max(1, pending.ahead(_cpu_count() * width) // width)
    flags = {}

    def run():
        try:
            for j, outcome in _iterate_block(factors, w, pending, tol, max_iter):
                flags[j] = isinstance(outcome, SolveResult)
        except _Stopped:
            pass
        except BaseException as exc:  # re-raised in the caller below
            pending.fail(exc)

    workers = []
    try:
        for _ in range(loops - 1):
            worker = threading.Thread(target=run, name="flowcert-block-loop")
            worker.start()
            workers.append(worker)
        run()
    finally:
        for worker in workers:
            worker.join()
    if pending.error is not None:
        raise pending.error
    return np.array([flags[j] for j in sorted(flags)], dtype=bool)
