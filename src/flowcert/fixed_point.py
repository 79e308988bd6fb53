"""Fixed-point load-flow iteration with convergence diagnostics.

One application of the update operator is

    G(v) = w + y_ll^-1 (conj(s) / conj(v))    (componentwise division),

whose fixed points are exactly the load-flow solutions.  Under a
passing certificate the operator contracts the normalized coordinates
u = v / w in the infinity norm, so convergence is measured there: the
step and residual reported are both w-weighted infinity norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import SolutionBall
from .errors import ConvergenceError, VoltageCollapseError
from .sparse_lu import LuFactors, solve
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


def iterate_once(
    factors: LuFactors,
    w: ZeroLoadProfile,
    s: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Apply the update operator once: w + y_ll^-1 (conj(s)/conj(v)).

    Raises VoltageCollapseError if any |v_i| is below VOLTAGE_FLOOR.
    """
    v = np.asarray(v, dtype=complex)
    low = np.abs(v) < VOLTAGE_FLOOR
    if low.any():
        idx = int(np.flatnonzero(low)[0])
        raise VoltageCollapseError(
            f"voltage magnitude {abs(v[idx]):.3e} p.u. at load index {idx} "
            f"is below the floor {VOLTAGE_FLOOR:g}"
        )
    return w.w + solve(factors, np.conj(s) / np.conj(v))


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

    Raises ConvergenceError (with the last iterate attached) after
    ``max_iter`` steps or at the first step that is not finite (a NaN or
    infinite injection), or VoltageCollapseError if an iterate
    degenerates.
    """
    v = (ball.center if ball is not None else w.w).copy()
    if v.shape != w.w.shape:
        raise ValueError(f"ball center has shape {v.shape}, expected {w.w.shape}")
    steps: list[float] = []
    for iteration in range(1, max_iter + 1):
        v_next = iterate_once(factors, w, s, v)
        step = float(np.max(np.abs((v_next - v) / w.w)))
        steps.append(step)
        if not math.isfinite(step):
            raise ConvergenceError(
                f"fixed-point step {iteration} is not finite ({step})",
                iterations=iteration,
                last_step=step,
                iterate=v,
            )
        v = v_next
        if step < tol:
            probe = iterate_once(factors, w, s, v)
            residual = float(np.max(np.abs((probe - v) / w.w)))
            return SolveResult(
                v=v,
                iterations=iteration,
                final_step=step,
                residual=residual,
                contained_in_d=ball.contains(v) if ball is not None else None,
                certified=ball is not None,
                step_history=np.array(steps),
            )
    raise ConvergenceError(
        f"fixed-point iteration did not converge in {max_iter} iterations "
        f"(last step {steps[-1]:.3e})",
        iterations=max_iter,
        last_step=steps[-1],
        iterate=v,
    )
