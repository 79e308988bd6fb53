"""Loading sweeps: map each certificate's feasibility interval in kappa.

Injections are scaled along a fixed ray, s = (kappa / base) * d with d
the unit-1-norm per-unit direction, so the horizontal axis is the total
apparent power kappa in MVA.  Every condition set is evaluated at each
grid point; because the loading measure is absolutely homogeneous, the
state-free masks are prefix-true in kappa and their boundaries are
sharpened by bisection.  The state-aware mask is an interval around the
operating point's own loading kappa_hat and is bracketed on both sides.

Optionally the plain fixed-point iteration is attempted at every grid
point (uncertified, from the zero-load profile) to record where it
empirically converges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certificate as cert
from .errors import ConvergenceError, VoltageCollapseError
from .fixed_point import solve_fixed_point
from .network import NetworkDescription, OperatingPoint
from .pipeline import prepare_grid
from .zero_load import u_min as u_min_of

DEFAULT_STEPS = 512


@dataclass(frozen=True)
class SweepResult:
    """Masks, boundary estimates and the ray used for one sweep.

    Masks are boolean per grid point; ``theorem_mask`` is None without
    an operating point and ``fp_converged`` is None when the empirical
    solver pass was skipped.  Boundary estimates are in MVA; None means
    no transition inside [0, kappa_max].
    """

    kappa_grid: np.ndarray
    direction: np.ndarray
    theorem_mask: np.ndarray | None
    corollary_mask: np.ndarray
    improved_mask: np.ndarray
    prior_mask: np.ndarray
    fp_converged: np.ndarray | None
    kappa_hat: float | None
    theorem_interval: tuple[float, float] | None
    corollary_boundary: float | None
    improved_boundary: float | None
    prior_boundary: float | None


def bisect_boundary(condition, lo: float, hi: float, tol: float) -> float:
    """Locate the flip point of a monotone boolean condition on [lo, hi].

    Requires condition(lo) != condition(hi); returns the bracket
    midpoint once the bracket is narrower than ``tol``.
    """
    c_lo = condition(lo)
    if c_lo == condition(hi):
        raise ValueError(
            f"invalid bracket: condition is {c_lo} at both {lo} and {hi}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if condition(mid) == c_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep(
    net: NetworkDescription,
    injections: np.ndarray,
    operating_point: OperatingPoint | None = None,
    kappa_max: float = 20.0,
    steps: int = DEFAULT_STEPS,
    *,
    p_set=cert.P_SET_DEFAULT,
    run_fixed_point: bool = True,
    fp_tol: float = 1e-9,
    fp_max_iter: int = 100,
    bisect_tol: float | None = None,
) -> SweepResult:
    """Sweep all condition sets along the ray defined by ``injections``.

    ``injections`` is the per-unit profile whose direction is scaled;
    with an operating point, the state-aware conditions are evaluated
    against its (v_hat, s_hat) at every grid point.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    if kappa_max <= 0:
        raise ValueError(f"kappa_max must be positive, got {kappa_max}")
    injections = np.asarray(injections, dtype=complex)
    total = float(np.sum(np.abs(injections)))
    if total == 0:
        raise ValueError("injection profile is identically zero; no ray")
    direction = injections / total
    base = net.power_base
    if bisect_tol is None:
        bisect_tol = 1e-6 * kappa_max

    grid = prepare_grid(net, with_kernel=True)
    kernel = grid.kernel
    kappa_grid = np.linspace(0.0, kappa_max, steps)

    def s_at(kappa: float) -> np.ndarray:
        return (kappa / base) * direction

    def corollary_at(kappa: float) -> bool:
        return cert.corollary_condition(cert.xi(kernel, s_at(kappa)))[0]

    def prior_at(kappa: float) -> bool:
        return cert.check_prior_conditions(kernel, s_at(kappa), p_set).bolognani_ok

    def improved_at(kappa: float) -> bool:
        return cert.check_prior_conditions(kernel, s_at(kappa), p_set).improved_ok

    corollary_mask = np.array([corollary_at(k) for k in kappa_grid])
    priors = [cert.check_prior_conditions(kernel, s_at(k), p_set) for k in kappa_grid]
    prior_mask = np.array([p.bolognani_ok for p in priors])
    improved_mask = np.array([p.improved_ok for p in priors])

    theorem_mask = None
    theorem_interval = None
    kappa_hat = None
    if operating_point is not None:
        s_hat = operating_point.s
        xi_s_hat = cert.xi(kernel, s_hat)
        u_min_val = u_min_of(operating_point.v, grid.w)
        kappa_hat = float(np.sum(np.abs(s_hat))) * base

        def theorem_at(kappa: float) -> bool:
            xi_delta = cert.xi(kernel, s_at(kappa) - s_hat)
            return cert.theorem_conditions(xi_delta_s=xi_delta,
                                           xi_s_hat=xi_s_hat,
                                           u_min=u_min_val)[0]

        theorem_mask = np.array([theorem_at(k) for k in kappa_grid])
        theorem_interval = _theorem_interval(
            theorem_at, kappa_hat, kappa_max, bisect_tol
        )

    fp_converged = None
    if run_fixed_point:
        flags = []
        for kappa in kappa_grid:
            try:
                solve_fixed_point(
                    grid.factors, grid.w, s_at(kappa),
                    v0=grid.w.w, tol=fp_tol, max_iter=fp_max_iter,
                )
                flags.append(True)
            except (ConvergenceError, VoltageCollapseError):
                flags.append(False)
        fp_converged = np.array(flags)

    return SweepResult(
        kappa_grid=kappa_grid,
        direction=direction,
        theorem_mask=theorem_mask,
        corollary_mask=corollary_mask,
        improved_mask=improved_mask,
        prior_mask=prior_mask,
        fp_converged=fp_converged,
        kappa_hat=kappa_hat,
        theorem_interval=theorem_interval,
        corollary_boundary=_prefix_boundary(corollary_at, kappa_max, bisect_tol),
        improved_boundary=_prefix_boundary(improved_at, kappa_max, bisect_tol),
        prior_boundary=_prefix_boundary(prior_at, kappa_max, bisect_tol),
    )


def _prefix_boundary(condition, kappa_max: float, tol: float) -> float | None:
    """Flip point of a pass-at-zero condition, None if none in range."""
    if condition(kappa_max):
        return None
    return bisect_boundary(condition, 0.0, kappa_max, tol)


def _theorem_interval(condition, kappa_hat, kappa_max, tol):
    """Feasible interval around kappa_hat, clipped to [0, kappa_max]."""
    anchor = min(kappa_hat, kappa_max)
    if not condition(anchor):
        return None
    lo = 0.0 if condition(0.0) else bisect_boundary(condition, 0.0, anchor, tol)
    hi = (
        kappa_max
        if condition(kappa_max)
        else bisect_boundary(condition, anchor, kappa_max, tol)
    )
    return (lo, hi)


def sweep_table(result: SweepResult) -> str:
    """Render the sweep as a plot-ready CSV table.

    Columns: kappa, theorem, corollary, improved, prior, fp_converged.
    Mask columns are 0/1; absent masks render as empty cells.
    """
    lines = ["kappa,theorem,corollary,improved,prior,fp_converged"]

    def cell(mask, i):
        return "" if mask is None else str(int(mask[i]))

    for i, kappa in enumerate(result.kappa_grid):
        lines.append(
            ",".join(
                [
                    format(float(kappa), ".17g"),
                    cell(result.theorem_mask, i),
                    cell(result.corollary_mask, i),
                    cell(result.improved_mask, i),
                    cell(result.prior_mask, i),
                    cell(result.fp_converged, i),
                ]
            )
        )
    return "\n".join(lines) + "\n"
