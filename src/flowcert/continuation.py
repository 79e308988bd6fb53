"""Loading sweeps: map each certificate's feasibility interval in kappa.

Injections are scaled along a fixed ray, s = (kappa / base) * d with d
the unit-1-norm per-unit direction, so the horizontal axis is the total
apparent power kappa in MVA.  Because the loading measure is absolutely
homogeneous, each state-free condition holds exactly below a closed-form
boundary (`certificate.loading_limits`), which gives its mask as well.
The state-aware mask is evaluated at every grid point, with the grid's
loading measures taken in blocks of columns; it is an interval around
the operating point's own loading kappa_hat, whose ends are bracketed
by bisection.

Optionally the plain fixed-point iteration (uncertified, from the
zero-load profile) is run on the grid points, iterated together in
blocks (`fixed_point.converges`), to record where it empirically
converges.  When the grid fills more than one block, the blocks run on
every CPU the process may run on (``taskset`` limits them); the outputs
are the same on one CPU or many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import certificate as cert
from .fixed_point import converges
from .network import NetworkDescription, OperatingPoint
from .pipeline import prepare_grid
from .sparse_lu import BLOCK_ENTRIES
from .zero_load import u_min as u_min_of

DEFAULT_STEPS = 512
THEOREM_RTOL = 1e-6  # width of the final theorem-end bracket, relative to kappa_max


@dataclass(frozen=True)
class SweepResult:
    """Masks, boundaries and the ray used for one sweep.

    Masks are boolean per grid point; ``theorem_mask`` is None without
    an operating point and ``fp_converged`` is None when the empirical
    solver pass was skipped.  Boundaries are in MVA; None means no
    transition inside [0, kappa_max].  The state-free boundaries are
    closed forms; each theorem end passes its condition and lies within
    THEOREM_RTOL * kappa_max of a failing loading beyond it.
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


def sweep(
    net: NetworkDescription,
    injections: np.ndarray,
    operating_point: OperatingPoint | None = None,
    kappa_max: float = 20.0,
    steps: int = DEFAULT_STEPS,
    *,
    run_fixed_point: bool = True,
    fp_tol: float = 1e-9,
    fp_max_iter: int = 100,
) -> SweepResult:
    """Sweep all condition sets along the ray defined by ``injections``.

    ``injections`` is the per-unit profile whose direction is scaled;
    with an operating point, which must solve the load-flow equations
    (`certificate.check_operating_point`), the state-aware conditions
    are evaluated against its (v_hat, s_hat) at every grid point.
    Every argument is checked before any set-up, ``fp_tol`` and
    ``fp_max_iter`` also when ``run_fixed_point`` is False.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    if not (math.isfinite(kappa_max) and kappa_max > 0):
        raise ValueError(f"kappa_max must be finite and positive, got {kappa_max}")
    if not (math.isfinite(fp_tol) and fp_tol > 0):
        raise ValueError(f"fp_tol must be finite and positive, got {fp_tol}")
    if fp_max_iter < 1:
        raise ValueError(f"fp_max_iter must be at least 1, got {fp_max_iter}")
    injections = np.asarray(injections, dtype=complex)
    total = float(np.sum(np.abs(injections)))
    if total == 0:
        raise ValueError("injection profile is identically zero; no ray")
    direction = injections / total
    base = net.power_base

    grid = prepare_grid(net)
    if operating_point is not None:
        cert.check_operating_point(grid.system, operating_point.v, operating_point.s)
    kernel = grid.kernel
    kappa_grid = np.linspace(0.0, kappa_max, steps)

    def s_at(kappa: float) -> np.ndarray:
        return (kappa / base) * direction

    # s_at is linear in kappa, so the limits along s_at(1) are in MVA
    limits = cert.loading_limits(kernel, s_at(1.0))

    theorem_mask = None
    theorem_interval = None
    kappa_hat = None
    if operating_point is not None:
        s_hat = operating_point.s
        xi_s_hat = cert.xi(kernel, s_hat)
        u_min_val = u_min_of(operating_point.v, grid.w)
        kappa_hat = float(np.sum(np.abs(s_hat))) * base

        def passes(xi_delta: float) -> bool:
            return cert.theorem_conditions(xi_delta_s=xi_delta,
                                           xi_s_hat=xi_s_hat,
                                           u_min=u_min_val)[0]

        def theorem_at(kappa: float) -> bool:
            return passes(cert.xi(kernel, s_at(kappa) - s_hat))

        # the grid's xi(s - s_hat) in blocks of columns, each bit for bit
        # its own xi call
        width = max(1, BLOCK_ENTRIES // kernel.n)
        theorem_mask = np.array([
            passes(xi_delta)
            for start in range(0, steps, width)
            for xi_delta in cert._xi_block(
                kernel, [s_at(k) - s_hat for k in kappa_grid[start:start + width]])
        ])
        theorem_interval = _theorem_interval(theorem_at, kappa_hat, kappa_max)

    fp_converged = None
    if run_fixed_point:
        fp_converged = converges(grid.factors, grid.w,
                                 (s_at(kappa) for kappa in kappa_grid),
                                 tol=fp_tol, max_iter=fp_max_iter)

    def boundary(limit: float) -> float | None:
        return limit if limit <= kappa_max else None

    return SweepResult(
        kappa_grid=kappa_grid,
        direction=direction,
        theorem_mask=theorem_mask,
        corollary_mask=kappa_grid < limits.corollary,
        improved_mask=kappa_grid < limits.improved,
        prior_mask=kappa_grid < limits.prior,
        fp_converged=fp_converged,
        kappa_hat=kappa_hat,
        theorem_interval=theorem_interval,
        corollary_boundary=boundary(limits.corollary),
        improved_boundary=boundary(limits.improved),
        prior_boundary=boundary(limits.prior),
    )


def _theorem_interval(passes, kappa_hat, kappa_max):
    """Feasible interval around kappa_hat, clipped to [0, kappa_max].

    Each end that falls inside the range is bisected until its bracket is no
    wider than THEOREM_RTOL * kappa_max, and the bracket's passing side
    is returned, so every reported end passes the condition itself.
    """
    anchor = min(kappa_hat, kappa_max)
    if not passes(anchor):
        return None
    tol = THEOREM_RTOL * kappa_max

    def end(outer: float) -> float:
        if passes(outer):
            return outer
        inner = anchor
        while abs(outer - inner) > tol:
            mid = 0.5 * (inner + outer)
            if passes(mid):
                inner = mid
            else:
                outer = mid
        return inner

    return (end(0.0), end(kappa_max))


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
