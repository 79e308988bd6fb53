"""Existence/uniqueness certificates for the load-flow solution.

Everything here is driven by one scalar functional of the injection
vector: the loading measure

    xi(s) = max_i  sum_j |K_ij| |s_j|,

where K is the normalized inverse-admittance kernel
diag(1/w) @ y_ll^-1 @ diag(1/conj(w)).  Two certificate families are
evaluated on top of it, both by the one formula `theorem_conditions`:

* the state-aware check, which takes a known operating point
  (v_hat, s_hat) and a candidate injection s and requires
  xi(s_hat) < u_min^2 together with a positive discriminant
  delta = (u_min - xi(s_hat)/u_min)^2 - 4 xi(s - s_hat); on success the
  unique solution lies within rho |w_i| of v_hat per coordinate, with
  rho = ((u_min - xi(s_hat)/u_min) - sqrt(delta)) / 2, and the plain
  fixed-point iteration converges to it from anywhere in that ball.
  The check is a proof only when (v_hat, s_hat) solves the load-flow
  equations, so `certify` always verifies the pair first;

* the state-free check, the same theorem at the zero-load point
  v_hat = w, s_hat = 0, u_min = 1: delta = 1 - 4 xi(s), so it holds
  exactly when xi(s) < 1/4, with rho = (1 - sqrt(1 - 4 xi(s))) / 2.

For comparison, two earlier sufficient conditions are evaluated as
well: the row-norm product test ||K||_p^* ||s||_q < 1/4 over Hoelder
pairs (p, q), and its column-scaled refinement with the diagonal
weights lambda_k = 1 / max_h |K_hk|.  Both imply xi(s) < 1/4, never the
converse, which the sweep module turns into nested feasibility
intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .admittance import AdmittanceSystem
from .errors import InvalidNetworkError
from .newton import power_mismatch
from .sparse_lu import LuFactors, solve
from .zero_load import ZeroLoadProfile, u_min as u_min_of

KERNEL_SIZE_CAP = 5000  # the kernel is dense; refuse O(n^2) blowups beyond this
CONTAINMENT_SLACK = 1e-9
MISMATCH_TOL = 1e-6  # p.u. power mismatch allowed of a supplied operating point
# The theorem's bound on xi(s - s_hat) at the zero-load point,
# (u_min - xi(s_hat)/u_min)^2 / 4 with u_min = 1 and s_hat = 0: the prior
# conditions and the loading limits compare their loading measures with it.
LOADING_THRESHOLD = 0.25
# Hoelder pairs (p, q) of the prior conditions: the kernel caches row
# p-norms for exactly these p, each met by the q-norm of s.
CONJUGATE_EXPONENT = {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}


@dataclass(frozen=True)
class KernelMatrix:
    """Dense |K| plus every kernel quantity that does not depend on s.

    ``abs_k`` holds |K_ij| and is reused by every xi evaluation (one real
    matvec each).  ``lam`` holds the canonical column weights
    lambda_j = 1 / max_h |K_hj|.  ``row_norm[p]`` and
    ``weighted_row_norm[p]`` are the max row p-norms of |K| and of
    |K| diag(lambda) for each p of CONJUGATE_EXPONENT; a complex row and its
    magnitudes have the same p-norm, so they are those of K and of
    K diag(lambda) as well.  ``system`` is the admittance system the
    kernel was built from, on which `certify` checks operating points.
    """

    system: AdmittanceSystem
    abs_k: np.ndarray
    lam: np.ndarray
    row_norm: dict[float, float]
    weighted_row_norm: dict[float, float]

    @property
    def n(self) -> int:
        return self.abs_k.shape[0]


@dataclass(frozen=True)
class PriorConditionEntry:
    """Result of both earlier sufficient conditions at one Hoelder pair."""

    p: float
    product: float
    ok: bool
    weighted_product: float
    weighted_ok: bool


@dataclass(frozen=True)
class CertificateReport:
    """Scalar certificate summary; fields are None when not evaluated.

    ``rho`` is the certified per-unit ball radius of whichever condition
    set was evaluated (the state-aware one when both were), present only
    on a pass.
    """

    xi_s: float
    xi_s_hat: float | None = None
    xi_delta_s: float | None = None
    u_min: float | None = None
    delta: float | None = None
    rho: float | None = None
    theorem_ok: bool | None = None
    corollary_ok: bool | None = None
    bolognani_ok: bool | None = None
    improved_ok: bool | None = None
    bolognani_detail: tuple[PriorConditionEntry, ...] | None = None


@dataclass(frozen=True)
class SolutionBall:
    """Per-coordinate ball |v_i - center_i| <= radii_i around a solution."""

    center: np.ndarray
    radii: np.ndarray
    rho: float

    def contains(self, v: np.ndarray) -> bool:
        return bool(
            np.all(np.abs(np.asarray(v, dtype=complex) - self.center)
                   <= self.radii + CONTAINMENT_SLACK)
        )


def build_kernel(
    system: AdmittanceSystem, factors: LuFactors, w: ZeroLoadProfile
) -> KernelMatrix:
    """Materialize |K| for K = diag(1/w) y_ll^-1 diag(1/conj(w)).

    Column j of y_ll^-1 comes from one sparse solve against the j-th unit
    vector and is kept only as its magnitudes, so the complex inverse is
    never held.  The column weights and the max row p-norms are computed
    here once, and ``system`` (which ``factors`` factorize) is kept for
    operating-point checks.  |K| is O(n^2) memory, so networks above
    KERNEL_SIZE_CAP are refused before anything is allocated.
    """
    n = factors.n
    if n > KERNEL_SIZE_CAP:
        raise ValueError(
            f"kernel for n={n} exceeds the size cap {KERNEL_SIZE_CAP}; "
            f"the dense kernel is quadratic in memory"
        )
    abs_k_t = np.empty((n, n))  # row j holds column j of |K|
    unit = np.zeros(n, dtype=complex)
    for j in range(n):
        unit[j] = 1.0
        abs_k_t[j] = np.abs(solve(factors, unit) / w.w / np.conj(w.w[j]))
        unit[j] = 0.0
    abs_k = abs_k_t.T
    col_max = abs_k.max(axis=0)
    lam = 1.0 / col_max
    row_sq = np.einsum("ij,ij->i", abs_k, abs_k)
    weighted_row_sq = np.einsum("ij,ij,j->i", abs_k, abs_k, lam * lam)
    row_norm = {
        1.0: float(np.max(abs_k.sum(axis=1))),
        2.0: float(np.sqrt(np.max(row_sq))),
        math.inf: float(np.max(col_max)),
    }
    weighted_row_norm = {
        1.0: float(np.max(abs_k @ lam)),
        2.0: float(np.sqrt(np.max(weighted_row_sq))),
        # max_ij |K_ij| lambda_j: each column's largest entry times its weight
        math.inf: float(np.max(col_max * lam)),
    }
    return KernelMatrix(system=system, abs_k=abs_k, lam=lam, row_norm=row_norm,
                        weighted_row_norm=weighted_row_norm)


def xi(kernel: KernelMatrix, s: np.ndarray) -> float:
    """Loading measure: max over rows of sum_j |K_ij| |s_j|."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (kernel.n,):
        raise ValueError(f"injection has shape {s.shape}, expected ({kernel.n},)")
    return float(np.max(kernel.abs_k @ np.abs(s)))


def theorem_conditions(
    xi_s_hat: float, xi_delta_s: float, u_min: float
) -> tuple[bool, float, float | None]:
    """Evaluate the state-aware conditions from their three scalars.

    Returns (ok, delta, rho); both inequalities are strict, and rho is
    None unless both hold.
    """
    delta = (u_min - xi_s_hat / u_min) ** 2 - 4.0 * xi_delta_s
    ok = xi_s_hat < u_min**2 and delta > 0.0
    if not ok:
        return False, delta, None
    rho = ((u_min - xi_s_hat / u_min) - math.sqrt(delta)) / 2.0
    return True, delta, rho


@dataclass(frozen=True)
class PriorConditions:
    """Any-p verdicts plus the per-p detail for both earlier conditions."""

    bolognani_ok: bool
    improved_ok: bool
    detail: tuple[PriorConditionEntry, ...]


def check_prior_conditions(kernel: KernelMatrix, s: np.ndarray) -> PriorConditions:
    """Evaluate the two earlier sufficient conditions at p = 1, 2 and inf.

    The plain test is ||K||_p^* ||s||_q < 1/4 with ||A||_p^* the max row
    p-norm; the refined test additionally allows any real diagonal
    column scaling, checked here at the canonical weights
    lambda_k = 1 / max_h |K_hk|.  Because the refinement is existential
    in the weights, the unscaled test (identity weights) is itself a
    witness: ``improved_ok`` holds when either the weighted or the plain
    product passes for some p, which keeps the refined condition a
    superset of the plain one by construction.

    O(n) per call: the row norms and the weights come cached in ``kernel``.
    """
    abs_s = np.abs(np.asarray(s, dtype=complex))
    scaled_s = abs_s / kernel.lam
    entries = []
    for p, q in CONJUGATE_EXPONENT.items():
        product = kernel.row_norm[p] * float(np.linalg.norm(abs_s, ord=q))
        weighted = kernel.weighted_row_norm[p] * float(
            np.linalg.norm(scaled_s, ord=q)
        )
        entries.append(
            PriorConditionEntry(
                p=float(p),
                product=product,
                ok=product < LOADING_THRESHOLD,
                weighted_product=weighted,
                weighted_ok=weighted < LOADING_THRESHOLD,
            )
        )
    bolognani_ok = any(e.ok for e in entries)
    return PriorConditions(
        bolognani_ok=bolognani_ok,
        improved_ok=bolognani_ok or any(e.weighted_ok for e in entries),
        detail=tuple(entries),
    )


@dataclass(frozen=True)
class LoadingLimits:
    """Scales t at which each state-free condition stops holding on t * d.

    A condition holds for 0 <= t < its limit; the limit is inf when the
    direction carries no load.
    """

    corollary: float
    prior: float
    improved: float


def loading_limits(kernel: KernelMatrix, direction: np.ndarray) -> LoadingLimits:
    """Closed-form loading limits of the state-free conditions along a ray.

    Every state-free condition compares an absolutely homogeneous measure
    g of s with LOADING_THRESHOLD, so on s = t * d it holds for
    t < LOADING_THRESHOLD / g(d): g is xi for the corollary, the best
    plain row-norm product for the prior condition, and the best plain or
    weighted product for the improved one.
    """
    priors = check_prior_conditions(kernel, direction)
    plain = min(e.product for e in priors.detail)
    weighted = min(e.weighted_product for e in priors.detail)

    def limit(g: float) -> float:
        return LOADING_THRESHOLD / g if g > 0.0 else math.inf

    return LoadingLimits(
        corollary=limit(xi(kernel, direction)),
        prior=limit(plain),
        improved=limit(min(plain, weighted)),
    )


def check_operating_point(
    system: AdmittanceSystem, v_hat: np.ndarray, s_hat: np.ndarray
) -> None:
    """Reject an operating pair that does not solve the load-flow equations.

    Raises InvalidNetworkError when the largest power mismatch of
    (v_hat, s_hat) on ``system`` exceeds MISMATCH_TOL (a stale state
    estimate, or one taken on another network).
    """
    mismatch = float(np.max(np.abs(power_mismatch(system, v_hat, s_hat))))
    if mismatch > MISMATCH_TOL:
        raise InvalidNetworkError(
            f"operating point does not solve the load-flow equations "
            f"(power mismatch {mismatch:.3e} p.u. exceeds {MISMATCH_TOL:g})"
        )


def certify(
    kernel: KernelMatrix,
    s: np.ndarray,
    *,
    w: ZeroLoadProfile | None = None,
    v_hat: np.ndarray | None = None,
    s_hat: np.ndarray | None = None,
) -> CertificateReport:
    """Run every applicable condition set and merge into one report.

    The state-free verdict is always evaluated.  An operating point needs
    all of ``w``, ``v_hat`` and ``s_hat``; the pair is verified on
    ``kernel.system`` with `check_operating_point` before the state-aware
    conditions are evaluated.  ``rho`` in the merged report comes from
    the state-aware set when evaluated, else from the state-free one.
    """
    given = [x is not None for x in (w, v_hat, s_hat)]
    if any(given) and not all(given):
        raise ValueError("an operating point needs all of w, v_hat and s_hat")
    xi_s = xi(kernel, s)
    ok, _, rho = theorem_conditions(0.0, xi_s, 1.0)
    report = CertificateReport(xi_s=xi_s, corollary_ok=ok, rho=rho)
    if all(given):
        check_operating_point(kernel.system, v_hat, s_hat)
        u_min = u_min_of(v_hat, w)
        xi_s_hat = xi(kernel, s_hat)
        xi_delta_s = xi(kernel, np.asarray(s) - np.asarray(s_hat))
        ok, delta, rho = theorem_conditions(xi_s_hat, xi_delta_s, u_min)
        report = replace(report, xi_s_hat=xi_s_hat, xi_delta_s=xi_delta_s,
                         u_min=u_min, delta=delta, rho=rho, theorem_ok=ok)
    priors = check_prior_conditions(kernel, s)
    return replace(
        report,
        bolognani_ok=priors.bolognani_ok,
        improved_ok=priors.improved_ok,
        bolognani_detail=priors.detail,
    )


def solution_ball(
    report: CertificateReport, v_hat: np.ndarray, w: ZeroLoadProfile
) -> SolutionBall:
    """Certified containment ball around ``v_hat``.

    Only meaningful for a passing report; raises ValueError otherwise.
    """
    if report.rho is None:
        raise ValueError("solution ball requested for a failed certificate")
    return SolutionBall(
        center=np.asarray(v_hat, dtype=complex).copy(),
        radii=report.rho * np.abs(w.w),
        rho=report.rho,
    )
