"""Zero-load voltage profile and the normalization it induces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admittance import AdmittanceSystem
from .errors import DegenerateNetworkError
from .sparse_lu import LuFactors, solve

W_FLOOR = 1e-9  # below this the diagonal scaling is numerically invertible in name only


@dataclass(frozen=True)
class ZeroLoadProfile:
    """Voltages at every load bus when all injections are zero.

    Acts as diag(w): dividing a voltage vector by ``w`` componentwise
    yields the normalized coordinates in which the contraction argument
    and all certificate quantities live.
    """

    w: np.ndarray


def compute_w(sys: AdmittanceSystem, factors: LuFactors) -> ZeroLoadProfile:
    """Solve for the unloaded profile: y_ll w = -y_l0 v0.

    Raises DegenerateNetworkError if any entry falls below W_FLOOR,
    since the profile must be invertible as a diagonal scaling.
    """
    w = solve(factors, -sys.y_l0 * sys.slack_voltage)
    small = np.abs(w) < W_FLOOR
    if small.any():
        idx = int(np.flatnonzero(small)[0])
        raise DegenerateNetworkError(
            f"zero-load voltage at load index {idx} is {abs(w[idx]):.3e} "
            f"(below {W_FLOOR:g}); the network is degenerate"
        )
    return ZeroLoadProfile(w=w)


def u_min(v_hat: np.ndarray, w: ZeroLoadProfile) -> float:
    """Smallest normalized voltage magnitude min_j |v_hat_j / w_j|."""
    return float(np.min(np.abs(np.asarray(v_hat, dtype=complex) / w.w)))
