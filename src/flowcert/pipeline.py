"""One-call assembly of the per-network solver state."""

from __future__ import annotations

from dataclasses import dataclass

from .admittance import AdmittanceSystem, build_admittance
from .certificate import KernelMatrix, build_kernel
from .network import NetworkDescription
from .sparse_lu import LuFactors, factorize
from .zero_load import ZeroLoadProfile, compute_w


@dataclass(frozen=True)
class PreparedGrid:
    """Admittance system, factors, zero-load profile and the certificate
    kernel for one network (a tree kernel on a forest of load buses, else
    dense |K|)."""

    net: NetworkDescription
    system: AdmittanceSystem
    factors: LuFactors
    w: ZeroLoadProfile
    kernel: KernelMatrix


def prepare_grid(net: NetworkDescription) -> PreparedGrid:
    """Build everything downstream solvers need, factorizing once."""
    system = build_admittance(net)
    factors = factorize(system.y_ll)
    w = compute_w(system, factors)
    kernel = build_kernel(system, factors, w)
    return PreparedGrid(net=net, system=system, factors=factors, w=w, kernel=kernel)
