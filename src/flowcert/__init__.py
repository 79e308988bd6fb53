"""flowcert: certified fixed-point load flow for distribution networks.

Builds the nodal admittance system of a positive-sequence network,
certifies existence and uniqueness of the load-flow solution from
explicit scalar conditions, computes the solution by contraction
fixed-point iteration (cross-checked against an independent
Newton-Raphson solver), and maps certificate feasibility intervals by
continuation sweeps.
"""

from .admittance import AdmittanceSystem, build_admittance, full_admittance
from .certificate import (
    CertificateReport,
    KernelMatrix,
    LoadingLimits,
    SolutionBall,
    build_kernel,
    certify,
    check_prior_conditions,
    loading_limits,
    solution_ball,
    theorem_conditions,
    xi,
)
from .continuation import SweepResult, sweep, sweep_table
from .errors import (
    ConvergenceError,
    DegenerateNetworkError,
    InvalidNetworkError,
    SingularMatrixError,
    VoltageCollapseError,
)
from .fixed_point import SolveResult, iterate_once, solve_fixed_point
from .network import (
    NetworkDescription,
    OperatingPoint,
    build_network,
    load_injections,
    load_network,
    load_operating_point,
    parse_injections,
    parse_network,
    parse_operating_point,
    serialize_network,
    to_per_unit,
)
from .newton import NewtonResult, power_mismatch, solve_newton
from .pipeline import PreparedGrid, prepare_grid
from .sparse_lu import LuFactors, factorize, solve
from .zero_load import ZeroLoadProfile, compute_w, u_min

__version__ = "0.1.0"
