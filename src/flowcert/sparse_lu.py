"""Sparse complex LU factorization: a thin layer over SciPy's SuperLU.

`factorize` factors a square matrix once with `scipy.sparse.linalg.splu`
in symmetric mode: a minimum-degree ordering of A^T + A applied to rows
and columns alike (``MMD_AT_PLUS_A``) and diagonal pivots
(``diag_pivot_thresh=0``), so that a tree-patterned matrix factors with
no fill at all.  `solve` reuses the factors for any number of right-hand
sides, one at a time or as the columns of one block, and never modifies
them.

Tree factor structure: when the load-bus graph of y_ll is a forest
(meshed through the slack at most), the factors have no fill,
``perm_r == perm_c``, and column k of L and row k of U each hold at
most one off-diagonal entry, at the position of k's parent in the
elimination forest, which is the network's own forest rooted where
elimination ends.  `certificate.build_kernel` tests exactly this
structure and reads its tree kernel from these entries.

Precondition: the Hermitian part (A + A^H) / 2 is positive definite.
Every load-bus block ``y_ll`` that `build_admittance` assembles from a
network `build_network` accepts has this property: each branch adds
Re(y) u u^H with u = [1, -1/conj(ratio)] and Re(y) > 0, shunts add
non-negative conductance, and the connection of every bus to the slack
makes the sum definite.  LU without pivoting then meets no zero pivot
and its growth stays bounded (Golub & Van Loan, "Unsymmetric positive
definite linear systems", Linear Algebra Appl. 1979).  Without it a
diagonal pivot can cancel to nearly zero, and PIVOT_FLOOR then rejects
a well-conditioned matrix that partial pivoting would have factored
(SuperLU swaps rows only where a diagonal pivot is exactly zero).

SuperLU reports an exactly singular factor with a RuntimeError, which is
raised here as SingularMatrixError; so is a factor whose smallest pivot
magnitude is below PIVOT_FLOOR (numerically singular despite a sound
structure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from .errors import SingularMatrixError

PIVOT_FLOOR = 1e-13  # pivots below this signal numerical singularity
# Entries (n times columns) of a block of right-hand sides that one
# caller, or each of the sweep's block loops, holds at once; the budget
# is per loop, and `block_width` turns it into columns.  Sized on the
# benchmark's sweeps (2-vCPU x86-64 VM, each figure a best of 20 whole
# sweeps): on its 300-bus meshed grid, with two loops, 16384 entries (54
# columns) took 40.4 ms against 41.5 ms at 8192 and 49.6 ms at 32768,
# where the 128 points no longer make two full blocks and one loop runs
# them (medians of four alternated rounds in one process).  Loops
# overlap only in wide blocks, which is why fixed_point.converges starts
# one only per full block: the meshed sweep's 54-column blocks took 45.7
# ms in two loops against 52.5 ms in one (medians of four alternated
# processes), while in 4-column blocks (a budget of 4000) the 8-point
# ray of its 1000-bus feeder took 16.0 ms in two loops against 10.0 ms
# in one (best of 25 alternated runs).
BLOCK_ENTRIES = 16384


@dataclass(frozen=True)
class LuFactors:
    """SuperLU factors of one n x n matrix A.

    ``fill_in_count`` is the number of entries of L and U beyond those of
    A, counting the diagonal once: L.nnz + U.nnz - n - nnz(A).
    """

    n: int
    fill_in_count: int
    lu: SuperLU


def factorize(y_ll) -> LuFactors:
    """Factor a square sparse (or dense) complex matrix in symmetric mode.

    Raises SingularMatrixError when the matrix is exactly singular or its
    smallest pivot is below PIVOT_FLOOR in magnitude.
    """
    a = sparse.csc_matrix(y_ll, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    smallest = float(np.min(np.abs(lu.U.diagonal())))
    if smallest < PIVOT_FLOOR:
        raise SingularMatrixError(
            f"smallest pivot {smallest:.3e} is below {PIVOT_FLOOR:g} "
            f"(matrix is numerically singular)"
        )
    fill_in = lu.L.nnz + lu.U.nnz - n - a.count_nonzero()
    return LuFactors(n=n, fill_in_count=int(fill_in), lu=lu)


def block_width(n: int) -> int:
    """The columns of a block of right-hand sides with n entries each."""
    return max(1, BLOCK_ENTRIES // n)


def solve(factors: LuFactors, rhs) -> np.ndarray:
    """Solve A x = rhs using the stored factors.

    ``rhs`` is (n,), or (n, k) for k right-hand sides solved in one call;
    each column of the solution is bit for bit the solve of that column
    alone.
    """
    b = np.asarray(rhs, dtype=complex)
    if b.ndim not in (1, 2) or b.shape[0] != factors.n:
        raise ValueError(f"rhs has shape {b.shape}, expected ({factors.n},) "
                         f"or ({factors.n}, k)")
    return factors.lu.solve(b)
