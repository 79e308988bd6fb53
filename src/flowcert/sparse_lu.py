"""Sparse complex LU factorization: a thin layer over SciPy's SuperLU.

`factorize` factors a square matrix once with `scipy.sparse.linalg.splu`
at SciPy's default settings: supernodal LU with partial pivoting and a
COLAMD column ordering (Demmel et al., "A supernodal approach to sparse
partial pivoting", SIMAX 1999).  `solve` and `solve_many` reuse the
factors for any number of right-hand sides and never modify them.

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
    """Factor a square sparse (or dense) complex matrix.

    Raises SingularMatrixError when the matrix is exactly singular or its
    smallest pivot is below PIVOT_FLOOR in magnitude.
    """
    a = sparse.csc_matrix(y_ll, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    try:
        lu = splu(a)
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


def solve(factors: LuFactors, rhs) -> np.ndarray:
    """Solve A x = rhs using the stored factors."""
    b = np.asarray(rhs, dtype=complex)
    if b.shape != (factors.n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({factors.n},)")
    return factors.lu.solve(b)


def solve_many(factors: LuFactors, rhs_columns) -> np.ndarray:
    """Columnwise solve; accepts an (n, m) array and returns the same shape."""
    b = np.asarray(rhs_columns, dtype=complex)
    if b.ndim != 2 or b.shape[0] != factors.n:
        raise ValueError(f"rhs has shape {b.shape}, expected ({factors.n}, m)")
    out = np.empty_like(b)
    for m in range(b.shape[1]):
        out[:, m] = solve(factors, b[:, m])
    return out
