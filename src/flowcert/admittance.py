"""Nodal admittance assembly.

The full matrix is stamped branch by branch.  A line of admittance y
between i and j contributes the block [[y, -y], [-y, y]].  A transformer
with primary-side admittance y and complex ratio K contributes
[[y, -y/K], [-y/conj(K), y/|K|^2]].  A line is the K = 1 case, for
which each quotient is exact up to the sign of a zero (see below), so
every branch stamps through these four expressions, each one numpy
array operation over the columns the network holds
(`network.NetworkArrays`).  Shunts add onto the diagonal.  The
load-only submatrix plus the slack coupling column are what every
solver downstream consumes.

Canonical order and sequential sum: a cell that receives several stamps
(parallel branches, both ends of branches meeting at a bus, shunts on a
branch diagonal) sums them in increasing (real, imag) order of the
stamped values, one at a time from zero, left to right.  Two stable
sorts order every stamp by (column, row, real, imag): one of the complex
values, which numpy orders by (real, imag), then one of the cell key,
column and row as one integer.  An unbuffered ``np.add.at`` adds each
cell's stamps in that order.  Stamps that compare equal are equal up
to the sign of a zero, which a sum started at +0 does not see, so every
cell, and with it the matrix, is bitwise the same for any order of the
branch and bus lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .network import NetworkDescription


@dataclass(frozen=True)
class AdmittanceSystem:
    """Partitioned admittance: load-only block plus slack coupling.

    ``y_ll`` is the n x n load-bus submatrix (CSC), ``y_l0`` the column
    coupling load buses to the slack, ``slack_voltage`` the fixed slack
    phasor v0.
    """

    y_ll: sparse.csc_matrix
    y_l0: np.ndarray
    slack_voltage: complex
    n: int


def _stamps(net: NetworkDescription):
    """Every stamp of ``net`` as (rows, cols, values) arrays."""
    arrays = net.arrays
    i, j, y, k = arrays.from_pos, arrays.to_pos, arrays.admittance, arrays.ratio
    shunted = np.flatnonzero(arrays.shunt != 0)
    rows = np.concatenate([i, i, j, j, shunted])
    cols = np.concatenate([i, j, i, j, shunted])
    values = np.concatenate(
        [y, -y / k, -y / np.conj(k), y / np.abs(k) ** 2, arrays.shunt[shunted]])
    return rows, cols, values


def _cells(net: NetworkDescription):
    """The matrix's non-empty cells in column-major order, as (rows,
    cols, values), each value the canonical sum of the cell's stamps."""
    rows, cols, values = _stamps(net)
    cell = cols * (net.n + 1) + rows
    order = np.argsort(values, kind="stable")  # numpy orders complex by (real, imag)
    order = order[np.argsort(cell[order], kind="stable")]
    cell, values = cell[order], values[order]
    first = np.ones(cell.size, dtype=bool)
    first[1:] = cell[1:] != cell[:-1]
    sums = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(sums, np.cumsum(first) - 1, values)
    return rows[order][first], cols[order][first], sums


def _csc(rows, cols, values, size: int) -> sparse.csc_matrix:
    """CSC matrix of distinct cells given in column-major order."""
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=size), out=indptr[1:])
    return sparse.csc_matrix((values, rows, indptr), shape=(size, size))


def full_admittance(net: NetworkDescription) -> sparse.csc_matrix:
    """Assemble the complete (n+1) x (n+1) matrix, slack at index 0.

    Duplicate stamps are summed in the canonical order of the module
    docstring, so permuting the branch list yields a bitwise-identical
    matrix.
    """
    return _csc(*_cells(net), net.n + 1)


def build_admittance(net: NetworkDescription) -> AdmittanceSystem:
    """Assemble and partition the admittance matrix for ``net``, with the
    slack at 1 p.u."""
    rows, cols, values = _cells(net)
    load = (rows > 0) & (cols > 0)
    y_ll = _csc(rows[load] - 1, cols[load] - 1, values[load], net.n)
    y_l0 = np.zeros(net.n, dtype=complex)
    coupling = (cols == 0) & (rows > 0)
    y_l0[rows[coupling] - 1] = values[coupling]
    return AdmittanceSystem(y_ll=y_ll, y_l0=y_l0, slack_voltage=1 + 0j, n=net.n)
