"""Nodal admittance assembly.

The full matrix is stamped branch by branch.  A line of admittance y
between i and j contributes the block [[y, -y], [-y, y]].  A transformer
with primary-side admittance y and complex ratio K contributes
[[y, -y/K], [-y/conj(K), y/|K|^2]]; a line is exactly the K = 1 case, so
one stamping path covers both.  Shunts add onto the diagonal.  The
load-only submatrix plus the slack coupling column are what every solver
downstream consumes.
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


def _stamp_triplets(net: NetworkDescription):
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []

    def put(i: int, j: int, value: complex) -> None:
        rows.append(i)
        cols.append(j)
        vals.append(value)

    for br in net.branches:
        i = net.index[br.from_bus]
        j = net.index[br.to_bus]
        y = br.admittance
        k = br.ratio
        put(i, i, y)
        put(i, j, -y / k)
        put(j, i, -y / np.conj(k))
        put(j, j, y / abs(k) ** 2)

    for bus in net.buses:
        if bus.shunt_admittance != 0:
            i = net.index[bus.id]
            put(i, i, bus.shunt_admittance)

    return rows, cols, vals


def full_admittance(net: NetworkDescription) -> sparse.csc_matrix:
    """Assemble the complete (n+1) x (n+1) matrix, slack at index 0.

    Duplicate stamps (parallel branches, shunts on branch diagonals) are
    summed in a canonical value order, so permuting the branch list
    yields a bitwise-identical matrix.
    """
    rows, cols, vals = _stamp_triplets(net)
    cells: dict[tuple[int, int], list[complex]] = {}
    for i, j, v in zip(rows, cols, vals):
        cells.setdefault((i, j), []).append(v)
    out_rows: list[int] = []
    out_cols: list[int] = []
    out_vals: list[complex] = []
    for (i, j), parts in sorted(cells.items()):
        parts.sort(key=lambda z: (z.real, z.imag))
        out_rows.append(i)
        out_cols.append(j)
        out_vals.append(sum(parts))
    size = net.n + 1
    coo = sparse.coo_matrix(
        (np.array(out_vals, dtype=complex), (out_rows, out_cols)),
        shape=(size, size),
    )
    return coo.tocsc()


def build_admittance(net: NetworkDescription) -> AdmittanceSystem:
    """Assemble and partition the admittance matrix for ``net``, with the
    slack at 1 p.u."""
    y = full_admittance(net)
    y_ll = y[1:, 1:].tocsc()
    y_l0 = np.asarray(y[1:, 0].todense()).ravel()
    return AdmittanceSystem(y_ll=y_ll, y_l0=y_l0, slack_voltage=1 + 0j, n=net.n)
