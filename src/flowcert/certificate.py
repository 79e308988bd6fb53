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

The kernel has two implementations behind one interface, and
`build_kernel` picks one from what the factors of y_ll show; there is
no switch.

* `DenseKernel` holds |K| itself, solved for in blocks of columns: O(n^2)
  memory, refused beyond KERNEL_SIZE_CAP.  Any network may take it.

* `TreeKernel` is taken exactly when the load-bus graph is a forest
  (meshed through the slack only, parallel branches allowed), which the
  factors show without a graph search: rows and columns share one
  permutation and every column of L, and every row of U, holds at most
  one off-diagonal entry, at the elimination-forest parent.  K then
  factors through every bus a on the tree path from i to j,
  K_ij K_aa = K_ia K_aj (the separator property of inverses of
  tree-patterned matrices; Y need not be symmetric), and K_ij = 0
  across trees.  Rooting each tree where elimination ends, |K_ij| is
  the product of |K_aa| at the lowest common ancestor a with the edge
  ratios a_c = |K_c,p| / |K_pp| on the path up from i and
  b_c = |K_p,c| / |K_pp| on the path up from j.  Selected inversion
  (Takahashi, Fagan & Chen, PICA 1973) reads every ratio straight from
  the factors, a_c = |U_cp / U_cc| |w_p / w_c| and
  b_c = |L_pc| |w_p / w_c|, and gets |K_cc| from one recurrence down
  the forest.  The row sums |K| t then take an up pass (sums over
  subtrees) and a down pass (sums over everything outside a subtree);
  the outside sums are built from sibling prefix and suffix sums, never
  as a subtree sum subtracted from a total, so every row sum is a
  rounded sum of non-negative terms, as the dense matvec is.  The passes
  solve for 2n unknowns, the up sums and the down sums, with a real
  unit-triangular operator that factors with no fill: one sparse matvec
  spreads t into their right-hand side, one forward substitution solves
  for them, and a second matvec gathers the row sums from t and them.
  All three add non-negative terms only, and each xi costs O(n).
  The same passes on squared ratios give the row 2-norms, and a (max, x)
  pass the column maxima behind lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from .admittance import AdmittanceSystem
from .errors import InvalidNetworkError
from .newton import power_mismatch
from .sparse_lu import BLOCK_ENTRIES, LuFactors, solve
from .zero_load import ZeroLoadProfile, u_min as u_min_of

# |K| is n x n: the dense kernel, and abs_k read from a tree kernel, refuse
# O(n^2) blowups beyond this.  The tree kernel itself is O(n) and uncapped.
KERNEL_SIZE_CAP = 5000
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
    """Every kernel quantity that does not depend on s, and |K| t for any t.

    ``lam`` holds the canonical column weights
    lambda_j = 1 / max_h |K_hj|.  ``row_norm[p]`` and
    ``weighted_row_norm[p]`` are the max row p-norms of |K| and of
    |K| diag(lambda) for each p of CONJUGATE_EXPONENT; a complex row and its
    magnitudes have the same p-norm, so they are those of K and of
    K diag(lambda) as well.  ``system`` is the admittance system the
    kernel was built from, on which `certify` checks operating points.

    Each implementation gives ``row_sums(t)``, the vector |K| t for a
    non-negative t (bus order), whose largest entry is xi; ``abs_k``,
    |K| itself; and ``path``, "dense" or "tree".  ``row_sums`` also takes
    an (n, k) block and gives, column for column, bit for bit what it
    gives each column alone.
    """

    system: AdmittanceSystem
    lam: np.ndarray
    row_norm: dict[float, float]
    weighted_row_norm: dict[float, float]

    @property
    def n(self) -> int:
        return self.system.n


@dataclass(frozen=True)
class DenseKernel(KernelMatrix):
    """|K| held in full: each row sum is one real matvec."""

    abs_k: np.ndarray
    path: ClassVar[str] = "dense"

    def row_sums(self, t: np.ndarray) -> np.ndarray:
        if t.ndim == 1:
            return self.abs_k @ t
        # One matvec per column: a matrix product (gemm) rounds differently.
        return np.column_stack([self.abs_k @ col for col in np.ascontiguousarray(t.T)])


@dataclass(frozen=True)
class TreePasses:
    """The up and down passes of a forest: one solve between two matvecs.

    ``spread`` (2n x n) gives the right-hand side of the S and Y unknowns
    of `_pass_coupling` from t, ``lu`` is the SuperLU factor of I - C
    over those unknowns alone, and ``gather`` (n x 3n) gives the row sums
    R from (t, S, Y).  Both matrices hold non-negative entries only, in
    canonical CSR form, so each row of a matvec adds its terms in the
    order of their unknowns.
    """

    spread: sparse.csr_matrix
    lu: SuperLU
    gather: sparse.csr_matrix

    def row_sums(self, t: np.ndarray) -> np.ndarray:
        """R for t (bus order, one column per column of t)."""
        return self.gather @ np.concatenate([t, self.lu.solve(self.spread @ t)])


@dataclass(frozen=True)
class TreeKernel(KernelMatrix):
    """|K| of a forest, never held: each row sum is one `TreePasses` sweep.

    ``abs_k`` rebuilds |K| from ``factors`` and ``w`` one column solve at
    a time, for checks only: O(n^2) time and memory, refused beyond
    KERNEL_SIZE_CAP.
    """

    factors: LuFactors
    w: ZeroLoadProfile
    passes: TreePasses
    path: ClassVar[str] = "tree"

    def row_sums(self, t: np.ndarray) -> np.ndarray:
        return self.passes.row_sums(t)

    @property
    def abs_k(self) -> np.ndarray:
        return _abs_kernel(self.factors, self.w)


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
    on a pass.  ``kernel`` names the kernel implementation that computed
    xi, "tree" or "dense".
    """

    xi_s: float
    kernel: str | None = None
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
    """The kernel of K = diag(1/w) y_ll^-1 diag(1/conj(w)).

    ``factors`` factorize ``system.y_ll``.  A `TreeKernel` when the
    factors show a forest (see the module docstring), else a
    `DenseKernel`.  ``system`` is kept for operating-point checks.
    """
    forest = _elimination_forest(factors)
    if forest is None:
        return _dense_kernel(system, factors, w)
    return _tree_kernel(system, factors, w, forest)


def _abs_kernel(factors: LuFactors, w: ZeroLoadProfile) -> np.ndarray:
    """|K| by column blocks: columns of y_ll^-1 come from one sparse
    solve against a block of unit vectors of at most BLOCK_ENTRIES
    entries and are kept only as their magnitudes, so the complex inverse
    is never held.  SuperLU solves each column of a block bit for bit as
    alone, so every entry is that of its column's own solve.  |K| is
    O(n^2) memory, so networks above KERNEL_SIZE_CAP are refused before
    anything is allocated.
    """
    n = factors.n
    if n > KERNEL_SIZE_CAP:
        raise ValueError(
            f"kernel for n={n} exceeds the size cap {KERNEL_SIZE_CAP}; "
            f"the dense kernel is quadratic in memory"
        )
    width = max(1, BLOCK_ENTRIES // n)
    abs_k_t = np.empty((n, n))  # row j holds column j of |K|
    units = np.zeros((n, width), dtype=complex)
    for start in range(0, n, width):
        stop = min(start + width, n)
        ones = (np.arange(start, stop), np.arange(stop - start))
        units[ones] = 1.0
        k_cols = solve(factors, units[:, :stop - start])
        units[ones] = 0.0
        # in place, and freed before the next solve: the peak holds one
        # block of temporaries beside |K|
        k_cols /= w.w[:, None]
        k_cols /= np.conj(w.w[start:stop])
        np.abs(k_cols.T, out=abs_k_t[start:stop])
        del k_cols
    return abs_k_t.T


def _row_norms(col_max, lam, plain, weighted):
    """Max row p-norm tables from the column maxima of |K| and, for |K|
    and for |K| diag(lambda), the row sums of the matrix and of its
    entrywise square."""
    (plain_sum, plain_sq), (weighted_sum, weighted_sq) = plain, weighted
    row_norm = {
        1.0: float(np.max(plain_sum)),
        2.0: float(np.sqrt(np.max(plain_sq))),
        math.inf: float(np.max(col_max)),
    }
    weighted_row_norm = {
        1.0: float(np.max(weighted_sum)),
        2.0: float(np.sqrt(np.max(weighted_sq))),
        # max_ij |K_ij| lambda_j: each column's largest entry times its weight
        math.inf: float(np.max(col_max * lam)),
    }
    return row_norm, weighted_row_norm


def _dense_kernel(
    system: AdmittanceSystem, factors: LuFactors, w: ZeroLoadProfile
) -> DenseKernel:
    abs_k = _abs_kernel(factors, w)
    col_max = abs_k.max(axis=0)
    lam = 1.0 / col_max
    row_norm, weighted_row_norm = _row_norms(
        col_max, lam,
        (abs_k.sum(axis=1), np.einsum("ij,ij->i", abs_k, abs_k)),
        (abs_k @ lam, np.einsum("ij,ij,j->i", abs_k, abs_k, lam * lam)),
    )
    return DenseKernel(system=system, lam=lam, row_norm=row_norm,
                       weighted_row_norm=weighted_row_norm, abs_k=abs_k)


def _elimination_forest(factors: LuFactors):
    """The forest the factors show, or None when they show none.

    Returns (parent, l_edge, u_edge, pivot) indexed by elimination
    position: parent[k] is -1 at a root, l_edge[k] = L[parent, k] and
    u_edge[k] = U[k, parent] (0 where absent), pivot the diagonal of U.
    None unless rows and columns share one permutation and each column
    of L and each row of U holds at most one off-diagonal entry, at the
    same parent; then y_ll's load-bus graph is a forest and the
    elimination forest is that graph, rooted where elimination ends.
    A forest factors with no fill, so factors with fill are refused
    before L and U are copied out of SuperLU.
    """
    lu = factors.lu
    n = factors.n
    if factors.fill_in_count or not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    lower, upper = lu.L.tocoo(), lu.U.tocoo()
    below = lower.row > lower.col
    above = upper.col > upper.row
    l_child, u_child = lower.col[below], upper.row[above]
    if np.unique(l_child).size < l_child.size or np.unique(u_child).size < u_child.size:
        return None
    l_parent = np.full(n, -1)
    l_parent[l_child] = lower.row[below]
    u_parent = np.full(n, -1)
    u_parent[u_child] = upper.col[above]
    if np.any((l_parent >= 0) & (u_parent >= 0) & (l_parent != u_parent)):
        return None
    l_edge = np.zeros(n, dtype=complex)
    l_edge[l_child] = lower.data[below]
    u_edge = np.zeros(n, dtype=complex)
    u_edge[u_child] = upper.data[above]
    return np.maximum(l_parent, u_parent), l_edge, u_edge, lu.U.diagonal()


def _unit_triangular(rows, cols, coefs, n: int) -> SuperLU:
    """SuperLU of I - C for the strictly triangular n x n C with the
    entries (rows, cols, coefs), kept in its own order.

    Diagonal pivots on a triangular matrix factor it with no fill: one
    factor is the matrix, the other the identity, so a solve is one
    substitution sweep over its entries.  Single-column supernodes
    (``relax=1``, ``panel_size=1``) halve the factorization time; there is
    nothing to merge.
    """
    diagonal = np.arange(n)
    matrix = sparse.csc_matrix(
        (np.concatenate([np.ones(n, dtype=coefs.dtype), -coefs]),
         (np.concatenate([diagonal, rows]), np.concatenate([diagonal, cols]))),
        shape=(n, n))
    return splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1,
                panel_size=1, options=dict(SymmetricMode=True))


def _tree_passes(coupling, n: int) -> tuple[TreePasses, TreePasses]:
    """`TreePasses` of the (rows, cols, coefs) entries of a coupling in
    the four-block layout of `_pass_coupling`, on n buses, and of its
    entrywise square.

    The t unknowns only spread t and the R unknowns only gather, so
    neither is solved for: the entries from t into S and Y make
    ``spread``, those among S and Y the operator, and those into R
    ``gather``.  Each matvec row adds its terms in the order of their
    unknowns, and the solve adds S and Y terms onto a right-hand side of
    at most one t term, which is the order a forward substitution over
    all four blocks takes.  The square shares the matvecs' structure.
    """
    rows, cols, coefs = coupling
    into_r, from_t = rows >= 3 * n, cols < n
    into_s_y = ~into_r & from_t
    spread = sparse.csr_matrix(
        (coefs[into_s_y], (rows[into_s_y] - n, cols[into_s_y])), shape=(2 * n, n))
    gather = sparse.csr_matrix(
        (coefs[into_r], (rows[into_r] - 3 * n, cols[into_r])), shape=(n, 3 * n))
    inner = ~into_r & ~from_t
    rows, cols, coefs = rows[inner] - n, cols[inner] - n, coefs[inner]
    return (
        TreePasses(spread=spread, lu=_unit_triangular(rows, cols, coefs, 2 * n),
                   gather=gather),
        TreePasses(spread=spread.power(2),
                   lu=_unit_triangular(rows, cols, coefs * coefs, 2 * n),
                   gather=gather.power(2)),
    )


def _pass_coupling(order, parent, kappa, a, b):
    """Coupling C, as (rows, cols, coefs) arrays, of the operator I - C
    whose forward substitution computes |K| t.

    ``order[k]`` is the bus at elimination position k, ``parent`` the
    elimination forest (children precede parents), ``kappa`` holds
    |K_kk| and ``a``, ``b`` the edge ratios up from each node (0 at
    roots).  The unknowns are four blocks of n: t itself (bus order),
    then S, Y and the row sums R (bus order).  With a node's children
    taken in decreasing position, ``first`` its first child and ``nxt``
    and ``prev`` its neighbours among its siblings, for a node c with
    parent p:

    * G_c = t_c + S_first(c) is sum_{j in subtree(c)} |K_cj| t_j / |K_cc|;
    * S_c = b_c G_c + S_nxt(c) sums the offers b_h G_h of c and its
      later siblings (the up pass);
    * X_c = sum_{j outside subtree(c)} |K_pj| t_j is split as
      Q_c = |K_pp| (t_p + S_nxt(c)), from p and the later siblings, and
      Y_c, from the earlier siblings and everything outside subtree(p):
      Y_c = a_p (Y_p + Q_p) for a first child (0 below a root) and
      Y_c = Y_prev(c) + |K_pp| b_prev(c) G_prev(c) otherwise (the down
      pass);
    * R_c = |K_cc| G_c + a_c (Y_c + Q_c).

    Every unknown is the right-hand side (t, else 0) plus non-negative
    multiples of unknowns that precede it (S runs up the forest, Y down
    it, so Y is stored in reverse), so the operator is unit lower
    triangular with non-positive off-diagonal entries, and its solve adds
    non-negative terms only; `_tree_passes` solves it for S and Y alone.
    Each (row, col) appears once, so squaring the coefficients squares
    kappa, a and b and gives the sums of |K|^2 t.
    """
    n = parent.size
    child = np.flatnonzero(parent >= 0)
    chain = child[np.lexsort((-child, parent[child]))]  # siblings adjacent
    same = parent[chain[1:]] == parent[chain[:-1]]
    nxt = np.full(n, -1)
    prev = np.full(n, -1)
    first = np.full(n, -1)
    nxt[chain[:-1][same]] = chain[1:][same]
    prev[chain[1:][same]] = chain[:-1][same]
    head = np.ones(chain.size, dtype=bool)
    head[1:] = ~same
    first[parent[chain[head]]] = chain[head]

    def t_at(k):
        return order[k]

    def s_at(k):
        return n + k

    def y_at(k):
        return 3 * n - 1 - k

    def r_at(k):
        return 3 * n + order[k]

    rows, cols, coefs = [], [], []

    def add(row_at, nodes, col_at, sources, coef):
        """Unknown row_at(nodes) gains coef times unknown col_at(sources)."""
        keep = (sources >= 0) & (coef > 0)
        rows.append(row_at(nodes[keep]))
        cols.append(col_at(sources[keep]))
        coefs.append(coef[keep])

    c, p = child, parent[child]
    ones = np.ones(c.size)
    add(s_at, c, t_at, c, b[c])
    add(s_at, c, s_at, first[c], b[c])
    add(s_at, c, s_at, nxt[c], ones)

    lead = prev[c] < 0
    c1, p1 = c[lead], p[lead]
    up = parent[p1]
    from_above = a[p1] * kappa[up]  # a is 0 at a root, so Y is 0 below one
    add(y_at, c1, y_at, p1, a[p1])
    add(y_at, c1, t_at, up, from_above)
    add(y_at, c1, s_at, nxt[p1], from_above)
    c2, p2, q = c[~lead], p[~lead], prev[c[~lead]]
    offer = kappa[p2] * b[q]
    add(y_at, c2, y_at, q, np.ones(c2.size))
    add(y_at, c2, t_at, q, offer)
    add(y_at, c2, s_at, first[q], offer)

    every = np.arange(n)
    add(r_at, every, t_at, every, kappa)
    add(r_at, every, s_at, first, kappa)
    add(r_at, c, y_at, c, a[c])
    add(r_at, c, t_at, p, a[c] * kappa[p])
    add(r_at, c, s_at, nxt[c], a[c] * kappa[p])

    return np.concatenate(rows), np.concatenate(cols), np.concatenate(coefs)


def _column_maxima(parent, kappa, a, b) -> np.ndarray:
    """max_h |K_hj| for each elimination position j, by a (max, x) pass
    up the forest and one down it.

    Up: M_c = max_{h in subtree(c)} |K_hc| / |K_cc|, the best of 1 (h = c)
    and each child's offer a_h M_h.  Every parent keeps its best and
    second-best offer, counting its own 1, so a child reads the best
    offer of the rest without removing its own.  Down: F_j, the largest
    |K_hj| over h outside subtree(j), is b_j max(|K_pp| best_p, F_p) with
    best_p the best offer at p other than j's.  An O(n) Python loop; it
    runs once per kernel.
    """
    n = parent.size
    par, up_ratio, down_ratio, diag = (
        parent.tolist(), a.tolist(), b.tolist(), kappa.tolist())
    best = [1.0] * n
    second = [1.0] * n
    best_child = [-1] * n
    for c in range(n):  # children precede parents, so best[c] is final
        p = par[c]
        if p < 0:
            continue
        offer = up_ratio[c] * best[c]
        if offer > best[p]:
            second[p], best[p], best_child[p] = best[p], offer, c
        elif offer > second[p]:
            second[p] = offer
    outside = [0.0] * n
    col_max = [0.0] * n
    for j in range(n - 1, -1, -1):
        p = par[j]
        if p >= 0:
            rest = second[p] if best_child[p] == j else best[p]
            outside[j] = down_ratio[j] * max(diag[p] * rest, outside[p])
        col_max[j] = max(diag[j] * best[j], outside[j])
    return np.array(col_max)


def _tree_kernel(system, factors, w, forest) -> TreeKernel:
    parent, l_edge, u_edge, pivot = forest
    perm = factors.lu.perm_c  # bus i sits at elimination position perm[i]
    order = np.argsort(perm)
    n = parent.size
    w_abs = np.abs(w.w)[order]
    # Takahashi: with B = LU the permuted y_ll and Z = B^-1,
    # Z_kp = -(U_kp / U_kk) Z_pp, Z_pk = -L_pk Z_pp and
    # Z_kk = 1 / U_kk + (U_kp / U_kk) L_pk Z_pp, from the roots down.
    child = np.flatnonzero(parent >= 0)
    u_ratio = u_edge / pivot
    z_diag = _unit_triangular(
        child, parent[child], u_ratio[child] * l_edge[child], n).solve(1.0 / pivot)
    kappa = np.abs(z_diag) / w_abs**2
    scale = np.zeros(n)
    scale[child] = w_abs[parent[child]] / w_abs[child]
    a = np.abs(u_ratio) * scale
    b = np.abs(l_edge) * scale

    # every coupling is a product of kappa, a, b and ones: squared, it
    # couples the sums of |K|^2 t
    passes, squared_passes = _tree_passes(_pass_coupling(order, parent, kappa, a, b), n)
    col_max = _column_maxima(parent, kappa, a, b)[perm]
    lam = 1.0 / col_max
    plain = passes.row_sums(np.column_stack([np.ones(n), lam]))
    squared = squared_passes.row_sums(np.column_stack([np.ones(n), lam * lam]))
    row_norm, weighted_row_norm = _row_norms(
        col_max, lam, (plain[:, 0], squared[:, 0]), (plain[:, 1], squared[:, 1]))
    return TreeKernel(system=system, lam=lam, row_norm=row_norm,
                      weighted_row_norm=weighted_row_norm, factors=factors, w=w,
                      passes=passes)


def _injection(kernel: KernelMatrix, s) -> np.ndarray:
    """``s`` as a complex array, checked to have shape (n,)."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (kernel.n,):
        raise ValueError(f"injection has shape {s.shape}, expected ({kernel.n},)")
    return s


def xi(kernel: KernelMatrix, s: np.ndarray) -> float:
    """Loading measure: max over rows of sum_j |K_ij| |s_j|."""
    return float(np.max(kernel.row_sums(np.abs(_injection(kernel, s)))))


def _xi_block(kernel: KernelMatrix, injections) -> list[float]:
    """`xi` of each of ``injections``, bit for bit, from one ``row_sums``
    call on their magnitudes as the columns of one block."""
    t = np.column_stack([np.abs(_injection(kernel, s)) for s in injections])
    return kernel.row_sums(t).max(axis=0).tolist()


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
    Raises ValueError unless ``s`` is one injection of shape (n,).
    """
    abs_s = np.abs(_injection(kernel, s))
    plain_norm, weighted_norm = _q_norms(abs_s), _q_norms(abs_s / kernel.lam)
    entries = []
    for p, q in CONJUGATE_EXPONENT.items():
        product = kernel.row_norm[p] * plain_norm[q]
        weighted = kernel.weighted_row_norm[p] * weighted_norm[q]
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


def _q_norms(x: np.ndarray) -> dict[float, float]:
    """The q-norms of a non-negative real vector for every q of
    CONJUGATE_EXPONENT, by the reductions `np.linalg.norm` runs on it."""
    return {math.inf: float(x.max()), 2.0: math.sqrt(x @ x), 1.0: float(x.sum())}


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
    state_aware = all(given)
    if any(given) and not state_aware:
        raise ValueError("an operating point needs all of w, v_hat and s_hat")
    s = _injection(kernel, s)
    if state_aware:
        check_operating_point(kernel.system, v_hat, s_hat)
        xi_s, xi_s_hat, xi_delta_s = _xi_block(kernel, (s, s_hat, s - s_hat))
    else:
        xi_s = xi(kernel, s)
    ok, _, rho = theorem_conditions(0.0, xi_s, 1.0)
    fields = dict(xi_s=xi_s, kernel=kernel.path, corollary_ok=ok, rho=rho)
    if state_aware:
        u_min = u_min_of(v_hat, w)
        ok, delta, rho = theorem_conditions(xi_s_hat, xi_delta_s, u_min)
        fields.update(xi_s_hat=xi_s_hat, xi_delta_s=xi_delta_s, u_min=u_min,
                      delta=delta, rho=rho, theorem_ok=ok)
    priors = check_prior_conditions(kernel, s)
    return CertificateReport(
        **fields,
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
