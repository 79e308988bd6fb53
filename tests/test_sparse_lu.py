import numpy as np
import pytest
from scipy import sparse

import flowcert as fc
from flowcert.errors import SingularMatrixError
from flowcert.sparse_lu import factorize, solve
from netrand import chain_network, random_network, random_tree, star_network


def random_sparse_invertible(rng, n, density=0.15):
    """Sparse complex matrix made structurally and numerically invertible
    by diagonal dominance."""
    a = np.zeros((n, n), dtype=complex)
    nnz = max(n, int(density * n * n))
    for _ in range(nnz):
        i, j = rng.integers(0, n, 2)
        a[i, j] += complex(rng.normal(), rng.normal())
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return a


def inverse(factors):
    """The inverse, one solve per unit column."""
    eye = np.eye(factors.n, dtype=complex)
    return np.column_stack([solve(factors, e) for e in eye])


def test_scalar_matrix():
    y = 2.5 - 4j
    f = factorize(sparse.csc_matrix(np.array([[y]])))
    assert f.n == 1
    assert f.fill_in_count == 0
    assert solve(f, np.array([1.0 + 0j])) == pytest.approx([1 / y], rel=1e-15)


def test_diagonal_matrix_has_zero_fill():
    d = np.diag(np.arange(1, 8) + 1j)
    f = factorize(sparse.csc_matrix(d))
    assert f.fill_in_count == 0
    b = np.arange(7) + 0.5j
    assert np.allclose(solve(f, b), b / d.diagonal())


def test_feeder_factorization_residual(feeder_grid):
    y = feeder_grid.system.y_ll.toarray()
    f = feeder_grid.factors
    assert f.n == 12
    assert f.fill_in_count >= 0
    inv = inverse(f)
    rel = np.linalg.norm(inv - np.linalg.inv(y)) / np.linalg.norm(np.linalg.inv(y))
    assert rel < 1e-10


def test_solve_zero_rhs(feeder_grid):
    x = solve(feeder_grid.factors, np.zeros(12, dtype=complex))
    assert np.array_equal(x, np.zeros(12))


def test_solve_constructed_identity(feeder_grid):
    y = feeder_grid.system.y_ll
    for k in (0, 5, 11):
        e = np.zeros(12, dtype=complex)
        e[k] = 1.0
        x = solve(feeder_grid.factors, y @ e)
        assert np.max(np.abs(x - e)) < 1e-10


def test_solve_matches_dense_oracle(feeder_grid):
    rng = np.random.default_rng(11)
    y = feeder_grid.system.y_ll.toarray()
    b = rng.normal(size=12) + 1j * rng.normal(size=12)
    x = solve(feeder_grid.factors, b)
    assert np.max(np.abs(x - np.linalg.solve(y, b))) < 1e-9


def test_columnwise_solves_invert_feeder(feeder_grid):
    y = feeder_grid.system.y_ll.toarray()
    inv = inverse(feeder_grid.factors)
    assert np.max(np.abs(y @ inv - np.eye(12))) < 1e-9


def test_dimension_mismatch_rejected(feeder_grid):
    for shape in (5, 13, (13, 2), (12, 2, 1), ()):
        with pytest.raises(ValueError, match="shape"):
            solve(feeder_grid.factors, np.zeros(shape, dtype=complex))


def test_block_solve_matches_column_solves_bitwise(feeder_grid):
    rng = np.random.default_rng(15)
    for k in (1, 2, 7, 40):
        b = rng.normal(size=(12, k)) + 1j * rng.normal(size=(12, k))
        x = solve(feeder_grid.factors, b)
        assert x.shape == (12, k)
        for j in range(k):
            assert np.array_equal(x[:, j], solve(feeder_grid.factors, b[:, j]))


def test_equivalence_with_dense_oracle_on_random_matrices():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        a = random_sparse_invertible(rng, n)
        f = factorize(sparse.csc_matrix(a))
        inv = inverse(f)
        assert np.linalg.norm(a @ inv - np.eye(n)) / np.sqrt(n) < 1e-10
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(solve(f, b) - np.linalg.solve(a, b))) < 1e-9


def test_factors_unchanged_by_solves(feeder_grid):
    """Solves leave the factors as they were: repeated solves agree bitwise."""
    f = factorize(feeder_grid.system.y_ll)
    rng = np.random.default_rng(14)
    rhs = [rng.normal(size=12) + 1j * rng.normal(size=12) for _ in range(5)]
    first = [solve(f, b) for b in rhs]
    for b, x in zip(rhs, first):
        solve(f, rng.normal(size=12) + 0j)
        assert np.array_equal(solve(f, b), x)


@pytest.mark.parametrize("n", [100, 1000])
def test_radial_chain_fill_is_linear(n):
    sys = fc.build_admittance(chain_network(n))
    f = factorize(sys.y_ll)
    assert f.fill_in_count <= 4 * n
    w = solve(f, -sys.y_l0)
    assert np.max(np.abs(w - 1)) < 1e-8


def test_trees_factor_with_zero_fill():
    # Symmetric mode keeps diagonal pivots in a minimum-degree order, which
    # eliminates a tree leaf first, so L and U hold exactly its edges; the
    # random trees carry shunts and transformers.
    rng = np.random.default_rng(15)
    nets = [random_tree(rng, int(rng.integers(2, 300))) for _ in range(30)]
    nets += [chain_network(500), star_network(500)]
    for net in nets:
        sys = fc.build_admittance(net)
        f = factorize(sys.y_ll)
        assert f.fill_in_count == 0
        b = rng.normal(size=net.n) + 1j * rng.normal(size=net.n)
        x = np.linalg.solve(sys.y_ll.toarray(), b)
        assert np.max(np.abs(solve(f, b) - x)) < 1e-9 * max(1.0, np.max(np.abs(x)))


def symbolic_fill(a, order) -> int:
    """Entries that eliminating the symmetric pattern of ``a`` in
    ``order`` adds to L and to U together: each eliminated bus joins its
    remaining neighbours pairwise, and each new pair is one entry of L
    and one of U."""
    adjacent = [set() for _ in range(a.shape[0])]
    coo = a.tocoo()
    for i, j in zip(coo.row.tolist(), coo.col.tolist()):
        if i != j:
            adjacent[i].add(j)
            adjacent[j].add(i)
    eliminated, added = set(), 0
    for v in order:
        around = sorted(adjacent[v] - eliminated)
        for k, x in enumerate(around):
            for y in around[k + 1:]:
                if y not in adjacent[x]:
                    adjacent[x].add(y)
                    adjacent[y].add(x)
                    added += 1
        eliminated.add(v)
    return 2 * added


def test_fill_in_counts_the_factors_entries_not_superlu_storage():
    # SuperLU stores each supernode as a dense block, so its ``nnz``
    # also counts zeros: on about a fifth of these meshed networks
    # ``lu.nnz - n - nnz(A)`` overstates the fill.
    rng = np.random.default_rng(7)
    padded = 0
    for _ in range(60):
        y_ll = fc.build_admittance(random_network(rng, int(rng.integers(3, 40)))).y_ll
        f = factorize(y_ll)
        assert np.array_equal(f.lu.perm_r, f.lu.perm_c)
        assert f.fill_in_count == symbolic_fill(y_ll, np.argsort(f.lu.perm_c).tolist())
        padded += f.lu.nnz - f.n - y_ll.count_nonzero() != f.fill_in_count
    assert padded > 0


def test_indefinite_hermitian_part_counter_example():
    # Outside the precondition a diagonal pivot can vanish: this matrix is
    # well conditioned (cond 2.6), but its Hermitian part is indefinite and
    # the second diagonal pivot is 1e-20, below PIVOT_FLOOR.
    a = np.array([[1.0, 1.0], [1.0, 1e-20]], dtype=complex)
    assert np.linalg.cond(a) < 3
    with pytest.raises(SingularMatrixError, match="pivot"):
        factorize(sparse.csc_matrix(a))


def test_singular_matrix_raises():
    z = sparse.csc_matrix(np.zeros((3, 3), dtype=complex))
    with pytest.raises(SingularMatrixError):
        factorize(z)
    # numerically singular despite full structure
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        factorize(sparse.csc_matrix(a))


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        factorize(sparse.csc_matrix(np.ones((2, 3))))
