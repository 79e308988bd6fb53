import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import flowcert as fc
from flowcert.certificate import (
    CONJUGATE_EXPONENT,
    _column_maxima,
    _dense_kernel as _dense_reference,
    _pass_coupling,
    _q_norms,
    _tree_passes,
    check_prior_conditions,
    solution_ball,
    theorem_conditions,
    xi,
)
from netrand import (
    Branch,
    Bus,
    chain_network,
    from_records,
    records,
    random_injections,
    random_network,
    random_tree,
    scale_to_xi,
    star_network,
)

# --- kernel -------------------------------------------------------------------


def test_single_bus_kernel():
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("0", "1", "line", 2 + 0j)],
        1.0,
        1.0,
    )
    grid = fc.prepare_grid(net)
    assert np.allclose(grid.kernel.abs_k, [[0.5]])
    # xi = |s| / |y| for the single-bus case
    assert xi(grid.kernel, np.array([0.5 + 0j])) == pytest.approx(0.25)


def test_kernel_equals_inverse_when_w_is_unity(feeder_grid):
    inv = np.linalg.inv(feeder_grid.system.y_ll.toarray())
    assert np.max(np.abs(feeder_grid.kernel.abs_k - np.abs(inv))) < 1e-9


def test_kernel_identity_product():
    rng = np.random.default_rng(31)
    net = random_network(rng, 12)
    grid = fc.prepare_grid(net)
    w = grid.w.w
    scaled = np.diag(np.conj(w)) @ grid.system.y_ll.toarray() @ np.diag(w)
    # K is the inverse of the w-scaled admittance; the kernel keeps |K|
    assert np.max(np.abs(grid.kernel.abs_k - np.abs(np.linalg.inv(scaled)))) < 1e-8


def test_abs_kernel_column_blocks_equal_single_column_solves_bitwise(monkeypatch):
    rng = np.random.default_rng(32)
    grid = fc.prepare_grid(random_network(rng, 23))
    n, w = grid.factors.n, grid.w.w
    want = np.empty((n, n))
    for j in range(n):
        unit = np.zeros(n, dtype=complex)
        unit[j] = 1.0
        want[:, j] = np.abs(fc.solve(grid.factors, unit) / w / np.conj(w[j]))
    # a budget of 5 columns: four full blocks and a last one of 3
    monkeypatch.setattr(fc.certificate, "BLOCK_ENTRIES", 5 * n)
    got = fc.certificate._abs_kernel(grid.factors, grid.w)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _with_branches(net, extra):
    buses, branches = records(net)
    return from_records(buses, branches + extra, power_base=1.0, voltage_base=1.0)


def _line(a, b, z=0.02 + 0.05j):
    return Branch(str(a), str(b), "line", 1.0 / z)


def _count_column_solves(monkeypatch):
    column_solves = []
    monkeypatch.setattr(fc.certificate, "solve",
                        lambda *args: column_solves.append(1))
    return column_solves


def test_kernel_size_cap(monkeypatch):
    # A meshed network one bus past the cap takes the dense path and is
    # refused before the n x n kernel is allocated or any of its column
    # solves runs.
    net = _with_branches(chain_network(fc.certificate.KERNEL_SIZE_CAP + 1),
                         [_line(1, 3)])
    column_solves = _count_column_solves(monkeypatch)
    with pytest.raises(ValueError, match="size cap"):
        fc.prepare_grid(net)
    assert column_solves == []


def test_tree_kernel_is_uncapped_but_its_abs_k_is_not(monkeypatch):
    grid = fc.prepare_grid(chain_network(fc.certificate.KERNEL_SIZE_CAP + 1))
    assert grid.kernel.path == "tree"
    column_solves = _count_column_solves(monkeypatch)
    with pytest.raises(ValueError, match="size cap"):
        grid.kernel.abs_k
    assert column_solves == []


def _dense_kernel(grid):
    """Complex K from the dense inverse: diag(1/w) y_ll^-1 diag(1/conj(w))."""
    w = grid.w.w
    inv = np.linalg.inv(grid.system.y_ll.toarray())
    return inv / w[:, None] / np.conj(w)[None, :]


def _dense_prior_conditions(k, s, p_set=(1.0, 2.0, math.inf)):
    """The prior conditions evaluated on the complex K, row by row."""
    lam = 1.0 / np.abs(k).max(axis=0)
    out = []
    for p in p_set:
        q = math.inf if p == 1.0 else (1.0 if p == math.inf else 2.0)
        product = np.max(np.linalg.norm(k, ord=p, axis=1)) * np.linalg.norm(s, ord=q)
        weighted = np.max(np.linalg.norm(k * lam[None, :], ord=p, axis=1)) * (
            np.linalg.norm(s / lam, ord=q))
        out.append((p, product, weighted))
    return lam, out


def test_cached_norms_match_dense_inverse():
    # Meshed networks with shunts and transformers: the cached weights and
    # row norms equal those of the complex dense inverse, and the prior
    # verdicts equal the row-by-row formula on it.
    rng = np.random.default_rng(38)
    verdicts = set()
    for _ in range(40):
        net = random_network(rng, int(rng.integers(2, 40)))
        grid = fc.prepare_grid(net)
        kernel = grid.kernel
        k = _dense_kernel(grid)
        s = scale_to_xi(kernel, random_injections(rng, net.n),
                        rng.uniform(0.01, 0.3))
        lam, dense = _dense_prior_conditions(k, s)
        assert np.max(np.abs(kernel.lam - lam) / lam) < 1e-12
        res = check_prior_conditions(kernel, s)
        for entry, (p, product, weighted) in zip(res.detail, dense):
            assert kernel.row_norm[p] == pytest.approx(
                np.max(np.linalg.norm(k, ord=p, axis=1)), rel=1e-12)
            assert kernel.weighted_row_norm[p] == pytest.approx(
                np.max(np.linalg.norm(k * lam[None, :], ord=p, axis=1)), rel=1e-12)
            assert entry.p == p
            assert entry.product == pytest.approx(product, rel=1e-12)
            assert entry.weighted_product == pytest.approx(weighted, rel=1e-12)
            assert entry.ok == (product < 0.25)
            assert entry.weighted_ok == (weighted < 0.25)
        ok = any(product < 0.25 for _, product, _ in dense)
        weighted_ok = any(weighted < 0.25 for _, _, weighted in dense)
        assert res.bolognani_ok == ok
        assert res.improved_ok == (ok or weighted_ok)
        verdicts.add((res.bolognani_ok, res.improved_ok))
    # the draw reaches both verdicts, and the weighted-only pass between them
    assert verdicts == {(True, True), (False, True), (False, False)}


# --- tree kernel ------------------------------------------------------------------


def _tree_and_dense(net):
    """The kernel build_kernel picks, asserted to be the tree kernel, and
    the dense kernel of the same network."""
    grid = fc.prepare_grid(net)
    assert grid.kernel.path == "tree"
    return grid.kernel, _dense_reference(grid.system, grid.factors, grid.w)


def _assert_kernels_match(tree, dense, t):
    rel = 1e-12
    np.testing.assert_allclose(tree.row_sums(t), dense.row_sums(t), rtol=rel, atol=0)
    np.testing.assert_allclose(tree.lam, dense.lam, rtol=rel, atol=0)
    for p in CONJUGATE_EXPONENT:
        assert tree.row_norm[p] == pytest.approx(dense.row_norm[p], rel=rel, abs=0)
        assert tree.weighted_row_norm[p] == pytest.approx(
            dense.weighted_row_norm[p], rel=rel, abs=0)


def _loads(rng, n):
    """|s| with a few exact zeros among random magnitudes."""
    t = np.abs(random_injections(rng, n))
    t[rng.random(n) < 0.2] = 0.0
    return t


seeds = st.integers(0, 2**32 - 1)


@settings(deadline=None, max_examples=40)
@given(seed=seeds, n=st.integers(1, 60))
def test_tree_kernel_matches_dense_on_random_trees(seed, n):
    # shunts and transformers included
    rng = np.random.default_rng(seed)
    tree, dense = _tree_and_dense(random_tree(rng, n))
    _assert_kernels_match(tree, dense, _loads(rng, n))


@settings(deadline=None, max_examples=25)
@given(seed=seeds, n=st.integers(2, 60), chords=st.integers(1, 4))
def test_tree_kernel_matches_dense_when_meshed_through_the_slack(seed, n, chords):
    # Extra branches from the slack close loops through it only: the
    # load-bus graph stays a forest.
    rng = np.random.default_rng(seed)
    net = random_tree(rng, n)
    extra = [_line(0, int(rng.integers(1, n + 1)), complex(rng.uniform(0.01, 0.08),
                                                          rng.uniform(0.02, 0.2)))
             for _ in range(chords)]
    tree, dense = _tree_and_dense(_with_branches(net, extra))
    _assert_kernels_match(tree, dense, _loads(rng, n))


@settings(deadline=None, max_examples=25)
@given(seed=seeds, n=st.integers(1, 60), doubled=st.integers(1, 5))
def test_tree_kernel_matches_dense_with_parallel_branches(seed, n, doubled):
    rng = np.random.default_rng(seed)
    net = random_tree(rng, n)
    extra = []
    branches = records(net)[1]
    for index in rng.integers(0, len(branches), size=doubled):
        br = branches[int(index)]
        ratio = rng.uniform(0.9, 1.1) * np.exp(1j * rng.uniform(-0.05, 0.05))
        extra.append(Branch(br.from_bus, br.to_bus, "transformer",
                            1.0 / complex(rng.uniform(0.01, 0.08),
                                          rng.uniform(0.02, 0.2)),
                            complex(ratio)))
    tree, dense = _tree_and_dense(_with_branches(net, extra))
    _assert_kernels_match(tree, dense, _loads(rng, n))


def _strong_shunt_tree(rng, n):
    """Random tree with shunt b up to 3 p.u. either way and half its
    branches transformers: an edge can then have
    |K_jp| |K_pj| > |K_jj| |K_pp|."""
    buses = [Bus("0", "slack")] + [
        Bus(str(i), "load", complex(rng.uniform(0.0, 0.05), rng.uniform(-3.0, 3.0)))
        for i in range(1, n + 1)
    ]
    branches = []
    for i in range(1, n + 1):
        y = 1.0 / complex(rng.uniform(0.01, 0.08), rng.uniform(0.02, 0.2))
        ratio = rng.uniform(0.9, 1.1) * np.exp(1j * rng.uniform(-0.05, 0.05))
        kind = "transformer" if rng.random() < 0.5 else "line"
        branches.append(Branch(str(int(rng.integers(0, i))), str(i), kind, y,
                               complex(ratio) if kind == "transformer" else 1 + 0j))
    return from_records(buses, branches, power_base=1.0, voltage_base=1.0)


@settings(deadline=None, max_examples=40)
@given(seed=seeds, n=st.integers(2, 12))
def test_tree_kernel_matches_dense_with_strong_shunts(seed, n):
    rng = np.random.default_rng(seed)
    tree, dense = _tree_and_dense(_strong_shunt_tree(rng, n))
    _assert_kernels_match(tree, dense, _loads(rng, n))


def test_column_maxima_skip_a_childs_own_offer():
    # On this draw an edge j-p has |K_jp| |K_pj| > |K_jj| |K_pp|, so an
    # outside maximum for column j that counted j's own subtree through p
    # would overstate max_h |K_hj|, and lambda_j would come out 56 % low.
    rng = np.random.default_rng(91)
    net = _strong_shunt_tree(rng, int(rng.integers(2, 13)))
    tree, dense = _tree_and_dense(net)
    k = dense.abs_k
    assert any(
        k[i, j] * k[j, i] > k[i, i] * k[j, j]
        for i, j in ((net.index[br.from_bus] - 1, net.index[br.to_bus] - 1)
                     for br in records(net)[1] if br.from_bus != "0")
    )
    _assert_kernels_match(tree, dense, _loads(rng, net.n))


def _product_kernel(parent, kappa, a, b):
    """|K| by elimination position from the separator product itself:
    |K_hj| = prod(a on the path up from h) |K_aa| prod(b on the path up
    from j), with a their lowest common ancestor, and 0 across trees."""
    n = parent.size

    def path_up(k):
        path = [k]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        return path

    paths = [path_up(k) for k in range(n)]
    k = np.zeros((n, n))
    for h in range(n):
        for j in range(n):
            common = [x for x in paths[h] if x in paths[j]]
            if common:
                top = common[0]
                up_h = paths[h][:paths[h].index(top)]
                up_j = paths[j][:paths[j].index(top)]
                k[h, j] = np.prod(a[up_h]) * kappa[top] * np.prod(b[up_j])
    return k


@settings(deadline=None, max_examples=60)
@given(seed=seeds, n=st.integers(1, 25))
def test_tree_passes_match_the_separator_product(seed, n):
    # Any forest with parents after children, any positive ratios (over
    # four decades, so that any sibling's offer can win) and any bus
    # order: the row sums, their squares and the column maxima equal
    # those of the product formula.
    rng = np.random.default_rng(seed)
    parent = np.array([int(rng.integers(k + 1, n + 1)) if k < n - 1 else n
                       for k in range(n)])
    parent[(parent == n) | (rng.random(n) < 0.1)] = -1
    kappa, a, b = (10.0 ** rng.uniform(-2, 2, n) for _ in range(3))
    a[parent < 0] = b[parent < 0] = 0.0
    order = rng.permutation(n)
    want = np.empty((n, n))
    want[np.ix_(order, order)] = _product_kernel(parent, kappa, a, b)
    t = _loads(rng, n)
    rows, cols, coefs = _pass_coupling(order, parent, kappa, a, b)
    # each entry is one product, so squaring the entries squares |K|
    assert np.unique(rows * 4 * n + cols).size == rows.size
    plain, squared = _tree_passes((rows, cols, coefs), n)
    np.testing.assert_allclose(plain.row_sums(t), want @ t, rtol=1e-12, atol=0)
    np.testing.assert_allclose(squared.row_sums(t), (want * want) @ t, rtol=1e-12, atol=0)
    col_max = _column_maxima(parent, kappa, a, b)[np.argsort(order)]
    np.testing.assert_allclose(col_max, want.max(axis=0), rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def long_kernels():
    return {name: _tree_and_dense(make(500))
            for name, make in (("chain", chain_network), ("star", star_network))}


@settings(deadline=None, max_examples=10)
@given(seed=seeds, name=st.sampled_from(["chain", "star"]))
def test_tree_kernel_matches_dense_on_long_chain_and_star(long_kernels, seed, name):
    tree, dense = long_kernels[name]
    _assert_kernels_match(tree, dense, _loads(np.random.default_rng(seed), 500))


@pytest.mark.parametrize("seed", range(5))
def test_heavy_tip_row_sums_never_fall_below_the_dense_rows(seed):
    # Hub bus 1 carries a 40-bus branch and 9 leaves, with one heavy load
    # at the branch tip, 1e-9 p.u. elsewhere and shunt b up to 3 p.u.
    # either way: the hub's row mass comes almost entirely from the
    # branch, where an outside sum taken as total minus subtree sum
    # would cancel.
    rng = np.random.default_rng(seed)
    buses = [Bus("0", "slack")] + [
        Bus(str(i), "load", complex(rng.uniform(0.0, 0.05), rng.uniform(-3.0, 3.0)))
        for i in range(1, 51)
    ]

    def line(a, b):
        return _line(a, b, complex(rng.uniform(0.01, 0.08), rng.uniform(0.02, 0.2)))

    branches = [line(0, 1)] + [line(i - 1, i) for i in range(2, 42)]
    branches += [line(1, i) for i in range(42, 51)]
    net = from_records(buses, branches, power_base=1.0, voltage_base=1.0)
    tree, dense = _tree_and_dense(net)
    t = np.full(net.n, 1e-9)
    t[net.index["41"] - 1] = 1.0
    got, want = tree.row_sums(t), dense.row_sums(t)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert np.all(got >= want - 1e-12 * want)


def test_chord_breaks_the_separator_product_and_takes_the_dense_path():
    # Bus 5 lies on the chain path from bus 1 to bus 10, but a chord
    # 2-8 means it no longer separates them: the product the tree kernel
    # would use, |K_1,5| |K_5,10| / |K_5,5|, is 30 % below |K_1,10|.
    net = _with_branches(chain_network(10), [_line(2, 8)])
    grid = fc.prepare_grid(net)
    k = np.abs(_dense_kernel(grid))
    i, a, j = (net.index[bus] - 1 for bus in ("1", "5", "10"))
    assert k[i, a] * k[a, j] / k[a, a] < 0.8 * k[i, j]
    assert grid.kernel.path == "dense"
    # without the chord bus 5 separates them and the product is exact
    k = np.abs(_dense_kernel(fc.prepare_grid(chain_network(10))))
    assert k[i, a] * k[a, j] / k[a, a] == pytest.approx(k[i, j], rel=1e-12)


def test_forest_test_reads_the_factors():
    # A chord that closes a triangle of load buses takes the dense path;
    # one that doubles a tree edge, or closes a loop through the slack,
    # does not.
    base = random_tree(np.random.default_rng(40), 30)
    parent = {br.to_bus: br.from_bus for br in records(base)[1]}
    bus = next(b for b, p in parent.items() if p != "0" and parent[p] != "0")
    cases = {
        "dense": [_line(bus, parent[parent[bus]])],
        "tree": [_line(0, bus), _line(bus, parent[bus])],
    }
    for path, extra in cases.items():
        assert fc.prepare_grid(_with_branches(base, extra)).kernel.path == path


def test_tree_passes_add_non_negative_terms_only(feeder_grid):
    # The operator over S and Y factors as itself times the identity, with
    # no fill and unit pivots, and every off-diagonal entry is <= 0, so a
    # forward substitution from a non-negative right-hand side adds
    # non-negative terms only; the matvecs that give that right-hand side
    # from t and the row sums from (t, S, Y) hold no negative entry, and
    # add each row's terms in the order of their unknowns.
    passes = feeder_grid.kernel.passes
    size = 2 * feeder_grid.kernel.n
    lower, upper = passes.lu.L.tocoo(), passes.lu.U.tocoo()
    assert upper.nnz == size and np.all(upper.row == upper.col)
    assert np.all(upper.data == 1.0)
    assert np.all(lower.data[lower.row == lower.col] == 1.0)
    assert np.all(lower.data[lower.row != lower.col] <= 0.0)
    for matvec in (passes.spread, passes.gather):
        assert matvec.has_canonical_format
        assert np.all(matvec.data >= 0.0)


# --- loading measure ------------------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(seed=seeds, n=st.integers(1, 80), k=st.integers(1, 6), meshed=st.booleans())
def test_row_sums_of_a_block_are_its_columns_row_sums_bitwise(seed, n, k, meshed):
    # The contract a state-aware certify relies on, on both kernels: the
    # network's own (the tree kernel on a forest) and its dense kernel.
    rng = np.random.default_rng(seed)
    grid = fc.prepare_grid((random_network if meshed else random_tree)(rng, n))
    block = np.column_stack([_loads(rng, n) for _ in range(k)])
    for kernel in (grid.kernel, _dense_reference(grid.system, grid.factors, grid.w)):
        got = kernel.row_sums(block)
        assert got.shape == (n, k)
        for j in range(k):
            assert np.array_equal(got[:, j], kernel.row_sums(block[:, j].copy()))


def test_row_sums_block_contract_on_large_networks():
    # Sizes of the benchmark's networks: a 300-bus meshed grid with fill
    # and a 1000-bus tree.
    rng = np.random.default_rng(92)
    for net in (random_network(rng, 300), random_tree(rng, 1000)):
        grid = fc.prepare_grid(net)
        block = np.column_stack([_loads(rng, net.n) for _ in range(3)])
        kernels = [grid.kernel]
        if net.n <= 300:
            kernels.append(_dense_reference(grid.system, grid.factors, grid.w))
        for kernel in kernels:
            got = kernel.row_sums(block)
            for j in range(3):
                assert np.array_equal(got[:, j], kernel.row_sums(block[:, j].copy()))


@settings(deadline=None, max_examples=60)
@given(x=arrays(np.float64, st.integers(1, 500),
                elements=st.floats(0.0, 1e3, allow_subnormal=False)))
def test_q_norms_equal_numpy_norms_exactly(x):
    norms = _q_norms(x)
    for q in CONJUGATE_EXPONENT.values():
        assert norms[q] == float(np.linalg.norm(x, ord=q))


def test_prior_products_equal_the_numpy_norm_formula_exactly():
    rng = np.random.default_rng(93)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(1, 60)))
        kernel = fc.prepare_grid(net).kernel
        s = random_injections(rng, net.n)
        abs_s = np.abs(s)
        for entry in check_prior_conditions(kernel, s).detail:
            q = CONJUGATE_EXPONENT[entry.p]
            assert entry.product == kernel.row_norm[entry.p] * float(
                np.linalg.norm(abs_s, ord=q))
            assert entry.weighted_product == kernel.weighted_row_norm[entry.p] * float(
                np.linalg.norm(abs_s / kernel.lam, ord=q))


def test_xi_of_zero_is_zero(feeder_grid):
    assert xi(feeder_grid.kernel, np.zeros(12, dtype=complex)) == 0.0


def test_xi_scaling_example(feeder_grid):
    rng = np.random.default_rng(33)
    s = random_injections(rng, 12)
    alpha = -2 + 1j
    assert xi(feeder_grid.kernel, alpha * s) == pytest.approx(
        abs(alpha) * xi(feeder_grid.kernel, s), rel=1e-12
    )


complex_vectors = arrays(
    np.complex128,
    (12,),
    elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                allow_infinity=False),
)


@settings(deadline=None, max_examples=50)
@given(s=complex_vectors, s_hat=complex_vectors)
def test_xi_subadditive(feeder_grid, s, s_hat):
    k = feeder_grid.kernel
    assert xi(k, s) <= xi(k, s_hat) + xi(k, s - s_hat) + 1e-12


@settings(deadline=None, max_examples=50)
@given(
    s=complex_vectors,
    alpha=st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                             allow_infinity=False),
)
def test_xi_absolutely_homogeneous(feeder_grid, s, alpha):
    k = feeder_grid.kernel
    assert xi(k, alpha * s) == pytest.approx(abs(alpha) * xi(k, s), rel=1e-12,
                                             abs=1e-12)


# --- condition arithmetic --------------------------------------------------------


def test_theorem_conditions_reference_scalars():
    # Frozen reference point: xi_hat=0.5692, xi_delta=0.0164, u_min=1.0050.
    ok, delta, rho = theorem_conditions(0.5692, 0.0164, 1.0050)
    assert ok
    assert rho == pytest.approx(0.0412, abs=5e-4)
    assert 0 < rho < 1.0050


def test_theorem_conditions_equal_setpoint_gives_zero_radius():
    u = 1.02
    xi_hat = 0.4
    ok, delta, rho = theorem_conditions(xi_hat, 0.0, u)
    assert ok
    assert delta == pytest.approx((u - xi_hat / u) ** 2, rel=1e-15)
    assert rho == pytest.approx(0.0, abs=1e-15)


def test_theorem_conditions_strict_at_boundary():
    ok, _, rho = theorem_conditions(1.0, 0.0, 1.0)  # xi_hat == u_min^2
    assert not ok and rho is None
    ok, delta, rho = theorem_conditions(0.3, 0.1225, 1.0)  # delta == 0 exactly
    assert delta == pytest.approx(0.0, abs=1e-15)
    assert not ok and rho is None


def test_corollary_condition_arithmetic():
    # the state-free condition is the theorem at the zero-load point
    ok, _, rho = theorem_conditions(0.0, 0.5770, 1.0)
    assert not ok and rho is None
    ok, _, rho = theorem_conditions(0.0, 0.0, 1.0)
    assert ok and rho == 0.0
    ok, _, rho = theorem_conditions(0.0, 0.2, 1.0)
    assert ok
    assert rho == pytest.approx((1 - math.sqrt(0.2)) / 2, rel=1e-15)


def _state_aware(grid, op, s):
    return fc.certify(grid.kernel, s, w=grid.w, v_hat=op.v, s_hat=op.s)


def test_check_theorem_and_corollary_reports(feeder_grid, feeder_op, feeder_s_next):
    rep = _state_aware(feeder_grid, feeder_op, feeder_s_next)
    assert rep.theorem_ok
    assert rep.rho is not None and 0 < rep.rho < rep.u_min
    assert rep.xi_s_hat == pytest.approx(0.5, abs=1e-9)

    cor = fc.certify(feeder_grid.kernel, feeder_s_next)
    assert not cor.corollary_ok and cor.rho is None
    assert cor.xi_s > 0.25
    assert cor.theorem_ok is None and cor.delta is None


def test_report_booleans_recomputable(feeder_grid, feeder_op, feeder_s_next):
    rep = _state_aware(feeder_grid, feeder_op, feeder_s_next)
    assert rep.theorem_ok == (rep.xi_s_hat < rep.u_min**2 and rep.delta > 0)
    cor = fc.certify(feeder_grid.kernel, feeder_s_next)
    assert cor.corollary_ok == (cor.xi_s < 0.25)


def test_rho_below_u_min_whenever_theorem_passes():
    rng = np.random.default_rng(34)
    passes = 0
    for _ in range(50):
        u = rng.uniform(0.8, 1.2)
        xi_hat = rng.uniform(0.0, u * u * 1.2)
        xi_delta = rng.uniform(0.0, 0.3)
        ok, _, rho = theorem_conditions(xi_hat, xi_delta, u)
        if ok:
            passes += 1
            assert 0 <= rho < u
    assert passes > 5  # the draw actually exercises the passing branch


# --- prior conditions -------------------------------------------------------------


def test_priors_reject_an_injection_that_is_not_one_vector(feeder_grid):
    # a length-1 injection would broadcast against the kernel's weights
    for s in (np.array([0.01 + 0.005j]), np.zeros(11), np.zeros((12, 1))):
        with pytest.raises(ValueError, match="shape"):
            check_prior_conditions(feeder_grid.kernel, s)


def test_priors_pass_at_zero_injection(feeder_grid):
    res = check_prior_conditions(feeder_grid.kernel, np.zeros(12, dtype=complex))
    assert res.bolognani_ok and res.improved_ok
    assert all(e.ok and e.weighted_ok for e in res.detail)
    assert {e.p for e in res.detail} == {1.0, 2.0, math.inf}


def test_priors_fail_whenever_xi_critical():
    # Contrapositive of the dominance chain: xi(s) >= 1/4 sinks every
    # row-norm product test.
    rng = np.random.default_rng(35)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(2, 12)))
        grid = fc.prepare_grid(net)
        s = scale_to_xi(grid.kernel, random_injections(rng, net.n),
                        rng.uniform(0.25, 2.0))
        res = check_prior_conditions(grid.kernel, s)
        assert not res.bolognani_ok and not res.improved_ok


def test_hoelder_dominance():
    # xi(s) <= ||K Lam||_p^* ||Lam^-1 s||_q for any positive diagonal Lam.
    rng = np.random.default_rng(36)
    for _ in range(100):
        net = random_network(rng, int(rng.integers(2, 10)))
        grid = fc.prepare_grid(net)
        s = random_injections(rng, net.n)
        lam = rng.uniform(0.2, 5.0, size=net.n)
        p = rng.choice([1.0, 2.0, math.inf])
        q = math.inf if p == 1.0 else (1.0 if p == math.inf else 2.0)
        row_norm = np.max(
            np.linalg.norm(grid.kernel.abs_k * lam[None, :], ord=p, axis=1)
        )
        bound = row_norm * np.linalg.norm(s / lam, ord=q)
        assert xi(grid.kernel, s) <= bound + 1e-12


def test_prior_pass_implies_corollary_pass():
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(40):
        net = random_network(rng, int(rng.integers(2, 10)))
        grid = fc.prepare_grid(net)
        s = scale_to_xi(grid.kernel, random_injections(rng, net.n),
                        rng.uniform(0.01, 0.4))
        res = check_prior_conditions(grid.kernel, s)
        if res.bolognani_ok or res.improved_ok:
            checked += 1
            assert fc.certify(grid.kernel, s).corollary_ok
    assert checked > 5


# --- certify / solution ball -------------------------------------------------------


def test_certify_merges_all_sections(feeder_grid, feeder_op, feeder_s_next):
    rep = fc.certify(
        feeder_grid.kernel,
        feeder_s_next,
        w=feeder_grid.w,
        v_hat=feeder_op.v,
        s_hat=feeder_op.s,
    )
    assert rep.theorem_ok and not rep.corollary_ok
    assert rep.bolognani_ok is False and rep.improved_ok is False
    assert rep.rho is not None  # state-aware radius since that set passed
    assert len(rep.bolognani_detail) == 3


def test_certify_evaluates_xi_three_times(monkeypatch, feeder_grid, feeder_op,
                                         feeder_s_next):
    # xi(s), xi(s_hat) and xi(s - s_hat), as the columns of one row_sums
    # block, each bit for bit what xi gives; the state-free verdict reuses xi(s)
    kernel = feeder_grid.kernel
    real_xi, real_row_sums = fc.certificate.xi, type(kernel).row_sums
    xi_calls, blocks = [], []

    def counted_xi(kernel, s):
        xi_calls.append(1)
        return real_xi(kernel, s)

    def counted_row_sums(self, t):
        blocks.append(t.shape)
        return real_row_sums(self, t)

    monkeypatch.setattr(fc.certificate, "xi", counted_xi)
    monkeypatch.setattr(type(kernel), "row_sums", counted_row_sums)
    rep = fc.certify(kernel, feeder_s_next, w=feeder_grid.w,
                     v_hat=feeder_op.v, s_hat=feeder_op.s)
    assert xi_calls == [] and blocks == [(12, 3)]
    assert rep.corollary_ok == (rep.xi_s < 0.25)
    assert rep.xi_s == real_xi(kernel, feeder_s_next)
    assert rep.xi_s_hat == real_xi(kernel, feeder_op.s)
    assert rep.xi_delta_s == real_xi(kernel, feeder_s_next - feeder_op.s)


def test_certify_rejects_stale_operating_point(feeder_grid, feeder_op, feeder_s_next):
    # The kernel carries its admittance system, so the pair is checked on
    # every state-aware call, including the one a controller makes.
    bad_v = feeder_op.v * 1.05
    with pytest.raises(ValueError, match="mismatch"):
        fc.certify(
            feeder_grid.kernel,
            feeder_s_next,
            w=feeder_grid.w,
            v_hat=bad_v,
            s_hat=feeder_op.s,
        )


@pytest.mark.parametrize("missing", ["w", "v_hat", "s_hat"])
def test_certify_rejects_partial_operating_point(feeder_grid, feeder_op,
                                                 feeder_s_next, missing):
    full = {"w": feeder_grid.w, "v_hat": feeder_op.v, "s_hat": feeder_op.s}
    for given in (
        {key: value for key, value in full.items() if key != missing},
        {missing: full[missing]},
    ):
        with pytest.raises(ValueError, match="all of w, v_hat and s_hat"):
            fc.certify(feeder_grid.kernel, feeder_s_next, **given)


def test_state_free_verdict_is_exact_at_the_threshold():
    # On a unit line with the slack at 1 p.u., |K| = [[1]] and xi(s) = |s|
    # exactly: each x below reaches the verdict bit for bit.
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("0", "1", "line", 1 + 0j)],
        1.0,
        1.0,
    )
    kernel = fc.prepare_grid(net).kernel
    assert kernel.abs_k[0, 0] == 1.0
    edge = [0.0, 0.25, math.nextafter(0.25, 1.0), math.nextafter(0.25, 0.0)]
    rng = np.random.default_rng(39)
    for x in edge + list(rng.uniform(0.0, 0.5, 200)):
        rep = fc.certify(kernel, np.array([complex(x)]))
        assert rep.xi_s == x
        assert rep.corollary_ok == (x < 0.25)
        if x < 0.25:
            assert rep.rho == (1.0 - math.sqrt(1.0 - 4.0 * x)) / 2.0
        else:
            assert rep.rho is None


def test_solution_ball_membership(feeder_grid, feeder_op, feeder_s_next):
    rep = _state_aware(feeder_grid, feeder_op, feeder_s_next)
    ball = solution_ball(rep, feeder_op.v, feeder_grid.w)
    assert ball.contains(feeder_op.v)
    pushed = feeder_op.v.copy()
    pushed[4] += 1.01 * ball.radii[4]
    assert not ball.contains(pushed)


def test_solution_ball_reference_radius():
    # rho = 0.0412 on a unit-|w| bus: a 0.04 displacement stays inside.
    ok, _, rho = theorem_conditions(0.5692, 0.0164, 1.0050)
    assert ok
    rep = fc.CertificateReport(xi_s=0.577, rho=rho, theorem_ok=True)
    w = fc.ZeroLoadProfile(w=np.ones(3, dtype=complex))
    center = np.ones(3, dtype=complex)
    ball = solution_ball(rep, center, w)
    inside = center.copy()
    inside[1] += 0.04
    assert ball.contains(inside)
    outside = center.copy()
    outside[1] += 1.01 * rho
    assert not ball.contains(outside)


def test_solution_ball_requires_pass(feeder_grid, feeder_s_next):
    rep = fc.certify(feeder_grid.kernel, feeder_s_next)
    with pytest.raises(ValueError, match="failed certificate"):
        solution_ball(rep, feeder_grid.w.w, feeder_grid.w)
