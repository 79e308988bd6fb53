import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import flowcert as fc
from netrand import Branch, Bus, from_records, random_network, records

rng_positivity = np.random.default_rng(101)


# --- reference: stamping one branch at a time --------------------------------


def reference_full_admittance(net):
    """The scalar assembly: each branch's four stamps (the quotients by
    numpy's division, as the array assembly takes them) and each shunt,
    grouped per cell in a dict, each cell's stamps sorted by (real, imag)
    and added with ``sum``."""
    rows, cols, vals = [], [], []

    def put(i, j, value):
        rows.append(i)
        cols.append(j)
        vals.append(value)

    buses, branches = records(net)
    for br in branches:
        i = net.index[br.from_bus]
        j = net.index[br.to_bus]
        y = br.admittance
        k = br.ratio
        put(i, i, y)
        put(i, j, np.divide(-y, k))
        put(j, i, np.divide(-y, np.conj(k)))
        put(j, j, np.divide(y, np.square(np.abs(k))))
    for bus in buses:
        if bus.shunt_admittance != 0:
            i = net.index[bus.id]
            put(i, i, bus.shunt_admittance)

    cells = {}
    for i, j, v in zip(rows, cols, vals):
        cells.setdefault((i, j), []).append(v)
    out_rows, out_cols, out_vals = [], [], []
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


def bits(matrix):
    """A CSC matrix's structure and its values' bit patterns."""
    return (matrix.indptr.tolist(), matrix.indices.tolist(),
            matrix.data.view(np.int64).tolist())


admittances = st.builds(
    complex,
    st.floats(1e-3, 1e3),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
)
ratios = st.one_of(
    st.just(1 + 0j),
    st.builds(cmath.rect, st.floats(0.5, 2.0), st.floats(-0.6, 0.6)),
)
shunts = st.one_of(
    st.just(0j),
    st.builds(complex, st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, -0.0, 2.0])),
    st.builds(complex, st.floats(0.0, 10.0), st.floats(-10.0, 10.0)),
)


@st.composite
def stamped_networks(draw):
    """Connected networks with parallel branches (some exact copies),
    transformers declared from either side, shunts on branch ends, and
    the branch list permuted."""
    n = draw(st.integers(1, 7))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n + 1)]
    pairs += draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda p: p[0] != p[1]),
        max_size=n))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # parallel
    branches = []
    for a, b in pairs:
        y, k = draw(admittances), draw(ratios)
        if k == 1 and draw(st.booleans()):
            branches.append(Branch(str(a), str(b), "line", y))
        elif draw(st.booleans()):
            branches.append(Branch(str(a), str(b), "transformer", y, k))
        else:  # the same transformer, declared from its other side
            branches.append(Branch(str(b), str(a), "transformer", y / abs(k) ** 2, 1 / k))
    branches += draw(st.lists(st.sampled_from(branches), max_size=2))  # exact copies
    buses = [Bus("0", "slack", draw(shunts))]
    buses += [Bus(str(i), "load", draw(shunts)) for i in range(1, n + 1)]
    return from_records(buses, draw(st.permutations(branches)), 1.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(stamped_networks())
def test_stamping_matches_the_scalar_reference_bitwise(net):
    reference = reference_full_admittance(net)
    assert bits(fc.full_admittance(net)) == bits(reference)
    system = fc.build_admittance(net)
    assert bits(system.y_ll) == bits(reference[1:, 1:].tocsc())
    y_l0 = np.asarray(reference[1:, 0].todense()).ravel()
    assert system.y_l0.view(np.int64).tolist() == y_l0.view(np.int64).tolist()


def test_single_line_blocks(two_bus_net):
    y = 1 - 10j
    full = fc.full_admittance(two_bus_net).toarray()
    assert np.array_equal(full, np.array([[y, -y], [-y, y]]))
    sys = fc.build_admittance(two_bus_net)
    assert sys.y_ll.toarray() == [[y]]
    assert sys.y_l0 == [-y]
    assert sys.slack_voltage == 1
    assert sys.n == 1


def test_transformer_block():
    yt = 2 - 6j
    ratio = 1.05 * np.exp(0.02j)
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("0", "1", "transformer", yt, ratio)],
        1.0,
        1.0,
    )
    full = fc.full_admittance(net).toarray()
    expected = np.array(
        [
            [yt, -yt / ratio],
            [-yt / np.conj(ratio), yt / abs(ratio) ** 2],
        ]
    )
    assert np.allclose(full, expected, rtol=0, atol=1e-15)


def test_shunt_adds_to_diagonal():
    y = 3 - 9j
    shunt = 0.02 + 0.4j
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load", shunt)],
        [Branch("0", "1", "line", y)],
        1.0,
        1.0,
    )
    sys = fc.build_admittance(net)
    assert sys.y_ll.toarray()[0, 0] == y + shunt


def test_parallel_branches_are_summed():
    y1, y2 = 1 - 3j, 2 - 5j
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("0", "1", "line", y1), Branch("0", "1", "line", y2)],
        1.0,
        1.0,
    )
    full = fc.full_admittance(net).toarray()
    assert np.allclose(full[0, 1], -(y1 + y2))
    assert np.allclose(full[0, 0], y1 + y2)


def test_zero_row_sums_without_transformers_or_shunts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(2, 12)),
                             transformers=False, shunts=False)
        full = fc.full_admittance(net).toarray()
        row_sums = np.abs(full.sum(axis=1))
        scale = np.abs(full).max(axis=1)
        assert np.all(row_sums <= 1e-12 * np.maximum(scale, 1.0))


def test_stamping_is_order_independent():
    rng = np.random.default_rng(4)
    net = random_network(rng, 8)
    # the same network with a parallel branch beside each of three branches
    buses, branches = records(net)
    parallel = from_records(
        buses,
        [*branches,
         *(Branch(br.from_bus, br.to_bus, br.kind, 1.37 * br.admittance, br.ratio)
           for br in branches[:3])],
        net.power_base, net.voltage_base,
    )
    for network in (net, parallel):
        buses, branches = records(network)
        shuffled = from_records(
            buses, list(reversed(branches)),
            network.power_base, network.voltage_base,
        )
        assert bits(fc.full_admittance(network)) == bits(fc.full_admittance(shuffled))


def test_transformer_reciprocity():
    # The same physical transformer declared from the secondary side must
    # stamp the identical block: admittance y|K|^-2 and ratio K^-1.
    yt = 1.5 - 4j
    ratio = 0.97 * np.exp(-0.03j)
    primary = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("0", "1", "transformer", yt, ratio)],
        1.0,
        1.0,
    )
    secondary = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("1", "0", "transformer", yt / abs(ratio) ** 2, 1 / ratio)],
        1.0,
        1.0,
    )
    assert np.allclose(
        fc.full_admittance(primary).toarray(),
        fc.full_admittance(secondary).toarray(),
        rtol=0,
        atol=1e-14,
    )


def test_symmetric_without_transformers():
    rng = np.random.default_rng(5)
    net = random_network(rng, 9, transformers=False)
    y = fc.full_admittance(net).toarray()
    assert np.array_equal(y, y.T)


def test_diagonal_conductance_positive():
    rng = np.random.default_rng(6)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(2, 15)))
        sys = fc.build_admittance(net)
        assert np.all(sys.y_ll.diagonal().real > 0)


@pytest.mark.parametrize("trial", range(10))
def test_quadratic_form_positive(trial):
    # Re(x^H Y_LL x) decomposes into non-negative weighted squares and is
    # strictly positive on any connected network with positive conductances.
    net = random_network(rng_positivity, int(rng_positivity.integers(2, 20)))
    y = fc.build_admittance(net).y_ll.toarray()
    n = y.shape[0]
    for _ in range(100):
        x = rng_positivity.normal(size=n) + 1j * rng_positivity.normal(size=n)
        assert np.real(np.conj(x) @ (y @ x)) > 0
