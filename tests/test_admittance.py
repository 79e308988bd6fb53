import numpy as np
import pytest

import flowcert as fc
from netrand import random_network

rng_positivity = np.random.default_rng(101)


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
    net = fc.build_network(
        [fc.Bus("0", "slack"), fc.Bus("1", "load")],
        [fc.Branch("0", "1", "transformer", yt, ratio)],
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
    net = fc.build_network(
        [fc.Bus("0", "slack"), fc.Bus("1", "load", shunt)],
        [fc.Branch("0", "1", "line", y)],
        1.0,
        1.0,
    )
    sys = fc.build_admittance(net)
    assert sys.y_ll.toarray()[0, 0] == y + shunt


def test_parallel_branches_are_summed():
    y1, y2 = 1 - 3j, 2 - 5j
    net = fc.build_network(
        [fc.Bus("0", "slack"), fc.Bus("1", "load")],
        [fc.Branch("0", "1", "line", y1), fc.Branch("0", "1", "line", y2)],
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
    shuffled = fc.build_network(
        net.buses, list(reversed(net.branches)), net.power_base, net.voltage_base
    )
    assert np.array_equal(
        fc.full_admittance(net).toarray(), fc.full_admittance(shuffled).toarray()
    )


def test_transformer_reciprocity():
    # The same physical transformer declared from the secondary side must
    # stamp the identical block: admittance y|K|^-2 and ratio K^-1.
    yt = 1.5 - 4j
    ratio = 0.97 * np.exp(-0.03j)
    primary = fc.build_network(
        [fc.Bus("0", "slack"), fc.Bus("1", "load")],
        [fc.Branch("0", "1", "transformer", yt, ratio)],
        1.0,
        1.0,
    )
    secondary = fc.build_network(
        [fc.Bus("0", "slack"), fc.Bus("1", "load")],
        [fc.Branch("1", "0", "transformer", yt / abs(ratio) ** 2, 1 / ratio)],
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
