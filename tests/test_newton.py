import numpy as np
import pytest

import flowcert as fc
from flowcert.errors import ConvergenceError
from flowcert.newton import mismatch_jacobian, power_mismatch, solve_newton
from netrand import (
    Branch,
    Bus,
    from_records,
    random_injections,
    random_network,
    records,
    scale_to_xi,
)


def branchwise_injection_oracle(net, v_full):
    """Complex power injected at each load bus, summed branch by branch.

    Independent of the stamped matrix: walks the branch list and shunt
    fields directly, so it cross-checks the assembly + mismatch path.
    """
    index = net.index
    buses, branches = records(net)
    currents = np.zeros(len(buses), dtype=complex)
    for br in branches:
        i, j = index[br.from_bus], index[br.to_bus]
        y, k = br.admittance, br.ratio
        currents[i] += y * (v_full[i] - v_full[j] / k)
        currents[j] += (y / np.conj(k)) * (v_full[j] / k - v_full[i])
    for bus in buses:
        if bus.shunt_admittance != 0:
            i = index[bus.id]
            currents[i] += bus.shunt_admittance * v_full[i]
    return (v_full * np.conj(currents))[1:]


def test_mismatch_zero_at_fixed_point_solution(feeder_grid, feeder_s_next):
    res = fc.solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next)
    m = power_mismatch(feeder_grid.system, res.v, feeder_s_next)
    assert np.max(np.abs(m)) < 1e-9


def test_mismatch_zero_at_unloaded_profile(feeder_grid):
    m = power_mismatch(feeder_grid.system, feeder_grid.w.w, np.zeros(12))
    assert np.max(np.abs(m)) < 1e-9


def test_mismatch_matches_branchwise_oracle():
    rng = np.random.default_rng(51)
    for _ in range(10):
        net = random_network(rng, int(rng.integers(2, 12)))
        grid = fc.prepare_grid(net)
        v = 1.0 + 0.1 * (rng.normal(size=net.n) + 1j * rng.normal(size=net.n))
        s = random_injections(rng, net.n)
        v_full = np.concatenate([[grid.system.slack_voltage], v])
        expected = s - branchwise_injection_oracle(net, v_full)
        got = power_mismatch(grid.system, v, s)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(52)
    step = 1e-7
    for _ in range(4):
        net = random_network(rng, int(rng.integers(2, 8)))
        grid = fc.prepare_grid(net)
        n = net.n
        s = random_injections(rng, n)
        for _ in range(5):  # 20 random points overall
            v = 1.0 + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            jac = mismatch_jacobian(grid.system, v, s)

            def f(x):
                m = power_mismatch(grid.system, x[:n] + 1j * x[n:], s)
                return np.concatenate([m.real, m.imag])

            x0 = np.concatenate([v.real, v.imag])
            fd = np.empty((2 * n, 2 * n))
            for col in range(2 * n):
                dx = np.zeros(2 * n)
                dx[col] = step
                fd[:, col] = (f(x0 + dx / 2) - f(x0 - dx / 2)) / step
            denom = max(np.max(np.abs(fd)), 1.0)
            assert np.max(np.abs(jac - fd)) / denom < 1e-6


def test_zero_injection_converges_immediately(feeder_grid):
    res = solve_newton(feeder_grid.system, np.zeros(12))
    assert res.iterations <= 1
    assert res.mismatch < 1e-10
    assert np.max(np.abs(res.v - feeder_grid.w.w)) < 1e-9


def test_scalar_quadratic_case():
    y = 4.0
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("0", "1", "line", complex(y))],
        1.0,
        1.0,
    )
    sys = fc.build_admittance(net)
    s_val = -0.6
    res = solve_newton(sys, np.array([complex(s_val)]))
    expected = (1 + np.sqrt(1 + 4 * s_val / y)) / 2
    assert abs(res.v[0] - expected) < 1e-10


def test_feeder_agreement_with_fixed_point(feeder_grid, feeder_s_next):
    nr = solve_newton(feeder_grid.system, feeder_s_next)
    fp = fc.solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next)
    assert nr.mismatch < 1e-10
    assert np.max(np.abs(nr.v - fp.v)) < 1e-6


def test_random_solvable_cases_agree():
    rng = np.random.default_rng(53)
    for _ in range(15):
        net = random_network(rng, int(rng.integers(2, 15)))
        grid = fc.prepare_grid(net)
        s = scale_to_xi(grid.kernel, random_injections(rng, net.n),
                        rng.uniform(0.05, 0.22))
        fp = fc.solve_fixed_point(grid.factors, grid.w, s)
        nr = solve_newton(grid.system, s)
        assert np.max(np.abs(fp.v - nr.v)) < 1e-6


def test_non_convergence_raises():
    rng = np.random.default_rng(54)
    net = random_network(rng, 5)
    sys = fc.build_admittance(net)
    with pytest.raises(ConvergenceError):
        solve_newton(sys, np.full(5, 50 + 50j), max_iter=3)
