import numpy as np
import pytest

import flowcert as fc
from flowcert.errors import ConvergenceError, VoltageCollapseError
from flowcert.fixed_point import iterate_once, solve_fixed_point
from netrand import random_injections, random_network, sample_in_ball, scale_to_xi


def scalar_grid(y=1 - 5j):
    net = fc.build_network(
        [fc.Bus("0", "slack"), fc.Bus("1", "load")],
        [fc.Branch("0", "1", "line", y)],
        1.0,
        1.0,
    )
    return fc.prepare_grid(net)


def test_zero_injection_update_is_constant(feeder_grid):
    rng = np.random.default_rng(41)
    v = 1.0 + 0.2 * (rng.normal(size=12) + 1j * rng.normal(size=12))
    out = iterate_once(feeder_grid.factors, feeder_grid.w, np.zeros(12), v)
    assert np.max(np.abs(out - feeder_grid.w.w)) < 1e-12


def test_solution_is_fixed_point(feeder_grid, feeder_op):
    out = iterate_once(feeder_grid.factors, feeder_grid.w, feeder_op.s, feeder_op.v)
    assert np.max(np.abs(out - feeder_op.v)) < 1e-9


def test_single_bus_update_hand_oracle():
    grid = scalar_grid(y=1 - 5j)
    s = np.array([0.1 + 0.05j])
    v = np.array([1.0 + 0j])
    expected = 1.0 + np.conj(s[0]) / (1 - 5j)
    out = iterate_once(grid.factors, grid.w, s, v)
    assert abs(out[0] - expected) < 1e-14


def test_voltage_floor_collapse():
    grid = scalar_grid()
    with pytest.raises(VoltageCollapseError, match="floor"):
        iterate_once(grid.factors, grid.w, np.array([0.1 + 0j]),
                     np.array([1e-8 + 0j]))


def test_zero_injection_converges_in_one_iteration(feeder_grid):
    res = solve_fixed_point(feeder_grid.factors, feeder_grid.w, np.zeros(12))
    assert res.iterations == 1
    assert np.max(np.abs(res.v - feeder_grid.w.w)) == 0.0
    assert not res.certified and res.contained_in_d is None


def quadratic_root(w, y, s):
    """Closed-form positive branch of v = w + s/(y v) for real data."""
    return (w + np.sqrt(w * w + 4 * s / y)) / 2


def test_scalar_real_case_matches_quadratic_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        y = rng.uniform(0.5, 10.0)
        grid = scalar_grid(y=complex(y))
        # keep the loading certifiable: xi = |s| / y for unit w
        s_val = rng.uniform(-0.2, 0.24) * y
        s = np.array([complex(s_val)])
        if not fc.certify(grid.kernel, s).corollary_ok:
            continue
        res = solve_fixed_point(grid.factors, grid.w, s, tol=1e-13)
        assert abs(res.v[0] - quadratic_root(1.0, y, s_val)) < 1e-10


def test_feeder_agrees_with_newton(feeder_grid, feeder_s_next):
    fp = solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next)
    nr = fc.solve_newton(feeder_grid.system, feeder_s_next)
    assert np.max(np.abs(fp.v - nr.v)) < 1e-6


def test_residual_within_ten_tol(feeder_grid, feeder_s_next):
    tol = 1e-9
    res = solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next,
                            tol=tol)
    assert res.final_step < tol
    assert res.residual < 10 * tol


def test_containment_checks(feeder_grid, feeder_op, feeder_s_next):
    rep = fc.certify(feeder_grid.kernel, feeder_s_next, w=feeder_grid.w,
                     v_hat=feeder_op.v, s_hat=feeder_op.s)
    ball = fc.solution_ball(rep, feeder_op.v, feeder_grid.w)
    res = solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next,
                            ball=ball)
    assert res.certified and res.contained_in_d
    assert ball.contains(res.v)
    assert ball.contains(feeder_op.v)
    pushed = res.v.copy()
    pushed[0] += 2 * rep.rho * abs(feeder_grid.w.w[0])
    assert not ball.contains(pushed)


def test_default_start_is_ball_center(feeder_grid, feeder_op, feeder_s_next):
    rep = fc.certify(feeder_grid.kernel, feeder_s_next, w=feeder_grid.w,
                     v_hat=feeder_op.v, s_hat=feeder_op.s)
    ball = fc.solution_ball(rep, feeder_op.v, feeder_grid.w)
    res = solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next,
                            ball=ball)
    # the first step is taken from the ball's center, v_hat
    first = iterate_once(feeder_grid.factors, feeder_grid.w, feeder_s_next,
                         feeder_op.v)
    assert res.step_history[0] == np.max(np.abs((first - feeder_op.v)
                                                / feeder_grid.w.w))


def test_non_convergence_reports_last_iterate(feeder_grid, feeder_s_next):
    with pytest.raises(ConvergenceError) as excinfo:
        solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next,
                          max_iter=2)
    err = excinfo.value
    assert err.iterations == 2
    assert err.last_step > 0
    assert err.iterate.shape == (12,)


def test_non_finite_step_fails_at_once(feeder_grid, feeder_s_next):
    s = feeder_s_next.copy()
    s[3] = complex(np.nan, 0.0)
    with pytest.raises(ConvergenceError, match="not finite") as excinfo:
        solve_fixed_point(feeder_grid.factors, feeder_grid.w, s)
    err = excinfo.value
    assert err.iterations == 1
    assert np.isnan(err.last_step)
    assert np.array_equal(err.iterate, feeder_grid.w.w)  # the last finite iterate


# --- contraction machinery ------------------------------------------------------


def normalized_update(grid, s, u):
    """The update operator in normalized coordinates, via v = w u."""
    v = grid.w.w * u
    return iterate_once(grid.factors, grid.w, s, v) / grid.w.w


def certified_setup(rng, n_load=10, target_xi=0.18):
    net = random_network(rng, n_load)
    grid = fc.prepare_grid(net)
    s = scale_to_xi(grid.kernel, random_injections(rng, net.n), target_xi)
    rep = fc.certify(grid.kernel, s)
    assert rep.corollary_ok
    return grid, s, rep


def test_contraction_witness():
    rng = np.random.default_rng(43)
    grid, s, rep = certified_setup(rng)
    center = np.ones(grid.net.n, dtype=complex)
    for _ in range(100):
        u1 = sample_in_ball(rng, center, rep.rho)
        u2 = sample_in_ball(rng, center, rep.rho)
        lhs = np.max(np.abs(normalized_update(grid, s, u2)
                            - normalized_update(grid, s, u1)))
        rhs = np.max(np.abs(u2 - u1))
        assert lhs < rhs


def test_self_mapping_witness():
    rng = np.random.default_rng(44)
    grid, s, rep = certified_setup(rng)
    center = np.ones(grid.net.n, dtype=complex)
    for _ in range(100):
        u = sample_in_ball(rng, center, rep.rho)
        out = normalized_update(grid, s, u)
        assert np.max(np.abs(out - center)) <= rep.rho + 1e-9


def test_step_decay_under_certificate():
    rng = np.random.default_rng(45)
    grid, s, rep = certified_setup(rng, target_xi=0.2)
    ball = fc.solution_ball(rep, grid.w.w, grid.w)
    res = solve_fixed_point(grid.factors, grid.w, s, tol=1e-12, ball=ball)
    steps = res.step_history
    for k in range(len(steps) - 5):
        assert steps[k + 5] < steps[k]


def test_u_and_v_coordinate_iterations_agree(feeder_grid, feeder_s_next):
    grid = feeder_grid
    # manual normalized-coordinate loop as the second route
    u = np.ones(12, dtype=complex)
    for _ in range(60):
        u = normalized_update(grid, feeder_s_next, u)
    res = solve_fixed_point(grid.factors, grid.w, feeder_s_next,
                            tol=1e-13, max_iter=60 + 5)
    assert np.max(np.abs(grid.w.w * u - res.v)) < 1e-10
