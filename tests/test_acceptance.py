"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion asserts at its stated tolerance.
"""

import time

import numpy as np
import pytest

import flowcert as fc
from flowcert.certificate import theorem_conditions
from flowcert.continuation import sweep
from flowcert.fixed_point import iterate_once, solve_fixed_point
from flowcert.newton import mismatch_jacobian, power_mismatch, solve_newton
from flowcert.sparse_lu import factorize, solve
from netrand import (
    Branch,
    Bus,
    chain_network,
    from_records,
    random_injections,
    random_network,
    sample_in_ball,
    scale_to_xi,
    star_network,
)


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def certified_networks():
    """20 random networks (n <= 20, mixed elements) with injections
    scaled onto a state-free-certifiable loading level."""
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(20):
        net = random_network(rng, int(rng.integers(2, 21)))
        grid = fc.prepare_grid(net)
        s = scale_to_xi(
            grid.kernel, random_injections(rng, net.n), rng.uniform(0.08, 0.22)
        )
        report = fc.certify(grid.kernel, s)
        assert report.corollary_ok
        cases.append((net, grid, s, report))
    return cases


def test_criterion_1_certificate_arithmetic():
    ok, _, rho = theorem_conditions(0.5692, 0.0164, 1.0050)
    pass_ok = ok and abs(rho - 0.0412) <= 5e-4
    # the state-free condition is the theorem at the zero-load point
    cor_ok, _, cor_rho = theorem_conditions(0.0, 0.5770, 1.0)
    _verdict(
        1,
        pass_ok and not cor_ok and cor_rho is None,
        f"(state-aware rho={rho:.6f}, state-free correctly fails)",
    )


def test_criterion_2_feeder_scenario(feeder_grid, feeder_op, feeder_s_next):
    start = time.perf_counter()
    report = fc.certify(
        feeder_grid.kernel,
        feeder_s_next,
        w=feeder_grid.w,
        v_hat=feeder_op.v,
        s_hat=feeder_op.s,
    )
    in_band = 0.3 <= report.xi_s_hat <= 0.7
    stronger = report.theorem_ok and report.xi_s > 0.25 and not report.corollary_ok

    ball = fc.solution_ball(report, feeder_op.v, feeder_grid.w)
    fp = solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next, ball=ball)
    nr = solve_newton(feeder_grid.system, feeder_s_next)
    agree = float(np.max(np.abs(fp.v - nr.v))) < 1e-6
    contained = fp.contained_in_d and ball.contains(fp.v)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        in_band and stronger and agree and contained and elapsed < 1.0,
        f"(xi_hat={report.xi_s_hat:.4f}, xi={report.xi_s:.4f}, "
        f"rho={report.rho:.4f}, {elapsed:.2f}s)",
    )


def test_criterion_3_contraction_and_self_mapping(certified_networks):
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    violations = 0

    def g_normalized(grid, s, u):
        return iterate_once(grid.factors, grid.w, s, grid.w.w * u) / grid.w.w

    for net, grid, s, report in certified_networks:
        center = np.ones(net.n, dtype=complex)
        rho = report.rho
        for _ in range(100):
            u1 = sample_in_ball(rng, center, rho)
            u2 = sample_in_ball(rng, center, rho)
            lhs = np.max(np.abs(g_normalized(grid, s, u2) - g_normalized(grid, s, u1)))
            if not lhs < np.max(np.abs(u2 - u1)):
                violations += 1
        for _ in range(100):
            u = sample_in_ball(rng, center, rho)
            if not np.max(np.abs(g_normalized(grid, s, u) - center)) <= rho + 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        violations == 0 and elapsed < 30.0,
        f"(20 networks x (100 pairs + 100 points), "
        f"{violations} violations, {elapsed:.1f}s)",
    )


def test_criterion_4_hoelder_dominance_and_nesting(certified_networks):
    rng = np.random.default_rng(304)
    start = time.perf_counter()
    violations = 0
    for net, grid, s, _ in certified_networks:
        # implication at assorted loading levels along the ray
        for scale in (0.3, 0.7, 1.0, 1.5, 3.0, rng.uniform(0.1, 5.0)):
            priors = fc.check_prior_conditions(grid.kernel, scale * s)
            if priors.bolognani_ok or priors.improved_ok:
                if not fc.certify(grid.kernel, scale * s).corollary_ok:
                    violations += 1
        # mask nesting across a full 512-point sweep
        result = sweep(net, s, kappa_max=10.0, steps=512)
        violations += int(np.any(result.prior_mask & ~result.improved_mask))
        violations += int(np.any(result.improved_mask & ~result.corollary_mask))
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        violations == 0 and elapsed < 60.0,
        f"(20 networks, 512-point masks, {violations} violations, {elapsed:.1f}s)",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(305)
    start = time.perf_counter()
    worst_gap = 0.0
    for _ in range(50):
        net = random_network(rng, int(rng.integers(2, 16)))
        grid = fc.prepare_grid(net)
        s = scale_to_xi(
            grid.kernel, random_injections(rng, net.n), rng.uniform(0.05, 0.22)
        )
        fp = solve_fixed_point(grid.factors, grid.w, s)
        nr = solve_newton(grid.system, s)
        worst_gap = max(worst_gap, float(np.max(np.abs(fp.v - nr.v))))

    worst_jac = 0.0
    step = 1e-7
    for _ in range(20):
        net = random_network(rng, int(rng.integers(2, 8)))
        grid = fc.prepare_grid(net)
        n = net.n
        s = random_injections(rng, n)
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
        worst_jac = max(
            worst_jac,
            float(np.max(np.abs(jac - fd)) / max(np.max(np.abs(fd)), 1.0)),
        )
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        worst_gap < 1e-6 and worst_jac < 1e-6 and elapsed < 60.0,
        f"(max solver gap {worst_gap:.2e}, max Jacobian error {worst_jac:.2e}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_6_scalar_closed_form():
    rng = np.random.default_rng(306)
    checked = 0
    worst = 0.0
    while checked < 100:
        y = rng.uniform(0.5, 10.0)
        s_val = rng.uniform(-0.24, 0.24) * y
        if abs(s_val) / y >= 0.25:  # state-free condition on the unit-w scalar case
            continue
        net = from_records(
            [Bus("0", "slack"), Bus("1", "load")],
            [Branch("0", "1", "line", complex(y))],
            1.0,
            1.0,
        )
        grid = fc.prepare_grid(net)
        s = np.array([complex(s_val)])
        assert fc.certify(grid.kernel, s).corollary_ok
        res = solve_fixed_point(grid.factors, grid.w, s, tol=1e-13)
        root = (1.0 + np.sqrt(1.0 + 4.0 * s_val / y)) / 2.0
        worst = max(worst, abs(res.v[0] - root))
        checked += 1
    _verdict(6, worst < 1e-10, f"(100 draws, max gap {worst:.2e})")


def test_criterion_7_sparse_lu_scaling():
    results = []
    ok = True
    for n in (100, 1000, 10000):
        sys = fc.build_admittance(chain_network(n))
        factors = factorize(sys.y_ll)
        fill_ok = factors.fill_in_count <= 4 * n
        start = time.perf_counter()
        w = solve(factors, -sys.y_l0 * sys.slack_voltage)
        solve_time = time.perf_counter() - start
        time_ok = solve_time < 1.0 if n == 10000 else True
        ok = ok and fill_ok and time_ok and w.shape == (n,)
        results.append(f"n={n}: fill={factors.fill_in_count}, solve={solve_time:.3f}s")
    # A bushy tree: every leaf hangs off one hub, whose column a pivot
    # search must not rescan per candidate.
    n = 2000
    sys = fc.build_admittance(star_network(n))
    start = time.perf_counter()
    factors = factorize(sys.y_ll)
    w = solve(factors, -sys.y_l0 * sys.slack_voltage)
    elapsed = time.perf_counter() - start
    ok = ok and factors.fill_in_count <= 4 * n and elapsed < 1.0 and w.shape == (n,)
    results.append(
        f"star n={n}: fill={factors.fill_in_count}, factorize+solve={elapsed:.3f}s"
    )
    _verdict(7, ok, "(" + "; ".join(results) + ")")


def test_criterion_8_quadratic_form_positivity(certified_networks):
    rng = np.random.default_rng(308)
    violations = 0
    for net, grid, _, _ in certified_networks:
        y = grid.system.y_ll.toarray()
        for _ in range(100):
            x = rng.normal(size=net.n) + 1j * rng.normal(size=net.n)
            if not np.real(np.conj(x) @ (y @ x)) > 0:
                violations += 1
    _verdict(
        8,
        violations == 0,
        f"(20 networks x 100 vectors, {violations} violations)",
    )
