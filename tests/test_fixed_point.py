import math
import os
import sys
import threading

import numpy as np
import pytest

import flowcert as fc
from flowcert import fixed_point, sparse_lu
from flowcert.errors import ConvergenceError, VoltageCollapseError
from flowcert.fixed_point import (
    SolveResult,
    _iterate_block,
    iterate_once,
    solve_fixed_point,
)
from netrand import (
    Branch,
    Bus,
    from_records,
    random_injections,
    random_network,
    random_tree,
    sample_in_ball,
    scale_to_xi,
)


def scalar_grid(y=1 - 5j):
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("0", "1", "line", y)],
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


# --- the block loop ---------------------------------------------------------------


def test_solve_rejects_an_injection_that_is_not_one_vector(feeder_grid):
    # a scalar or length-1 injection would broadcast over every bus
    for s in (0.01, np.array([0.01 + 0j]), np.zeros(11), np.zeros((12, 1)), np.zeros((12, 2))):
        with pytest.raises(ValueError, match="shape"):
            solve_fixed_point(feeder_grid.factors, feeder_grid.w, s)
    with pytest.raises(ValueError, match="max_iter"):
        solve_fixed_point(feeder_grid.factors, feeder_grid.w, np.zeros(12), max_iter=0)
    # a ray's direction is one (n,) vector too
    with pytest.raises(ValueError, match=r"direction has shape \(11,\), expected \(12,\)"):
        fixed_point.converges(feeder_grid.factors, feeder_grid.w, np.zeros(11), [0.0, 1.0])


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solves_reject_a_tolerance_that_is_not_finite_and_positive(feeder_grid, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_fixed_point(feeder_grid.factors, feeder_grid.w, np.zeros(12), tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        fixed_point.converges(feeder_grid.factors, feeder_grid.w, np.zeros(12), [1.0], tol=tol)


def test_a_step_equal_to_tol_does_not_stop_the_iteration(feeder_grid, feeder_s_next):
    steps = solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next).step_history
    tol = float(steps[2])
    res = solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next, tol=tol)
    assert res.step_history[2] == tol and res.iterations > 3 and res.final_step < tol


def collapsing_injection(grid):
    """s with G(w) = w + y_ll^-1 conj(s) / conj(w) = 0 up to roundoff, so
    the first iterate lies below the voltage floor."""
    return -grid.w.w * np.conj(grid.system.y_ll @ grid.w.w)


def random_ray(grid, rng, count, reach=8.0):
    """A random direction d and ``count`` scales from zero to ``reach``
    times its state-free limit, where the iteration runs into max_iter."""
    d = random_injections(rng, grid.net.n)
    limit = fc.loading_limits(grid.kernel, d).corollary
    return d, np.linspace(0.0, reach * limit, count)


def ray_injections(grid, rng, count=24, reach=8.0):
    """The loadings of `random_ray`, plus a non-finite and a collapsing
    injection."""
    d, scales = random_ray(grid, rng, count, reach)
    out = [t * d for t in scales]
    nan = d.copy()
    nan[0] = complex(np.nan, 0.0)
    return out + [nan, collapsing_injection(grid)]


def single(grid, s, **kwargs):
    """What solve_fixed_point returns or raises for ``s`` on its own."""
    try:
        return solve_fixed_point(grid.factors, grid.w, s, **kwargs)
    except (ConvergenceError, VoltageCollapseError) as exc:
        return exc


def outcome_kind(outcome):
    if isinstance(outcome, ConvergenceError):
        return "not finite" if "finite" in str(outcome) else "max_iter"
    return type(outcome).__name__


def block(grid, injections, ball=None, tol=fixed_point.DEFAULT_TOL, max_iter=60):
    """Every injection's outcome from one run of the block loop, in order."""
    got = dict(_iterate_block(grid.factors, grid.w, enumerate((s, ball) for s in injections),
                              tol, max_iter))
    return [got[j] for j in range(len(injections))]


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, SolveResult):
        assert np.array_equal(got.v, want.v)
        assert got.iterations == want.iterations
        assert np.array_equal(got.step_history, want.step_history)
        assert got.final_step == want.final_step
        assert got.residual == want.residual
        assert (got.certified, got.contained_in_d) == (want.certified, want.contained_in_d)
    else:
        assert str(got) == str(want)
        if isinstance(want, ConvergenceError):
            assert got.iterations == want.iterations
            assert np.array_equal([got.last_step], [want.last_step], equal_nan=True)
            assert np.array_equal(got.iterate, want.iterate)


def plain_loop(grid, s, tol, max_iter):
    """One column on its own, step by step: the outcome's kind, its step
    history, the last iterate and the probe's residual (None unless
    converged)."""
    v = grid.w.w.copy()
    steps = []
    for _ in range(max_iter):
        v_next = iterate_once(grid.factors, grid.w, s, v)
        steps.append(float(np.max(np.abs((v_next - v) / grid.w.w))))
        if not np.isfinite(steps[-1]):
            return "not finite", steps, v, None
        v = v_next
        if steps[-1] < tol:
            probe = iterate_once(grid.factors, grid.w, s, v)
            return "converged", steps, v, float(np.max(np.abs((probe - v) / grid.w.w)))
    return "max_iter", steps, v, None


def test_block_columns_follow_the_plain_loop():
    rng = np.random.default_rng(48)
    grid = fc.prepare_grid(random_network(rng, 40))
    injections = ray_injections(grid, rng)[:-1]  # all but the collapsing one
    kinds = set()
    for got, s in zip(block(grid, injections, max_iter=30), injections):
        kind, steps, v, residual = plain_loop(grid, s, fixed_point.DEFAULT_TOL, 30)
        kinds.add(kind)
        if kind == "converged":
            assert np.array_equal(got.step_history, steps)
            assert np.array_equal(got.v, v) and got.residual == residual
        else:
            message = {"not finite": "not finite", "max_iter": "did not converge"}[kind]
            assert isinstance(got, ConvergenceError) and message in str(got)
            assert got.iterations == len(steps) and np.array_equal(got.iterate, v)
    assert kinds == {"converged", "not finite", "max_iter"}


def test_block_reproduces_single_solves_bitwise():
    rng = np.random.default_rng(46)
    kinds = set()
    for draw in range(8):
        make = random_network if draw % 2 else random_tree
        grid = fc.prepare_grid(make(rng, int(rng.integers(2, 80))))
        injections = ray_injections(grid, rng)
        for got, s in zip(block(grid, injections), injections):
            want = single(grid, s, max_iter=60)
            assert_same_outcome(got, want)
            kinds.add(outcome_kind(want))
    # converged, max_iter, non-finite and collapsed columns all occurred
    assert kinds == {"SolveResult", "max_iter", "not finite", "VoltageCollapseError"}


def test_block_keeps_each_columns_ball(feeder_grid, feeder_op, feeder_s_next):
    rep = fc.certify(feeder_grid.kernel, feeder_s_next, w=feeder_grid.w,
                     v_hat=feeder_op.v, s_hat=feeder_op.s)
    ball = fc.solution_ball(rep, feeder_op.v, feeder_grid.w)
    injections = [feeder_s_next, 1.001 * feeder_s_next, feeder_op.s]
    for got, s in zip(block(feeder_grid, injections, ball=ball, max_iter=200), injections):
        want = single(feeder_grid, s, ball=ball)
        assert_same_outcome(got, want)
        assert got.certified and got.contained_in_d is not None


def test_refill_keeps_the_block_within_its_budget(feeder_grid, monkeypatch):
    # A budget of 36 entries holds 3 of feeder13's 12-bus columns, so all
    # but the first 3 of the 40 injections enter the block as others retire.
    monkeypatch.setattr(sparse_lu, "BLOCK_ENTRIES", 36)
    widths = []

    def recorded(factors, w, s, v):
        widths.append(s.shape[1])
        return iterate_once(factors, w, s, v)

    monkeypatch.setattr(fixed_point, "iterate_once", recorded)
    rng = np.random.default_rng(47)
    injections = ray_injections(feeder_grid, rng, count=38)
    outcomes = block(feeder_grid, injections)
    monkeypatch.setattr(fixed_point, "iterate_once", iterate_once)
    for got, s in zip(outcomes, injections):
        assert_same_outcome(got, single(feeder_grid, s, max_iter=60))
    # Full while injections are pending, far longer than any one column
    # runs (max_iter 60 plus its probe); only then does the block shrink.
    full = next(i for i, width in enumerate(widths) if width < 3)
    assert set(widths[:full]) == {3} and full > 61
    assert widths[full:] == sorted(widths[full:], reverse=True)


# --- block loops on several CPUs --------------------------------------------------


def recorded_loops(monkeypatch):
    """Patch `_iterate_block` to record each loop's thread and every
    column's outcome, checking that no column is iterated twice; returns
    (threads, outcomes)."""
    threads, outcomes = [], {}

    def recording(*args):
        threads.append(threading.get_ident())
        for j, outcome in _iterate_block(*args):
            assert j not in outcomes
            outcomes[j] = outcome
            yield j, outcome

    monkeypatch.setattr(fixed_point, "_iterate_block", recording)
    return threads, outcomes


def counted_thread_starts(monkeypatch):
    starts = []
    start = threading.Thread.start

    def counting(self):
        starts.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return starts


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_converges_gives_the_same_outcomes_on_any_number_of_cpus(
        feeder_grid, monkeypatch, cpus):
    # 3 columns a block on 12-bus feeder13 and on a 40-bus meshed network:
    # each ray of 38 points fills 12 blocks, so every CPU count gets its
    # full number of loops; a short switch interval shuffles their
    # schedule.  Both rays run into max_iter, and along feeder13's
    # collapse ray s* = -w conj(y_ll w) the point at scale 1 collapses.
    monkeypatch.setattr(fixed_point, "_cpu_count", lambda: cpus)
    rng = np.random.default_rng(49)
    meshed = fc.prepare_grid(random_network(rng, 40))
    w = feeder_grid.w.w
    collapse = -w * np.conj(feeder_grid.system.y_ll @ w)
    rays = [(feeder_grid, 36, (collapse, np.linspace(0.0, 1.0, 38))),
            (meshed, 120, random_ray(meshed, rng, 38))]
    kinds = set()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for grid, entries, (direction, scales) in rays:
            monkeypatch.setattr(sparse_lu, "BLOCK_ENTRIES", entries)
            threads, outcomes = recorded_loops(monkeypatch)
            flags = fixed_point.converges(grid.factors, grid.w, direction, scales, max_iter=60)
            monkeypatch.setattr(fixed_point, "_iterate_block", _iterate_block)
            assert len(threads) == len(set(threads)) == cpus
            assert sorted(outcomes) == list(range(len(scales)))
            for j, c in enumerate(scales):
                want = single(grid, c * direction, max_iter=60)
                assert_same_outcome(outcomes[j], want)
                assert flags[j] == isinstance(want, SolveResult)
                kinds.add(outcome_kind(want))
            assert flags.any() and not flags.all()
    finally:
        sys.setswitchinterval(switch)
    assert kinds == {"SolveResult", "max_iter", "VoltageCollapseError"}


def test_no_thread_starts_for_one_block_or_a_single_solve(feeder_grid, monkeypatch):
    monkeypatch.setattr(fixed_point, "_cpu_count", lambda: 4)
    monkeypatch.setattr(sparse_lu, "BLOCK_ENTRIES", 36)  # 3 columns a block
    starts = counted_thread_starts(monkeypatch)
    rng = np.random.default_rng(50)
    direction, scales = random_ray(feeder_grid, rng, 6)  # 6: two full blocks
    single(feeder_grid, scales[1] * direction)
    for count in (1, 3, 5):
        fixed_point.converges(feeder_grid.factors, feeder_grid.w, direction, scales[:count])
    assert starts == []
    fixed_point.converges(feeder_grid.factors, feeder_grid.w, direction, scales)
    assert len(starts) == 1  # two full blocks: one worker beside the caller


def test_an_exception_in_a_worker_loop_raises_in_the_caller(feeder_grid, monkeypatch):
    monkeypatch.setattr(fixed_point, "_cpu_count", lambda: 3)
    monkeypatch.setattr(sparse_lu, "BLOCK_ENTRIES", 36)
    direction, scales = random_ray(feeder_grid, np.random.default_rng(51), 38)
    main = threading.main_thread()

    def failing_in_workers(*args):
        if threading.current_thread() is not main:
            raise RuntimeError("worker update failed")
        return iterate_once(*args)

    monkeypatch.setattr(fixed_point, "iterate_once", failing_in_workers)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="worker update failed"):
        fixed_point.converges(feeder_grid.factors, feeder_grid.w, direction, scales)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus, error", [(2, KeyboardInterrupt), (3, RuntimeError)])
def test_a_failing_caller_loop_stops_the_worker_loops(feeder_grid, monkeypatch, cpus, error):
    # 3 columns a block and 90 points: each loop has far more than one
    # update left when the caller's fifth update raises.  A worker may
    # be inside the update it started before the stop, but makes no more.
    monkeypatch.setattr(fixed_point, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(sparse_lu, "BLOCK_ENTRIES", 36)
    direction, scales = random_ray(feeder_grid, np.random.default_rng(53), 90)
    main = threading.main_thread()
    raised = threading.Event()
    caller_updates, late_updates = [], []

    def failing_in_the_caller(*args):
        if threading.current_thread() is main:
            caller_updates.append(1)
            if len(caller_updates) == 5:
                raised.set()
                raise error("caller update failed")
        elif raised.is_set():
            late_updates.append(threading.get_ident())
        return iterate_once(*args)

    monkeypatch.setattr(fixed_point, "iterate_once", failing_in_the_caller)
    before = threading.active_count()
    with pytest.raises(error, match="caller update failed"):
        fixed_point.converges(feeder_grid.factors, feeder_grid.w, direction, scales)
    assert threading.active_count() == before
    assert all(late_updates.count(worker) <= 1 for worker in late_updates)


def test_a_bad_argument_fails_before_any_worker_starts(feeder_grid, monkeypatch):
    monkeypatch.setattr(fixed_point, "_cpu_count", lambda: 3)
    monkeypatch.setattr(sparse_lu, "BLOCK_ENTRIES", 36)
    starts = counted_thread_starts(monkeypatch)
    updates = []

    def counting(*args):
        updates.append(1)
        return iterate_once(*args)

    monkeypatch.setattr(fixed_point, "iterate_once", counting)
    direction, scales = random_ray(feeder_grid, np.random.default_rng(52), 38)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        fixed_point.converges(feeder_grid.factors, feeder_grid.w, direction, scales, tol=math.nan)
    with pytest.raises(ValueError, match=r"direction has shape \(11,\), expected \(12,\)"):
        fixed_point.converges(feeder_grid.factors, feeder_grid.w, direction[:11], scales)
    assert starts == [] and updates == []


def test_cpu_count_is_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert fixed_point._cpu_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert fixed_point._cpu_count() == 5
