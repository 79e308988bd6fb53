import math

import numpy as np
import pytest

import flowcert as fc
from flowcert import fixed_point, sparse_lu
from flowcert.certificate import check_prior_conditions, theorem_conditions
from flowcert.continuation import sweep, sweep_table
from flowcert.errors import ConvergenceError, VoltageCollapseError
from flowcert.fixed_point import solve_fixed_point
from netrand import random_injections, random_network, random_tree


def small_sweep(feeder_net, feeder_s_hat, op=None, **kw):
    kw.setdefault("kappa_max", 20.0)
    kw.setdefault("steps", 64)
    return sweep(feeder_net, feeder_s_hat, operating_point=op, **kw)


def test_zero_loading_passes_everything(feeder_net, feeder_s_hat, feeder_op):
    result = small_sweep(feeder_net, feeder_s_hat, feeder_op)
    assert result.kappa_grid[0] == 0.0
    assert result.corollary_mask[0]
    assert result.improved_mask[0]
    assert result.prior_mask[0]


def test_corollary_boundary_matches_homogeneity_closed_form(
    feeder_net, feeder_grid, feeder_s_hat
):
    result = small_sweep(feeder_net, feeder_s_hat)
    # xi is absolutely homogeneous, so the state-free condition flips at
    # kappa* = 0.25 * ||s_hat||_1 / xi(s_hat) (in MVA).
    kappa_hat = np.sum(np.abs(feeder_s_hat)) * feeder_net.power_base
    closed_form = 0.25 * kappa_hat / fc.xi(feeder_grid.kernel, feeder_s_hat)
    assert result.corollary_boundary == pytest.approx(closed_form, abs=2e-5)


def test_masks_are_prefix_true(feeder_net, feeder_s_hat):
    result = small_sweep(feeder_net, feeder_s_hat)
    for mask in (result.corollary_mask, result.improved_mask, result.prior_mask):
        flipped = np.flatnonzero(~mask)
        if len(flipped):
            assert not mask[flipped[0]:].any()


def test_nesting_prior_improved_corollary(feeder_net, feeder_s_hat):
    result = small_sweep(feeder_net, feeder_s_hat)
    assert not np.any(result.prior_mask & ~result.improved_mask)
    assert not np.any(result.improved_mask & ~result.corollary_mask)
    # boundaries in the same order when present
    assert result.prior_boundary <= result.improved_boundary <= result.corollary_boundary


def test_nesting_on_random_networks():
    rng = np.random.default_rng(61)
    for _ in range(5):
        net = random_network(rng, int(rng.integers(3, 10)))
        ray = random_injections(rng, net.n)
        result = sweep(net, ray, kappa_max=10.0, steps=96)
        assert not np.any(result.prior_mask & ~result.improved_mask)
        assert not np.any(result.improved_mask & ~result.corollary_mask)


@pytest.mark.parametrize("make,path", [(random_tree, "tree"), (random_network, "dense")])
def test_theorem_mask_equals_per_point_evaluation(make, path, monkeypatch):
    rng = np.random.default_rng(67)
    net = make(rng, 40)
    grid = fc.prepare_grid(net)
    assert grid.kernel.path == path
    s_hat = -rng.uniform(0.5, 1.5, net.n) * (1 + 0.48j)
    s_hat *= 0.05 / fc.xi(grid.kernel, s_hat)
    v_hat = solve_fixed_point(grid.factors, grid.w, s_hat, tol=1e-13).v
    op = fc.OperatingPoint(v=v_hat, s=s_hat, provenance="solved")
    kappa_max = 10.0 * float(np.sum(np.abs(s_hat)))
    # blocks of 7 grid points: 14 full blocks and a last one of 2
    monkeypatch.setattr(sparse_lu, "BLOCK_ENTRIES", 7 * net.n)
    result = sweep(net, s_hat, operating_point=op, kappa_max=kappa_max, steps=100)

    u_min = fc.u_min(v_hat, grid.w)
    xi_s_hat = fc.xi(grid.kernel, s_hat)
    want = [
        theorem_conditions(xi_s_hat,
                           fc.xi(grid.kernel, (kappa / net.power_base) * result.direction
                                 - s_hat),
                           u_min)[0]
        for kappa in result.kappa_grid
    ]
    assert result.theorem_mask.tolist() == want
    assert 0 < sum(want) < len(want)


def test_theorem_interval_brackets_mask(feeder_net, feeder_s_hat, feeder_op):
    result = small_sweep(feeder_net, feeder_s_hat, feeder_op, steps=256)
    assert result.theorem_mask is not None
    assert result.theorem_interval is not None
    lo, hi = result.theorem_interval
    assert lo < result.kappa_hat < hi
    grid = result.kappa_grid
    inside = (grid > lo) & (grid < hi)
    assert np.array_equal(result.theorem_mask, inside)
    # boundary estimates bracket the mask transitions at grid resolution
    step = grid[1] - grid[0]
    first_true = grid[np.flatnonzero(result.theorem_mask)[0]]
    last_true = grid[np.flatnonzero(result.theorem_mask)[-1]]
    assert first_true - step <= lo <= first_true
    assert last_true <= hi <= last_true + step


def test_theorem_interval_ends_pass_their_condition(
    feeder_net, feeder_grid, feeder_s_hat, feeder_op
):
    # Each interior end passes the state-aware condition itself, and the
    # loading one bracket width (1e-6 kappa_max) farther out fails it.
    kernel = feeder_grid.kernel
    xi_s_hat = fc.xi(kernel, feeder_op.s)
    u_min = fc.u_min(feeder_op.v, feeder_grid.w)
    direction = feeder_s_hat / np.sum(np.abs(feeder_s_hat))

    def passes(kappa):
        s = (kappa / feeder_net.power_base) * direction
        return fc.theorem_conditions(xi_s_hat, fc.xi(kernel, s - feeder_op.s),
                                     u_min)[0]

    interior = 0
    for kappa_max in range(5, 41):
        result = small_sweep(feeder_net, feeder_s_hat, feeder_op,
                             kappa_max=float(kappa_max), steps=8)
        if result.theorem_interval is None:
            assert not passes(kappa_max)  # kappa_hat lies past the range
            continue
        tol = 1e-6 * kappa_max
        lo, hi = result.theorem_interval
        for end, beyond in ((lo, lo - tol), (hi, hi + tol)):
            if 0.0 < end < kappa_max:
                interior += 1
                assert passes(end)
                assert not passes(beyond)
    assert interior == 61


def _closed_form_limits(kernel, ray):
    """Each state-free condition's loading measure g at ``ray``, from its
    definition: xi, and the best plain and best weighted norm products."""
    dual = {1.0: np.inf, 2.0: 2.0, np.inf: 1.0}
    plain = min(kernel.row_norm[p] * np.linalg.norm(np.abs(ray), ord=q)
                for p, q in dual.items())
    weighted = min(kernel.weighted_row_norm[p]
                   * np.linalg.norm(np.abs(ray) / kernel.lam, ord=q)
                   for p, q in dual.items())
    return {"corollary": fc.xi(kernel, ray), "prior": plain,
            "improved": min(plain, weighted)}


def test_closed_form_boundaries_and_masks(feeder_net, feeder_s_hat):
    rng = np.random.default_rng(67)
    cases = [(feeder_net, feeder_s_hat)]
    for _ in range(12):
        net = random_network(rng, int(rng.integers(2, 15)))
        cases.append((net, random_injections(rng, net.n)))
    for net, ray in cases:
        kernel = fc.prepare_grid(net).kernel
        g = _closed_form_limits(kernel, ray)
        base = net.power_base
        want = {name: 0.25 * base * np.sum(np.abs(ray)) / value
                for name, value in g.items()}
        # the range ends past every boundary, so each one is reported
        result = sweep(net, ray, kappa_max=1.5 * max(want.values()), steps=200)
        for name in want:
            got = getattr(result, f"{name}_boundary")
            assert got == pytest.approx(want[name], rel=1e-12)
        for i, kappa in enumerate(result.kappa_grid):
            s = (kappa / base) * result.direction
            priors = check_prior_conditions(kernel, s)
            direct = {
                "corollary": theorem_conditions(0.0, fc.xi(kernel, s), 1.0)[0],
                "prior": priors.bolognani_ok,
                "improved": priors.improved_ok,
            }
            for name, ok in direct.items():
                if abs(kappa - want[name]) > 1e-9 * want[name]:
                    assert getattr(result, f"{name}_mask")[i] == ok, (name, kappa)


def test_boundaries_past_the_range_are_none(feeder_net, feeder_s_hat):
    result = small_sweep(feeder_net, feeder_s_hat, kappa_max=0.01)
    assert result.corollary_boundary is None
    assert result.improved_boundary is None
    assert result.prior_boundary is None
    assert result.corollary_mask.all() and result.prior_mask.all()


def test_stale_operating_point_rejected(feeder_net, feeder_s_hat, feeder_op):
    stale = fc.OperatingPoint(v=1.01 * feeder_op.v, s=feeder_op.s)
    with pytest.raises(fc.InvalidNetworkError, match="operating point"):
        small_sweep(feeder_net, feeder_s_hat, stale)


def test_empirical_convergence_where_corollary_passes(feeder_net, feeder_s_hat):
    result = sweep(feeder_net, feeder_s_hat, kappa_max=8.0, steps=24)
    assert result.fp_converged is not None
    assert not np.any(result.corollary_mask & ~result.fp_converged)


def single_outcomes(net, result, fp_tol=1e-9, fp_max_iter=100):
    """Per grid point, what solve_fixed_point alone returns ("ok") or raises."""
    grid = fc.prepare_grid(net)
    out = []
    for kappa in result.kappa_grid:
        s = (kappa / net.power_base) * result.direction
        try:
            solve_fixed_point(grid.factors, grid.w, s, tol=fp_tol, max_iter=fp_max_iter)
            out.append("ok")
        except (ConvergenceError, VoltageCollapseError) as exc:
            out.append(type(exc).__name__)
    return out


def test_fp_converged_matches_single_solves_past_the_limit():
    # The grid runs to several times the state-free limit, into columns
    # that retire at max_iter.
    rng = np.random.default_rng(62)
    outcomes = set()
    for draw in range(6):
        make = random_network if draw % 2 else random_tree
        net = make(rng, int(rng.integers(2, 60)))
        ray = random_injections(rng, net.n)
        grid = fc.prepare_grid(net)
        limit = fc.loading_limits(grid.kernel, ray / np.sum(np.abs(ray))).corollary
        result = sweep(net, ray, kappa_max=6.0 * limit * net.power_base, steps=40)
        want = single_outcomes(net, result)
        assert result.fp_converged.tolist() == [x == "ok" for x in want]
        outcomes.update(want)
    assert outcomes == {"ok", "ConvergenceError"}


def test_fp_converged_matches_single_solves_into_collapse(feeder_net, feeder_grid):
    # Along s* = -w conj(y_ll w) the first iterate is w + y_ll^-1
    # conj(s)/conj(w) = 0 up to roundoff at kappa = ||s*||_1: that grid
    # point collapses.
    w = feeder_grid.w.w
    ray = -w * np.conj(feeder_grid.system.y_ll @ w)
    kappa_max = float(np.sum(np.abs(ray))) * feeder_net.power_base
    result = sweep(feeder_net, ray, kappa_max=kappa_max, steps=24)
    want = single_outcomes(feeder_net, result)
    assert want[-1] == "VoltageCollapseError"
    assert result.fp_converged.tolist() == [x == "ok" for x in want]


def test_sweep_table_is_the_same_on_one_cpu_and_on_several(
        feeder_net, feeder_s_hat, feeder_op, monkeypatch):
    # 2048 points at 1365 columns a block: two full blocks for two loops.
    # 4 columns a block: 512 blocks, up to 3 loops.
    tables = set()
    for entries in (sparse_lu.BLOCK_ENTRIES, 48):
        monkeypatch.setattr(sparse_lu, "BLOCK_ENTRIES", entries)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(fixed_point, "_cpu_count", lambda: cpus)
            result = sweep(feeder_net, feeder_s_hat, operating_point=feeder_op,
                           kappa_max=200.0, steps=2048)
            tables.add(sweep_table(result))
    assert len(tables) == 1
    assert 0 < result.fp_converged.sum() < 2048


def test_sweep_evaluates_prior_conditions_once_per_point(
    feeder_net, feeder_s_hat, monkeypatch
):
    # The state-free boundaries and masks come from one closed-form
    # evaluation at the ray, so the count per grid point is 1 / steps.
    real = fc.certificate.check_prior_conditions
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fc.certificate, "check_prior_conditions", counted)
    for steps in (2, 16, 257):
        calls.clear()
        small_sweep(feeder_net, feeder_s_hat, steps=steps)
        assert len(calls) == 1


def test_sweep_rejects_bad_arguments(feeder_net, feeder_s_hat, feeder_op, monkeypatch):
    # Every argument is checked before set-up: no bad one reaches xi.
    calls = []
    real = fc.certificate.xi

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fc.certificate, "xi", counted)
    with pytest.raises(ValueError, match="grid points"):
        sweep(feeder_net, feeder_s_hat, steps=1)
    with pytest.raises(ValueError, match="zero"):
        sweep(feeder_net, np.zeros(feeder_net.n, dtype=complex))
    for value in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="kappa_max must be finite and positive"):
            sweep(feeder_net, feeder_s_hat, kappa_max=value, steps=4)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            sweep(feeder_net, feeder_s_hat, feeder_op, kappa_max=1.0, steps=512,
                  fp_tol=value)
    for value in (0, -1):
        with pytest.raises(ValueError, match="fp_max_iter must be at least 1"):
            sweep(feeder_net, feeder_s_hat, feeder_op, kappa_max=1.0, steps=512,
                  fp_max_iter=value)
    assert calls == []


def test_sweep_table_shape(feeder_net, feeder_s_hat, feeder_op):
    result = sweep(feeder_net, feeder_s_hat, operating_point=feeder_op,
                   kappa_max=12.0, steps=8)
    table = sweep_table(result)
    lines = table.strip().split("\n")
    assert lines[0] == "kappa,theorem,corollary,improved,prior,fp_converged"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "1"  # state-free pass at zero loading


def test_sweep_table_blank_columns_without_op(feeder_net, feeder_s_hat):
    result = small_sweep(feeder_net, feeder_s_hat, steps=4)
    lines = sweep_table(result).strip().split("\n")
    row = lines[1].split(",")
    assert row[1] == ""  # no theorem mask
    assert row[5] == "1"  # the fixed point converges at zero loading
