import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcert as fc
from flowcert.continuation import bisect_boundary, sweep, sweep_table
from netrand import random_injections, random_network


def test_bisect_simple_threshold():
    got = bisect_boundary(lambda k: k < 1.0, 0.0, 2.0, tol=1e-6)
    assert got == pytest.approx(1.0, abs=1e-6)


@settings(deadline=None, max_examples=30)
@given(cut=st.floats(min_value=0.05, max_value=9.95))
def test_bisect_arbitrary_threshold(cut):
    got = bisect_boundary(lambda k: k < cut, 0.0, 10.0, tol=1e-9)
    assert got == pytest.approx(cut, abs=1e-8)


def test_bisect_invalid_bracket():
    with pytest.raises(ValueError, match="invalid bracket"):
        bisect_boundary(lambda k: True, 0.0, 1.0, tol=1e-6)


def small_sweep(feeder_net, feeder_s_hat, op=None, **kw):
    kw.setdefault("kappa_max", 20.0)
    kw.setdefault("steps", 64)
    kw.setdefault("run_fixed_point", False)
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
        result = sweep(net, ray, kappa_max=10.0, steps=96, run_fixed_point=False)
        assert not np.any(result.prior_mask & ~result.improved_mask)
        assert not np.any(result.improved_mask & ~result.corollary_mask)


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


def test_empirical_convergence_where_corollary_passes(feeder_net, feeder_s_hat):
    result = sweep(feeder_net, feeder_s_hat, kappa_max=8.0, steps=24,
                   run_fixed_point=True)
    assert result.fp_converged is not None
    assert not np.any(result.corollary_mask & ~result.fp_converged)


def test_sweep_evaluates_prior_conditions_once_per_point(
    feeder_net, feeder_s_hat, monkeypatch
):
    real = fc.certificate.check_prior_conditions
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fc.certificate, "check_prior_conditions", counted)
    n = 16
    small_sweep(feeder_net, feeder_s_hat, steps=n)
    with_n = len(calls)
    small_sweep(feeder_net, feeder_s_hat, steps=2 * n)
    assert len(calls) - with_n - with_n == n


def test_sweep_rejects_bad_arguments(feeder_net, feeder_s_hat):
    with pytest.raises(ValueError, match="grid points"):
        sweep(feeder_net, feeder_s_hat, steps=1)
    with pytest.raises(ValueError, match="kappa_max"):
        sweep(feeder_net, feeder_s_hat, kappa_max=0.0)
    with pytest.raises(ValueError, match="zero"):
        sweep(feeder_net, np.zeros(feeder_net.n, dtype=complex))


def test_sweep_table_shape(feeder_net, feeder_s_hat, feeder_op):
    result = sweep(feeder_net, feeder_s_hat, operating_point=feeder_op,
                   kappa_max=12.0, steps=8, run_fixed_point=True)
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
    assert row[1] == "" and row[5] == ""  # no theorem mask, no fp column
