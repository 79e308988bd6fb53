import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcert as fc
from flowcert.errors import DegenerateNetworkError
from flowcert.zero_load import ZeroLoadProfile, compute_w, u_min
from netrand import Branch, Bus, from_records


def test_lines_only_profile_is_unity(feeder_grid):
    # no shunts, no transformers: zero injections draw zero current
    assert np.max(np.abs(feeder_grid.w.w - 1)) < 1e-10


def test_transformer_profile_matches_dense_oracle():
    yt = 2 - 5j
    ratio = 1.04 * np.exp(0.03j)
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load")],
        [Branch("0", "1", "transformer", yt, ratio)],
        1.0,
        1.0,
    )
    grid = fc.prepare_grid(net)
    dense = np.linalg.solve(
        grid.system.y_ll.toarray(), -grid.system.y_l0 * grid.system.slack_voltage
    )
    assert np.max(np.abs(grid.w.w - dense)) < 1e-12


def test_capacitive_shunt_raises_voltage():
    net = from_records(
        [Bus("0", "slack"), Bus("1", "load", 0.0 + 0.5j)],
        [Branch("0", "1", "line", 1 - 4j)],
        1.0,
        1.0,
    )
    grid = fc.prepare_grid(net)
    dense = np.linalg.solve(grid.system.y_ll.toarray(), -grid.system.y_l0)
    assert abs(grid.w.w[0]) > 1
    assert np.max(np.abs(grid.w.w - dense)) < 1e-12


def test_profile_solves_its_defining_system(feeder_grid):
    sys = feeder_grid.system
    lhs = sys.y_ll @ feeder_grid.w.w
    rhs = -sys.y_l0 * sys.slack_voltage
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_unit_ratio_transformers_no_shunts_give_unity():
    rng = np.random.default_rng(21)
    buses = [Bus("0", "slack")] + [Bus(str(i), "load") for i in range(1, 7)]
    branches = []
    for i in range(1, 7):
        y = 1 / complex(rng.uniform(0.01, 0.1), rng.uniform(0.02, 0.2))
        kind = "transformer" if i % 2 else "line"
        branches.append(Branch(str(i - 1), str(i), kind, y, 1 + 0j))
    net = from_records(buses, branches, 1.0, 1.0)
    grid = fc.prepare_grid(net)
    assert np.max(np.abs(grid.w.w - 1)) < 1e-10


def test_u_min_examples(feeder_grid):
    w = feeder_grid.w
    assert u_min(w.w, w) == pytest.approx(1.0)
    halved = w.w.copy()
    halved[3] *= 0.5
    assert u_min(halved, w) == pytest.approx(0.5)


def test_u_min_on_lines_only_network_is_min_magnitude(feeder_grid, feeder_op):
    # the feeder has w = 1, so normalization drops out
    assert u_min(feeder_op.v, feeder_grid.w) == pytest.approx(
        float(np.min(np.abs(feeder_op.v))), rel=1e-12
    )


@settings(deadline=None)
@given(phase=st.floats(min_value=0.0, max_value=2 * np.pi))
def test_u_min_invariant_under_global_phase(phase):
    rng = np.random.default_rng(23)
    w = ZeroLoadProfile(w=rng.normal(size=6) + 1j * rng.normal(size=6) + 3.0)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    rotated = v * np.exp(1j * phase)
    assert u_min(rotated, w) == pytest.approx(u_min(v, w), rel=1e-12)


def test_degenerate_profile_rejected():
    sys = fc.AdmittanceSystem(
        y_ll=fc.full_admittance(
            from_records(
                [Bus("0", "slack"), Bus("1", "load")],
                [Branch("0", "1", "line", 1 - 1j)],
                1.0,
                1.0,
            )
        )[1:, 1:].tocsc(),
        y_l0=np.array([0j]),  # no slack coupling: w comes out exactly zero
        slack_voltage=1 + 0j,
        n=1,
    )
    factors = fc.factorize(sys.y_ll)
    with pytest.raises(DegenerateNetworkError, match="degenerate"):
        compute_w(sys, factors)
