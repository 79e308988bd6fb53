import json
import sys

import numpy as np
import pytest

import flowcert as fc
from flowcert.cli import main
from conftest import FEEDER_DIR
from netrand import chain_network

NETWORK = str(FEEDER_DIR / "network.json")
S_BASE = str(FEEDER_DIR / "injections_base.json")
S_NEXT = str(FEEDER_DIR / "injections_next.json")
OP = str(FEEDER_DIR / "operating_point.json")


def run(argv):
    return main(argv)


def test_check_with_operating_point_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["check", "--network", NETWORK, "--injections", S_NEXT,
                "--operating-point", OP, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "flowcert-report/2"
    assert doc["theorem_ok"] is True
    assert doc["corollary_ok"] is False
    assert doc["xi_s"] > 0.25
    assert 0 < doc["rho"] < 1


def test_check_without_operating_point_fails(tmp_path):
    out = tmp_path / "report.json"
    code = run(["check", "--network", NETWORK, "--injections", S_NEXT,
                "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["corollary_ok"] is False
    assert doc["theorem_ok"] is None
    assert doc["rho"] is None


def test_check_zero_injections_passes_with_zero_radius(tmp_path):
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps({"injections": []}))
    out = tmp_path / "report.json"
    code = run(["check", "--network", NETWORK, "--injections", str(zeros),
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["xi_s"] == 0
    assert doc["rho"] == 0
    assert doc["corollary_ok"] is True
    assert doc["bolognani_ok"] is True and doc["improved_ok"] is True


def test_check_rejects_stale_operating_point(tmp_path, capsys):
    stale = json.loads((FEEDER_DIR / "operating_point.json").read_text())
    for rec in stale["voltages"]:
        rec["re"] *= 1.05
    stale_path = tmp_path / "stale.json"
    stale_path.write_text(json.dumps(stale))
    out = tmp_path / "report.json"
    code = run(["check", "--network", NETWORK, "--injections", S_NEXT,
                "--operating-point", str(stale_path), "--out", str(out)])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


def test_solve_zero_injections_returns_unloaded_profile(tmp_path):
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps({"injections": []}))
    out = tmp_path / "solve.json"
    code = run(["solve", "--network", NETWORK, "--injections", str(zeros),
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    mags = [rec["magnitude"] for rec in doc["voltages"]]
    assert mags == pytest.approx([1.0] * 12, abs=1e-9)


def test_solve_feeder_matches_library(tmp_path, feeder_grid, feeder_s_next):
    out = tmp_path / "solve.json"
    code = run(["solve", "--network", NETWORK, "--injections", S_NEXT,
                "--operating-point", OP, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True and doc["contained_in_d"] is True
    res = fc.solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next)
    got = np.array([complex(r["re"], r["im"]) for r in doc["voltages"]])
    assert np.max(np.abs(got - res.v)) < 1e-9
    assert all("magnitude" in r and "bus" in r for r in doc["voltages"])


def test_solve_scalar_quadratic_fixture(tmp_path):
    y = 4.0
    net_doc = {
        "bases": {"power_mva": 1.0, "voltage_kv": 1.0},
        "buses": [{"id": "0", "kind": "slack"}, {"id": "1", "kind": "load"}],
        "branches": [{"from": "0", "to": "1", "kind": "line", "g": y, "b": 0.0}],
    }
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net_doc))
    s_val = -0.6
    inj_path = tmp_path / "inj.json"
    inj_path.write_text(
        json.dumps({"injections": [{"bus": "1", "p_mw": s_val, "q_mvar": 0.0}]})
    )
    out = tmp_path / "solve.json"
    code = run(["solve", "--network", str(net_path), "--injections", str(inj_path),
                "--tol", "1e-13", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    root = (1 + np.sqrt(1 + 4 * s_val / y)) / 2  # closed-form scalar solution
    assert doc["voltages"][0]["re"] == pytest.approx(root, abs=1e-10)
    assert doc["voltages"][0]["im"] == pytest.approx(0.0, abs=1e-10)


def test_solve_non_convergence_exit_code(tmp_path):
    heavy = tmp_path / "heavy.json"
    heavy.write_text(json.dumps({"injections": [
        {"bus": "6", "p_mw": 500.0, "q_mvar": 400.0}
    ]}))
    out = tmp_path / "solve.json"
    code = run(["solve", "--network", NETWORK, "--injections", str(heavy),
                "--max-iter", "40", "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["converged"] is False


def test_sweep_tiny_grid_all_pass(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--network", NETWORK, "--injections", S_BASE,
                "--kappa-max", "0.01", "--steps", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "1" and cells[3] == "1" and cells[4] == "1"
        assert cells[5] == "1"


def test_sweep_table_is_monotone_and_nested(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--network", NETWORK, "--injections", S_BASE,
                "--operating-point", OP, "--kappa-max", "20", "--steps", "48",
                "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    corollary = np.array([c[2] == "1" for c in rows])
    improved = np.array([c[3] == "1" for c in rows])
    prior = np.array([c[4] == "1" for c in rows])
    for mask in (corollary, improved, prior):
        flipped = np.flatnonzero(~mask)
        if len(flipped):
            assert not mask[flipped[0]:].any()
    assert not np.any(prior & ~improved)
    assert not np.any(improved & ~corollary)
    theorem = np.array([c[1] == "1" for c in rows])
    assert theorem.any()  # the state-aware band shows up around kappa_hat


def test_sweep_with_operating_point_factorizes_once(tmp_path, monkeypatch):
    # The operating point is checked on the system the sweep builds, so
    # the admittance is assembled and factorized once.
    calls = {"build_admittance": [], "factorize": []}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name].append(1)
            return real(*args, **kwargs)
        return counted

    for name, real in (("build_admittance", fc.admittance.build_admittance),
                       ("factorize", fc.sparse_lu.factorize)):
        wrapped = counting(name, real)
        for module in list(sys.modules.values()):
            if (module.__name__ or "").startswith("flowcert") and \
                    getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapped)
    code = run(["sweep", "--network", NETWORK, "--injections", S_BASE,
                "--operating-point", OP, "--steps", "8",
                "--out", str(tmp_path / "sweep.csv")])
    assert code == 0
    assert len(calls["build_admittance"]) == 1
    assert len(calls["factorize"]) == 1


def test_dump_matrix_coordinates(tmp_path, feeder_net):
    out = tmp_path / "y.txt"
    code = run(["dump-matrix", "--network", NETWORK, "--out", str(out)])
    assert code == 0
    full = fc.full_admittance(feeder_net).toarray()
    for line in out.read_text().strip().split("\n"):
        i, j, re, im = line.split(" ")
        assert complex(float(re), float(im)) == full[int(i), int(j)]


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    """A 10^4-bus chain, twice the dense kernel's size cap, loaded at its tip."""
    root = tmp_path_factory.mktemp("long_chain")
    net_path, inj_path = root / "net.json", root / "inj.json"
    net_path.write_text(fc.serialize_network(chain_network(10_000)))
    inj_path.write_text(json.dumps({"injections": [
        {"bus": "10000", "p_mw": -1e-4, "q_mvar": -5e-5}
    ]}))
    return str(net_path), str(inj_path)


@pytest.mark.parametrize("subcommand", ["check", "solve"])
def test_long_radial_feeder_runs_past_the_dense_cap(tmp_path, long_chain, subcommand):
    net_path, inj_path = long_chain
    out = tmp_path / "out.json"
    code = run([subcommand, "--network", net_path, "--injections", inj_path,
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    if subcommand == "check":
        assert doc["kernel"] == "tree" and doc["corollary_ok"] is True
    else:
        assert doc["converged"] is True and doc["certified"] is True


def test_golden_byte_stability(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["check", "--network", NETWORK, "--injections", S_NEXT,
                    "--operating-point", OP, "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_file_is_input_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["check", "--network", "/nonexistent/net.json",
                "--injections", S_NEXT, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("subcommand", ["check", "solve"])
def test_singular_network_is_input_error(tmp_path, capsys, subcommand):
    # build_network accepts a vanishing branch; the factorization refuses it
    net_doc = {
        "bases": {"power_mva": 1.0, "voltage_kv": 1.0},
        "buses": [{"id": "0", "kind": "slack"}, {"id": "1", "kind": "load"}],
        "branches": [{"from": "0", "to": "1", "kind": "line", "g": 1e-20, "b": 0.0}],
    }
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net_doc))
    inj_path = tmp_path / "inj.json"
    inj_path.write_text(
        json.dumps({"injections": [{"bus": "1", "p_mw": 0.1, "q_mvar": 0.0}]})
    )
    code = run([subcommand, "--network", str(net_path), "--injections",
                str(inj_path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "singular" in err and err.count("\n") == 1


def test_non_finite_step_writes_failed_document(tmp_path, capsys):
    # An injection this large makes the first step NaN: the solve fails
    # with exit 3 and a document that leaves the step out.
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"injections": [
        {"bus": "6", "p_mw": 1e307, "q_mvar": 1e307}
    ]}))
    out = tmp_path / "solve.json"
    with np.errstate(all="ignore"):
        code = run(["solve", "--network", NETWORK, "--injections", str(huge),
                    "--out", str(out)])
    assert code == 3
    assert "not finite" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["converged"] is False and doc["iterations"] == 1
    assert "final_step" not in doc


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("subcommand,option", [
    ("sweep", "--kappa-max"), ("sweep", "--tol"), ("solve", "--tol"),
])
def test_range_or_tolerance_that_is_not_finite_and_positive_is_input_error(
    tmp_path, capsys, subcommand, option, value
):
    out = tmp_path / "out"
    extra = ["--steps", "4"] if subcommand == "sweep" else []
    code = run([subcommand, "--network", NETWORK, "--injections", S_NEXT,
                *extra, option, value, "--out", str(out)])
    assert code == 2
    assert "must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_garbage_network_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = tmp_path / "r.json"
    code = run(["check", "--network", str(bad), "--injections", S_NEXT,
                "--out", str(out)])
    assert code == 2
    assert "JSON" in capsys.readouterr().err
