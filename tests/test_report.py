import json
import math

import numpy as np
import pytest

import flowcert as fc
from flowcert import report
from netrand import random_injections, random_network


def _certificate_doc(grid, op, s):
    rep = fc.certify(grid.kernel, s, w=grid.w, v_hat=op.v, s_hat=op.s)
    return report.certificate_document(rep)


def test_certificate_floats_round_trip(feeder_grid, feeder_op, feeder_s_next):
    doc = _certificate_doc(feeder_grid, feeder_op, feeder_s_next)
    assert json.loads(report.render_document(doc)) == doc
    state_free = report.certificate_document(
        fc.certify(feeder_grid.kernel, feeder_s_next))
    assert json.loads(report.render_document(state_free)) == state_free


def test_solve_floats_round_trip(feeder_grid, feeder_net, feeder_s_next):
    result = fc.solve_fixed_point(feeder_grid.factors, feeder_grid.w, feeder_s_next)
    doc = report.solve_document(result, feeder_net)
    parsed = json.loads(report.render_document(doc))
    assert parsed == doc
    got = np.array([complex(r["re"], r["im"]) for r in parsed["voltages"]])
    assert np.array_equal(got, result.v)


def test_infinite_hoelder_exponent_is_a_string(feeder_grid, feeder_op,
                                               feeder_s_next):
    doc = _certificate_doc(feeder_grid, feeder_op, feeder_s_next)
    assert [e["p"] for e in doc["bolognani_detail"]] == [1.0, 2.0, "inf"]
    assert '"p": "inf"' in report.render_document(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_refused(value):
    with pytest.raises(ValueError):
        report.render_document(
            report.certificate_document(fc.CertificateReport(xi_s=value)))


def test_certificate_names_the_kernel_path(feeder_grid, feeder_s_next):
    doc = report.certificate_document(fc.certify(feeder_grid.kernel, feeder_s_next))
    assert doc["schema"] == "flowcert-report/2"
    assert doc["kernel"] == "tree"
    rng = np.random.default_rng(0)
    grid = fc.prepare_grid(random_network(rng, 20))  # two chords close loops
    doc = report.certificate_document(
        fc.certify(grid.kernel, random_injections(rng, grid.kernel.n)))
    assert doc["kernel"] == "dense"
