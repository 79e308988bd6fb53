import copy
import json

import numpy as np
import pytest

import flowcert as fc
from flowcert.errors import InvalidNetworkError

MINIMAL_DOC = {
    "bases": {"power_mva": 1.0, "voltage_kv": 1.0},
    "buses": [
        {"id": "0", "kind": "slack"},
        {"id": "1", "kind": "load"},
    ],
    "branches": [{"from": "0", "to": "1", "kind": "line", "g": 1.0, "b": -10.0}],
}


def test_parse_minimal_two_bus():
    net = fc.parse_network(json.dumps(MINIMAL_DOC))
    assert net.n == 1
    assert net.slack.id == "0"
    assert net.load_buses[0].id == "1"
    assert net.branches[0].admittance == 1 - 10j
    assert net.branches[0].ratio == 1


def test_parse_dangling_endpoint_rejected():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["branches"][0]["to"] = "99"
    with pytest.raises(InvalidNetworkError, match="unknown bus"):
        fc.parse_network(json.dumps(doc))


def test_build_network_names_bad_branch():
    with pytest.raises(InvalidNetworkError, match=r"'0'->'1'.*conductance"):
        fc.build_network(
            [fc.Bus("0", "slack"), fc.Bus("1", "load")],
            [fc.Branch("0", "1", "line", 0 - 5j)],
            1.0,
            1.0,
        )


def test_build_network_names_unreachable_bus():
    with pytest.raises(InvalidNetworkError, match=r"bus '2' is not reachable"):
        fc.build_network(
            [fc.Bus("0", "slack"), fc.Bus("1", "load"), fc.Bus("2", "load")],
            [fc.Branch("0", "1", "line", 1 - 2j)],
            1.0,
            1.0,
        )


def _two_bus(branch=None, shunt=0j, power_base=1.0):
    branch = branch or fc.Branch("0", "1", "line", 1 - 10j)
    return [fc.Bus("0", "slack"), fc.Bus("1", "load", shunt)], [branch], power_base, 1.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "args,message",
    [
        (_two_bus(fc.Branch("0", "1", "line", complex(NAN, -10))),
         "branch '0'->'1' has non-finite admittance (nan-10j)"),
        (_two_bus(fc.Branch("0", "1", "transformer", 1 - 10j, complex(1, NAN))),
         "branch '0'->'1' has non-finite ratio (1+nanj)"),
        (_two_bus(shunt=complex(0, INF)),
         "bus '1' has non-finite shunt admittance infj"),
        (_two_bus(power_base=NAN), "power base must be finite, got nan"),
    ],
    ids=["nan admittance", "nan ratio", "inf shunt", "nan power base"],
)
def test_build_network_rejects_non_finite_values(args, message):
    with pytest.raises(InvalidNetworkError) as excinfo:
        fc.build_network(*args)
    assert str(excinfo.value) == message


def test_build_network_reports_the_first_faulty_branch_and_its_first_rule():
    buses = [fc.Bus("0", "slack"), fc.Bus("1", "load"), fc.Bus("2", "load")]
    branches = [
        fc.Branch("0", "1", "line", 1 - 2j),
        # unknown end, unknown kind and zero conductance: the end is checked first
        fc.Branch("1", "9", "cable", 0 - 2j),
        # non-finite admittance, checked before every other rule of a branch
        fc.Branch("2", "2", "line", complex(NAN, 1)),
    ]
    with pytest.raises(InvalidNetworkError) as excinfo:
        fc.build_network(buses, branches, 1.0, 1.0)
    assert str(excinfo.value) == "branch '1'->'9' references unknown bus '9'"
    with pytest.raises(InvalidNetworkError) as excinfo:
        fc.build_network(buses, branches[::2], 1.0, 1.0)
    assert str(excinfo.value) == "branch '2'->'2' has non-finite admittance (nan+1j)"


def test_feeder_fixture_has_twelve_load_buses(feeder_net):
    assert feeder_net.n == 12
    assert feeder_net.is_radial
    assert [b.id for b in feeder_net.load_buses] == [str(i) for i in range(1, 13)]


def test_slack_is_reordered_to_front():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["buses"] = list(reversed(doc["buses"]))
    net = fc.parse_network(json.dumps(doc))
    assert net.slack.id == "0"
    assert net.index == {"0": 0, "1": 1}


# --- per-unit conversion ----------------------------------------------------


def test_to_per_unit_table_values():
    assert fc.to_per_unit(0.64 + 0.48j, 5.0) == 0.128 + 0.096j
    assert fc.to_per_unit(-0.48 - 0.32j, 5.0) == -0.096 - 0.064j


def test_to_per_unit_zero():
    assert fc.to_per_unit(0, 3.7) == 0


@pytest.mark.parametrize("base", [0.0, -5.0])
def test_to_per_unit_rejects_bad_base(base):
    with pytest.raises(ValueError, match="positive"):
        fc.to_per_unit(1 + 1j, base)


# --- round trips and ordering stability --------------------------------------


def test_parse_serialize_parse_is_identity(feeder_net):
    text = fc.serialize_network(feeder_net)
    again = fc.parse_network(text)
    assert again == feeder_net
    assert fc.serialize_network(again) == text


def test_repeated_parse_gives_identical_index_maps():
    text = json.dumps(MINIMAL_DOC)
    first = fc.parse_network(text)
    second = fc.parse_network(text)
    assert first.index == second.index
    assert first == second


# --- single-field violation fuzz ---------------------------------------------


def _mutations():
    base = {
        "bases": {"power_mva": 5.0, "voltage_kv": 2.4},
        "buses": [
            {"id": "0", "kind": "slack"},
            {"id": "1", "kind": "load", "shunt_g": 0.01, "shunt_b": 0.05},
            {"id": "2", "kind": "load"},
        ],
        "branches": [
            {"from": "0", "to": "1", "kind": "line", "g": 2.0, "b": -4.0},
            {
                "from": "1",
                "to": "2",
                "kind": "transformer",
                "g": 1.0,
                "b": -2.0,
                "ratio_re": 1.05,
                "ratio_im": 0.0,
            },
        ],
    }

    def mutate(**edits):
        doc = copy.deepcopy(base)
        for path, value in edits.items():
            section, idx, field = path.split(".")
            if value is None:
                del doc[section][int(idx)][field]
            else:
                doc[section][int(idx)][field] = value
        return doc

    duplicate = copy.deepcopy(base)
    duplicate["buses"][2]["id"] = "1"
    two_slacks = mutate(**{"buses.1.kind": "slack"})
    no_slack = mutate(**{"buses.0.kind": "load"})
    disconnected = copy.deepcopy(base)
    disconnected["branches"] = disconnected["branches"][1:]
    bad_base = copy.deepcopy(base)
    bad_base["bases"]["power_mva"] = 0.0

    return [
        ("duplicate bus id", duplicate),
        ("two slack buses", two_slacks),
        ("no slack bus", no_slack),
        ("unknown bus kind", mutate(**{"buses.2.kind": "generator"})),
        ("negative shunt conductance", mutate(**{"buses.1.shunt_g": -0.2})),
        ("zero branch conductance", mutate(**{"branches.0.g": 0.0})),
        ("negative branch conductance", mutate(**{"branches.0.g": -1.0})),
        ("zero ratio", mutate(**{"branches.1.ratio_re": 0.0})),
        ("line with non-unit ratio", mutate(**{"branches.0.ratio_re": 1.02})),
        ("self loop", mutate(**{"branches.0.to": "0"})),
        ("unknown branch kind", mutate(**{"branches.0.kind": "cable"})),
        ("disconnected graph", disconnected),
        ("non-positive power base", bad_base),
        ("missing g field", mutate(**{"branches.0.g": None})),
        ("string where number expected", mutate(**{"branches.0.b": "nope"})),
        ("infinite branch conductance", mutate(**{"branches.0.g": float("inf")})),
        ("NaN shunt susceptance", mutate(**{"buses.1.shunt_b": float("nan")})),
        ("integer beyond float range", mutate(**{"branches.0.b": -(10**400)})),
    ]


@pytest.mark.parametrize("label,doc", _mutations(), ids=[m[0] for m in _mutations()])
def test_single_field_violations_rejected(label, doc):
    with pytest.raises(InvalidNetworkError):
        fc.parse_network(json.dumps(doc))


def test_schema_garbage_rejected():
    with pytest.raises(InvalidNetworkError, match="JSON"):
        fc.parse_network("{not json")
    with pytest.raises(InvalidNetworkError, match="object"):
        fc.parse_network("[1, 2]")
    with pytest.raises(InvalidNetworkError, match="unknown network sections"):
        fc.parse_network(json.dumps({**MINIMAL_DOC, "extra": 1}))


# --- scenario files -----------------------------------------------------------


def test_parse_injections_fills_and_converts(feeder_net):
    text = json.dumps(
        {"injections": [{"bus": "6", "p_mw": 0.64, "q_mvar": 0.48}]}
    )
    s = fc.parse_injections(feeder_net, text)
    assert s[feeder_net.load_index("6")] == 0.128 + 0.096j
    assert np.count_nonzero(s) == 1  # unlisted buses default to zero


@pytest.mark.parametrize(
    "records,match",
    [
        ([{"bus": "99", "p_mw": 1, "q_mvar": 0}], "unknown bus"),
        ([{"bus": "0", "p_mw": 1, "q_mvar": 0}], "slack"),
        (
            [
                {"bus": "1", "p_mw": 1, "q_mvar": 0},
                {"bus": "1", "p_mw": 2, "q_mvar": 0},
            ],
            "duplicate",
        ),
        ([{"bus": "1", "p_mw": float("nan"), "q_mvar": 0}], "finite"),
    ],
)
def test_parse_injections_rejects(feeder_net, records, match):
    with pytest.raises(InvalidNetworkError, match=match):
        fc.parse_injections(feeder_net, json.dumps({"injections": records}))


def test_operating_point_round_trip(feeder_net, feeder_op, feeder_s_hat):
    assert feeder_op.provenance == "solved"
    assert feeder_op.v.shape == (12,)
    assert np.array_equal(feeder_op.s, feeder_s_hat)


@pytest.mark.parametrize(
    "injections",
    [
        [{"bus": "99", "p_mw": 1, "q_mvar": 0}],
        [{"bus": "1", "p_mw": float("nan"), "q_mvar": 0}],
        [{"bus": "1", "p_mw": 1}],
        [7],
        {"bus": "1"},
    ],
)
def test_operating_point_injections_fail_as_injection_documents_do(
    feeder_net, injections
):
    voltages = [{"bus": bus.id, "re": 1.0, "im": 0.0} for bus in feeder_net.load_buses]
    with pytest.raises(InvalidNetworkError) as plain:
        fc.parse_injections(feeder_net, json.dumps({"injections": injections}))
    with pytest.raises(InvalidNetworkError) as paired:
        fc.parse_operating_point(
            feeder_net, json.dumps({"voltages": voltages, "injections": injections}))
    assert str(paired.value) == str(plain.value)


def test_operating_point_without_injections_has_zero_injection(feeder_net):
    voltages = [{"bus": bus.id, "re": 1.0, "im": 0.0} for bus in feeder_net.load_buses]
    op = fc.parse_operating_point(feeder_net, json.dumps({"voltages": voltages}))
    assert np.array_equal(op.s, np.zeros(feeder_net.n, dtype=complex))


def test_operating_point_requires_all_voltages(feeder_net):
    doc = {"voltages": [{"bus": "1", "re": 1.0, "im": 0.0}], "injections": []}
    with pytest.raises(InvalidNetworkError, match="missing voltage"):
        fc.parse_operating_point(feeder_net, json.dumps(doc))
