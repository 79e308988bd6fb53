import copy
import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcert as fc
from flowcert.errors import InvalidNetworkError
from flowcert.network import NetworkArrays, NetworkDescription
from netrand import (
    Branch,
    Bus,
    chain_network,
    from_records,
    random_network,
    records,
    star_network,
)

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
    assert net.bus_ids == ("0", "1")
    assert net.branch_kinds == ("line",)
    assert net.arrays.admittance[0] == 1 - 10j
    assert net.arrays.ratio[0] == 1


def test_parse_dangling_endpoint_rejected():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["branches"][0]["to"] = "99"
    with pytest.raises(InvalidNetworkError, match="unknown bus"):
        fc.parse_network(json.dumps(doc))


def test_build_network_names_bad_branch():
    with pytest.raises(InvalidNetworkError, match=r"'0'->'1'.*conductance"):
        from_records(
            [Bus("0", "slack"), Bus("1", "load")],
            [Branch("0", "1", "line", 0 - 5j)],
            1.0,
            1.0,
        )


def test_build_network_names_unreachable_bus():
    with pytest.raises(InvalidNetworkError, match=r"bus '2' is not reachable"):
        from_records(
            [Bus("0", "slack"), Bus("1", "load"), Bus("2", "load")],
            [Branch("0", "1", "line", 1 - 2j)],
            1.0,
            1.0,
        )


def _two_bus(branch=None, shunt=0j, power_base=1.0):
    branch = branch or Branch("0", "1", "line", 1 - 10j)
    return [Bus("0", "slack"), Bus("1", "load", shunt)], [branch], power_base, 1.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "args,message",
    [
        (_two_bus(Branch("0", "1", "line", complex(NAN, -10))),
         "branch '0'->'1' has non-finite admittance (nan-10j)"),
        (_two_bus(Branch("0", "1", "transformer", 1 - 10j, complex(1, NAN))),
         "branch '0'->'1' has non-finite ratio (1+nanj)"),
        (_two_bus(shunt=complex(0, INF)),
         "bus '1' has non-finite shunt admittance infj"),
        (_two_bus(power_base=NAN), "power base must be finite, got nan"),
    ],
    ids=["nan admittance", "nan ratio", "inf shunt", "nan power base"],
)
def test_build_network_rejects_non_finite_values(args, message):
    with pytest.raises(InvalidNetworkError) as excinfo:
        from_records(*args)
    assert str(excinfo.value) == message


BAD_COLUMNS = [["0", "1"], ["slack", "load"], [0j, 0j], ["0"], ["1"], ["line"], [1 - 10j],
               [1 + 0j], 1.0, 1.0]


@pytest.mark.parametrize(
    "column,value,message",
    [
        (0, [[1], "1"], "bus_ids must be hashable: unhashable type: 'list'"),
        (3, [[0]], "from_ids must be hashable: unhashable type: 'list'"),
        (4, [{1}], "to_ids must be hashable: unhashable type: 'set'"),
        (2, ["x", 0j], "shunts must be numbers: complex() arg is a malformed string"),
        (6, ["x"], "admittances must be numbers: complex() arg is a malformed string"),
        (7, ["x"], "ratios must be numbers: complex() arg is a malformed string"),
        (8, "x", "power base must be a real number, got 'x'"),
        (9, 1j, "voltage base must be a real number, got 1j"),
    ],
    ids=["bus id", "from id", "to id", "shunt", "admittance", "ratio", "power base",
         "voltage base"],
)
def test_build_network_names_the_column_of_a_value_of_the_wrong_type(column, value, message):
    columns = list(BAD_COLUMNS)
    columns[column] = value
    with pytest.raises(InvalidNetworkError) as excinfo:
        fc.build_network(*columns)
    assert str(excinfo.value) == message


def test_build_network_reports_the_first_faulty_branch_and_its_first_rule():
    buses = [Bus("0", "slack"), Bus("1", "load"), Bus("2", "load")]
    branches = [
        Branch("0", "1", "line", 1 - 2j),
        # unknown end, unknown kind and zero conductance: the end is checked first
        Branch("1", "9", "cable", 0 - 2j),
        # non-finite admittance, checked before every other rule of a branch
        Branch("2", "2", "line", complex(NAN, 1)),
    ]
    with pytest.raises(InvalidNetworkError) as excinfo:
        from_records(buses, branches, 1.0, 1.0)
    assert str(excinfo.value) == "branch '1'->'9' references unknown bus '9'"
    with pytest.raises(InvalidNetworkError) as excinfo:
        from_records(buses, branches[::2], 1.0, 1.0)
    assert str(excinfo.value) == "branch '2'->'2' has non-finite admittance (nan+1j)"


def test_build_network_rejects_columns_of_unequal_length_first():
    # every other rule is broken too: a bad base, a non-finite shunt,
    # two slack buses and a self-loop
    columns = [["0", "0", "1"], ["slack", "slack", "load"], [NAN, 0j, 0j],
               ["0"], ["0"], ["line"], [-1 + 0j], [1 + 0j]]
    for which in range(len(columns)):
        short = [column[:-1] if k == which else column for k, column in enumerate(columns)]
        what = "bus" if which < 3 else "branch"
        with pytest.raises(InvalidNetworkError,
                           match=f"^{what} columns must be one-dimensional and of one length"):
            fc.build_network(*short, NAN, 1.0)
    with pytest.raises(InvalidNetworkError, match=r"shunts \(3, 1\)"):
        fc.build_network(*columns[:2], np.zeros((3, 1)), *columns[3:], NAN, 1.0)


def test_equality_compares_columns_by_value(feeder_net):
    again = fc.parse_network(fc.serialize_network(feeder_net))
    assert again == feeder_net and not again != feeder_net
    buses, branches = records(feeder_net)
    nudged = list(branches)
    y = nudged[5].admittance
    nudged[5] = dataclasses.replace(nudged[5], admittance=complex(np.nextafter(y.real, 2.0),
                                                                  y.imag))
    assert from_records(buses, nudged, 5.0, 2.4) != feeder_net
    assert from_records(buses, branches, 5.0, 2.4) == feeder_net
    # a shunt of -0.0 against 0.0: equal, as the numbers are
    positive = from_records([Bus("0", "slack"), Bus("1", "load", complex(0.0, 0.0))],
                            [Branch("0", "1", "line", 1 - 10j)])
    negative = from_records([Bus("0", "slack"), Bus("1", "load", complex(-0.0, -0.0))],
                            [Branch("0", "1", "line", 1 - 10j)])
    assert np.signbit(negative.arrays.shunt[1].real)
    assert positive == negative
    assert feeder_net != "network"
    with pytest.raises(TypeError, match="unhashable"):
        hash(feeder_net)


def test_is_radial():
    rng = np.random.default_rng(12)
    tree = random_network(rng, 20, meshed=False)
    buses, branches = records(tree)
    assert chain_network(8).is_radial
    assert star_network(8).is_radial
    assert tree.is_radial
    assert not from_records(buses, branches + [Branch("3", "17", "line", 2 - 5j)]).is_radial
    assert not from_records(buses, branches + [branches[7]]).is_radial  # a parallel branch
    assert not random_network(np.random.default_rng(3), 20, meshed=True).is_radial


def test_feeder_fixture_has_twelve_load_buses(feeder_net):
    assert feeder_net.n == 12
    assert feeder_net.is_radial
    assert feeder_net.bus_ids == tuple(str(i) for i in range(13))


def test_fixture_script_builds_the_committed_feeder_layout(feeder_net, feeder_op):
    root = Path(__file__).resolve().parents[1]
    path = root / "scripts" / "make_feeder_fixture.py"
    spec = importlib.util.spec_from_file_location("make_feeder_fixture", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    net = script.build_net(script.Z_PER_KFT)
    assert net.bus_ids == feeder_net.bus_ids
    assert net.branch_kinds == feeder_net.branch_kinds
    assert np.array_equal(net.arrays.from_pos, feeder_net.arrays.from_pos)
    assert np.array_equal(net.arrays.to_pos, feeder_net.arrays.to_pos)
    assert (net.power_base, net.voltage_base) == (feeder_net.power_base, feeder_net.voltage_base)
    # With its constant impedance scale the script rewrites the network and
    # injection files byte for byte; Newton's voltages agree to roundoff.
    _, _, files = script.build_fixture()
    committed = root / "data" / "feeder13"
    for name in ("network.json", "injections_base.json", "injections_next.json"):
        assert files[name] == (committed / name).read_text(encoding="utf-8"), name
    op = fc.parse_operating_point(feeder_net, files["operating_point.json"])
    assert np.array_equal(op.s, feeder_op.s)
    assert np.max(np.abs(op.v - feeder_op.v)) <= 1e-12


def test_slack_is_reordered_to_front():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["buses"] = list(reversed(doc["buses"]))
    net = fc.parse_network(json.dumps(doc))
    assert net.bus_ids == ("0", "1")
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
    voltages = [{"bus": bus_id, "re": 1.0, "im": 0.0} for bus_id in feeder_net.bus_ids[1:]]
    with pytest.raises(InvalidNetworkError) as plain:
        fc.parse_injections(feeder_net, json.dumps({"injections": injections}))
    with pytest.raises(InvalidNetworkError) as paired:
        fc.parse_operating_point(
            feeder_net, json.dumps({"voltages": voltages, "injections": injections}))
    assert str(paired.value) == str(plain.value)


def test_operating_point_without_injections_has_zero_injection(feeder_net):
    voltages = [{"bus": bus_id, "re": 1.0, "im": 0.0} for bus_id in feeder_net.bus_ids[1:]]
    op = fc.parse_operating_point(feeder_net, json.dumps({"voltages": voltages}))
    assert np.array_equal(op.s, np.zeros(feeder_net.n, dtype=complex))


def test_operating_point_requires_all_voltages(feeder_net):
    doc = {"voltages": [{"bus": "1", "re": 1.0, "im": 0.0}], "injections": []}
    with pytest.raises(InvalidNetworkError, match="missing voltage"):
        fc.parse_operating_point(feeder_net, json.dumps(doc))


# --- the per-record parsers, kept as a reference ------------------------------
#
# The parsers as they were before ingestion read whole columns: one
# record at a time, one rule at a time.  Every document must give the
# column-wise parsers' outputs bit for bit, or their exception and message.


def reference_build_network(buses, branches, power_base, voltage_base):
    for name, base in (("power", power_base), ("voltage", voltage_base)):
        if not math.isfinite(base):
            raise InvalidNetworkError(f"{name} base must be finite, got {base}")
        if base <= 0:
            raise InvalidNetworkError(f"{name} base must be positive, got {base}")

    seen = set()
    slack_buses = []
    load_buses = []
    for bus in buses:
        if not _reference_finite(bus.shunt_admittance):
            raise InvalidNetworkError(
                f"bus {bus.id!r} has non-finite shunt admittance {bus.shunt_admittance}"
            )
        if bus.id in seen:
            raise InvalidNetworkError(f"duplicate bus id {bus.id!r}")
        seen.add(bus.id)
        if bus.kind == "slack":
            slack_buses.append(bus)
        elif bus.kind == "load":
            load_buses.append(bus)
        else:
            raise InvalidNetworkError(f"bus {bus.id!r} has unknown kind {bus.kind!r}")
        if bus.shunt_admittance.real < 0:
            raise InvalidNetworkError(
                f"bus {bus.id!r} has negative shunt conductance "
                f"{bus.shunt_admittance.real}"
            )
    if len(slack_buses) != 1:
        raise InvalidNetworkError(
            f"expected exactly one slack bus, found {len(slack_buses)}"
        )
    ordered = (slack_buses[0], *load_buses)
    index = {bus.id: i for i, bus in enumerate(ordered)}

    branches = tuple(branches)
    from_pos, to_pos = [], []
    for br in branches:
        i, j = index.get(br.from_bus), index.get(br.to_bus)
        fault = _reference_branch_fault(br, i, j)
        if fault:
            raise InvalidNetworkError(f"branch {br.from_bus!r}->{br.to_bus!r} {fault}")
        from_pos.append(i)
        to_pos.append(j)

    unreachable = _reference_first_unreachable(len(ordered), from_pos, to_pos)
    if unreachable is not None:
        raise InvalidNetworkError(
            f"network is disconnected: bus {ordered[unreachable].id!r} is not "
            f"reachable from the slack bus"
        )
    return NetworkDescription(
        bus_ids=tuple(bus.id for bus in ordered),
        branch_kinds=tuple(br.kind for br in branches),
        power_base=float(power_base),
        voltage_base=float(voltage_base),
        index=index,
        arrays=NetworkArrays(
            from_pos=np.array(from_pos, dtype=np.intp),
            to_pos=np.array(to_pos, dtype=np.intp),
            admittance=np.array([br.admittance for br in branches], dtype=complex),
            ratio=np.array([br.ratio for br in branches], dtype=complex),
            shunt=np.array([bus.shunt_admittance for bus in ordered], dtype=complex),
        ),
    )


def _reference_finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _reference_branch_fault(br, i, j):
    if not _reference_finite(br.admittance):
        return f"has non-finite admittance {br.admittance}"
    if not _reference_finite(br.ratio):
        return f"has non-finite ratio {br.ratio}"
    if br.from_bus == br.to_bus:
        return "is a self-loop"
    if i is None:
        return f"references unknown bus {br.from_bus!r}"
    if j is None:
        return f"references unknown bus {br.to_bus!r}"
    if br.kind not in ("line", "transformer"):
        return f"has unknown kind {br.kind!r}"
    if br.admittance.real <= 0:
        return f"has non-positive conductance {br.admittance.real}"
    if br.ratio == 0:
        return "has zero ratio"
    if br.kind == "line" and br.ratio != 1:
        return "is a line but its ratio is not 1"
    return None


def _reference_first_unreachable(n_buses, from_pos, to_pos):
    adjacency = [[] for _ in range(n_buses)]
    for a, b in zip(from_pos, to_pos):
        adjacency[a].append(b)
        adjacency[b].append(a)
    reached = [False] * n_buses
    reached[0] = True
    stack = [0]
    while stack:
        for other in adjacency[stack.pop()]:
            if not reached[other]:
                reached[other] = True
                stack.append(other)
    return None if all(reached) else reached.index(False)


def _reference_load_json(text, what):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidNetworkError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidNetworkError(f"{what} must be a JSON object")
    return doc


def _reference_number(record, key, what, default=None):
    if key not in record:
        if default is not None:
            return default
        raise InvalidNetworkError(f"{what} is missing field {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidNetworkError(f"{what} field {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise InvalidNetworkError(f"{what} field {key!r} must be finite, got {number}")
    return number


def _reference_bus_id(value, what):
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise InvalidNetworkError(f"{what} must be a string or integer bus id")


def _reference_records(doc, key, what):
    if key not in doc or not isinstance(doc[key], list):
        raise InvalidNetworkError(f"{what} must contain a {key!r} list")
    for entry in doc[key]:
        if not isinstance(entry, dict):
            raise InvalidNetworkError(f"every {key!r} entry must be an object")
    return doc[key]


def reference_parse_network(text):
    doc = _reference_load_json(text, "network document")
    unknown = set(doc) - {"bases", "buses", "branches"}
    if unknown:
        raise InvalidNetworkError(f"unknown network sections: {sorted(unknown)}")
    if "bases" not in doc or not isinstance(doc["bases"], dict):
        raise InvalidNetworkError("network document must contain a 'bases' object")
    power_base = _reference_number(doc["bases"], "power_mva", "bases")
    voltage_base = _reference_number(doc["bases"], "voltage_kv", "bases")

    buses = []
    for rec in _reference_records(doc, "buses", "network document"):
        bus_id = _reference_bus_id(rec.get("id"), "bus id")
        kind = rec.get("kind")
        if kind not in ("slack", "load"):
            raise InvalidNetworkError(f"bus {bus_id!r} has unknown kind {kind!r}")
        shunt = complex(
            _reference_number(rec, "shunt_g", f"bus {bus_id!r}", default=0.0),
            _reference_number(rec, "shunt_b", f"bus {bus_id!r}", default=0.0),
        )
        buses.append(Bus(id=bus_id, kind=kind, shunt_admittance=shunt))

    branches = []
    for rec in _reference_records(doc, "branches", "network document"):
        from_id = _reference_bus_id(rec.get("from"), "branch 'from'")
        to_id = _reference_bus_id(rec.get("to"), "branch 'to'")
        label = f"branch {from_id!r}->{to_id!r}"
        admittance = complex(_reference_number(rec, "g", label),
                             _reference_number(rec, "b", label))
        ratio = complex(
            _reference_number(rec, "ratio_re", label, default=1.0),
            _reference_number(rec, "ratio_im", label, default=0.0),
        )
        branches.append(Branch(from_bus=from_id, to_bus=to_id, kind=rec.get("kind"),
                                  admittance=admittance, ratio=ratio))

    return reference_build_network(buses, branches, power_base, voltage_base)


def reference_parse_injections(net, text):
    return _reference_injections(net, _reference_load_json(text, "injection document"))


def _reference_injections(net, doc):
    s = np.zeros(net.n, dtype=complex)
    filled = set()
    for rec in _reference_records(doc, "injections", "injection document"):
        bus_id = _reference_bus_id(rec.get("bus"), "injection bus")
        if bus_id not in net.index:
            raise InvalidNetworkError(f"injection references unknown bus {bus_id!r}")
        if bus_id == net.bus_ids[0]:
            raise InvalidNetworkError("the slack bus carries no specified injection")
        if bus_id in filled:
            raise InvalidNetworkError(f"duplicate injection for bus {bus_id!r}")
        filled.add(bus_id)
        power = complex(
            _reference_number(rec, "p_mw", f"injection for bus {bus_id!r}"),
            _reference_number(rec, "q_mvar", f"injection for bus {bus_id!r}"),
        )
        s[net.load_index(bus_id)] = fc.to_per_unit(power, net.power_base)
    return s


def reference_parse_operating_point(net, text):
    doc = _reference_load_json(text, "operating-point document")
    provenance = doc.get("provenance", "measured")
    if provenance not in ("measured", "solved"):
        raise InvalidNetworkError(f"unknown provenance {provenance!r}")

    v = np.full(net.n, np.nan, dtype=complex)
    for rec in _reference_records(doc, "voltages", "operating-point document"):
        bus_id = _reference_bus_id(rec.get("bus"), "voltage bus")
        if bus_id not in net.index or bus_id == net.bus_ids[0]:
            raise InvalidNetworkError(f"voltage entry for invalid bus {bus_id!r}")
        idx = net.load_index(bus_id)
        if not np.isnan(v[idx].real):
            raise InvalidNetworkError(f"duplicate voltage for bus {bus_id!r}")
        v[idx] = complex(
            _reference_number(rec, "re", f"voltage for bus {bus_id!r}"),
            _reference_number(rec, "im", f"voltage for bus {bus_id!r}"),
        )
    missing = np.isnan(v.real)
    if missing.any():
        bus_id = net.bus_ids[1 + int(np.flatnonzero(missing)[0])]
        raise InvalidNetworkError(f"missing voltage for bus {bus_id!r}")

    s = _reference_injections(net, {"injections": doc.get("injections", [])})
    return fc.OperatingPoint(v=v, s=s, provenance=provenance)


# --- mutated documents ---------------------------------------------------------

# Values a mutation writes into a field: wrong types, non-finite and
# out-of-range numbers, signed zeros, and ids that are unknown, the
# slack's, or integers.
ODD_VALUES = [True, False, None, "1.5", "x", [], {}, NAN, INF, -INF, 10**400, -(10**400),
              -0.0, 0.0, 0, -1.0, 1e-300, 2**53 + 1, 3, "0", "1", "2", "99", 1, 2]
FIELDS = {
    "bases": ["power_mva", "voltage_kv"],
    "buses": ["id", "kind", "shunt_g", "shunt_b"],
    "branches": ["from", "to", "kind", "g", "b", "ratio_re", "ratio_im"],
    "injections": ["bus", "p_mw", "q_mvar"],
    "voltages": ["bus", "re", "im"],
}
KINDS = ["slack", "load", "line", "transformer", "generator", None, 1]


def _part(rng, low, high):
    """A number in [low, high), sometimes a signed zero or an integer."""
    draw = rng.random()
    if draw < 0.1:
        return -0.0
    if draw < 0.15:
        return 0
    if draw < 0.2:
        return int(rng.integers(max(1, int(low)), max(2, int(high) + 1)))
    return float(rng.uniform(low, high))


def network_document(rng):
    """A valid network document: a random tree, maybe one chord, shunts,
    transformers, integer ids and a non-unit power base, in random order."""
    n = int(rng.integers(1, 7))
    buses = [{"id": "0", "kind": "slack"}]
    for i in range(1, n + 1):
        rec = {"id": i if rng.random() < 0.2 else str(i), "kind": "load"}
        if rng.random() < 0.5:
            rec["shunt_g"] = _part(rng, 0.0, 0.05)
        if rng.random() < 0.5:
            rec["shunt_b"] = _part(rng, -0.2, 0.2)
        buses.append(rec)
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, n + 1)]
    if n >= 2 and rng.random() < 0.3:
        pairs.append(tuple(int(x) for x in rng.choice(n + 1, size=2, replace=False)))
    branches = []
    for a, b in pairs:
        rec = {"from": str(a), "to": str(b), "kind": "line",
               "g": float(rng.uniform(0.5, 10.0)), "b": _part(rng, -30.0, 0.0)}
        if rng.random() < 0.3:
            rec.update(kind="transformer", ratio_re=float(rng.uniform(0.9, 1.1)),
                       ratio_im=_part(rng, -0.05, 0.05))
        elif rng.random() < 0.3:
            rec.update(ratio_re=1.0, ratio_im=-0.0)
        branches.append(rec)
    power = [1.0, 5.0, 100, 0.3, 7.0, 3][int(rng.integers(0, 6))]
    return {"bases": {"power_mva": power, "voltage_kv": 2.4},
            "buses": [buses[k] for k in rng.permutation(len(buses))],
            "branches": [branches[k] for k in rng.permutation(len(branches))]}


def injection_records(rng, net):
    """Injections for a random subset of the load buses, in random order."""
    loads = net.bus_ids[1:]
    picked = rng.permutation(len(loads))[:int(rng.integers(0, len(loads) + 1))]
    return [{"bus": int(loads[k]) if loads[k].isdigit() and rng.random() < 0.2 else loads[k],
             "p_mw": _part(rng, -2.0, 2.0), "q_mvar": _part(rng, -1.0, 1.0)}
            for k in picked]


def operating_point_document(rng, net):
    voltages = [{"bus": bus_id, "re": _part(rng, 0.9, 1.1), "im": _part(rng, -0.1, 0.1)}
                for bus_id in net.bus_ids[1:]]
    doc = {"voltages": [voltages[k] for k in rng.permutation(len(voltages))]}
    if rng.random() < 0.8:
        doc["injections"] = injection_records(rng, net)
    if rng.random() < 0.7:
        doc["provenance"] = ["measured", "solved"][int(rng.integers(0, 2))]
    return doc


def mutate(rng, doc):
    """``doc`` (a copy) with up to three random faults."""
    doc = copy.deepcopy(doc)
    sections = [key for key in FIELDS if key in doc]
    for _ in range(int(rng.integers(0, 4))):
        key = sections[int(rng.integers(0, len(sections)))]
        records = [doc[key]] if key == "bases" else doc[key]
        if not isinstance(records, list) or not records \
                or not all(isinstance(r, dict) for r in records):
            continue
        k = int(rng.integers(0, len(records)))
        rec = records[k]
        fields = FIELDS[key]
        field = fields[int(rng.integers(0, len(fields)))]
        action = int(rng.integers(0, 10))
        if action <= 2:
            rec[field] = ODD_VALUES[int(rng.integers(0, len(ODD_VALUES)))]
        elif action == 3:  # several fields at once: which rule of a record comes first
            for name in fields:
                if rng.random() < 0.5:
                    rec[name] = ODD_VALUES[int(rng.integers(0, len(ODD_VALUES)))]
        elif action == 4:
            rec.pop(field, None)
        elif action == 5 and key != "bases":
            records.append(copy.deepcopy(rec))  # a duplicate id, or a parallel branch
        elif action == 6 and key != "bases":
            records[k] = [7, "x", None, []][int(rng.integers(0, 4))]
        elif action == 7:
            rec["kind"] = KINDS[int(rng.integers(0, len(KINDS)))]
        elif action == 8 and key == "branches":
            rec["to"] = rec.get("from")  # a self-loop
        elif action == 8 and key == "buses":
            records.append({"id": "island", "kind": "load"})  # no branch reaches it
        elif action == 9 and key != "bases":
            if rng.random() < 0.2:
                doc[key] = {"not": "a list"}
                return doc
            records.pop(k)  # a missing voltage, an unreached bus or a dangling branch
    if rng.random() < 0.05:
        doc["provenance"] = ["guessed", None, 1, []][int(rng.integers(0, 4))]
    return doc


def outcome(parse, *args):
    try:
        return parse(*args)
    except Exception as exc:  # compared by type and message
        return exc


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.int64)


def assert_same(got, want):
    """Both raised the same error, or gave the same value bit for bit."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, Exception), got
    if isinstance(want, NetworkDescription):
        assert got == want and got.index == want.index
        assert got.bus_ids == want.bus_ids and got.branch_kinds == want.branch_kinds
        assert type(got.power_base) is float and type(got.voltage_base) is float
        for name in ("from_pos", "to_pos"):
            g, w = getattr(got.arrays, name), getattr(want.arrays, name)
            assert g.dtype == w.dtype and np.array_equal(g, w)
        for name in ("admittance", "ratio", "shunt"):
            assert np.array_equal(_bits(getattr(got.arrays, name)),
                                  _bits(getattr(want.arrays, name)))
    elif isinstance(want, fc.OperatingPoint):
        assert got.provenance == want.provenance
        assert np.array_equal(_bits(got.v), _bits(want.v))
        assert np.array_equal(_bits(got.s), _bits(want.s))
    else:
        assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=seeds)
def test_network_documents_parse_as_record_by_record(seed):
    rng = np.random.default_rng(seed)
    text = json.dumps(mutate(rng, network_document(rng)))
    assert_same(outcome(fc.parse_network, text), outcome(reference_parse_network, text))


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_scenario_documents_parse_as_record_by_record(seed):
    rng = np.random.default_rng(seed)
    net = reference_parse_network(json.dumps(network_document(rng)))
    text = json.dumps(mutate(rng, {"injections": injection_records(rng, net)}))
    assert_same(outcome(fc.parse_injections, net, text),
                outcome(reference_parse_injections, net, text))
    text = json.dumps(mutate(rng, operating_point_document(rng, net)))
    assert_same(outcome(fc.parse_operating_point, net, text),
                outcome(reference_parse_operating_point, net, text))


def test_per_unit_injections_divide_as_cpython_does(feeder_net):
    # complex(p, q) / base is CPython's complex division; the sign of a
    # zero part is where an array quotient could differ from it.
    cases = [(-0.0, 1.0), (-0.0, -1.0), (1.0, -0.0), (-1.0, -0.0), (-0.0, -0.0),
             (0.0, 0.0), (0.3, 0.7), (2**53 + 1, 3)]
    loads = feeder_net.bus_ids[1:]
    text = json.dumps({"injections": [{"bus": bus, "p_mw": p, "q_mvar": q}
                                      for bus, (p, q) in zip(loads, cases)]})
    s = fc.parse_injections(feeder_net, text)
    want = [fc.to_per_unit(complex(p, q), feeder_net.power_base) for p, q in cases]
    assert np.array_equal(_bits(s[:len(cases)]), _bits(want))


ODD_BUS_FIELDS = {
    "id": ["0", "1", "island", 1],
    "kind": ["slack", "load", "generator", None],
    "shunt_admittance": [complex(NAN, 0.0), complex(0.0, INF), complex(-0.1, 0.2),
                         complex(-0.0, -0.0), 0.05 + 0.1j],
}
ODD_BRANCH_FIELDS = {
    "from_bus": ["0", "1", "2", "99"],
    "to_bus": ["0", "1", "2", "99"],
    "kind": ["line", "transformer", "cable", None],
    "admittance": [complex(-1.0, 2.0), 0j, complex(-0.0, 1.0), complex(INF, 1.0),
                   complex(1.0, NAN), 2 - 5j],
    "ratio": [0j, complex(NAN, 1.0), 1.05 + 0j, complex(1.0, -0.0), -0.0j],
}


@settings(max_examples=200, deadline=None)
@given(seed=seeds)
def test_build_network_checks_as_record_by_record(seed):
    # Bus and Branch values that no document gives (non-finite ones) as
    # well as those it does, and odd bases.
    rng = np.random.default_rng(seed)
    net = reference_parse_network(json.dumps(network_document(rng)))
    parts = dict(zip(("buses", "branches"), records(net)))
    odd = {"buses": ODD_BUS_FIELDS, "branches": ODD_BRANCH_FIELDS}
    for _ in range(int(rng.integers(0, 4))):
        key = ["buses", "branches"][int(rng.integers(0, 2))]
        k = int(rng.integers(0, len(parts[key])))
        field = list(odd[key])[int(rng.integers(0, len(odd[key])))]
        values = odd[key][field]
        parts[key][k] = dataclasses.replace(parts[key][k],
                                            **{field: values[int(rng.integers(0, len(values)))]})
    buses, branches = ([x[k] for k in rng.permutation(len(x))] for x in parts.values())
    power = [net.power_base, NAN, 0.0, -1.0, 5.0][int(rng.integers(0, 5))]
    assert_same(outcome(from_records, buses, branches, power, 2.4),
                outcome(reference_build_network, buses, branches, power, 2.4))
