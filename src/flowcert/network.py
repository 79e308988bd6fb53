"""Grid data model: buses, branches, per-unit conversion, file ingestion.

A network is a single snapshot: exactly one slack bus with fixed complex
voltage plus PQ load buses.  Bus ordering is fixed at construction time
(slack first, then load buses in declaration order) and every vector in
the toolkit — injections, voltages, zero-load profiles — is a plain
complex ndarray aligned with that ordering.

Network documents are JSON with three sections::

    {
      "bases":    {"power_mva": ..., "voltage_kv": ...},
      "buses":    [{"id", "kind", "shunt_g", "shunt_b"}, ...],
      "branches": [{"from", "to", "kind", "g", "b", "ratio_re", "ratio_im"}, ...]
    }

Branch admittances are already per-unit; only powers carry an MVA base
conversion.  Injection and operating-point scenario files are separate
documents so one grid can be paired with many scenarios (see
`parse_injections` / `parse_operating_point`).

Ingestion reads columns.  Each parser pulls every field of a section's
records out as one list, checks types, finiteness and bus ids on whole
lists, and fills complex arrays by assigning their real and imaginary
parts.  Every rule is one mask over the records, and the error names the
first faulty record and its first broken rule: rules are ordered as a
record-by-record pass would meet them (each section's fields in order,
a section's parse rules before `build_network`'s), so there is one
validation path and one error for every document.

`build_network` is the one constructor of a `NetworkDescription`; it
reads its buses' and branches' fields into columns the same way.  From
those columns it also caches, outside the network's equality (``==``
compares buses, branches and bases only), what assembly needs:
``index`` (bus id -> position, slack 0) and ``arrays``
(`NetworkArrays`: each branch's endpoint positions, admittance and
ratio, and each bus's shunt, as numpy arrays).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import InvalidNetworkError

SLACK = "slack"
LOAD = "load"
LINE = "line"
TRANSFORMER = "transformer"


@dataclass(frozen=True)
class Bus:
    """One bus: the slack reference or a PQ load bus.

    ``shunt_admittance`` is the summed per-unit shunt around the bus;
    its real part must be non-negative.
    """

    id: str
    kind: str
    shunt_admittance: complex = 0j


@dataclass(frozen=True)
class Branch:
    """Two-terminal element between ``from_bus`` and ``to_bus``.

    For transformers, ``admittance`` is the aggregated admittance seen
    from ``from_bus`` (the primary side) and ``ratio`` the complex turns
    ratio.  Lines carry ratio exactly 1.
    """

    from_bus: str
    to_bus: str
    kind: str
    admittance: complex
    ratio: complex = 1 + 0j


@dataclass(frozen=True)
class OperatingPoint:
    """A paired (voltage, injection) state, per-unit, load buses only."""

    v: np.ndarray
    s: np.ndarray
    provenance: str = "measured"


@dataclass(frozen=True)
class NetworkArrays:
    """A network's branches and shunts as arrays, in record order.

    ``from_pos`` and ``to_pos`` hold each branch's endpoint positions in
    ``buses`` (slack 0); ``admittance`` and ``ratio`` are per branch,
    ``shunt`` per bus in ``buses`` order.
    """

    from_pos: np.ndarray
    to_pos: np.ndarray
    admittance: np.ndarray
    ratio: np.ndarray
    shunt: np.ndarray


@dataclass(frozen=True)
class NetworkDescription:
    """Validated, immutable network with deterministic bus ordering.

    Made by `build_network` only, which derives ``index`` and ``arrays``
    from the other fields (see the module docstring); they take no part
    in equality.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    power_base: float
    voltage_base: float
    index: dict[str, int] = field(compare=False, repr=False)
    arrays: NetworkArrays = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        """Number of load buses (vector length for the whole toolkit)."""
        return len(self.buses) - 1

    @property
    def slack(self) -> Bus:
        return self.buses[0]

    @property
    def load_buses(self) -> tuple[Bus, ...]:
        return self.buses[1:]

    def load_index(self, bus_id: str) -> int:
        """Bus id -> 0-based index into length-n load vectors."""
        pos = self.index[bus_id]
        if pos == 0:
            raise KeyError(f"bus {bus_id!r} is the slack bus, not a load bus")
        return pos - 1

    @cached_property
    def is_radial(self) -> bool:
        """True when the branch multigraph is a tree."""
        pairs = {frozenset((b.from_bus, b.to_bus)) for b in self.branches}
        return len(self.branches) == self.n and len(pairs) == len(self.branches)


def to_per_unit(power_mw_mvar: complex, power_base: float) -> complex:
    """Convert an MW + j*Mvar quantity to per-unit on ``power_base`` MVA."""
    if power_base <= 0:
        raise ValueError(f"power base must be positive, got {power_base}")
    return complex(power_mw_mvar) / power_base


def build_network(
    buses,
    branches,
    power_base: float,
    voltage_base: float,
) -> NetworkDescription:
    """Validate components and fix the canonical bus ordering.

    Raises InvalidNetworkError on any model violation: non-finite
    values, duplicate ids, slack count != 1, dangling branch endpoints,
    non-positive branch conductance, negative shunt conductance,
    self-loops, non-unit line ratios, or a disconnected graph.  The
    buses' and the branches' fields are read into columns and each rule
    is one mask over them.  The error names the first faulty record and
    its first broken rule, in the order the rules are listed below,
    buses before branches: the error a record-by-record check gives.
    """
    for name, base in (("power", power_base), ("voltage", voltage_base)):
        if not math.isfinite(base):
            raise InvalidNetworkError(f"{name} base must be finite, got {base}")
        if base <= 0:
            raise InvalidNetworkError(f"{name} base must be positive, got {base}")

    buses = tuple(buses)
    ids = [bus.id for bus in buses]
    kinds = [bus.kind for bus in buses]
    shunt = np.array([bus.shunt_admittance for bus in buses], dtype=complex)
    _raise_first_fault([
        (~np.isfinite(shunt), lambda k: f"bus {ids[k]!r} has non-finite shunt "
                                        f"admittance {buses[k].shunt_admittance}"),
        (_repeated(ids), lambda k: f"duplicate bus id {ids[k]!r}"),
        (_outside(kinds, (SLACK, LOAD)),
         lambda k: f"bus {ids[k]!r} has unknown kind {kinds[k]!r}"),
        (shunt.real < 0, lambda k: f"bus {ids[k]!r} has negative shunt conductance "
                                   f"{buses[k].shunt_admittance.real}"),
    ])
    if kinds.count(SLACK) != 1:
        raise InvalidNetworkError(
            f"expected exactly one slack bus, found {kinds.count(SLACK)}"
        )
    slack = kinds.index(SLACK)
    ordered = (buses[slack], *buses[:slack], *buses[slack + 1:])
    index = {bus_id: pos for pos, bus_id in enumerate(
        (ids[slack], *ids[:slack], *ids[slack + 1:]))}

    branches = tuple(branches)
    m = len(branches)
    from_ids = [br.from_bus for br in branches]
    to_ids = [br.to_bus for br in branches]
    kinds = [br.kind for br in branches]
    admittance = np.array([br.admittance for br in branches], dtype=complex)
    ratio = np.array([br.ratio for br in branches], dtype=complex)
    from_pos = np.fromiter(map(index.get, from_ids, repeat(-1)), dtype=np.intp, count=m)
    to_pos = np.fromiter(map(index.get, to_ids, repeat(-1)), dtype=np.intp, count=m)

    def fault(rule: str):
        return lambda k: f"branch {from_ids[k]!r}->{to_ids[k]!r} {rule.format(branches[k])}"

    _raise_first_fault([
        (~np.isfinite(admittance), fault("has non-finite admittance {0.admittance}")),
        (~np.isfinite(ratio), fault("has non-finite ratio {0.ratio}")),
        (np.fromiter(map(operator.eq, from_ids, to_ids), dtype=bool, count=m),
         fault("is a self-loop")),
        (from_pos < 0, fault("references unknown bus {0.from_bus!r}")),
        (to_pos < 0, fault("references unknown bus {0.to_bus!r}")),
        (_outside(kinds, (LINE, TRANSFORMER)), fault("has unknown kind {0.kind!r}")),
        (admittance.real <= 0, fault("has non-positive conductance {0.admittance.real}")),
        (ratio == 0, fault("has zero ratio")),
        (np.fromiter(map(operator.eq, kinds, repeat(LINE)), dtype=bool, count=m)
         & (ratio != 1), fault("is a line but its ratio is not 1")),
    ])

    unreachable = _first_unreachable(len(ordered), from_pos, to_pos)
    if unreachable is not None:
        raise InvalidNetworkError(
            f"network is disconnected: bus {ordered[unreachable].id!r} is not "
            f"reachable from the slack bus"
        )
    return NetworkDescription(
        buses=ordered,
        branches=branches,
        power_base=float(power_base),
        voltage_base=float(voltage_base),
        index=index,
        arrays=NetworkArrays(
            from_pos=from_pos,
            to_pos=to_pos,
            admittance=admittance,
            ratio=ratio,
            shunt=np.concatenate([shunt[slack:slack + 1], shunt[:slack], shunt[slack + 1:]]),
        ),
    )


def _raise_first_fault(rules) -> None:
    """Raise InvalidNetworkError for the first faulty record, naming its
    first broken rule.

    ``rules`` are (mask, message) pairs in the order the rules are
    checked: ``mask`` flags the records that break the rule (None when
    none can), and ``message(k)`` is the error for record k.
    """
    broken = [(mask, message) for mask, message in rules
              if mask is not None and mask.any()]
    if broken:
        first = min(int(mask.argmax()) for mask, _ in broken)
        raise InvalidNetworkError(next(message(first) for mask, message in broken
                                       if mask[first]))


def _repeated(values: list) -> np.ndarray | None:
    """Mask of the values equal to an earlier one, or None when all differ."""
    first = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))
    if len(first) == len(values):
        return None
    return np.fromiter(map(first.__getitem__, values), dtype=np.intp,
                       count=len(values)) != np.arange(len(values))


def _outside(values: list, allowed: tuple) -> np.ndarray | None:
    """Mask of the values that are none of ``allowed``, or None when all are."""
    try:
        if set(values) <= set(allowed):
            return None
    except TypeError:  # an unhashable value, which is none of them
        pass
    return np.array([value not in allowed for value in values], dtype=bool)


def _first_unreachable(n_buses: int, from_pos: np.ndarray, to_pos: np.ndarray) -> int | None:
    """Position of the first bus that no path of branches joins to the
    slack (position 0), or None when every bus is reached.

    Each bus points to a bus of its component at a position no larger
    than its own, and the roots (buses that point to themselves) label
    the components found so far.  A round hooks, for every branch between
    two roots, the larger root onto the smaller, then follows the
    pointers to the roots.  Each round leaves at least one root fewer, so
    the rounds end, with every branch inside one label; every component
    then has one root, its smallest position, and the slack's is 0.
    """
    label = np.arange(n_buses)
    while True:
        a, b = label[from_pos], label[to_pos]
        if np.array_equal(a, b):
            break
        low = np.minimum(a, b)
        np.minimum.at(label, a, low)
        np.minimum.at(label, b, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    unreached = np.flatnonzero(label)
    return int(unreached[0]) if unreached.size else None


# --- document parsing -------------------------------------------------------

_ABSENT = object()  # the value of a field that a record does not hold
_NUMBER = {int, float}


def _load_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidNetworkError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidNetworkError(f"{what} must be a JSON object")
    return doc


def _records(doc: dict, key: str, what: str) -> list[dict]:
    if key not in doc or not isinstance(doc[key], list):
        raise InvalidNetworkError(f"{what} must contain a {key!r} list")
    if not set(map(type, doc[key])) <= {dict}:
        raise InvalidNetworkError(f"every {key!r} entry must be an object")
    return doc[key]


def _numbers(records: list[dict], key: str, label, default=_ABSENT):
    """Field ``key`` of every record as a float array, and its rules.

    The rules, in order: the field is present (unless it has a
    ``default``), a number (a JSON integer or float, not a boolean) and
    finite; an integer beyond the float range reads as inf.
    ``label(k)`` names record k in the messages.  A record that breaks
    the first two rules reads as 0.
    """
    values = [rec.get(key, default) for rec in records]
    absent = wrong = None
    if not set(map(type, values)) <= _NUMBER:
        absent = np.array([value is _ABSENT for value in values], dtype=bool)
        wrong = np.array([type(value) not in _NUMBER for value in values]) & ~absent
        values = [value if type(value) in _NUMBER else 0.0 for value in values]
    try:
        numbers = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        numbers = np.array([_float(value) for value in values])
    return numbers, [
        (absent, lambda k: f"{label(k)} is missing field {key!r}"),
        (wrong, lambda k: f"{label(k)} field {key!r} must be a number"),
        (~np.isfinite(numbers),
         lambda k: f"{label(k)} field {key!r} must be finite, got {float(numbers[k])}"),
    ]


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _bus_ids(records: list[dict], key: str, what: str):
    """Field ``key`` of every record as a bus id, and its rule: a string,
    or an integer, which reads as its decimal string.  A record that
    breaks the rule reads as None."""
    ids = [rec.get(key) for rec in records]
    wrong = None
    if not set(map(type, ids)) <= {str}:
        wrong = np.array([type(value) not in (str, int) for value in ids])
        ids = [value if type(value) is str else str(value) if type(value) is int else None
               for value in ids]
    return ids, [(wrong, lambda k: f"{what} must be a string or integer bus id")]


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """The complex array with these parts, each kept bit for bit."""
    z = np.empty(real.size, dtype=complex)
    z.real = real
    z.imag = imag
    return z


def parse_network(text: str) -> NetworkDescription:
    """Parse and validate a network document (see module docstring)."""
    doc = _load_json(text, "network document")
    unknown = set(doc) - {"bases", "buses", "branches"}
    if unknown:
        raise InvalidNetworkError(f"unknown network sections: {sorted(unknown)}")
    if "bases" not in doc or not isinstance(doc["bases"], dict):
        raise InvalidNetworkError("network document must contain a 'bases' object")
    power_base, power_rules = _numbers([doc["bases"]], "power_mva", lambda k: "bases")
    voltage_base, voltage_rules = _numbers([doc["bases"]], "voltage_kv", lambda k: "bases")
    _raise_first_fault(power_rules + voltage_rules)

    records = _records(doc, "buses", "network document")
    ids, id_rules = _bus_ids(records, "id", "bus id")
    kinds = [rec.get("kind") for rec in records]

    def bus(k):
        return f"bus {ids[k]!r}"

    shunt_g, g_rules = _numbers(records, "shunt_g", bus, default=0.0)
    shunt_b, b_rules = _numbers(records, "shunt_b", bus, default=0.0)
    _raise_first_fault([
        *id_rules,
        (_outside(kinds, (SLACK, LOAD)), lambda k: f"{bus(k)} has unknown kind {kinds[k]!r}"),
        *g_rules,
        *b_rules,
    ])
    buses = list(map(Bus, ids, kinds, _complex(shunt_g, shunt_b).tolist()))

    records = _records(doc, "branches", "network document")
    from_ids, from_rules = _bus_ids(records, "from", "branch 'from'")
    to_ids, to_rules = _bus_ids(records, "to", "branch 'to'")

    def branch(k):
        return f"branch {from_ids[k]!r}->{to_ids[k]!r}"

    g, g_rules = _numbers(records, "g", branch)
    b, b_rules = _numbers(records, "b", branch)
    ratio_re, re_rules = _numbers(records, "ratio_re", branch, default=1.0)
    ratio_im, im_rules = _numbers(records, "ratio_im", branch, default=0.0)
    _raise_first_fault(from_rules + to_rules + g_rules + b_rules + re_rules + im_rules)
    branches = list(map(Branch, from_ids, to_ids, [rec.get("kind") for rec in records],
                        _complex(g, b).tolist(), _complex(ratio_re, ratio_im).tolist()))

    return build_network(buses, branches, float(power_base[0]), float(voltage_base[0]))


def serialize_network(net: NetworkDescription) -> str:
    """Render the canonical document form; parse() of it reproduces ``net``."""
    doc = {
        "bases": {"power_mva": net.power_base, "voltage_kv": net.voltage_base},
        "buses": [
            {
                "id": bus.id,
                "kind": bus.kind,
                "shunt_g": bus.shunt_admittance.real,
                "shunt_b": bus.shunt_admittance.imag,
            }
            for bus in net.buses
        ],
        "branches": [
            {
                "from": br.from_bus,
                "to": br.to_bus,
                "kind": br.kind,
                "g": br.admittance.real,
                "b": br.admittance.imag,
                "ratio_re": br.ratio.real,
                "ratio_im": br.ratio.imag,
            }
            for br in net.branches
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_network(path) -> NetworkDescription:
    return parse_network(Path(path).read_text(encoding="utf-8"))


# --- scenario files ---------------------------------------------------------


def parse_injections(net: NetworkDescription, text: str) -> np.ndarray:
    """Parse an injection scenario into a per-unit complex load vector.

    Document: ``{"injections": [{"bus", "p_mw", "q_mvar"}, ...]}``.
    Buses not listed get zero injection; the slack bus may not appear.
    """
    return _injections(net, _load_json(text, "injection document"))


def _injections(net: NetworkDescription, doc: dict) -> np.ndarray:
    """The per-unit load vector of the parsed document ``doc``'s
    ``injections`` records (see `parse_injections`)."""
    records = _records(doc, "injections", "injection document")
    ids, id_rules = _bus_ids(records, "bus", "injection bus")
    pos = _positions(net, ids)

    def label(k):
        return f"injection for bus {ids[k]!r}"

    p, p_rules = _numbers(records, "p_mw", label)
    q, q_rules = _numbers(records, "q_mvar", label)
    _raise_first_fault([
        *id_rules,
        (pos < 0, lambda k: f"injection references unknown bus {ids[k]!r}"),
        (pos == 0, lambda k: "the slack bus carries no specified injection"),
        (_repeated(ids), lambda k: f"duplicate injection for bus {ids[k]!r}"),
        *p_rules,
        *q_rules,
    ])
    s = np.zeros(net.n, dtype=complex)
    s[pos - 1] = _per_unit(p, q, net.power_base)
    return s


def _positions(net: NetworkDescription, ids: list) -> np.ndarray:
    """Each id's position in ``net.buses`` (slack 0), -1 for an unknown id."""
    return np.fromiter(map(net.index.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))


def _per_unit(p: np.ndarray, q: np.ndarray, power_base: float) -> np.ndarray:
    """`to_per_unit` of complex(p, q) for each pair, bit for bit.

    A part that is not zero is divided alone; the sign of a zero part
    depends on how CPython divides a complex by a float, so those pairs
    go through `to_per_unit` itself.
    """
    s = _complex(p / power_base, q / power_base)
    for k in np.flatnonzero((p == 0) | (q == 0)).tolist():
        s[k] = to_per_unit(complex(p[k], q[k]), power_base)
    return s


def load_injections(net: NetworkDescription, path) -> np.ndarray:
    return parse_injections(net, Path(path).read_text(encoding="utf-8"))


def parse_operating_point(net: NetworkDescription, text: str) -> OperatingPoint:
    """Parse a known (voltage, injection) state.

    Document: ``{"provenance": "measured"|"solved",
    "voltages": [{"bus", "re", "im"}, ...], "injections": [...]}``.
    Every load bus needs a voltage entry; injections follow the same
    rules as plain injection documents.
    """
    doc = _load_json(text, "operating-point document")
    provenance = doc.get("provenance", "measured")
    if provenance not in ("measured", "solved"):
        raise InvalidNetworkError(f"unknown provenance {provenance!r}")

    records = _records(doc, "voltages", "operating-point document")
    ids, id_rules = _bus_ids(records, "bus", "voltage bus")
    pos = _positions(net, ids)

    def label(k):
        return f"voltage for bus {ids[k]!r}"

    v_re, re_rules = _numbers(records, "re", label)
    v_im, im_rules = _numbers(records, "im", label)
    _raise_first_fault([
        *id_rules,
        (pos <= 0, lambda k: f"voltage entry for invalid bus {ids[k]!r}"),
        (_repeated(ids), lambda k: f"duplicate voltage for bus {ids[k]!r}"),
        *re_rules,
        *im_rules,
    ])
    listed = np.zeros(net.n, dtype=bool)
    listed[pos - 1] = True
    if not listed.all():
        bus = net.load_buses[int(np.argmin(listed))]
        raise InvalidNetworkError(f"missing voltage for bus {bus.id!r}")
    v = np.empty(net.n, dtype=complex)
    v[pos - 1] = _complex(v_re, v_im)

    s = _injections(net, {"injections": doc.get("injections", [])})
    return OperatingPoint(v=v, s=s, provenance=provenance)


def load_operating_point(net: NetworkDescription, path) -> OperatingPoint:
    return parse_operating_point(net, Path(path).read_text(encoding="utf-8"))
