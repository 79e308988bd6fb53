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

A network is held as columns, with no object per bus or branch.
`build_network`, the one constructor of a `NetworkDescription`, takes
one column per bus and branch field, checks them with the same masks
and keeps ``bus_ids`` (slack first), ``branch_kinds``, ``index`` (bus
id -> position) and ``arrays`` (`NetworkArrays`); `parse_network` hands
it the columns it has checked.  ``==`` compares the bus ids, branch
kinds, bases and arrays by value (``np.array_equal``, so ``0.0 ==
-0.0``); a network is not hashable.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import InvalidNetworkError

SLACK = "slack"
LOAD = "load"
LINE = "line"
TRANSFORMER = "transformer"


@dataclass(frozen=True)
class OperatingPoint:
    """A paired (voltage, injection) state, per-unit, load buses only."""

    v: np.ndarray
    s: np.ndarray
    provenance: str = "measured"


@dataclass(frozen=True)
class NetworkArrays:
    """A network's branches and shunts as arrays, in the order given.

    ``from_pos`` and ``to_pos`` hold each branch's endpoint positions in
    ``bus_ids`` (slack 0); ``admittance`` and ``ratio`` are per branch,
    ``shunt`` per bus in ``bus_ids`` order.
    """

    from_pos: np.ndarray
    to_pos: np.ndarray
    admittance: np.ndarray
    ratio: np.ndarray
    shunt: np.ndarray


@dataclass(frozen=True, eq=False)
class NetworkDescription:
    """Validated, immutable network with deterministic bus ordering.

    Made by `build_network` only; ``bus_ids`` lists the slack, then the
    load buses, and ``branch_kinds`` follows the order of ``arrays``.
    """

    bus_ids: tuple[str, ...]
    branch_kinds: tuple[str, ...]
    power_base: float
    voltage_base: float
    index: dict[str, int] = field(repr=False)
    arrays: NetworkArrays = field(repr=False)

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, NetworkDescription):
            return NotImplemented
        return (self.bus_ids == other.bus_ids
                and self.branch_kinds == other.branch_kinds
                and self.power_base == other.power_base
                and self.voltage_base == other.voltage_base
                and all(np.array_equal(getattr(self.arrays, name), getattr(other.arrays, name))
                        for name in ("from_pos", "to_pos", "admittance", "ratio", "shunt")))

    @property
    def n(self) -> int:
        """Number of load buses (vector length for the whole toolkit)."""
        return len(self.bus_ids) - 1

    def load_index(self, bus_id: str) -> int:
        """Bus id -> 0-based index into length-n load vectors."""
        pos = self.index[bus_id]
        if pos == 0:
            raise KeyError(f"bus {bus_id!r} is the slack bus, not a load bus")
        return pos - 1

    @property
    def is_radial(self) -> bool:
        """True when the branch multigraph is a tree: it is connected (as
        `build_network` requires) and has n branches on n + 1 buses."""
        return len(self.branch_kinds) == self.n


def to_per_unit(power_mw_mvar: complex, power_base: float) -> complex:
    """Convert an MW + j*Mvar quantity to per-unit on ``power_base`` MVA."""
    if power_base <= 0:
        raise ValueError(f"power base must be positive, got {power_base}")
    return complex(power_mw_mvar) / power_base


def build_network(
    bus_ids,
    bus_kinds,
    shunts,
    from_ids,
    to_ids,
    branch_kinds,
    admittances,
    ratios,
    power_base: float,
    voltage_base: float,
) -> NetworkDescription:
    """Validate a network given as columns and fix the canonical bus ordering.

    Bus k is ``bus_ids[k]``, ``bus_kinds[k]`` ("slack" or "load") and
    ``shunts[k]`` (its summed per-unit shunt admittance).  Branch k joins
    ``from_ids[k]`` to ``to_ids[k]``, is a ``branch_kinds[k]`` ("line"
    or "transformer") of per-unit ``admittances[k]``, seen from the
    ``from`` end, and complex turns ratio ``ratios[k]`` (1 for a line).
    The numeric columns are copied.

    Raises InvalidNetworkError on any model violation: a numeric column
    or base that holds no number, an id column that cannot be hashed
    (these name the column), columns of unequal length, non-finite
    values, duplicate ids, slack count != 1, dangling branch endpoints,
    non-positive branch conductance, negative shunt conductance,
    self-loops, non-unit line ratios, or a disconnected graph.  Each
    rule is one mask over the columns.  The error names the first faulty
    bus or branch and its first broken rule, in the order the rules are
    listed below, buses before branches: the error a one-by-one check
    gives.
    """
    ids, kinds, shunt = list(bus_ids), list(bus_kinds), _complex_column("shunts", shunts)
    from_ids, to_ids, branch_kinds = list(from_ids), list(to_ids), list(branch_kinds)
    admittance = _complex_column("admittances", admittances)
    ratio = _complex_column("ratios", ratios)
    _same_length("bus", ids=ids, kinds=kinds, shunts=shunt)
    _same_length("branch", from_ids=from_ids, to_ids=to_ids, kinds=branch_kinds,
                 admittances=admittance, ratios=ratio)
    for name, base in (("power", power_base), ("voltage", voltage_base)):
        try:
            finite = math.isfinite(base)
        except TypeError:
            raise InvalidNetworkError(f"{name} base must be a real number, got {base!r}") from None
        if not finite:
            raise InvalidNetworkError(f"{name} base must be finite, got {base}")
        if base <= 0:
            raise InvalidNetworkError(f"{name} base must be positive, got {base}")

    try:
        index = dict(zip(ids, range(len(ids))))
    except TypeError as exc:
        raise InvalidNetworkError(f"bus_ids must be hashable: {exc}") from None
    _raise_first_fault([
        (~np.isfinite(shunt), lambda k: f"bus {ids[k]!r} has non-finite shunt "
                                        f"admittance {complex(shunt[k])}"),
        (_repeated(ids) if len(index) < len(ids) else None,
         lambda k: f"duplicate bus id {ids[k]!r}"),
        (_outside(kinds, (SLACK, LOAD)),
         lambda k: f"bus {ids[k]!r} has unknown kind {kinds[k]!r}"),
        (shunt.real < 0, lambda k: f"bus {ids[k]!r} has negative shunt conductance "
                                   f"{float(shunt[k].real)}"),
    ])
    if kinds.count(SLACK) != 1:
        raise InvalidNetworkError(
            f"expected exactly one slack bus, found {kinds.count(SLACK)}"
        )
    slack = kinds.index(SLACK)
    if slack:
        ids = [ids[slack], *ids[:slack], *ids[slack + 1:]]
        index = dict(zip(ids, range(len(ids))))
        shunt = np.concatenate([shunt[slack:slack + 1], shunt[:slack], shunt[slack + 1:]])

    m = len(from_ids)
    from_pos = _positions(index, from_ids, "from_ids")
    to_pos = _positions(index, to_ids, "to_ids")

    def fault(rule: str):
        return lambda k: f"branch {from_ids[k]!r}->{to_ids[k]!r} " + rule.format(
            from_bus=from_ids[k], to_bus=to_ids[k], kind=branch_kinds[k],
            admittance=complex(admittance[k]), ratio=complex(ratio[k]))

    _raise_first_fault([
        (~np.isfinite(admittance), fault("has non-finite admittance {admittance}")),
        (~np.isfinite(ratio), fault("has non-finite ratio {ratio}")),
        (np.fromiter(map(operator.eq, from_ids, to_ids), dtype=bool, count=m),
         fault("is a self-loop")),
        (from_pos < 0, fault("references unknown bus {from_bus!r}")),
        (to_pos < 0, fault("references unknown bus {to_bus!r}")),
        (_outside(branch_kinds, (LINE, TRANSFORMER)), fault("has unknown kind {kind!r}")),
        (admittance.real <= 0, fault("has non-positive conductance {admittance.real}")),
        (ratio == 0, fault("has zero ratio")),
        (np.fromiter(map(operator.eq, branch_kinds, repeat(LINE)), dtype=bool, count=m)
         & (ratio != 1), fault("is a line but its ratio is not 1")),
    ])

    unreachable = _first_unreachable(len(ids), from_pos, to_pos)
    if unreachable is not None:
        raise InvalidNetworkError(
            f"network is disconnected: bus {ids[unreachable]!r} is not "
            f"reachable from the slack bus"
        )
    return NetworkDescription(
        bus_ids=tuple(ids),
        branch_kinds=tuple(branch_kinds),
        power_base=float(power_base),
        voltage_base=float(voltage_base),
        index=index,
        arrays=NetworkArrays(from_pos=from_pos, to_pos=to_pos, admittance=admittance,
                             ratio=ratio, shunt=shunt),
    )


def _complex_column(name: str, column) -> np.ndarray:
    """``column`` as a complex array; InvalidNetworkError, naming the
    column, when some value is not a number."""
    try:
        return np.array(column, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidNetworkError(f"{name} must be numbers: {exc}") from None


def _positions(index: dict, ids: list, column: str) -> np.ndarray:
    """Each id's bus position in ``index`` (slack 0), -1 for an unknown
    id; InvalidNetworkError, naming ``column``, for an id that cannot be
    hashed."""
    try:
        return np.fromiter(map(index.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))
    except TypeError as exc:
        raise InvalidNetworkError(f"{column} must be hashable: {exc}") from None


def _same_length(what: str, **columns) -> None:
    """Raise InvalidNetworkError unless the ``what`` columns (lists and
    numpy arrays) are one-dimensional and of one length."""
    shapes = {name: column.shape if isinstance(column, np.ndarray) else (len(column),)
              for name, column in columns.items()}
    if len(set(shapes.values())) > 1 or any(len(shape) != 1 for shape in shapes.values()):
        raise InvalidNetworkError(
            f"{what} columns must be one-dimensional and of one length, got shapes "
            + ", ".join(f"{name} {shape}" for name, shape in shapes.items()))


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

    return build_network(ids, kinds, _complex(shunt_g, shunt_b),
                         from_ids, to_ids, [rec.get("kind") for rec in records],
                         _complex(g, b), _complex(ratio_re, ratio_im),
                         float(power_base[0]), float(voltage_base[0]))


def serialize_network(net: NetworkDescription) -> str:
    """Render the canonical document form; parse() of it reproduces ``net``."""
    ids, arrays = net.bus_ids, net.arrays
    doc = {
        "bases": {"power_mva": net.power_base, "voltage_kv": net.voltage_base},
        "buses": [
            {"id": bus_id, "kind": LOAD if pos else SLACK, "shunt_g": g, "shunt_b": b}
            for pos, (bus_id, g, b) in enumerate(
                zip(ids, arrays.shunt.real.tolist(), arrays.shunt.imag.tolist()))
        ],
        "branches": [
            {"from": ids[i], "to": ids[j], "kind": kind, "g": g, "b": b,
             "ratio_re": ratio_re, "ratio_im": ratio_im}
            for i, j, kind, g, b, ratio_re, ratio_im in zip(
                arrays.from_pos.tolist(), arrays.to_pos.tolist(), net.branch_kinds,
                arrays.admittance.real.tolist(), arrays.admittance.imag.tolist(),
                arrays.ratio.real.tolist(), arrays.ratio.imag.tolist())
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
    pos = _positions(net.index, ids, "bus")

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
    pos = _positions(net.index, ids, "bus")

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
        bus_id = net.bus_ids[1 + int(np.argmin(listed))]
        raise InvalidNetworkError(f"missing voltage for bus {bus_id!r}")
    v = np.empty(net.n, dtype=complex)
    v[pos - 1] = _complex(v_re, v_im)

    s = _injections(net, {"injections": doc.get("injections", [])})
    return OperatingPoint(v=v, s=s, provenance=provenance)


def load_operating_point(net: NetworkDescription, path) -> OperatingPoint:
    return parse_operating_point(net, Path(path).read_text(encoding="utf-8"))
