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

`build_network` is the one constructor of a `NetworkDescription`.  In
the pass that validates the records it also caches, outside the
network's equality (``==`` compares buses, branches and bases only),
what assembly needs: ``index`` (bus id -> position, slack 0) and
``arrays`` (`NetworkArrays`: each branch's endpoint positions,
admittance and ratio, and each bus's shunt, as numpy arrays).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
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
    self-loops, non-unit line ratios, or a disconnected graph.  Records
    are checked in order, and each against its rules in the order of its
    messages below, so the error names the first faulty record and its
    first broken rule.
    """
    for name, base in (("power", power_base), ("voltage", voltage_base)):
        if not math.isfinite(base):
            raise InvalidNetworkError(f"{name} base must be finite, got {base}")
        if base <= 0:
            raise InvalidNetworkError(f"{name} base must be positive, got {base}")

    seen: set[str] = set()
    slack_buses = []
    load_buses = []
    for bus in buses:
        if not _finite(bus.shunt_admittance):
            raise InvalidNetworkError(
                f"bus {bus.id!r} has non-finite shunt admittance {bus.shunt_admittance}"
            )
        if bus.id in seen:
            raise InvalidNetworkError(f"duplicate bus id {bus.id!r}")
        seen.add(bus.id)
        if bus.kind == SLACK:
            slack_buses.append(bus)
        elif bus.kind == LOAD:
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
    from_pos: list[int] = []
    to_pos: list[int] = []
    for br in branches:
        i, j = index.get(br.from_bus), index.get(br.to_bus)
        fault = _branch_fault(br, i, j)
        if fault:
            raise InvalidNetworkError(f"branch {br.from_bus!r}->{br.to_bus!r} {fault}")
        from_pos.append(i)
        to_pos.append(j)

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
            from_pos=np.array(from_pos, dtype=np.intp),
            to_pos=np.array(to_pos, dtype=np.intp),
            admittance=np.array([br.admittance for br in branches], dtype=complex),
            ratio=np.array([br.ratio for br in branches], dtype=complex),
            shunt=np.array([bus.shunt_admittance for bus in ordered], dtype=complex),
        ),
    )


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _branch_fault(br: Branch, i: int | None, j: int | None) -> str | None:
    """The first rule ``br`` breaks, as the rest of its error message, or
    None; ``i`` and ``j`` are its endpoints' positions (None if unknown)."""
    if not _finite(br.admittance):
        return f"has non-finite admittance {br.admittance}"
    if not _finite(br.ratio):
        return f"has non-finite ratio {br.ratio}"
    if br.from_bus == br.to_bus:
        return "is a self-loop"
    if i is None:
        return f"references unknown bus {br.from_bus!r}"
    if j is None:
        return f"references unknown bus {br.to_bus!r}"
    if br.kind not in (LINE, TRANSFORMER):
        return f"has unknown kind {br.kind!r}"
    if br.admittance.real <= 0:
        return f"has non-positive conductance {br.admittance.real}"
    if br.ratio == 0:
        return "has zero ratio"
    if br.kind == LINE and br.ratio != 1:
        return "is a line but its ratio is not 1"
    return None


def _first_unreachable(n_buses: int, from_pos, to_pos) -> int | None:
    """Position of the first bus that no path of branches joins to the
    slack (position 0), or None when every bus is reached."""
    adjacency: list[list[int]] = [[] for _ in range(n_buses)]
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


# --- document parsing -------------------------------------------------------


def _load_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidNetworkError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidNetworkError(f"{what} must be a JSON object")
    return doc


def _number(record: dict, key: str, what: str, default=None) -> float:
    if key not in record:
        if default is not None:
            return default
        raise InvalidNetworkError(f"{what} is missing field {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidNetworkError(f"{what} field {key!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InvalidNetworkError(f"{what} field {key!r} must be finite, got {number}")
    return number


def _bus_id(value, what: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise InvalidNetworkError(f"{what} must be a string or integer bus id")


def _records(doc: dict, key: str, what: str) -> list[dict]:
    if key not in doc or not isinstance(doc[key], list):
        raise InvalidNetworkError(f"{what} must contain a {key!r} list")
    for entry in doc[key]:
        if not isinstance(entry, dict):
            raise InvalidNetworkError(f"every {key!r} entry must be an object")
    return doc[key]


def parse_network(text: str) -> NetworkDescription:
    """Parse and validate a network document (see module docstring)."""
    doc = _load_json(text, "network document")
    unknown = set(doc) - {"bases", "buses", "branches"}
    if unknown:
        raise InvalidNetworkError(f"unknown network sections: {sorted(unknown)}")
    if "bases" not in doc or not isinstance(doc["bases"], dict):
        raise InvalidNetworkError("network document must contain a 'bases' object")
    power_base = _number(doc["bases"], "power_mva", "bases")
    voltage_base = _number(doc["bases"], "voltage_kv", "bases")

    buses = []
    for rec in _records(doc, "buses", "network document"):
        bus_id = _bus_id(rec.get("id"), "bus id")
        kind = rec.get("kind")
        if kind not in (SLACK, LOAD):
            raise InvalidNetworkError(f"bus {bus_id!r} has unknown kind {kind!r}")
        shunt = complex(
            _number(rec, "shunt_g", f"bus {bus_id!r}", default=0.0),
            _number(rec, "shunt_b", f"bus {bus_id!r}", default=0.0),
        )
        buses.append(Bus(id=bus_id, kind=kind, shunt_admittance=shunt))

    branches = []
    for rec in _records(doc, "branches", "network document"):
        from_id = _bus_id(rec.get("from"), "branch 'from'")
        to_id = _bus_id(rec.get("to"), "branch 'to'")
        label = f"branch {from_id!r}->{to_id!r}"
        admittance = complex(_number(rec, "g", label), _number(rec, "b", label))
        ratio = complex(
            _number(rec, "ratio_re", label, default=1.0),
            _number(rec, "ratio_im", label, default=0.0),
        )
        branches.append(
            Branch(
                from_bus=from_id,
                to_bus=to_id,
                kind=rec.get("kind"),
                admittance=admittance,
                ratio=ratio,
            )
        )

    return build_network(buses, branches, power_base, voltage_base)


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
    s = np.zeros(net.n, dtype=complex)
    filled: set[str] = set()
    for rec in _records(doc, "injections", "injection document"):
        bus_id = _bus_id(rec.get("bus"), "injection bus")
        if bus_id not in net.index:
            raise InvalidNetworkError(f"injection references unknown bus {bus_id!r}")
        if bus_id == net.slack.id:
            raise InvalidNetworkError("the slack bus carries no specified injection")
        if bus_id in filled:
            raise InvalidNetworkError(f"duplicate injection for bus {bus_id!r}")
        filled.add(bus_id)
        power = complex(
            _number(rec, "p_mw", f"injection for bus {bus_id!r}"),
            _number(rec, "q_mvar", f"injection for bus {bus_id!r}"),
        )
        s[net.load_index(bus_id)] = to_per_unit(power, net.power_base)
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

    v = np.full(net.n, np.nan, dtype=complex)
    for rec in _records(doc, "voltages", "operating-point document"):
        bus_id = _bus_id(rec.get("bus"), "voltage bus")
        if bus_id not in net.index or bus_id == net.slack.id:
            raise InvalidNetworkError(f"voltage entry for invalid bus {bus_id!r}")
        idx = net.load_index(bus_id)
        if not np.isnan(v[idx].real):
            raise InvalidNetworkError(f"duplicate voltage for bus {bus_id!r}")
        v[idx] = complex(
            _number(rec, "re", f"voltage for bus {bus_id!r}"),
            _number(rec, "im", f"voltage for bus {bus_id!r}"),
        )
    missing = np.isnan(v.real)
    if missing.any():
        bus = net.load_buses[int(np.flatnonzero(missing)[0])]
        raise InvalidNetworkError(f"missing voltage for bus {bus.id!r}")

    s = _injections(net, {"injections": doc.get("injections", [])})
    return OperatingPoint(v=v, s=s, provenance=provenance)


def load_operating_point(net: NetworkDescription, path) -> OperatingPoint:
    return parse_operating_point(net, Path(path).read_text(encoding="utf-8"))
