"""Seeded random-network generation shared across the test suite.

Networks are built with realistic parameter ranges: positive branch
conductances (series impedances with positive resistance), optional
transformer ratios near unity, and shunts with non-negative conductance.
Injection profiles can be rescaled exactly onto a target loading level
thanks to the absolute homogeneity of the loading measure.

Tests write networks as lists of `Bus` and `Branch` records, one per
bus and per branch; `from_records` hands their columns to `build_network`,
and `records` reads a network's columns back as records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import flowcert as fc


@dataclass(frozen=True)
class Bus:
    """One bus: the slack reference or a PQ load bus, with the summed
    per-unit shunt admittance around it."""

    id: str
    kind: str
    shunt_admittance: complex = 0j


@dataclass(frozen=True)
class Branch:
    """Two-terminal element between ``from_bus`` and ``to_bus``: for a
    transformer, ``admittance`` is seen from ``from_bus`` and ``ratio``
    is the complex turns ratio; lines carry ratio exactly 1."""

    from_bus: str
    to_bus: str
    kind: str
    admittance: complex
    ratio: complex = 1 + 0j


def from_records(buses, branches, power_base=1.0, voltage_base=1.0) -> fc.NetworkDescription:
    """`build_network` on the columns of these records."""
    buses, branches = list(buses), list(branches)
    return fc.build_network(
        [bus.id for bus in buses], [bus.kind for bus in buses],
        [bus.shunt_admittance for bus in buses],
        [br.from_bus for br in branches], [br.to_bus for br in branches],
        [br.kind for br in branches], [br.admittance for br in branches],
        [br.ratio for br in branches], power_base, voltage_base)


def records(net: fc.NetworkDescription) -> tuple[list[Bus], list[Branch]]:
    """``net``'s buses (slack first) and branches as records."""
    ids, arrays = net.bus_ids, net.arrays
    buses = [Bus(bus_id, "load" if pos else "slack", shunt)
             for pos, (bus_id, shunt) in enumerate(zip(ids, arrays.shunt.tolist()))]
    branches = [Branch(ids[i], ids[j], kind, y, k) for i, j, kind, y, k in zip(
        arrays.from_pos.tolist(), arrays.to_pos.tolist(), net.branch_kinds,
        arrays.admittance.tolist(), arrays.ratio.tolist())]
    return buses, branches


def random_network(
    rng: np.random.Generator,
    n_load: int,
    *,
    meshed: bool = True,
    transformers: bool = True,
    shunts: bool = True,
) -> fc.NetworkDescription:
    """Connected random network with ``n_load`` load buses."""
    buses = [Bus("0", "slack")]
    branches = []

    def random_branch(a: str, b: str) -> Branch:
        r = rng.uniform(0.01, 0.08)
        x = rng.uniform(0.02, 0.2)
        y = 1.0 / complex(r, x)
        if transformers and rng.random() < 0.3:
            ratio = rng.uniform(0.9, 1.1) * np.exp(1j * rng.uniform(-0.05, 0.05))
            return Branch(a, b, "transformer", y, complex(ratio))
        return Branch(a, b, "line", y)

    for i in range(1, n_load + 1):
        shunt = 0j
        if shunts and rng.random() < 0.4:
            shunt = complex(rng.uniform(0.0, 0.05), rng.uniform(-0.15, 0.15))
        buses.append(Bus(str(i), "load", shunt))
        parent = int(rng.integers(0, i))  # attach to an earlier bus: stays connected
        branches.append(random_branch(str(parent), str(i)))

    if meshed and n_load >= 3:
        extra = int(rng.integers(0, max(1, n_load // 3) + 1))
        for _ in range(extra):
            a, b = rng.choice(n_load + 1, size=2, replace=False)
            branches.append(random_branch(str(int(a)), str(int(b))))

    return from_records(buses, branches)


def random_tree(rng: np.random.Generator, n_load: int, **kwargs) -> fc.NetworkDescription:
    return random_network(rng, n_load, meshed=False, **kwargs)


def random_injections(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixed-sign complex injection profile, unscaled."""
    return rng.normal(size=n) * 0.1 + 1j * rng.normal(size=n) * 0.05


def scale_to_xi(
    kernel: fc.KernelMatrix, s: np.ndarray, target: float
) -> np.ndarray:
    """Rescale ``s`` so that the loading measure equals ``target`` exactly
    (up to roundoff), using absolute homogeneity."""
    current = fc.xi(kernel, s)
    if current == 0:
        raise ValueError("cannot rescale a zero injection profile")
    return s * (target / current)


def chain_network(n_load: int) -> fc.NetworkDescription:
    """Radial chain slack-1-2-...-n with one line type."""
    buses = [Bus("0", "slack")]
    buses += [Bus(str(i), "load") for i in range(1, n_load + 1)]
    branches = [
        Branch(str(i), str(i + 1), "line", 1.0 / (0.01 + 0.03j))
        for i in range(n_load)
    ]
    return from_records(buses, branches)


def star_network(n_load: int) -> fc.NetworkDescription:
    """Bushy tree: hub bus 1 under the slack, every other bus a leaf of the hub."""
    buses = [Bus("0", "slack")]
    buses += [Bus(str(i), "load") for i in range(1, n_load + 1)]
    branches = [Branch("0", "1", "line", 1.0 / (0.01 + 0.03j))]
    branches += [
        Branch("1", str(i), "line", 1.0 / (0.01 + 0.03j))
        for i in range(2, n_load + 1)
    ]
    return from_records(buses, branches)


def sample_in_ball(
    rng: np.random.Generator, center: np.ndarray, rho: float
) -> np.ndarray:
    """Uniform sample from the per-coordinate complex disc of radius rho."""
    n = len(center)
    radii = rho * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return center + radii * np.exp(1j * angles)
