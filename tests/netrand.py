"""Seeded random-network generation shared across the test suite.

Networks are built with realistic parameter ranges: positive branch
conductances (series impedances with positive resistance), optional
transformer ratios near unity, and shunts with non-negative conductance.
Injection profiles can be rescaled exactly onto a target loading level
thanks to the absolute homogeneity of the loading measure.
"""

from __future__ import annotations

import numpy as np

import flowcert as fc


def random_network(
    rng: np.random.Generator,
    n_load: int,
    *,
    meshed: bool = True,
    transformers: bool = True,
    shunts: bool = True,
) -> fc.NetworkDescription:
    """Connected random network with ``n_load`` load buses."""
    buses = [fc.Bus("0", "slack")]
    branches = []

    def random_branch(a: str, b: str) -> fc.Branch:
        r = rng.uniform(0.01, 0.08)
        x = rng.uniform(0.02, 0.2)
        y = 1.0 / complex(r, x)
        if transformers and rng.random() < 0.3:
            ratio = rng.uniform(0.9, 1.1) * np.exp(1j * rng.uniform(-0.05, 0.05))
            return fc.Branch(a, b, "transformer", y, complex(ratio))
        return fc.Branch(a, b, "line", y)

    for i in range(1, n_load + 1):
        shunt = 0j
        if shunts and rng.random() < 0.4:
            shunt = complex(rng.uniform(0.0, 0.05), rng.uniform(-0.15, 0.15))
        buses.append(fc.Bus(str(i), "load", shunt))
        parent = int(rng.integers(0, i))  # attach to an earlier bus: stays connected
        branches.append(random_branch(str(parent), str(i)))

    if meshed and n_load >= 3:
        extra = int(rng.integers(0, max(1, n_load // 3) + 1))
        for _ in range(extra):
            a, b = rng.choice(n_load + 1, size=2, replace=False)
            branches.append(random_branch(str(int(a)), str(int(b))))

    return fc.build_network(buses, branches, power_base=1.0, voltage_base=1.0)


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
    buses = [fc.Bus("0", "slack")]
    buses += [fc.Bus(str(i), "load") for i in range(1, n_load + 1)]
    branches = [
        fc.Branch(str(i), str(i + 1), "line", 1.0 / (0.01 + 0.03j))
        for i in range(n_load)
    ]
    return fc.build_network(buses, branches, power_base=1.0, voltage_base=1.0)


def star_network(n_load: int) -> fc.NetworkDescription:
    """Bushy tree: hub bus 1 under the slack, every other bus a leaf of the hub."""
    buses = [fc.Bus("0", "slack")]
    buses += [fc.Bus(str(i), "load") for i in range(1, n_load + 1)]
    branches = [fc.Branch("0", "1", "line", 1.0 / (0.01 + 0.03j))]
    branches += [
        fc.Branch("1", str(i), "line", 1.0 / (0.01 + 0.03j))
        for i in range(2, n_load + 1)
    ]
    return fc.build_network(buses, branches, power_base=1.0, voltage_base=1.0)


def sample_in_ball(
    rng: np.random.Generator, center: np.ndarray, rho: float
) -> np.ndarray:
    """Uniform sample from the per-coordinate complex disc of radius rho."""
    n = len(center)
    radii = rho * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return center + radii * np.exp(1j * angles)
