"""Benchmark inputs: network documents, operating points and scenario sets.

Every input is made here, independently of the test suite: the topology
of each network from TOPOLOGY_SEED, everything else from the seed, so
that the cost of a run does not swing with the seed.  The networks
mirror the parameter ranges of the test generator (series impedance r in
[0.01, 0.08], x in [0.02, 0.2] p.u.; 30 % of branches are transformers
with ratio magnitude in [0.9, 1.1] and angle in [-0.05, 0.05] rad; 40 % of
buses carry a shunt with g in [0, 0.05] and b in [-0.15, 0.15] p.u.), but
live in the benchmark, so that a change to the tests cannot change what
is measured.

Scenario loadings are set by absolute homogeneity of the loading measure,
computed from the benchmark's own dense inverse (`checks.Reference`), so
that each stream spans the same fixed fraction of its certified limit on
every seed.  Likewise each sweep ends a fixed fraction past the loading
where the fixed-point iteration stops converging, so that the same share
of its grid points runs into the iteration limit on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Case, Reference

N_SCENARIOS = 100
LOADING_LOW, LOADING_HIGH = 0.1, 0.9  # fraction of the certified limit
BASE_XI = 0.1  # loading measure of the operating points
CLI_LOADING = 0.5  # fraction of the limit for the CLI's injection file
TOPOLOGY_SEED = 1  # every seed's network has this seed's topology
SWEEP_REACH = 1.25  # kappa_max over the point where the fixed point stops converging
SWEEP_FP_TOL, SWEEP_FP_MAX_ITER = 1e-9, 100  # continuation.sweep's defaults


@dataclass(frozen=True)
class Spec:
    """Fixed shape of one workload; only the random draws depend on the seed."""

    name: str
    n_load: int
    extra_branches: int
    shunts: bool
    state_aware: bool
    sweep_steps: int
    setups_per_round: int  # a round: set-ups, one pass, one sweep, CLI processes
    cli_per_round: int
    newton_sample: int
    mem_cycles: int


SPECS = {
    spec.name: spec
    for spec in (
        Spec("radial-1k", 1000, 0, False, True,
             sweep_steps=8, setups_per_round=1, cli_per_round=1, newton_sample=2, mem_cycles=10),
        Spec("meshed-300", 300, 50, True, False,
             sweep_steps=128, setups_per_round=4, cli_per_round=2, newton_sample=5, mem_cycles=100),
    )
}


@dataclass
class Workload:
    """Everything one run feeds the program, plus the reference model."""

    spec: Spec
    network_path: Path
    op_path: Path  # the operating point of the sweep, and of state-aware cycles
    cli_injection_path: Path
    ref: Reference
    s_hat: np.ndarray  # per-unit, as the reference reads the operating point
    v_hat: np.ndarray
    scenarios: list[Case]  # in stream order
    cli_case: Case
    sweep_ray: np.ndarray
    sweep_kappa_max: float
    newton_picks: list[int]


def control_cycle(fc, grid, op, s: np.ndarray):
    """One controller cycle: certify, solution ball, fixed-point solve from its centre.

    ``op`` is the operating point of state-aware cycles, None for state-free
    ones.  Calls go through the ``fc`` package's attributes, so that spans
    installed there see them.
    """
    if op is None:
        report = fc.certify(grid.kernel, s)
        ball = fc.solution_ball(report, grid.w.w, grid.w)
    else:
        report = fc.certify(grid.kernel, s, w=grid.w, v_hat=op.v, s_hat=op.s)
        ball = fc.solution_ball(report, op.v, grid.w)
    return report, fc.solve_fixed_point(grid.factors, grid.w, s, ball=ball)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def random_network_document(spec: Spec, seed: int) -> dict:
    """Random recursive tree on ``n_load`` buses plus ``extra_branches`` chords.

    The topology is drawn from TOPOLOGY_SEED, the same on every seed, so
    that fill-in and pivot search, and with them the cost of set-up, do not
    swing with the seed; the seed draws every electrical parameter.
    """
    shape, rng = _rng(TOPOLOGY_SEED, 0), _rng(seed, 1)
    edges = [(int(shape.integers(0, i)), i) for i in range(1, spec.n_load + 1)]
    edges += [tuple(int(x) for x in shape.choice(spec.n_load + 1, size=2, replace=False))
              for _ in range(spec.extra_branches)]

    buses = [{"id": "0", "kind": "slack", "shunt_g": 0.0, "shunt_b": 0.0}]
    for i in range(1, spec.n_load + 1):
        g = b = 0.0
        if spec.shunts and rng.random() < 0.4:
            g, b = rng.uniform(0.0, 0.05), rng.uniform(-0.15, 0.15)
        buses.append({"id": str(i), "kind": "load", "shunt_g": g, "shunt_b": b})

    branches = []
    for a, b in edges:
        y = 1.0 / complex(rng.uniform(0.01, 0.08), rng.uniform(0.02, 0.2))
        ratio = 1 + 0j
        kind = "line"
        if rng.random() < 0.3:
            ratio = rng.uniform(0.9, 1.1) * np.exp(1j * rng.uniform(-0.05, 0.05))
            kind = "transformer"
        branches.append({"from": str(a), "to": str(b), "kind": kind,
                         "g": y.real, "b": y.imag,
                         "ratio_re": float(ratio.real), "ratio_im": float(ratio.imag)})
    return {"bases": {"power_mva": 1.0, "voltage_kv": 1.0},
            "buses": buses, "branches": branches}


def fixed_point_limit(ref: Reference, ray: np.ndarray) -> float:
    """kappa (MVA) along ``ray`` past which the sweep's fixed point stops
    converging, to 0.1 %, found on the reference model."""
    def converges(kappa: float) -> bool:
        s = kappa / ref.power_base * ray / float(np.sum(np.abs(ray)))
        return ref.fixed_point_converges(s, SWEEP_FP_TOL, SWEEP_FP_MAX_ITER)

    lo = ref.corollary_boundary(ray)  # certified, so the iteration converges there
    hi = 2.0 * lo
    while converges(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-3 * lo:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if converges(mid) else (lo, mid)
    return lo


def consumption(rng, n: int) -> np.ndarray:
    """Loads drawing P in [0.5, 1.5] at power factor about 0.9 (unscaled)."""
    p = rng.uniform(0.5, 1.5, n)
    return -(p + 0.48j * p)


def mixed(rng, n: int) -> np.ndarray:
    """Mixed-sign complex setpoint change, as the test generator draws it."""
    return rng.normal(size=n) * 0.1 + 1j * rng.normal(size=n) * 0.05


def injections_document(ref: Reference, s: np.ndarray) -> dict:
    base = ref.power_base
    return {"injections": [
        {"bus": bus, "p_mw": float(x.real) * base, "q_mvar": float(x.imag) * base}
        for bus, x in zip(ref.load_ids, s)
    ]}


def operating_point_document(ref: Reference, v: np.ndarray, s: np.ndarray) -> dict:
    doc = injections_document(ref, s)
    doc["provenance"] = "solved"
    doc["voltages"] = [{"bus": bus, "re": float(x.real), "im": float(x.imag)}
                       for bus, x in zip(ref.load_ids, v)]
    return doc


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def build(spec: Spec, seed: int, out_dir: Path, newton) -> Workload:
    """Make the workload's files under ``out_dir`` and its scenario stream.

    ``newton(ref, s)`` returns solved voltages: the dense Newton oracle
    finds the operating point.  Vectors are read back from the written
    files, so the program and the reference start from the same bits.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    network_path = out_dir / "network.json"
    op_path = out_dir / "operating_point.json"
    cli_injection_path = out_dir / "injections.json"
    _write(network_path, random_network_document(spec, seed))
    ref = Reference(network_path.read_text(encoding="utf-8"))
    s_base = consumption(_rng(seed, 2), ref.n)
    s_base *= BASE_XI / ref.xi(s_base)
    _write(op_path, operating_point_document(ref, newton(ref, s_base), s_base))
    v_hat, s_hat = ref.operating_point(_read(op_path))

    rng = _rng(seed, 3)
    if spec.state_aware:
        u_min = ref.u_min(v_hat)
        limit = (u_min - ref.xi(s_hat) / u_min) ** 2 / 4.0
    else:
        limit = 0.25

    def scenario(fraction: float) -> Case:
        step = mixed(rng, ref.n)
        step *= fraction * limit / ref.xi(step)
        if spec.state_aware:
            return Case(s_hat + step, s_hat, v_hat)
        return Case(step)

    loadings = rng.permutation(np.linspace(LOADING_LOW, LOADING_HIGH, N_SCENARIOS))
    scenarios = [scenario(f) for f in loadings]

    _write(cli_injection_path, injections_document(ref, scenario(CLI_LOADING).s))
    s = ref.injections(_read(cli_injection_path))
    cli_case = Case(s, s_hat, v_hat) if spec.state_aware else Case(s)

    picks = sorted(rng.choice(N_SCENARIOS, size=spec.newton_sample, replace=False))
    return Workload(
        spec=spec, network_path=network_path, op_path=op_path,
        cli_injection_path=cli_injection_path, ref=ref, s_hat=s_hat, v_hat=v_hat,
        scenarios=scenarios, cli_case=cli_case, sweep_ray=s_base,
        sweep_kappa_max=SWEEP_REACH * fixed_point_limit(ref, s_base),
        newton_picks=[int(i) for i in picks],
    )
