"""Regenerate the bundled 13-bus feeder fixture under data/feeder13/.

The feeder follows the familiar 13-bus test layout with the buses
renumbered 1..12 (slack is 0).  All branches are one synthetic cable
type with the usual segment lengths; the per-length impedance is scaled
globally so that the loading measure of the base injections lands
exactly at XI_TARGET, which puts the scenario in the regime where the
state-aware certificate passes while every state-free condition fails.
The operating-point voltages are produced by the Newton solver and
frozen at full precision.

Run from the repository root:  python scripts/make_feeder_fixture.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import flowcert as fc  # noqa: E402

OUT_DIR = REPO / "data" / "feeder13"

XI_TARGET = 0.5
POWER_BASE_MVA = 5.0
VOLTAGE_BASE_KV = 2.4  # 4.16 kV line-to-line / sqrt(3)
Z_BASE_OHM = VOLTAGE_BASE_KV**2 / POWER_BASE_MVA

# One cable type, impedance per 1000 ft (scaled below).
Z_PER_KFT = 0.08 + 0.16j

# (from, to, length in feet); transformer and switch segments of the
# original feeder are represented as short line segments, matching the
# all-lines simplification of the scenario.
SEGMENTS = [
    ("0", "1", 2000),
    ("1", "2", 500),
    ("2", "3", 100),
    ("1", "4", 500),
    ("4", "5", 300),
    ("1", "6", 2000),
    ("6", "7", 50),
    ("7", "8", 500),
    ("6", "9", 300),
    ("9", "10", 300),
    ("6", "11", 1000),
    ("9", "12", 800),
]

# Base injections (MW, Mvar) and the next-setpoint scaling per bus.
INJECTIONS = {
    "1": (-0.48, -0.32, 1.00),
    "2": (1.28, 0.96, 1.05),
    "3": (-0.72, -0.48, 0.95),
    "4": (0.96, 0.80, 1.03),
    "5": (-0.96, -0.80, 1.01),
    "6": (0.64, 0.48, 1.05),
    "7": (-0.80, -0.48, 0.97),
    "8": (0.64, 0.48, 1.04),
    "9": (-0.64, -0.48, 0.99),
    "10": (0.32, 0.24, 1.00),
    "11": (-0.48, -0.32, 1.00),
    "12": (0.32, 0.24, 1.05),
}


def build_net(z_per_kft: complex) -> fc.NetworkDescription:
    from_ids, to_ids, lengths = zip(*SEGMENTS)
    admittances = [1.0 / (z_per_kft * (feet / 1000.0) / Z_BASE_OHM) for feet in lengths]
    return fc.build_network(
        [str(i) for i in range(13)], ["slack"] + ["load"] * 12, [0j] * 13,
        from_ids, to_ids, ["line"] * len(SEGMENTS), admittances, [1 + 0j] * len(SEGMENTS),
        POWER_BASE_MVA, VOLTAGE_BASE_KV,
    )


def injection_vector(net: fc.NetworkDescription, scaled: bool) -> np.ndarray:
    s = np.zeros(net.n, dtype=complex)
    for bus_id, (p, q, e) in INJECTIONS.items():
        factor = e if scaled else 1.0
        s[net.load_index(bus_id)] = fc.to_per_unit(
            complex(p, q) * factor, POWER_BASE_MVA
        )
    return s


def main() -> None:
    # Lines only, so the zero-load profile is the unit vector and the
    # loading measure is exactly linear in the impedance scale.
    probe = fc.prepare_grid(build_net(Z_PER_KFT))
    xi0 = fc.xi(probe.kernel, injection_vector(probe.net, scaled=False))
    scale = XI_TARGET / xi0
    z_final = Z_PER_KFT * scale
    net = build_net(z_final)
    grid = fc.prepare_grid(net)

    s_hat = injection_vector(net, scaled=False)
    s_next = injection_vector(net, scaled=True)
    nr = fc.solve_newton(grid.system, s_hat)

    report = fc.certify(grid.kernel, s_next, w=grid.w, v_hat=nr.v, s_hat=s_hat)
    print(f"impedance per kft: {z_final}")
    print(f"xi(s_hat)     = {report.xi_s_hat:.6f}")
    print(f"xi(s - s_hat) = {report.xi_delta_s:.6f}")
    print(f"xi(s)         = {report.xi_s:.6f}")
    print(f"u_min         = {report.u_min:.6f}")
    print(f"delta         = {report.delta:.6f}")
    print(f"rho           = {report.rho}")
    print(f"state-aware ok = {report.theorem_ok}, state-free ok = {report.corollary_ok}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "network.json").write_text(fc.serialize_network(net), encoding="utf-8")

    def injection_records(scaled: bool):
        return [
            {
                "bus": bus_id,
                "p_mw": p * (e if scaled else 1.0),
                "q_mvar": q * (e if scaled else 1.0),
            }
            for bus_id, (p, q, e) in INJECTIONS.items()
        ]

    (OUT_DIR / "injections_base.json").write_text(
        json.dumps({"injections": injection_records(False)}, indent=2) + "\n",
        encoding="utf-8",
    )
    (OUT_DIR / "injections_next.json").write_text(
        json.dumps({"injections": injection_records(True)}, indent=2) + "\n",
        encoding="utf-8",
    )
    op_doc = {
        "provenance": "solved",
        "voltages": [
            {
                "bus": bus_id,
                "re": nr.v[i].real,
                "im": nr.v[i].imag,
            }
            for i, bus_id in enumerate(net.bus_ids[1:])
        ],
        "injections": injection_records(False),
    }
    (OUT_DIR / "operating_point.json").write_text(
        json.dumps(op_doc, indent=2) + "\n", encoding="utf-8"
    )
    print(f"fixture written to {OUT_DIR}")


if __name__ == "__main__":
    main()
