"""End-to-end walkthrough on the bundled 13-bus feeder fixture.

Certifies the next-setpoint injections against the measured operating
point, solves by fixed-point iteration, cross-checks against the
Newton-Raphson solver, verifies ball containment, and maps the
feasibility intervals of every condition set with a loading sweep.

Run from the repository root:  python scripts/feeder_case.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import flowcert as fc  # noqa: E402
from flowcert.continuation import sweep  # noqa: E402

DATA = REPO / "data" / "feeder13"


def main() -> None:
    net = fc.load_network(DATA / "network.json")
    s_hat = fc.load_injections(net, DATA / "injections_base.json")
    s_next = fc.load_injections(net, DATA / "injections_next.json")
    op = fc.load_operating_point(net, DATA / "operating_point.json")
    grid = fc.prepare_grid(net)

    print(f"network: {net.n} load buses, radial={net.is_radial}, "
          f"kernel={grid.kernel.path}, "
          f"base {net.power_base} MVA / {net.voltage_base} kV")

    report = fc.certify(grid.kernel, s_next, w=grid.w, v_hat=op.v, s_hat=op.s)
    print("\ncertificate for the next setpoint:")
    print(f"  xi(s_hat)     = {report.xi_s_hat:.4f}")
    print(f"  xi(s - s_hat) = {report.xi_delta_s:.4f}")
    print(f"  xi(s)         = {report.xi_s:.4f}")
    print(f"  u_min         = {report.u_min:.4f}")
    print(f"  delta         = {report.delta:.4f}")
    verdict = "PASS" if report.theorem_ok else "fail"
    radius = f" (rho = {report.rho:.4f})" if report.theorem_ok else ""
    print(f"  state-aware conditions: {verdict}{radius}")
    print(f"  state-free condition (xi < 1/4): "
          f"{'PASS' if report.corollary_ok else 'fail'}")
    print(f"  row-norm product conditions:     "
          f"plain {'PASS' if report.bolognani_ok else 'fail'}, "
          f"weighted {'PASS' if report.improved_ok else 'fail'}")

    ball = fc.solution_ball(report, op.v, grid.w)
    fp = fc.solve_fixed_point(grid.factors, grid.w, s_next, ball=ball)
    nr = fc.solve_newton(grid.system, s_next)
    gap = float(np.max(np.abs(fp.v - nr.v)))
    print(f"\nfixed point: {fp.iterations} iterations, "
          f"residual {fp.residual:.2e}, contained in ball: {fp.contained_in_d}")
    print(f"newton:      {nr.iterations} iterations, mismatch {nr.mismatch:.2e}")
    print(f"solver agreement (inf-norm gap): {gap:.2e}")

    print("\n bus   |v_hat|     |v|       shift")
    for i, bus_id in enumerate(net.bus_ids[1:]):
        shift = abs(fp.v[i] - op.v[i])
        print(f"  {bus_id:>3}  {abs(op.v[i]):8.5f}  {abs(fp.v[i]):8.5f}  "
              f"{shift:9.2e}")

    result = sweep(net, s_hat, operating_point=op, kappa_max=20.0, steps=256)
    print(f"\nloading sweep along s_hat (kappa_hat = {result.kappa_hat:.2f} MVA):")

    def fmt(bound):
        return "beyond grid" if bound is None else f"{bound:.2f} MVA"

    print(f"  plain row-norm condition up to    {fmt(result.prior_boundary)}")
    print(f"  weighted row-norm condition up to {fmt(result.improved_boundary)}")
    print(f"  state-free condition up to        {fmt(result.corollary_boundary)}")
    lo, hi = result.theorem_interval
    print(f"  state-aware conditions on         ({lo:.2f}, {hi:.2f}) MVA")
    frac = result.fp_converged.mean()
    print(f"  fixed point converged at {frac:.0%} of grid points")


if __name__ == "__main__":
    main()
