"""Command-line front end: ingest, certify, solve, sweep, dump.

Exit codes: 0 success / requested condition passed, 1 requested
condition failed, 2 input or parse error, 3 solver non-convergence.
Human diagnostics go to stderr; output files carry all machine data.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import certificate as cert
from . import report as reportfmt
from .admittance import full_admittance
from .continuation import sweep, sweep_table
from .errors import ConvergenceError, InvalidNetworkError, VoltageCollapseError
from .fixed_point import solve_fixed_point
from .network import load_injections, load_network, load_operating_point
from .pipeline import prepare_grid

@dataclass
class RunConfig:
    subcommand: str
    network_path: Path
    injection_path: Path | None
    operating_point_path: Path | None
    tol: float
    max_iter: int
    kappa_max: float
    steps: int
    output_path: Path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcert",
        description=(
            "Certify existence/uniqueness of the load-flow solution and "
            "compute it by fixed-point iteration."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, injections=True):
        p.add_argument("--network", required=True, help="network document path")
        if injections:
            p.add_argument(
                "--injections", required=True, help="injection scenario path"
            )
        p.add_argument("--out", required=True, help="output document path")

    p_check = sub.add_parser("check", help="evaluate the certificate conditions")
    common(p_check)
    p_check.add_argument("--operating-point", help="known (v, s) state path")

    p_solve = sub.add_parser("solve", help="run the fixed-point solver")
    common(p_solve)
    p_solve.add_argument("--operating-point", help="known (v, s) state path")
    p_solve.add_argument("--tol", type=float, default=1e-9)
    p_solve.add_argument("--max-iter", type=int, default=200)

    p_sweep = sub.add_parser("sweep", help="loading sweep along the injection ray")
    common(p_sweep)
    p_sweep.add_argument("--operating-point", help="known (v, s) state path")
    p_sweep.add_argument("--kappa-max", type=float, default=20.0)
    p_sweep.add_argument("--steps", type=int, default=512)
    p_sweep.add_argument("--tol", type=float, default=1e-9)
    p_sweep.add_argument("--max-iter", type=int, default=100)

    p_dump = sub.add_parser("dump-matrix", help="emit Y in coordinate text form")
    common(p_dump, injections=False)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        network_path=Path(args.network),
        injection_path=Path(args.injections) if getattr(args, "injections", None) else None,
        operating_point_path=(
            Path(args.operating_point)
            if getattr(args, "operating_point", None)
            else None
        ),
        tol=getattr(args, "tol", 1e-9),
        max_iter=getattr(args, "max_iter", 200),
        kappa_max=getattr(args, "kappa_max", 20.0),
        steps=getattr(args, "steps", 512),
        output_path=Path(args.out),
    )


def _load_inputs(config: RunConfig):
    """Parse every input file before any numeric work starts."""
    net = load_network(config.network_path)
    s = (
        load_injections(net, config.injection_path)
        if config.injection_path is not None
        else None
    )
    op = (
        load_operating_point(net, config.operating_point_path)
        if config.operating_point_path is not None
        else None
    )
    return net, s, op


def run_check(config: RunConfig) -> int:
    net, s, op = _load_inputs(config)
    grid = prepare_grid(net)
    if op is not None:
        report = cert.certify(
            grid.kernel, s, w=grid.w, v_hat=op.v, s_hat=op.s, system=grid.system
        )
        passed = bool(report.theorem_ok)
    else:
        report = cert.certify(grid.kernel, s)
        passed = bool(report.corollary_ok)
    doc = reportfmt.certificate_document(report)
    config.output_path.write_text(reportfmt.render_document(doc), encoding="utf-8")
    return 0 if passed else 1


def run_solve(config: RunConfig) -> int:
    net, s, op = _load_inputs(config)
    grid = prepare_grid(net)
    ball = None
    if op is not None:
        report = cert.certify(
            grid.kernel, s, w=grid.w, v_hat=op.v, s_hat=op.s, system=grid.system
        )
        if report.theorem_ok:
            ball = cert.solution_ball(report, op.v, grid.w)
    else:
        report = cert.certify(grid.kernel, s)
        if report.corollary_ok:
            ball = cert.solution_ball(report, grid.w.w, grid.w)
    try:
        result = solve_fixed_point(
            grid.factors,
            grid.w,
            s,
            tol=config.tol,
            max_iter=config.max_iter,
            ball=ball,
        )
    except (ConvergenceError, VoltageCollapseError) as exc:
        print(f"flowcert solve: {exc}", file=sys.stderr)
        doc = reportfmt.failed_solve_document(exc, net)
        config.output_path.write_text(
            reportfmt.render_document(doc), encoding="utf-8"
        )
        return 3
    doc = reportfmt.solve_document(result, net)
    config.output_path.write_text(reportfmt.render_document(doc), encoding="utf-8")
    return 0


def run_sweep(config: RunConfig) -> int:
    net, s, op = _load_inputs(config)
    result = sweep(
        net,
        s,
        operating_point=op,
        kappa_max=config.kappa_max,
        steps=config.steps,
        fp_tol=config.tol,
        fp_max_iter=config.max_iter,
    )
    config.output_path.write_text(sweep_table(result), encoding="utf-8")
    return 0


def run_dump_matrix(config: RunConfig) -> int:
    net, _, _ = _load_inputs(config)
    coo = full_admittance(net).tocoo()
    entries = sorted(zip(coo.row, coo.col, coo.data), key=lambda e: (e[0], e[1]))
    lines = [
        f"{int(i)} {int(j)} {format(v.real, '.17g')} {format(v.imag, '.17g')}"
        for i, j, v in entries
    ]
    config.output_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


_RUNNERS = {
    "check": run_check,
    "solve": run_solve,
    "sweep": run_sweep,
    "dump-matrix": run_dump_matrix,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        return _RUNNERS[config.subcommand](config)
    except (InvalidNetworkError, OSError, ValueError) as exc:
        print(f"flowcert {config.subcommand}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
