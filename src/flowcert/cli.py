"""Command-line front end: ingest, certify, solve, sweep, dump.

`check` and `solve` certify through one path: `certificate.certify`,
which verifies a given operating point before evaluating the
state-aware conditions, and evaluates the state-free ones without it.
The parser holds every option default; the runners read its namespace.

Exit codes: 0 success / requested condition passed, 1 requested
condition failed, 2 input or parse error (a singular or degenerate
network included), 3 solver non-convergence.  Human diagnostics go to
stderr; output files carry all machine data.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import certificate as cert
from . import report as reportfmt
from .admittance import full_admittance
from .continuation import sweep, sweep_table
from .errors import (
    ConvergenceError,
    DegenerateNetworkError,
    InvalidNetworkError,
    SingularMatrixError,
    VoltageCollapseError,
)
from .fixed_point import solve_fixed_point
from .network import load_injections, load_network, load_operating_point
from .pipeline import prepare_grid


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


def _load_inputs(args: argparse.Namespace):
    """Parse every input file before any numeric work starts."""
    net = load_network(Path(args.network))
    injections = getattr(args, "injections", None)
    s = load_injections(net, Path(injections)) if injections else None
    op_path = getattr(args, "operating_point", None)
    op = load_operating_point(net, Path(op_path)) if op_path else None
    return net, s, op


def _certify(grid, s, op):
    """Certify ``s``, against ``op`` when given.

    Returns the report, the verdict of the condition set evaluated and
    its solution ball (None on a fail).
    """
    if op is None:
        report = cert.certify(grid.kernel, s)
        passed, center = bool(report.corollary_ok), grid.w.w
    else:
        report = cert.certify(grid.kernel, s, w=grid.w, v_hat=op.v, s_hat=op.s)
        passed, center = bool(report.theorem_ok), op.v
    ball = cert.solution_ball(report, center, grid.w) if passed else None
    return report, passed, ball


def run_check(args: argparse.Namespace) -> int:
    net, s, op = _load_inputs(args)
    report, passed, _ = _certify(prepare_grid(net), s, op)
    doc = reportfmt.certificate_document(report)
    Path(args.out).write_text(reportfmt.render_document(doc), encoding="utf-8")
    return 0 if passed else 1


def run_solve(args: argparse.Namespace) -> int:
    net, s, op = _load_inputs(args)
    grid = prepare_grid(net)
    _, _, ball = _certify(grid, s, op)
    try:
        result = solve_fixed_point(
            grid.factors, grid.w, s, tol=args.tol, max_iter=args.max_iter, ball=ball
        )
    except (ConvergenceError, VoltageCollapseError) as exc:
        print(f"flowcert solve: {exc}", file=sys.stderr)
        doc = reportfmt.failed_solve_document(exc, net)
        Path(args.out).write_text(reportfmt.render_document(doc), encoding="utf-8")
        return 3
    doc = reportfmt.solve_document(result, net)
    Path(args.out).write_text(reportfmt.render_document(doc), encoding="utf-8")
    return 0


def run_sweep(args: argparse.Namespace) -> int:
    net, s, op = _load_inputs(args)
    result = sweep(
        net,
        s,
        operating_point=op,
        kappa_max=args.kappa_max,
        steps=args.steps,
        fp_tol=args.tol,
        fp_max_iter=args.max_iter,
    )
    Path(args.out).write_text(sweep_table(result), encoding="utf-8")
    return 0


def run_dump_matrix(args: argparse.Namespace) -> int:
    net, _, _ = _load_inputs(args)
    coo = full_admittance(net).tocoo()
    entries = sorted(zip(coo.row, coo.col, coo.data), key=lambda e: (e[0], e[1]))
    lines = [
        f"{int(i)} {int(j)} {format(v.real, '.17g')} {format(v.imag, '.17g')}"
        for i, j, v in entries
    ]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


_RUNNERS = {
    "check": run_check,
    "solve": run_solve,
    "sweep": run_sweep,
    "dump-matrix": run_dump_matrix,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.subcommand](args)
    except (InvalidNetworkError, OSError, ValueError,
            SingularMatrixError, DegenerateNetworkError) as exc:
        print(f"flowcert {args.subcommand}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
