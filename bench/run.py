"""Closed-loop benchmark of flowcert, one client in one process.

Run from the repository root:

    python3 bench/run.py --workload radial-1k --seed 1 --seconds 50 --trace 0

Each workload parses its network and prepares the grid, streams control
cycles (certify -> solution ball -> fixed-point solve) through the prepared
grid, runs one loading sweep and invokes ``python -m flowcert solve`` as
fresh processes.  Outputs are checked against `checks.Reference` outside
the timed regions.  ``--trace 0`` reports the end-to-end metrics of an
untraced run; ``--trace 1`` reports per-layer metrics from spans recorded
around flowcert's public functions, plus the tracing overhead.  The last
line of standard output is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One BLAS thread in this process and in every interpreter it starts: on a
# small shared machine a second BLAS thread stalls whenever its core is
# taken, which made sweep and CLI times swing by half from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from scipy import sparse  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DEFAULT_SEED = 1
IMPORT_REPEATS = 3
OVERHEAD_REPEATS = 3  # untraced and traced runs of each cycle, alternated
SUBPROCESS_TIMEOUT_S = 120


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def as_metrics(kind: str, values: dict) -> dict:
    """The result's metrics object; refuses a set that differs from the declared one."""
    units = declared_metrics(kind)
    if set(units) != set(values):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def import_program():
    """Import flowcert from this checkout's sources, and from nowhere else."""
    package = SRC / "flowcert"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no flowcert sources at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import flowcert
    import flowcert.cli

    if Path(flowcert.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported flowcert from {flowcert.__file__}, not {package}")
    return flowcert


def newton_oracle(fc, ref: checks.Reference, s: np.ndarray) -> np.ndarray:
    """Dense Newton solve on the reference admittance, not on flowcert's stamping."""
    system = fc.AdmittanceSystem(y_ll=sparse.csc_matrix(ref.y_ll), y_l0=ref.y_l0,
                                 slack_voltage=ref.v0, n=ref.n)
    return fc.solve_newton(system, s).v


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_process(argv: list[str]) -> tuple[float, int, str]:
    """Wall time, exit code and stderr of one fresh interpreter, run to its end."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=program_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return perf_counter() - start, proc.returncode, proc.stderr


class Bench:
    """The client: drives flowcert as a controller would and tallies outcomes."""

    def __init__(self, fc, wl: workloads.Workload, out_dir: Path):
        self.fc = fc
        self.wl = wl
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected = [checks.expected(wl.ref, case) for case in wl.scenarios]
        self.v_newton: dict[int, np.ndarray] = {}
        self.sample = None  # a checked cycle output, for the self-test
        self.self_test_ok = False

    # --- operations -----------------------------------------------------------

    def setup(self):
        net = self.fc.load_network(self.wl.network_path)
        return net, self.fc.prepare_grid(net)

    def cycle_op(self, net):
        """The controller's operating point: None for state-free cycles."""
        if not self.wl.spec.state_aware:
            return None
        return self.fc.load_operating_point(net, self.wl.op_path)

    def stream(self, grid, op, span=lambda name: nullcontext()) -> list[float]:
        """One pass over the scenario set; returns each cycle's latency, in scenario order.

        The pass is checked after it ends, outside its wall time, and its
        outputs are dropped, so memory stays flat however many passes a run makes.
        """
        gc.collect()
        outputs, latencies = [], []
        for case in self.wl.scenarios:
            start = perf_counter()
            try:
                with span("bench.cycle"):
                    out = workloads.control_cycle(self.fc, grid, op, case.s)
            except Exception as exc:  # a failed operation, counted by check_pass
                out = exc
            latencies.append(perf_counter() - start)
            outputs.append(out)
        self.check_pass(outputs)
        return latencies

    def sweep(self, net):
        op = self.fc.load_operating_point(net, self.wl.op_path)
        return self.fc.sweep(net, self.wl.sweep_ray, operating_point=op,
                             kappa_max=self.wl.sweep_kappa_max,
                             steps=self.wl.spec.sweep_steps)

    def cli_argv(self, out_path: Path) -> list[str]:
        wl = self.wl
        argv = ["solve", "--network", str(wl.network_path),
                "--injections", str(wl.cli_injection_path)]
        if wl.spec.state_aware:
            argv += ["--operating-point", str(wl.op_path)]
        return argv + ["--out", str(out_path)]

    def peak_memory(self) -> float:
        """Resident-memory growth of set-up plus the stream's first cycles, in MB.

        Runs in a fresh interpreter, so that nothing this process built (the
        reference matrices, the Newton oracle) counts.
        """
        wl = self.wl
        path = self.out_dir / "memory_scenarios.npy"
        np.save(path, np.array([case.s for case in wl.scenarios[:wl.spec.mem_cycles]]))
        argv = [str(BENCH_DIR / "peak_memory.py"), str(wl.network_path), str(path)]
        if wl.spec.state_aware:
            argv.append(str(wl.op_path))
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=program_env(),
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"bench: memory probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1])

    def newton_reference(self) -> None:
        """Newton oracle on the seeded sample of scenarios."""
        for i in self.wl.newton_picks:
            self.v_newton[i] = newton_oracle(self.fc, self.wl.ref, self.wl.scenarios[i].s)

    # --- outcomes -------------------------------------------------------------

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")

    def check_setup(self, grid) -> None:
        ref = self.wl.ref
        out = []
        if np.max(np.abs(grid.w.w - ref.w)) > 1e-10 * np.max(np.abs(ref.w)):
            out.append("zero-load profile differs from the reference")
        if np.max(np.abs(grid.kernel.abs_k - ref.abs_k)) > 1e-9 * np.max(ref.abs_k):
            out.append("kernel differs from the reference")
        self.record("setup", out)

    def check_pass(self, outputs) -> None:
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):  # every scenario certifies, so a raise is wrong
                self.record(f"cycle {i}", [repr(out)])
                continue
            report, result = out
            problems = checks.cycle_problems(
                self.wl.ref, self.wl.scenarios[i], self.expected[i], report, result)
            if i in self.v_newton:
                problems += checks.newton_problems(result.v, self.v_newton[i])
                if not problems and self.sample is None:
                    self.sample = i, report, result
            self.record(f"cycle {i}", problems)

    def check_sweep(self, result) -> None:
        wl = self.wl
        self.record("sweep", checks.sweep_problems(
            wl.ref, result, wl.sweep_ray, wl.sweep_kappa_max, wl.s_hat))

    def cli_expected(self, net, grid):
        """Solution of the in-process cycle on the CLI's own input files, or what it raised."""
        try:
            return workloads.control_cycle(self.fc, grid, self.cycle_op(net),
                                           self.wl.cli_case.s)[1]
        except Exception as exc:  # counted as a failed CLI operation by check_cli
            return exc

    def check_cli(self, code: int, out_path: Path, expected_result) -> dict | None:
        if isinstance(expected_result, Exception):
            self.record("cli", [f"the in-process cycle raised {expected_result!r}"])
            return None
        doc = json.loads(out_path.read_text(encoding="utf-8")) if code == 0 else None
        self.record("cli", checks.cli_problems(code, doc, self.wl.ref.load_ids,
                                               expected_result))
        return doc

    def self_test(self, sweep_result, cli_doc, cli_result) -> None:
        """Every check must reject a deliberately wrong answer."""
        if self.sample is None:
            self.problems.append("self-test: no sampled cycle passed its checks")
            return
        wl = self.wl
        i, report, result = self.sample
        accepted = checks.self_test(
            wl.ref, wl.scenarios[i], report, result, self.v_newton[i],
            sweep_result, wl.sweep_ray, wl.sweep_kappa_max, wl.s_hat, cli_doc, cli_result)
        for name in accepted:
            self.problems.append(f"self-test: a check accepted '{name}'")
        self.self_test_ok = not accepted

    def result(self, metrics: dict) -> dict:
        for line in self.problems[:20]:
            print(f"bench: {line}", file=sys.stderr)
        return {
            "correct": bool(self.self_test_ok and self.failed == 0),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measured_run(bench: Bench, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics.

    The run is whole rounds, each of set-ups, one pass over the scenarios,
    one sweep and CLI processes, for ``seconds`` (at least one round), so
    that the repeats of every metric spread over the whole run rather than
    one stretch of it.  Each round's checks run inside it, outside the
    timed calls.
    """
    spec = bench.wl.spec
    setup_times, sweep_times, cli_times, latencies = [], [], [], []
    out_path = bench.out_dir / "cli_solve.json"
    bench.newton_reference()
    timed_process(["-c", "import flowcert.cli"])  # warm the file cache and bytecode
    started = perf_counter()
    while True:
        for _ in range(spec.setups_per_round):
            gc.collect()
            start = perf_counter()
            net, grid = bench.setup()
            setup_times.append(perf_counter() - start)
            bench.check_setup(grid)

        latencies.append(bench.stream(grid, bench.cycle_op(net)))

        gc.collect()
        start = perf_counter()
        sweep_result = bench.sweep(net)
        sweep_times.append(perf_counter() - start)
        bench.check_sweep(sweep_result)

        cli_expected = bench.cli_expected(net, grid)
        for _ in range(spec.cli_per_round):
            wall, code, err = timed_process(["-m", "flowcert", *bench.cli_argv(out_path)])
            cli_times.append(wall)
            cli_doc = bench.check_cli(code, out_path, cli_expected)
            if code != 0:
                print(f"bench: flowcert solve: {err.strip()}", file=sys.stderr)

        # Stop before a round that would overshoot by more than half a round.
        elapsed = perf_counter() - started
        if elapsed * (1 + 0.5 / len(latencies)) >= seconds:
            break
    print(f"bench: {len(latencies)} rounds in {elapsed:.1f} s", file=sys.stderr)

    peak_mb = bench.peak_memory()
    bench.self_test(sweep_result, cli_doc, cli_expected)

    # Best repeat: the host of a small shared machine changes speed by up to
    # 1.7x in stretches from seconds to minutes.  A median flips between the speeds as that share
    # crosses one half; the fastest repeat of a set-up, sweep or CLI process
    # stays at the fast speed.  Each scenario's latency is its best over the
    # run's passes, so a cycle of milliseconds needs only one fast moment
    # among its repeats, where a whole pass of seconds would need a fast
    # stretch.
    best_ms = 1e3 * np.min(np.asarray(latencies), axis=0)
    values = {
        "setup_s": min(setup_times),
        "scenario_ms_p50": float(np.percentile(best_ms, 50)),
        "scenario_ms_p90": float(np.percentile(best_ms, 90)),
        "scenarios_per_s": 1e3 * best_ms.size / float(np.sum(best_ms)),
        "sweep_s": min(sweep_times),
        "cli_solve_s": min(cli_times),
        "peak_mem_mb": peak_mb,
    }
    return as_metrics("end_to_end", values)


def tracing_overhead(bench: Bench, grid, op) -> float:
    """Traced minus untraced wall time of one pass over the scenarios, in seconds.

    Each cycle runs untraced and then traced, OVERHEAD_REPEATS times over,
    and its best time of each kind counts.  The two runs of a pair lie
    milliseconds apart and see the same host speed; whole passes seconds
    apart do not, and their difference is mostly the host's.
    """
    best = np.full((2, len(bench.wl.scenarios)), np.inf)
    for _ in range(OVERHEAD_REPEATS):
        for i, case in enumerate(bench.wl.scenarios):
            for traced in (0, 1):
                with Tracer().installed() if traced else nullcontext():
                    start = perf_counter()
                    workloads.control_cycle(bench.fc, grid, op, case.s)
                    best[traced, i] = min(best[traced, i], perf_counter() - start)
    return float(np.sum(best[1]) - np.sum(best[0]))


def traced_run(bench: Bench, trace_path: Path) -> dict:
    """One traced pass for the per-layer metrics, and the tracing overhead.

    The pass is one set-up, one pass over the scenarios, one sweep and the
    CLI in-process.  Its checks that call flowcert run after the tracer is
    removed, so they add no spans.
    """
    wl = bench.wl
    out_path = bench.out_dir / "cli_solve_inprocess.json"
    oracle, tracer = Tracer(), Tracer()
    with oracle.installed():
        bench.newton_reference()
    gc.collect()
    with tracer.installed():
        with tracer.span("bench.setup"):
            net, grid = bench.setup()
        op = bench.cycle_op(net)
        bench.stream(grid, op, tracer.span)
        with tracer.span("bench.sweep"):
            sweep_result = bench.sweep(net)
        with tracer.span("bench.cli"):
            code = bench.fc.cli.main(bench.cli_argv(out_path))
    bench.check_setup(grid)
    bench.check_sweep(sweep_result)
    cli_expected = bench.cli_expected(net, grid)
    cli_doc = bench.check_cli(code, out_path, cli_expected)
    overhead_s = tracing_overhead(bench, grid, op)

    # The first fresh interpreter warms the file cache and writes bytecode.
    import_times = [timed_process(["-c", "import flowcert.cli"])[0]
                    for _ in range(IMPORT_REPEATS + 1)][1:]
    bench.self_test(sweep_result, cli_doc, cli_expected)
    trace_path.write_text(json.dumps({"oracle": oracle.dump(), "pass": tracer.dump()}) + "\n",
                          encoding="utf-8")

    t = tracer
    stream_solves = t.named("fixed_point.solve_fixed_point", within="bench.cycle")
    values = {
        "network.parse_ms": t.median_ms("network.parse_network"),
        "admittance.build_ms": t.median_ms("admittance.build_admittance"),
        "sparse_lu.factorize_ms": t.median_ms("sparse_lu.factorize"),
        "sparse_lu.fill_in": t.named("sparse_lu.factorize")[0].count,
        "sparse_lu.solve_us": t.mean_us("sparse_lu.solve"),
        "sparse_lu.solve_calls": len(t.named("sparse_lu.solve")),
        "zero_load.compute_w_ms": t.median_ms("zero_load.compute_w"),
        "pipeline.prepare_grid_ms": t.median_ms("pipeline.prepare_grid"),
        "certificate.build_kernel_ms": t.median_ms("certificate.build_kernel"),
        "certificate.xi_us": t.mean_us("certificate.xi"),
        "certificate.xi_calls": len(t.named("certificate.xi")),
        "certificate.prior_ms": 1e-3 * t.mean_us("certificate.check_prior_conditions"),
        "certificate.prior_calls": len(t.named("certificate.check_prior_conditions")),
        "certificate.certify_ms": t.median_ms("certificate.certify", within="bench.cycle"),
        "fixed_point.solve_ms": t.median_ms("fixed_point.solve_fixed_point",
                                            within="bench.cycle"),
        "fixed_point.iterations": statistics.fmean(s.count for s in stream_solves),
        "fixed_point.iter_us": t.mean_us("fixed_point.iterate_once", within="bench.cycle"),
        "continuation.sweep_self_s": t.self_time("continuation.sweep"),
        "continuation.prior_calls_per_point": len(t.named(
            "certificate.check_prior_conditions", within="continuation.sweep"))
        / wl.spec.sweep_steps,
        "continuation.fp_iterations": len(t.named("fixed_point.iterate_once",
                                                  within="continuation.sweep")),
        "report.render_ms": t.median_ms("report.render_document"),
        "cli.import_s": statistics.median(import_times),
        "newton.solve_ms": oracle.median_ms("newton.solve_newton"),
        "trace.overhead_ms": 1e3 * overhead_s,
        "trace.spans": len(t.spans),
    }
    return as_metrics("per_layer", values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="length of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fc = import_program()
    spec = workloads.SPECS[args.workload]
    out_dir = OUT / spec.name
    out_dir.mkdir(parents=True, exist_ok=True)

    wl = workloads.build(spec, args.seed, out_dir,
                         lambda ref, s: newton_oracle(fc, ref, s))
    bench = Bench(fc, wl, out_dir)
    if args.trace:
        metrics = traced_run(bench, out_dir / "trace.json")
    else:
        metrics = measured_run(bench, args.seconds)
    print(json.dumps(bench.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
