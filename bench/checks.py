"""Correctness checks that do not trust the program.

`Reference` stamps its own dense admittance matrix from the raw network
document and inverts it with numpy, so the loading measure, the zero-load
profile, the power mismatch and the sweep boundaries it gives share no code
with flowcert's sparse path.  Each ``*_problems`` function returns a list
of messages, empty when the output passes; `self_test` feeds every check a
deliberately wrong answer and reports any check that accepts it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

XI_RTOL = 1e-9
MISMATCH_TOL = 1e-8
NEWTON_TOL = 1e-7
BALL_SLACK = 1e-10
STEP_FLOOR = 1e-10  # below this a step is mostly roundoff, its ratio means nothing
Q_RTOL = 1e-6
CLI_VOLTAGE_TOL = 1e-12
P_SET = (1.0, 2.0, math.inf)


class Reference:
    """Dense model of one network, built from its JSON document alone."""

    def __init__(self, network_text: str):
        doc = json.loads(network_text)
        self.power_base = float(doc["bases"]["power_mva"])
        buses = doc["buses"]
        slack = [str(b["id"]) for b in buses if b["kind"] == "slack"]
        self.load_ids = [str(b["id"]) for b in buses if b["kind"] == "load"]
        index = {bus: i for i, bus in enumerate(slack + self.load_ids)}
        size = len(index)
        y = np.zeros((size, size), dtype=complex)
        for br in doc["branches"]:
            i, j = index[str(br["from"])], index[str(br["to"])]
            yb = complex(br["g"], br["b"])
            k = complex(br.get("ratio_re", 1.0), br.get("ratio_im", 0.0))
            y[i, i] += yb
            y[i, j] -= yb / k
            y[j, i] -= yb / np.conj(k)
            y[j, j] += yb / abs(k) ** 2
        for bus in buses:
            y[index[str(bus["id"])], index[str(bus["id"])]] += complex(
                bus.get("shunt_g", 0.0), bus.get("shunt_b", 0.0))
        self.n = size - 1
        self.v0 = 1 + 0j  # flowcert's default slack voltage
        self.y_ll = y[1:, 1:].copy()
        self.y_l0 = y[1:, 0].copy()
        self.z = np.linalg.inv(self.y_ll)
        self.w = self.z @ (-self.y_l0 * self.v0)
        self.k = self.z / self.w[:, None] / np.conj(self.w)[None, :]
        self.abs_k = np.abs(self.k)
        self.row_norms = {p: float(np.max(np.linalg.norm(self.k, ord=p, axis=1)))
                          for p in P_SET}

    def injections(self, doc: dict) -> np.ndarray:
        index = {bus: i for i, bus in enumerate(self.load_ids)}
        s = np.zeros(self.n, dtype=complex)
        for rec in doc["injections"]:
            s[index[str(rec["bus"])]] = complex(rec["p_mw"], rec["q_mvar"]) / self.power_base
        return s

    def operating_point(self, doc: dict) -> tuple[np.ndarray, np.ndarray]:
        index = {bus: i for i, bus in enumerate(self.load_ids)}
        v = np.zeros(self.n, dtype=complex)
        for rec in doc["voltages"]:
            v[index[str(rec["bus"])]] = complex(rec["re"], rec["im"])
        return v, self.injections({"injections": doc.get("injections", [])})

    def xi(self, s: np.ndarray) -> float:
        return float(np.max(self.abs_k @ np.abs(s)))

    def u_min(self, v: np.ndarray) -> float:
        return float(np.min(np.abs(v / self.w)))

    def mismatch(self, v: np.ndarray, s: np.ndarray) -> float:
        current = self.y_ll @ v + self.y_l0 * self.v0
        return float(np.max(np.abs(s - v * np.conj(current))))

    def fixed_point_converges(self, s: np.ndarray, tol: float, max_iter: int) -> bool:
        """Whether v <- w + Z conj(s / v), started at w, takes a step below
        ``tol`` (w-weighted infinity norm) within ``max_iter`` steps."""
        v = self.w
        for _ in range(max_iter):
            if np.min(np.abs(v)) < 1e-6:  # flowcert's voltage floor: collapse
                return False
            v_next = self.w + self.z @ np.conj(s / v)
            if not np.all(np.isfinite(v_next)):
                return False
            step = float(np.max(np.abs((v_next - v) / self.w)))
            v = v_next
            if step < tol:
                return True
        return False

    def corollary_boundary(self, ray: np.ndarray) -> float:
        """kappa (MVA) where xi(kappa d / base) = 1/4, d = ray / ||ray||_1."""
        return self.power_base * 0.25 * float(np.sum(np.abs(ray))) / self.xi(ray)

    def prior_boundary(self, ray: np.ndarray) -> float:
        """kappa (MVA) where the best plain row-norm product reaches 1/4."""
        d = ray / float(np.sum(np.abs(ray)))
        dual = {1.0: math.inf, 2.0: 2.0, math.inf: 1.0}
        best = min(self.row_norms[p] * float(np.linalg.norm(d, ord=dual[p]))
                   for p in P_SET)
        return self.power_base * 0.25 / best


@dataclass(frozen=True)
class Case:
    """One control-cycle input; ``v_hat``/``s_hat`` are None when state-free."""

    s: np.ndarray
    s_hat: np.ndarray | None = None
    v_hat: np.ndarray | None = None

    @property
    def state_aware(self) -> bool:
        return self.v_hat is not None


@dataclass(frozen=True)
class Expected:
    """Certificate quantities recomputed from the reference model."""

    xi_s: float
    xi_s_hat: float | None
    xi_delta_s: float | None
    u_min: float
    rho: float
    center: np.ndarray

    @property
    def q(self) -> float:
        """Certified contraction factor xi(s) / (u_min - rho)^2."""
        return self.xi_s / (self.u_min - self.rho) ** 2


def expected(ref: Reference, case: Case) -> Expected:
    xi_s = ref.xi(case.s)
    if case.state_aware:
        xi_s_hat = ref.xi(case.s_hat)
        xi_delta = ref.xi(case.s - case.s_hat)
        u_min = ref.u_min(case.v_hat)
        a = u_min - xi_s_hat / u_min
        rho = (a - math.sqrt(a * a - 4.0 * xi_delta)) / 2.0
        return Expected(xi_s, xi_s_hat, xi_delta, u_min, rho, case.v_hat)
    rho = (1.0 - math.sqrt(1.0 - 4.0 * xi_s)) / 2.0
    return Expected(xi_s, None, None, 1.0, rho, ref.w)


def _rel_close(got, want: float, rtol: float) -> bool:
    return got is not None and abs(got - want) <= rtol * abs(want)


def xi_problems(exp: Expected, report) -> list[str]:
    out = []
    pairs = [("xi_s", report.xi_s, exp.xi_s)]
    if exp.xi_s_hat is not None:
        pairs += [("xi_s_hat", report.xi_s_hat, exp.xi_s_hat),
                  ("xi_delta_s", report.xi_delta_s, exp.xi_delta_s)]
    for name, got, want in pairs:
        if not _rel_close(got, want, XI_RTOL):
            out.append(f"{name} = {got!r}, reference {want!r}")
    return out


def verdict_problems(exp: Expected, report, state_aware: bool) -> list[str]:
    out = []
    ok = report.theorem_ok if state_aware else report.corollary_ok
    if ok is not True:
        out.append(f"certificate failed (ok = {ok!r}) below its reference limit")
    if not _rel_close(report.rho, exp.rho, XI_RTOL):
        out.append(f"rho = {report.rho!r}, reference {exp.rho!r}")
    return out


def residual_problems(ref: Reference, s: np.ndarray, v: np.ndarray) -> list[str]:
    m = ref.mismatch(v, s)
    return [] if m < MISMATCH_TOL else [f"power mismatch {m:.3e}"]


def ball_problems(ref: Reference, exp: Expected, rho: float, v: np.ndarray) -> list[str]:
    excess = np.abs(v - exp.center) - rho * np.abs(ref.w)
    worst = float(np.max(excess))
    return [] if worst <= BALL_SLACK else [f"solution leaves the ball by {worst:.3e}"]


def step_problems(exp: Expected, steps: np.ndarray) -> list[str]:
    steps = np.asarray(steps, dtype=float)
    q = exp.q
    live = steps[1:] >= STEP_FLOOR
    ratios = steps[1:][live] / steps[:-1][live]
    if ratios.size and float(np.max(ratios)) > q * (1.0 + Q_RTOL):
        return [f"step ratio {float(np.max(ratios)):.6g} exceeds q = {q:.6g}"]
    return []


def newton_problems(v: np.ndarray, v_newton: np.ndarray) -> list[str]:
    gap = float(np.max(np.abs(v - v_newton)))
    return [] if gap <= NEWTON_TOL else [f"differs from Newton by {gap:.3e}"]


def cycle_problems(ref: Reference, case: Case, exp: Expected, report, result) -> list[str]:
    """Every check on one certify -> ball -> solve cycle; ``exp = expected(ref, case)``."""
    out = xi_problems(exp, report) + verdict_problems(exp, report, case.state_aware)
    if result.certified is not True or result.contained_in_d is not True:
        out.append(f"certified={result.certified!r} contained={result.contained_in_d!r}")
    out += residual_problems(ref, case.s, result.v)
    out += ball_problems(ref, exp, report.rho, result.v)
    out += step_problems(exp, result.step_history)
    return out


def sweep_problems(ref: Reference, result, ray: np.ndarray, kappa_max: float,
                   s_hat: np.ndarray) -> list[str]:
    """Nesting, closed-form boundaries and the theorem interval of a sweep."""
    tol = 1e-6 * kappa_max  # the sweep's default bisection tolerance
    out = []
    if np.any(result.prior_mask & ~result.improved_mask) or np.any(
            result.improved_mask & ~result.corollary_mask):
        out.append("masks do not nest (prior <= improved <= corollary)")
    grid = result.kappa_grid
    for name, got, mask, want in (
            ("corollary", result.corollary_boundary, result.corollary_mask,
             ref.corollary_boundary(ray)),
            ("prior", result.prior_boundary, result.prior_mask,
             ref.prior_boundary(ray))):
        if want < kappa_max - tol:
            if got is None or abs(got - want) > tol:
                out.append(f"{name} boundary {got!r}, closed form {want!r}")
        elif got is not None and want > kappa_max + tol:
            out.append(f"{name} boundary {got!r} beyond range (closed form {want!r})")
        clear = np.abs(grid - want) > tol
        if np.any(mask[clear] != (grid[clear] < want)):
            out.append(f"{name} mask disagrees with its closed form")
    kappa_hat = float(np.sum(np.abs(s_hat))) * ref.power_base
    interval = result.theorem_interval
    if not _rel_close(result.kappa_hat, kappa_hat, 1e-12):
        out.append(f"kappa_hat {result.kappa_hat!r}, expected {kappa_hat!r}")
    if interval is None or not interval[0] <= kappa_hat <= interval[1]:
        out.append(f"kappa_hat {kappa_hat!r} outside theorem interval {interval!r}")
    return out


def cli_problems(returncode: int, doc: dict | None, load_ids: list[str],
                 result) -> list[str]:
    """The CLI's solve document against the in-process run on the same files."""
    if returncode != 0 or doc is None:
        return [f"flowcert solve exited with {returncode}"]
    out = []
    if doc.get("converged") is not True or doc.get("certified") is not True or \
            doc.get("contained_in_d") is not True:
        out.append("CLI verdict differs from the in-process run")
    if doc.get("iterations") != result.iterations:
        out.append(f"CLI iterations {doc.get('iterations')!r} != {result.iterations}")
    volts = doc.get("voltages") or []
    if [rec["bus"] for rec in volts] != load_ids:
        out.append("CLI voltages are not in bus order")
    else:
        v = np.array([complex(rec["re"], rec["im"]) for rec in volts])
        gap = float(np.max(np.abs(v - result.v)))
        if gap > CLI_VOLTAGE_TOL:
            out.append(f"CLI voltages differ from the in-process run by {gap:.3e}")
    return out


def self_test(ref: Reference, case: Case, report, result, v_newton,
              sweep_result, ray, kappa_max, s_hat, cli_doc, cli_result) -> list[str]:
    """Feed each check a wrong answer; return the checks that accepted one.

    Runs on genuine outputs that already passed, so each mutation is the
    only thing wrong with its input.
    """
    exp = expected(ref, case)
    j = int(np.argmax(np.abs(ref.w)))
    nudged = result.v.copy()
    nudged[j] += 1e-6 * abs(ref.w[j])
    outside = result.v.copy()
    outside[j] = exp.center[j] + 1.01 * report.rho * abs(ref.w[j])
    q = exp.q
    steep = np.array([1e-3, 1e-3 * q * 1.01])
    b_cor = sweep_result.corollary_boundary
    b_pri = sweep_result.prior_boundary
    broken = sweep_result.prior_mask.copy()
    broken[~sweep_result.improved_mask] = True

    trials = {
        "xi scaled by 0.9": xi_problems(exp, replace(report, xi_s=0.9 * report.xi_s)),
        "rho scaled by 1.01": verdict_problems(
            exp, replace(report, rho=1.01 * report.rho), case.state_aware),
        "voltage nudged (residual)": residual_problems(ref, case.s, nudged),
        "voltage nudged (Newton)": newton_problems(nudged, v_newton),
        "voltage outside the ball": ball_problems(ref, exp, report.rho, outside),
        "step ratio above q": step_problems(exp, steep),
        "corollary boundary shifted 1%": sweep_problems(
            ref, replace(sweep_result, corollary_boundary=1.01 * b_cor),
            ray, kappa_max, s_hat) if b_cor is not None else [],
        "prior boundary shifted 1%": sweep_problems(
            ref, replace(sweep_result, prior_boundary=1.01 * b_pri),
            ray, kappa_max, s_hat) if b_pri is not None else [],
        "masks not nested": sweep_problems(
            ref, replace(sweep_result, prior_mask=broken), ray, kappa_max, s_hat),
    }
    if cli_doc is not None:  # else the CLI run already counts as failed
        wrong_doc = json.loads(json.dumps(cli_doc))
        wrong_doc["voltages"][j]["re"] += 1e-6
        trials["CLI voltage nudged"] = cli_problems(0, wrong_doc, ref.load_ids, cli_result)
        trials["CLI exit code 1"] = cli_problems(1, cli_doc, ref.load_ids, cli_result)
    kappa_hat = float(np.sum(np.abs(s_hat))) * ref.power_base
    trials["theorem interval excludes kappa_hat"] = sweep_problems(
        ref, replace(sweep_result, theorem_interval=(1.01 * kappa_hat, 2.0 * kappa_hat)),
        ray, kappa_max, s_hat)
    return [name for name, problems in trials.items() if not problems]
