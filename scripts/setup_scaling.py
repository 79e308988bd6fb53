"""Time each set-up stage of flowcert on generated radial feeders.

For a chain and a random recursive tree of 10^3, 10^4 and 10^5 load
buses, times in process, best of ``--repeats``:

    parse      parse_network on the network document's text
    admittance build_admittance
    factorize  factorize of y_ll
    w          compute_w, the zero-load profile
    kernel     build_kernel

and prints one table in milliseconds.  Parse plus the four stages of
`prepare_grid` is the set-up a controller pays once per network.  Two
more columns time what a controller pays per operating point and per
injection:

    op_parse   parse_operating_point on a document of the zero-load
               voltages with one injection per load bus (ms)
    xi         one xi call on the kernel (us, best of 20 per repeat)

Run from the repository root:  python scripts/setup_scaling.py
(``--sizes 1000 10000`` for a quicker table).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import flowcert as fc  # noqa: E402

STAGES = ("parse", "admittance", "factorize", "w", "kernel")
EXTRAS = ("op_parse", "xi")


def chain_document(n: int, rng: np.random.Generator) -> str:
    """Slack-1-2-...-n, one line type."""
    return _document(n, [(i, i + 1) for i in range(n)], rng, transformers=False)


def tree_document(n: int, rng: np.random.Generator) -> str:
    """Bus i hangs from a uniformly drawn earlier bus, slack included;
    30 % of the branches are transformers."""
    parents = [int(rng.integers(0, i)) for i in range(1, n + 1)]
    return _document(n, list(zip(parents, range(1, n + 1))), rng, transformers=True)


def _document(n, pairs, rng, *, transformers):
    buses = [{"id": "0", "kind": "slack"}]
    buses += [{"id": str(i), "kind": "load"} for i in range(1, n + 1)]
    branches = []
    for a, b in pairs:
        if transformers:
            y = 1.0 / complex(rng.uniform(0.01, 0.08), rng.uniform(0.02, 0.2))
        else:
            y = 1.0 / (0.01 + 0.03j)
        rec = {"from": str(a), "to": str(b), "kind": "line", "g": y.real, "b": y.imag}
        if transformers and rng.random() < 0.3:
            ratio = rng.uniform(0.9, 1.1) * np.exp(1j * rng.uniform(-0.05, 0.05))
            rec.update(kind="transformer", ratio_re=ratio.real, ratio_im=ratio.imag)
        branches.append(rec)
    doc = {"bases": {"power_mva": 1.0, "voltage_kv": 1.0},
           "buses": buses, "branches": branches}
    return json.dumps(doc)


def operating_point_document(net, w: np.ndarray, rng: np.random.Generator) -> str:
    """The zero-load voltages ``w`` and one consuming injection per load bus."""
    p = rng.uniform(0.5, 1.5, net.n) * net.power_base
    ids = net.bus_ids[1:]
    return json.dumps({
        "provenance": "measured",
        "voltages": [{"bus": bus, "re": float(v.real), "im": float(v.imag)}
                     for bus, v in zip(ids, w)],
        "injections": [{"bus": bus, "p_mw": -float(x), "q_mvar": -0.48 * float(x)}
                       for bus, x in zip(ids, p)],
    })


def time_stages(text: str, repeats: int, rng: np.random.Generator) -> dict[str, float]:
    """Best time of each stage over ``repeats`` full set-ups, in ms, and
    of ``op_parse`` (ms) and ``xi`` (us) on what they built."""
    best = dict.fromkeys(STAGES + EXTRAS, float("inf"))
    op_text = None
    for _ in range(repeats):
        times = {}
        start = perf_counter()
        net = fc.parse_network(text)
        times["parse"] = perf_counter()
        system = fc.build_admittance(net)
        times["admittance"] = perf_counter()
        factors = fc.factorize(system.y_ll)
        times["factorize"] = perf_counter()
        w = fc.compute_w(system, factors)
        times["w"] = perf_counter()
        kernel = fc.build_kernel(system, factors, w)
        times["kernel"] = perf_counter()
        for stage in STAGES:
            best[stage] = min(best[stage], 1e3 * (times[stage] - start))
            start = times[stage]

        if op_text is None:
            op_text = operating_point_document(net, w.w, rng)
        start = perf_counter()
        op = fc.parse_operating_point(net, op_text)
        best["op_parse"] = min(best["op_parse"], 1e3 * (perf_counter() - start))
        for _ in range(20):
            start = perf_counter()
            fc.xi(kernel, op.s)
            best["xi"] = min(best["xi"], 1e6 * (perf_counter() - start))
    return best


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 10000, 100000])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    header = (["topology", "n"] + [f"{s}_ms" for s in STAGES]
              + ["total_ms", "op_parse_ms", "xi_us"])
    print(" ".join(f"{h:>13}" for h in header))
    for name, make in (("chain", chain_document), ("random-tree", tree_document)):
        for n in args.sizes:
            rng = np.random.default_rng(args.seed)
            best = time_stages(make(n, rng), args.repeats, rng)
            cells = [name, str(n)] + [f"{best[s]:.1f}" for s in STAGES]
            cells.append(f"{sum(best[s] for s in STAGES):.1f}")
            cells += [f"{best['op_parse']:.1f}", f"{best['xi']:.1f}"]
            print(" ".join(f"{c:>13}" for c in cells), flush=True)


if __name__ == "__main__":
    main()
