"""Peak memory of set-up plus a scenario stream, in an interpreter of its own.

    python3 bench/peak_memory.py NETWORK SCENARIOS.npy [OPERATING_POINT]

Parses the network, prepares the grid and runs one control cycle per row of
SCENARIOS (state-aware when OPERATING_POINT is given).  Prints the growth of
the resident high-water mark (VmHWM) over the resident size once flowcert
is imported, in MB.  flowcert must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import sys

import numpy as np

import flowcert as fc
from workloads import control_cycle


def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def main(argv: list[str]) -> int:
    scenarios = np.load(argv[1])
    base_kb = _status_kb("VmRSS")
    net = fc.load_network(argv[0])
    grid = fc.prepare_grid(net)
    op = fc.load_operating_point(net, argv[2]) if len(argv) > 2 else None
    for s in scenarios:
        try:
            control_cycle(fc, grid, op, s)
        except Exception:  # the benchmark's own stream counts the failure
            pass
    print((_status_kb("VmHWM") - base_kb) / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
