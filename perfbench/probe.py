"""One set-up probe: a fresh interpreter that imports the package, runs a
workload's set-up, prints "ready" with three pace() readings (taken at the
start, after the imports and after the set-up) and exits.

    python3 perfbench/probe.py <workload> <seed>

run.py times it from spawn to the "ready" line.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.pace()  # the first reading in a fresh process runs cold
    paces = [workloads.pace()]
    pkg = workloads.load_package(Path(__file__).resolve().parent.parent)
    paces.append(workloads.pace())
    workloads.WORKLOADS[name].prepare(pkg, seed)
    paces.append(workloads.pace())
    print("ready", *(f"{p:.9f}" for p in paces), flush=True)
