#!/usr/bin/env python3
"""Count the calls per op that cProfile sees on the benchmark's workloads.

For each workload the script makes the inputs of seed 7 with
perfbench/workloads.py (imported, not changed), runs the op once on each of
the first 40 of them as a warm pass (imports, the compiled RK4 loops and the
cached rule layouts), then runs the same 40 ops again under cProfile and
prints its total call count, Python functions and builtins, divided by 40.
The count repeats exactly from run to run and does not move with the host's
speed, so it shows per-call overhead that timed runs on a noisy host cannot
resolve.  It runs the lorlab of its own checkout:

    python3 scripts/count_calls.py                # every workload
    python3 scripts/count_calls.py probes-unitb space-warpb
"""

import argparse
import cProfile
import os
import pstats
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SEED = 7
OPS = 40


def calls_per_op(name: str) -> float:
    wl = workloads.WORKLOADS[name]
    args = [wl.prepare(inp) for inp in wl.inputs(SEED)[:OPS]]
    for a in args:
        wl.op(a)
    prof = cProfile.Profile()
    prof.enable()
    for a in args:
        wl.op(a)
    prof.disable()
    return pstats.Stats(prof).total_calls / OPS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="*", help="workloads to count (default: all of "
                        + ", ".join(workloads.WORKLOADS) + ")")
    names = parser.parse_args(argv).workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    for name in names:
        print(f"{name:14s} {calls_per_op(name):10.1f} calls/op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
