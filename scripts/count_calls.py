#!/usr/bin/env python3
"""Count the calls per op that cProfile sees on the benchmark's workloads.

For each workload the script makes the inputs of seed 7 with
perfbench/workloads.py (imported, not changed), runs the op once on each of
the first 40 of them as a warm pass (imports, the compiled RK4 loops and the
cached rule layouts), then runs the same 40 ops again under cProfile and
prints its total call count, Python functions and builtins, divided by 40.
A workload that cycles through several profiles also gets one line per
profile, the calls of that profile's ops divided by their number, since the
total alone hides which profile a change moved.  The count repeats exactly
from run to run and does not move with the host's speed, so it shows
per-call overhead that timed runs on a noisy host cannot resolve.  It runs
the lorlab of its own checkout:

    python3 scripts/count_calls.py                # every workload
    python3 scripts/count_calls.py probes-unitb space-warpb
"""

import argparse
import cProfile
import os
import pstats
import sys
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SEED = 7
OPS = 40


def calls_per_op(name: str) -> tuple[float, dict[str, float]]:
    """Calls per op over the workload's first OPS inputs, and per profile
    (every input's first field names its profile)."""
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(SEED)[:OPS]
    args = [wl.prepare(inp) for inp in inputs]
    for a in args:
        wl.op(a)
    profilers, ops = {}, Counter(inp[0] for inp in inputs)
    for inp, a in zip(inputs, args):
        profilers.setdefault(inp[0], cProfile.Profile()).runcall(wl.op, a)
    # each runcall also records the one call that disables its profiler
    calls = {p: pstats.Stats(prof).total_calls - ops[p] for p, prof in profilers.items()}
    return sum(calls.values()) / OPS, {p: calls[p] / ops[p] for p in calls}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="*", help="workloads to count (default: all of "
                        + ", ".join(workloads.WORKLOADS) + ")")
    names = parser.parse_args(argv).workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    for name in names:
        total, by_profile = calls_per_op(name)
        print(f"{name:14s} {total:10.1f} calls/op")
        if len(by_profile) > 1:
            for profile, count in by_profile.items():
                print(f"  {profile:12s} {count:10.1f} calls/op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
