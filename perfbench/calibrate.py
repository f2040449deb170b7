"""Host speed, from fixed reference kernels timed next to every op.

On a shared host, other tenants slow every op by up to 2x for seconds to
minutes at a time, with no steal time to show for it: the wall time of one
workload moved 30-50% between runs of the same code.  The benchmark
therefore times three small kernels that do not touch lorlab just before each
op.  Their speed factor, the geometric mean of each kernel's time over its
nominal time, tracks the host's slowdowns; an op's calibrated latency is its
wall time divided by that factor.  Nothing the program does can change the
kernels, so a slower or faster lorlab still shows in full.

The three kernels are Python float math and calls, building and sorting
small dicts, and allocating and copying small numpy arrays.  They were
picked from seven candidates, timed next to the ops of all four workloads
over two 330 s spans: across host episodes the ops' wall time went as the
0.95-0.99th power of these kernels' speed factor, against 0.75-0.84 for a
set of tight numeric kernels (small-array math, an RK4 loop, a dense
product), which slow more than the ops and so over-correct.  NOMINAL holds
the kernels' fastest times seen, in seconds, on a 2-vCPU x86-64 host
(Python 3.11.7, numpy 2.4.6), so a calibrated time reads as the wall time on
that host at its fastest.  The constants only set the scale; changing them
makes calibrated figures from before and after incomparable.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np


def _python_math():
    s = 0.0
    d = {"a": 1.5}
    for i in range(6000):
        x = i * 1e-3
        s += math.sqrt(x + d["a"]) * math.exp(-x) + (x if i & 1 else -x)
    return s


def _objects():
    rows = [{"t": i * 0.5, "x": -i, "k": (i * 7919) % 1013} for i in range(1500)]
    rows.sort(key=lambda r: r["k"])
    return sum(r["t"] for r in rows[:100])


def _allocation():
    out = []
    for i in range(300):
        a = np.empty(512)
        a.fill(i)
        out.append(a[::2].copy())
    return len(out)


KERNELS = (_python_math, _objects, _allocation)
NOMINAL = (0.978e-3, 0.684e-3, 0.442e-3)
SMOOTH = 4  # an op's factor is the median of the factors of the ops within 4 of it


def speed() -> float:
    """Run every kernel once; their time over nominal, as a geometric mean."""
    log_sum = 0.0
    for kernel, nominal in zip(KERNELS, NOMINAL):
        start = time.perf_counter()
        kernel()
        log_sum += math.log((time.perf_counter() - start) / nominal)
    return math.exp(log_sum / len(KERNELS))


def smooth(factors: list[float]) -> list[float]:
    """Rolling median, so that one kernel run caught by a context switch does
    not move its op, while episodes of seconds still do."""
    n = len(factors)
    return [statistics.median(factors[max(0, i - SMOOTH): i + SMOOTH + 1]) for i in range(n)]

