#!/usr/bin/env python3
"""lorlab benchmark: one workload on a closed loop, one op in flight.

    python3 perfbench/run.py --workload space-warpb --seed 1 --seconds 24 --trace 0

Run it from a repository checkout: it imports lorlab from the ``src``
directory beside this one and exits with an error when that is missing.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.  Every
input runs once.  Reference kernels are timed just before each op, and the
op's wall time is divided by their speed factor (see calibrate.py), so the
time metrics are calibrated: they read as wall time on the nominal host, and
a shared host's slow episodes cancel out.  The raw wall-clock figures are
printed beside them.
``--trace 1`` runs each input twice, untraced and traced in alternating
order, and prints the per-layer metrics, the tracing overhead and each
layer's share of the traced op time.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn, each in its own process.

BLAS is pinned to one thread before numpy loads, and LORLAB_THREADS is
removed from the environment; a value above 1 is refused.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import operator  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SELF = Path(__file__).resolve()
HERE = SELF.parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("space-warpb", "space-unitb", "geodesic-dual", "probes-unitb")
# op_tail_ms percentile: a 24 s run holds over 110 ops of every workload even
# when the host runs at half speed, so at least ten lie beyond it
TAIL_PCT = 90
SETUP_PROBES = 7  # fresh-interpreter set-ups per run, spread over the run
PREDICATES = {">": operator.gt, ">=": operator.ge, "==": operator.eq}
# per-layer metrics read from another field than their name says
ALIASES = {
    "causality.distance.shooting_calls": ("causality.shoot", "calls"),
    "probes.distance_calls": ("probes.distance_calls", "calls"),
}
UNIT_FIELDS = {"points", "pairs", "steps", "g_evals"}
ACCURACY = ("geodesics.dual_gap_max", "geodesics.drift_max")


def refuse_threads():
    raw = os.environ.pop("LORLAB_THREADS", None)
    if raw is None:
        return "unset"
    try:
        n = int(raw)
    except ValueError:
        return f"{raw!r} (ignored)"
    if n > 1:
        sys.exit(
            f"perfbench: LORLAB_THREADS={raw} refused; the benchmark runs serially "
            "(two threads measured slower than one on a 2-core machine)"
        )
    return f"{raw} (removed)"


def import_program():
    """Import lorlab from this checkout's src/, never from site-packages."""
    if not (SRC / "lorlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lorlab sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import lorlab

    if SRC.resolve() not in Path(lorlab.__file__).resolve().parents:
        sys.exit(f"perfbench: imported lorlab from {lorlab.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup(name, seed):
    """Seconds from before importing lorlab through input generation."""
    start = time.perf_counter()
    workloads = import_program()
    wl = workloads.WORKLOADS[name]
    pool = wl.inputs(seed)
    return time.perf_counter() - start, wl, pool


def setup_probe(name, seed):
    """Set-up time of a fresh interpreter that imports lorlab anew."""
    cmd = [sys.executable, str(SELF), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def pin_cpu():
    """Pin to one CPU, so that the reference kernels, the ops and the set-up
    interpreters (which inherit the pin) all run where the speed is measured."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed, threads, cpu):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "LORLAB_THREADS": threads,
        "seed": seed,
    }


class Run:
    """Latencies, failures and accuracy maxima of one measurement loop."""

    def __init__(self):
        self.latencies: list[float] = []  # wall time of every op, in time order
        self.factors: list[float] = []    # speed factor measured before each op
        self.setup: list[tuple[float, int]] = []  # (wall set-up, index of the next op)
        self.traced: list[float] = []
        self.untraced: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.accuracy = {k: 0.0 for k in ACCURACY}

    def judge(self, wl, inp, out, error):
        self.attempted += 1
        if error is None:
            try:
                problems, measures = wl.check(inp, out)
            except Exception as exc:  # a check that raises is a failed op
                problems, measures = [f"check raised {exc!r}"], {}
        else:
            problems, measures = [f"op raised {error!r}"], {}
        for key, val in measures.items():
            self.accuracy[key] = max(self.accuracy[key], val)
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {self.attempted - 1} failed: {'; '.join(problems)}", file=sys.stderr)


def timed_op(wl, args, tracer=None, index=0):
    if tracer is not None:
        tracer.install(index)
        close = tracer.op_span()
    start = time.perf_counter()
    out = error = None
    try:
        out = wl.op(args)
    except Exception as exc:  # a raising op is counted as failed, the run goes on
        error = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        close()
        tracer.uninstall()
    return elapsed, out, error


def measure(wl, pool, seconds, setup_args):
    """Closed loop over fresh inputs; the speed factor is taken before each op.

    Fresh-interpreter set-ups are timed at even intervals over the run, and
    the run is extended by the time they take.  A set-up is calibrated by the
    speed factor of the op that follows it.
    """
    import calibrate  # loads numpy, so only once set-up is timed

    run = Run()
    start = time.perf_counter()
    deadline = start + seconds
    while not run.latencies or time.perf_counter() < deadline:
        if len(run.setup) < SETUP_PROBES and (
                time.perf_counter() >= start + seconds * len(run.setup) / SETUP_PROBES):
            probe_start = time.perf_counter()
            run.setup.append((setup_probe(*setup_args), len(run.latencies)))
            deadline += time.perf_counter() - probe_start
        inp = pool[len(run.latencies) % len(pool)]
        args = wl.prepare(inp)
        run.factors.append(calibrate.speed())
        elapsed, out, error = timed_op(wl, args)
        run.latencies.append(elapsed)
        run.judge(wl, inp, out, error)
    return run


def measure_traced(wl, pool, seconds, tracer):
    """One pass; each input runs untraced and traced, in alternating order."""
    run = Run()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        inp = pool[i % len(pool)]
        args = wl.prepare(inp)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, out, error = timed_op(wl, args, tracer if traced else None, i)
            (run.traced if traced else run.untraced).append(elapsed)
            run.judge(wl, inp, out, error)
        i += 1
    return run


def tail(latencies, pct):
    """Nearest-rank percentile and the number of ops beyond it."""
    ordered = sorted(latencies)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def end_to_end(run, bound):
    import calibrate

    factors = calibrate.smooth(run.factors)
    lat = [t / f for t, f in zip(run.latencies, factors)]
    tail_s, beyond = tail(lat, TAIL_PCT)
    raw_tail_s, _ = tail(run.latencies, TAIL_PCT)
    setup = [t / factors[min(i, len(factors) - 1)] for t, i in run.setup]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "ops_per_s": f"{len(lat)} ops over {sum(lat):.3f} calibrated s of op time; "
        f"wall: {len(lat) / sum(run.latencies):.4f}",
        "op_p50_ms": f"median of {len(lat)} ops; wall: {1e3 * statistics.median(run.latencies):.4f}",
        "op_tail_ms": f"p{TAIL_PCT} of {len(lat)} ops, {beyond} beyond; wall: {1e3 * raw_tail_s:.4f}"
        + ("" if beyond >= 10 else "; fewer than ten beyond, run longer"),
        "setup_s": f"median of {len(setup)} fresh interpreters; wall: "
        + " ".join(f"{t:.4f}" for t, _ in run.setup),
        "peak_rss_mb": "ru_maxrss of the run",
    }
    speed = (f"speed factor over the ops: median {statistics.median(run.factors):.3f}, "
             f"range {min(factors):.3f}-{max(factors):.3f} after smoothing")
    return values, notes, [speed, history(lat, bound)]


def history(latencies, bound):
    """Median latency of the last quarter of ops over that of the first.

    Inputs cycle through the same mix of profiles, so a ratio away from 1
    points at an op that depends on earlier ops, such as a shared cache.
    """
    q = len(latencies) // 4
    if q < 1:
        return "history: too few ops for a quarter-to-quarter ratio"
    ratio = statistics.median(latencies[-q:]) / statistics.median(latencies[:q])
    verdict = "ok" if abs(ratio - 1.0) <= bound else (
        "BEYOND BOUND: an op may depend on earlier ops, or calibration missed a host episode")
    return (f"history: last/first quarter median calibrated latency = {ratio:.4f} "
            f"({q} ops each; bound {bound}): {verdict}")


def per_layer(decl, tracer, run):
    n = len(run.traced)
    overhead = sum(run.traced) / sum(run.untraced) - 1.0
    values = {}
    for metric in decl:
        name = metric["name"]
        if name == "trace.overhead_frac":
            values[name] = overhead
        elif name in ACCURACY:
            values[name] = run.accuracy[name]
        else:
            base, field = ALIASES.get(name, tuple(name.rsplit(".", 1)))
            field = "units" if field in UNIT_FIELDS else field
            values[name] = getattr(tracer.stat(base), field) / n
    return values


def shares(name, tracer, predictions):
    """Lines giving each layer's self-time share and the predicted shares (layers.json)."""
    op_s = tracer.stat("bench.op").incl_s
    layers = tracer.layer_self()
    lines = ["layer self-time share of traced op time: " + ", ".join(
        f"{layer} {100 * s / op_s:.1f}%" for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])
    )]
    for key, st in sorted(tracer.stats.items()):
        if st.calls and key != "bench.op":
            lines.append(f"  {key}: {st.calls} calls, self {st.self_s:.4f} s, "
                         f"inclusive {st.incl_s:.4f} s")
    for p in predictions.get(name, ()):
        st = tracer.stat(p["stat"])
        if p["of"] == "calls":
            found, shown = st.calls, f"{st.calls} calls"
        else:
            found = st.incl_s / op_s
            shown = f"{100 * found:.1f}% of op time"
        met = PREDICATES[p["is"]](found, p["value"])
        lines.append(f"prediction {p['text']}: found {shown} ({'met' if met else 'NOT MET'})")
    if tracer.missing:
        lines.append("hooks not found (their metrics read 0): " + ", ".join(tracer.missing))
    return lines


def read_layers(decl):
    """layers.json, after checking that every metric it names is declared."""
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        layers = json.load(fh)
    declared = {m["name"] for m in decl["per_layer"] + decl["end_to_end"]}
    named = {m for claim in layers["claims"]
             for m in claim["metrics"] + claim.get("accuracy", []) + claim["moves"]}
    unknown = sorted(named - declared)
    if unknown:
        sys.exit("perfbench: layers.json names undeclared metrics: " + ", ".join(unknown))
    return layers


def run_one(args, decl):
    threads = refuse_threads()
    if args.setup_probe:
        print(setup(args.workload, args.seed)[0])
        return 0
    cpu = pin_cpu()
    _, wl, pool = setup(args.workload, args.seed)
    env = environment(args.seed, threads, cpu)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: {args.seconds} s closed loop, one op in flight, "
          f"{len(pool)} inputs from seed {args.seed}")
    if args.trace:
        import tracer as tracing

        predictions = read_layers(decl)["share_predictions"]
        tracer = tracing.Tracer()
        run = measure_traced(wl, pool, args.seconds, tracer)
        declared = decl["per_layer"]
        values, notes, extra = per_layer(declared, tracer, run), {}, []
        print(f"traced {len(run.traced)} ops, untraced {len(run.untraced)} ops on the same inputs")
        for line in shares(args.workload, tracer, predictions):
            print(line)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}, "
              f"{tracer.dropped} beyond the cap kept as totals only")
    else:
        run = measure(wl, pool, args.seconds, (args.workload, args.seed))
        declared = decl["end_to_end"]
        bound = next(m["bound"] for m in declared if m["name"] == "op_p50_ms")
        values, notes, extra = end_to_end(run, bound)
    units = {m["name"]: m["unit"] for m in declared}
    for key, val in values.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} = {val!r} {units[key]}{note}")
    print(f"fail_frac = {run.failed / run.attempted!r} ({run.failed} of {run.attempted} ops)")
    for line in extra:
        print(line)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(SELF), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"all-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(combined, fh, indent=1)
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        decl = json.load(fh)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, decl)


if __name__ == "__main__":
    sys.exit(main())
