#!/usr/bin/env python3
"""Run the three completeness probes across the built-in catalog.

Prints one row per profile with the finite-compactness, timelike-Cauchy,
and divergence-condition verdicts plus the consistency flag.  The strip
profile is the designed incomplete case: all three probes must fail there,
and all three must hold everywhere else.  Exits 1 when a verdict departs
from that split or a report is inconsistent, and 0 otherwise.

Each report runs on a fresh copy of its profile, so no cumulative map is
warm from an earlier one.  The report column is the minimum CPU time of the
profile's reports; --repeat N makes N of them (default 1), all checked.  A
report judges finite compactness without tracing the region, so the traced
column times probe_finite_compactness, trace included, the same way, and
its verdicts are checked like the reports'.  After the timing, every
traced region's boundary is checked by lorentzian_distance, and so is that
of one more region, leaning to one side, whose top slices keep only their
far cone edge: it exits 1 too when a boundary point x has T(p, x) > B +
1e-7, the bound replay_witness holds a witness to, and names the point:

    python3 scripts/run_catalog_probes.py
    python3 scripts/run_catalog_probes.py --repeat 20
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lorlab import (  # noqa: E402
    ProbeConfig,
    SpacetimePoint,
    format_profile,
    get_profile,
    implication_report,
    lorentzian_distance,
    parse_profiles,
    probe_finite_compactness,
)

P = SpacetimePoint

CONFIGS = {
    "minkowski": ProbeConfig(P(0, 0), P(1, 0)),
    "strip01": ProbeConfig(P(0.1, 0), P(0.2, 0), fc_bound=5.0, ca_bounds=(2.0, 10.0)),
    "exp2t": ProbeConfig(P(0, 0), P(0.1, 0), fc_bound=1.0),
    "c1power": ProbeConfig(P(0, 0), P(0.5, 0)),
    "warpb": ProbeConfig(P(0, 0), P(0.5, 0), fc_bound=3.0, ca_bounds=(5.0, 20.0)),
}
INCOMPLETE = {"strip01"}  # every probe fails here and holds elsewhere
REPLAY_TOL = 1e-7  # how far past B a traced boundary point may read
# (profile, p, q, B) of a region whose near cone edge leaves K1 below the cap
LEANING = ("minkowski", P(0, 0), P(1, 0.37), 1.5)


def flag(holds):
    return "holds" if holds else "FAILS"


def timed(name, run, repeat):
    """(results, minimum CPU seconds) of repeat runs on fresh profiles."""
    outs, best = [], float("inf")
    for _ in range(repeat):
        profile = parse_profiles(format_profile(get_profile(name)))[name]
        start = time.process_time()
        outs.append(run(profile))
        best = min(best, time.process_time() - start)
    return outs, best


def boundary_ok(label, profile, region):
    """Whether every traced boundary point x has T(p, x) <= B + REPLAY_TOL;
    prints the worst point when one does not."""
    excess, point = max(((lorentzian_distance(profile, region.p, P(t, x), with_path=False).value
                          - region.B, (t, x)) for t, x in region.boundary), default=(0.0, None))
    if excess > REPLAY_TOL:
        print(f"           {label}: traced boundary point {point!r} has T - B = {excess!r}")
    return excess <= REPLAY_TOL


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="reports per profile; the time is their minimum (default 1)")
    repeat = parser.parse_args(argv).repeat
    if repeat < 1:
        parser.error(f"--repeat must be at least 1, got {repeat}")
    print(f"{'profile':<10} {'fin.compact':<12} {'tl.Cauchy':<12} "
          f"{'divergence':<12} {'consistent':<10} {'report cpu':>10}  {'traced fc cpu':>13}")
    ok = True
    for name, config in CONFIGS.items():
        reps, best = timed(name, lambda prof: implication_report(prof, config), repeat)
        traced, traced_best = timed(name, lambda prof: probe_finite_compactness(
            prof, config.p, config.q, config.fc_bound), repeat)
        rep = reps[0]
        print(
            f"{name:<10} {flag(rep.finite_compactness.holds):<12} "
            f"{flag(rep.timelike_cauchy.holds):<12} "
            f"{flag(rep.condition_a.holds):<12} "
            f"{str(rep.consistent).lower():<10} {1e3 * best:7.2f} ms  {1e3 * traced_best:10.2f} ms"
        )
        for broken in rep.violated:
            print(f"           implication violated: {broken}")
        want = name not in INCOMPLETE
        for r in rep.reports:
            if r.holds != want:
                print(f"           unexpected verdict: {r.condition} {r.verdict}")
        ok = ok and all(r.holds == want for rp in reps for r in rp.reports)
        ok = ok and all(rp.consistent for rp in reps)
        ok = ok and all(fc.holds == want for fc, _ in traced)
        ok = all([boundary_ok(name, get_profile(name), region) for _, region in traced]) and ok
    name, p, q, B = LEANING
    region = probe_finite_compactness(get_profile(name), p, q, B)[1]
    print(f"leaning region on {name}, p = ({p.t}, {p.x}), q = ({q.t}, {q.x}), B = {B}: "
          f"{len(region.boundary)} boundary points")
    ok = boundary_ok(f"{name} leaning", get_profile(name), region) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
