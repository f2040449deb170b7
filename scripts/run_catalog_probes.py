#!/usr/bin/env python3
"""Run the three completeness probes across the built-in catalog.

Prints one row per profile with the finite-compactness, timelike-Cauchy,
and divergence-condition verdicts plus the consistency flag.  The strip
profile is the designed incomplete case: all three probes must fail there,
and all three must hold everywhere else.  Exits 1 when a verdict departs
from that split or a report is inconsistent, and 0 otherwise.

    python3 scripts/run_catalog_probes.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lorlab import ProbeConfig, SpacetimePoint, get_profile, implication_report

P = SpacetimePoint

CONFIGS = {
    "minkowski": ProbeConfig(P(0, 0), P(1, 0)),
    "strip01": ProbeConfig(P(0.1, 0), P(0.2, 0), fc_bound=5.0, ca_bounds=(2.0, 10.0)),
    "exp2t": ProbeConfig(P(0, 0), P(0.1, 0), fc_bound=1.0),
    "c1power": ProbeConfig(P(0, 0), P(0.5, 0)),
    "warpb": ProbeConfig(P(0, 0), P(0.5, 0), fc_bound=3.0, ca_bounds=(5.0, 20.0)),
}
INCOMPLETE = {"strip01"}  # every probe fails here and holds elsewhere


def flag(holds):
    return "holds" if holds else "FAILS"


def main():
    print(f"{'profile':<10} {'fin.compact':<12} {'tl.Cauchy':<12} "
          f"{'divergence':<12} {'consistent':<10} time")
    ok = True
    for name, config in CONFIGS.items():
        start = time.perf_counter()
        rep = implication_report(get_profile(name), config)
        elapsed = time.perf_counter() - start
        print(
            f"{name:<10} {flag(rep.finite_compactness.holds):<12} "
            f"{flag(rep.timelike_cauchy.holds):<12} "
            f"{flag(rep.condition_a.holds):<12} "
            f"{str(rep.consistent).lower():<10} {elapsed:5.2f}s"
        )
        for broken in rep.violated:
            print(f"           implication violated: {broken}")
        want = name not in INCOMPLETE
        for r in rep.reports:
            if r.holds != want:
                print(f"           unexpected verdict: {r.condition} {r.verdict}")
                ok = False
        ok = ok and rep.consistent
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
