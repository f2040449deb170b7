#!/usr/bin/env python3
"""Count the near-null chronological pairs whose shooting solve raises.

For each of five b != 1 profiles (or unit-b profiles forced onto shooting)
it draws 600 pairs: t1 ~ U(-1, 1) and t2 = t1 + U(0.05, 2.5), shifted to
t >= 0.5 on 'mix', then u ~ U(1, 12), a random sign and |dx| = (1 - 10^-u)
times the cone-time difference, so margins run from 0.1 down to 1e-12 of
the cone.  Each pair is solved with

    lorentzian_distance(profile, p, q, method="shooting", with_path=False)

and the script prints, per profile, how many pairs raise, how many the
relation does not call chronological, and the first error seen.  It exits
1 when any pair raises:

    python3 scripts/shooting_stress.py --seed 1
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

import lorlab as ll  # noqa: E402
from lorlab import SpacetimePoint as P  # noqa: E402

PAIRS = 600
PROFILES = {
    "warpb": (ll.get_profile("warpb"), 0.0),
    "c1power": (ll.get_profile("c1power"), 0.0),
    "exp2t": (ll.get_profile("exp2t"), 0.0),
    "mix": (ll.MetricProfile("mix", (ll.const(1), ll.power(1, 0.3, 1.5)),
                             (ll.exponential(1, 1),), alpha=1e-9), 1.5),
    "b4": (ll.MetricProfile("b4", (ll.const(1.0),), (ll.const(4.0),)), 0.0),
}


def pairs(profile, shift, rng):
    """PAIRS near-null pairs (p, q) on profile, t shifted by shift."""
    t1 = rng.uniform(-1.0, 1.0, PAIRS) + shift
    t2 = t1 + rng.uniform(0.05, 2.5, PAIRS)
    u = rng.uniform(1.0, 12.0, PAIRS)
    sign = rng.choice((-1.0, 1.0), PAIRS)
    for a, b, e, s in zip(t1.tolist(), t2.tolist(), u.tolist(), sign.tolist()):
        cone = ll.cone_time(profile, b) - ll.cone_time(profile, a)
        yield P(a, 0.0), P(b, s * (1.0 - 10.0 ** -e) * cone)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    total = 0
    for label, (profile, shift) in PROFILES.items():
        raised, unrelated, first = 0, 0, ""
        for p, q in pairs(profile, shift, rng):
            if not ll.causally_related(profile, p, q).chronological:
                unrelated += 1
                continue
            try:
                ll.lorentzian_distance(profile, p, q, method="shooting", with_path=False)
            except ll.LorlabError as exc:
                raised += 1
                first = first or f"  first: {type(exc).__name__}: {exc}"
        total += raised
        print(f"{label:8s} {raised:4d} of {PAIRS} raise, {unrelated} not chronological{first}")
    print(f"total    {total:4d} of {PAIRS * len(PROFILES)} raise")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
