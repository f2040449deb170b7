#!/usr/bin/env python3
"""Print a deterministic dump of lorlab's public results on seeded inputs.

Every value is printed with repr, so two checkouts agree on a line only when
they agree bit for bit; arrays of more than 64 entries are printed as their
shape and a SHA-256 of their bytes.  The inputs are drawn from a fixed seed
on the built-in catalog and on a mixed profile with every term kind:

    causal_exp, affine_bound    random causal vectors, half past-directed
    geodesic_states             future-directed vectors, 11 parameters on [0, 1]
    make_cauchy_sequence        future timelike vectors, span 1 and 8
    lorentzian_distance         random pairs, with the maximizing path
    implication_report          the catalog probe configs
    space taumat                space_from_points on 32 random points
    uniqueness_witness          random causal vectors, half past-directed

A call that raises prints the exception instead.  To compare two checkouts:

    python3 scripts/dump_outputs.py > new.txt
    python3 /path/to/other/checkout/scripts/dump_outputs.py > old.txt
    diff old.txt new.txt
"""

import dataclasses
import hashlib
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

import lorlab as ll  # noqa: E402
from lorlab import SpacetimePoint as P, TangentVector as V  # noqa: E402

SEED = 20261019
# every term kind in a, a kink at 0.2, and an exp term in b
MIXED = ll.MetricProfile(
    "mixed",
    (ll.const(1.0), ll.linear(0.1), ll.power(0.7, 0.2, 1.5), ll.exponential(0.3, 0.7)),
    (ll.const(0.5), ll.exponential(0.6, 0.3)),
    t_min=-2.0, t_max=2.0, alpha=0.1,
)
# start times and |dt/ds| windows of the start vectors
WINDOWS = {
    "minkowski": ((-1.0, 1.0), (0.2, 1.0)),
    "strip01": ((0.25, 0.45), (0.1, 0.4)),
    "exp2t": ((-0.5, 0.5), (0.2, 1.0)),
    "c1power": ((-0.8, 0.8), (0.2, 1.0)),
    "warpb": ((-0.5, 0.5), (0.2, 1.0)),
    "mixed": ((-1.5, 1.5), (0.2, 1.0)),
}
# sampling regions (t0, t1, x0, x1) of distance pairs and spaces
REGIONS = {
    "minkowski": (0.0, 1.0, 0.0, 1.0),
    "strip01": (0.05, 0.95, 0.0, 1.0),
    "exp2t": (0.0, 1.0, 0.0, 1.0),
    "c1power": (-0.5, 0.5, 0.0, 1.0),
    "warpb": (0.0, 1.0, 0.0, 1.0),
    "mixed": (-1.0, 1.0, 0.0, 1.0),
}
CONFIGS = {
    "minkowski": ll.ProbeConfig(P(0, 0), P(1, 0)),
    "strip01": ll.ProbeConfig(P(0.1, 0), P(0.2, 0), fc_bound=5.0, ca_bounds=(2.0, 10.0)),
    "exp2t": ll.ProbeConfig(P(0, 0), P(0.1, 0), fc_bound=1.0),
    "c1power": ll.ProbeConfig(P(0, 0), P(0.5, 0)),
    "warpb": ll.ProbeConfig(P(0, 0), P(0.5, 0), fc_bound=3.0, ca_bounds=(5.0, 20.0)),
    "mixed": ll.ProbeConfig(P(-1.0, 0), P(-0.5, 0), fc_bound=1.0, ca_bounds=(0.5, 1.0)),
}


def show(obj) -> str:
    """repr of obj, with dataclasses and containers taken apart so that
    every float is printed exactly and large arrays as their hash."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ", ".join(f"{f.name}={show(getattr(obj, f.name))}"
                          for f in dataclasses.fields(obj) if f.repr)
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, np.ndarray):
        if obj.size <= 64:
            return f"array({show(obj.tolist())})"
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()[:16]
        return f"array(shape={obj.shape}, dtype={obj.dtype}, sha256={digest})"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{show(k)}: {show(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return ("[%s]" if isinstance(obj, list) else "(%s)") % ", ".join(map(show, obj))
    if isinstance(obj, np.generic):
        return show(obj.item())
    return repr(obj)


def attempt(f, *args, **kwargs) -> str:
    try:
        return show(f(*args, **kwargs))
    except ll.LorlabError as exc:
        return f"raises {type(exc).__name__}: {exc}"


def profiles():
    for name in ll.CATALOG_NAMES:
        # a fresh instance, as a CLI run or a benchmark op builds it
        yield ll.parse_profiles(ll.format_profile(ll.get_profile(name)))[name]
    yield MIXED


def causal_vector(prof, rng, future_only=False):
    t_window, tau_window = WINDOWS[prof.name]
    t = rng.uniform(*t_window)
    x = rng.uniform(-1.0, 1.0)
    a, b, _, _ = prof.eval(t)
    tau = rng.uniform(*tau_window)
    if not future_only and rng.uniform() < 0.5:
        tau = -tau
    xi = rng.uniform(-1.0, 1.0) * abs(tau) * math.sqrt(a / b)
    return P(float(t), float(x)), V(float(tau), float(xi))


def region_points(prof, rng, n):
    t0, t1, x0, x1 = REGIONS[prof.name]
    return [P(float(t), float(x)) for t, x in zip(rng.uniform(t0, t1, n), rng.uniform(x0, x1, n))]


def dump(prof, rng):
    name = prof.name
    for i in range(10):
        p, v = causal_vector(prof, rng)
        print(f"{name} causal_exp {i} {show((p, v))} -> {attempt(ll.causal_exp, prof, p, v)}")
        print(f"{name} affine_bound {i} -> {attempt(ll.affine_bound, prof, p, v)}")
    s_values = [k / 10.0 for k in range(11)]
    for i in range(6):
        p, v = causal_vector(prof, rng, future_only=True)
        print(f"{name} geodesic_states {i} {show((p, v))} -> "
              f"{attempt(ll.geodesic_states, prof, p, v, s_values)}")
    for i in range(4):
        p, v = causal_vector(prof, rng, future_only=True)
        v = V(v.tau0, 0.5 * v.xi0)  # strictly timelike
        for span in (1.0, 8.0):
            print(f"{name} make_cauchy_sequence {i} span={span} {show((p, v))} -> "
                  f"{attempt(ll.make_cauchy_sequence, prof, p, v, span=span, n=12)}")
    for i in range(6):
        p, q = sorted(region_points(prof, rng, 2), key=lambda pt: pt.t)
        print(f"{name} lorentzian_distance {i} {show((p, q))} -> "
              f"{attempt(ll.lorentzian_distance, prof, p, q)}")
    print(f"{name} implication_report -> {attempt(ll.implication_report, prof, CONFIGS[name])}")
    space = ll.space_from_points(prof, region_points(prof, rng, 32))
    print(f"{name} space taumat -> {show(space.taumat)}")
    for i in range(3):
        p, v = causal_vector(prof, rng)
        print(f"{name} uniqueness_witness {i} {show((p, v))} -> "
              f"{attempt(ll.uniqueness_witness, prof, p, v)}")


def main():
    rng = np.random.default_rng(SEED)
    for prof in profiles():
        dump(prof, rng)
    return 0


if __name__ == "__main__":
    sys.exit(main())
