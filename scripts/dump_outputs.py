#!/usr/bin/env python3
"""Print a deterministic dump of lorlab's public results on seeded inputs.

Every value is printed with repr, so two checkouts agree on a line only when
they agree bit for bit; arrays are printed entry by entry.  The inputs are
drawn from a fixed seed on the built-in catalog and on a mixed profile with
every term kind:

    cone_time, flat_time        at the knots anchor +- 2^k inside the domain
    causal_exp, affine_bound    random causal vectors, half past-directed
    geodesic_states             future-directed vectors, 11 parameters on [0, 1]
    make_cauchy_sequence        future timelike vectors, span 1 and 8
    lorentzian_distance         random pairs, with the maximizing path; then
                                near-null pairs: the 'mix' pair of margin
                                1.6e-11, b4 (T exact) at five margins and
                                warpb at |dx| = (1 - 10^-u) times the cone
    implication_report          the catalog probe configs
    probe_finite_compactness,   the same configs: the finite-compactness
      k1_slices                 region's boundary, and the slice rows at 8
                                times from below q.t to the region's last slice
    space chron, causal, dmat,  space_from_points on 32 random points, every
      taumat                    matrix of the space
    uniqueness_witness          random causal vectors, half past-directed
    exp_continuity_probe        random causal vectors, half past-directed, at
                                radii 0.05 and 1.5 and 3 times |tau0|, so that
                                some perturbations point the other way in time;
                                every DisplacementRow, drawn after the rest from
                                a second seed
    probe_finite_compactness,   a leaning region on minkowski, p = (0, 0), q =
      k1_slices                 (1, 0.37), B = 1.5, whose slices near the top
                                keep one cone edge
    geodesic_states, causal_exp the inversion's edges: future exp2t at s = 1e150,
                                1e300 and 1.7e308, past the overflow of e^t;
                                strip01 from (0.5, 0) up to an ulp below its
                                affine bound 0.5; past-directed exp2t toward the
                                supremum of its saturating s

A call that raises prints the exception instead.  To compare two checkouts,
dump each with this script (copy it into the other checkout's scripts/
when that one prints another format) and compare the dumps:

    python3 scripts/dump_outputs.py > new.txt
    python3 /path/to/other/checkout/scripts/dump_outputs.py > old.txt
    python3 scripts/dump_outputs.py --compare old.txt new.txt

For each public function (the second word of a line) --compare prints how
many of its lines moved, the worst relative move |a - b| / max(|a|, |b|) of
any number in them and the worst absolute move |a - b|, numbers paired in
order of appearance.  A relative move of a number that is itself a small
difference (a gap or a diameter) can be large where the absolute move is a
few ulps of the quantities it came from.  A line whose text around the
numbers changed (an exception in place of a value, or another count of
numbers) is counted as changed text, with no move.  It exits 1 when the
dumps have different numbers of lines.
"""

import argparse
import dataclasses
import math
import os
import re
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
# near-null shooting: a = 1, b = 4, where T = sqrt(dt^2 - 4 dx^2) exactly, and
# a pair of margin 1.6e-11 with kappa near 8.8e5, where kappa / q rounds to 1
B4 = ll.MetricProfile("b4", (ll.const(1.0),), (ll.const(4.0),))
B4_DELTAS = (0.25, 1e-3, 1e-6, 1e-9, 1e-11)
MIX = ll.MetricProfile("mix", (ll.const(1), ll.power(1, 0.3, 1.5)), (ll.exponential(1, 1),),
                       alpha=1e-9)
MIX_PAIR = (P(1.4711221123536244, -0.8078635145770623), P(3.9933257002179845, 0.5979339234358898))
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
        return f"array({show(obj.tolist())})"
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
    anchor = prof.anchor_time()
    knots = [t for k in range(11) for t in (anchor - 2.0 ** k, anchor + 2.0 ** k)
             if prof.t_min < t < prof.t_max]
    for f in (ll.cone_time, ll.flat_time):
        print(f"{name} {f.__name__} knots -> {attempt(lambda: [f(prof, t) for t in knots])}")
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
    cfg = CONFIGS[name]
    print(f"{name} implication_report -> {attempt(ll.implication_report, prof, cfg)}")
    _, region = ll.probe_finite_compactness(prof, cfg.p, cfg.q, cfg.fc_bound)
    print(f"{name} probe_finite_compactness boundary -> {show(region.boundary)}")
    reach = float(region.slices[-1, 0]) - cfg.q.t
    ts = np.linspace(cfg.q.t - 0.1 * reach, cfg.q.t + reach, 8)
    print(f"{name} k1_slices {show(ts)} -> "
          f"{attempt(ll.k1_slices, prof, cfg.p, cfg.q, cfg.fc_bound, ts)}")
    space = ll.space_from_points(prof, region_points(prof, rng, 32))
    for matrix in ("chron", "causal", "dmat", "taumat"):
        print(f"{name} space {matrix} -> {show(getattr(space, matrix))}")
    for i in range(3):
        p, v = causal_vector(prof, rng)
        print(f"{name} uniqueness_witness {i} {show((p, v))} -> "
              f"{attempt(ll.uniqueness_witness, prof, p, v)}")


def dump_continuity(prof, rng):
    for i in range(3):
        p, v = causal_vector(prof, rng)
        radii = (0.05, 1.5 * abs(v.tau0), 3.0 * abs(v.tau0))
        print(f"{prof.name} exp_continuity_probe {i} {show((p, v))} -> "
              f"{attempt(ll.exp_continuity_probe, prof, p, v, radii)}")


def dump_near_null(rng):
    print(f"mix lorentzian_distance near-null {show(MIX_PAIR)} -> "
          f"{attempt(ll.lorentzian_distance, MIX, *MIX_PAIR)}")
    for delta in B4_DELTAS:
        q = P(1.0, 0.5 - delta)
        print(f"b4 lorentzian_distance near-null {show(q)} -> "
              f"{attempt(ll.lorentzian_distance, B4, P(0.0, 0.0), q)}")
    warpb = ll.get_profile("warpb")
    for u in rng.uniform(1.0, 12.0, 4):
        p = P(float(rng.uniform(-0.5, 0.0)), 0.0)
        t = float(rng.uniform(p.t + 0.5, 1.0))
        q = P(t, (1.0 - 10.0 ** -u) * (ll.cone_time(warpb, t) - ll.cone_time(warpb, p.t)))
        print(f"warpb lorentzian_distance near-null {show((p, q))} -> "
              f"{attempt(ll.lorentzian_distance, warpb, p, q)}")


def dump_edges():
    mink = ll.parse_profiles(ll.format_profile(ll.get_profile("minkowski")))["minkowski"]
    p, q, B = P(0.0, 0.0), P(1.0, 0.37), 1.5
    _, region = ll.probe_finite_compactness(mink, p, q, B)
    print(f"minkowski probe_finite_compactness leaning boundary -> {show(region.boundary)}")
    reach = float(region.slices[-1, 0]) - q.t
    ts = np.linspace(q.t - 0.1 * reach, q.t + reach, 8)
    print(f"minkowski k1_slices leaning {show(ts)} -> {attempt(ll.k1_slices, mink, p, q, B, ts)}")
    exp2t = ll.get_profile("exp2t")
    for p, v in ((P(0.0, 0.0), V(1.0, 0.0)), (P(0.0, 0.0), V(0.01, 0.005)),
                 (P(-300.0, 0.0), V(1.0, 0.0)), (P(300.0, 0.0), V(1e-100, 0.0))):
        for s in (1e150, 1e300, 1.7e308):
            print(f"exp2t geodesic_states edge {show((p, v))} s={s!r} -> "
                  f"{attempt(ll.geodesic_states, exp2t, p, v, [s])}")
    strip = ll.get_profile("strip01")
    for s in (*(0.5 * (1.0 - 2.0 ** -k) for k in (1, 10, 52)), math.nextafter(0.5, 0.0)):
        print(f"strip01 geodesic_states edge s={s!r} -> "
              f"{attempt(ll.geodesic_states, strip, P(0.5, 0.0), V(1.0, 0.0), [s])}")
    # s = (1 - e^-T) / tau along v = (-tau, 0) from (0, 0): s = 1 nears the
    # supremum 1 / tau as tau nears 1
    for k in (1, 10, 30, 52):
        v = V(-(1.0 - 2.0 ** -k), 0.0)
        print(f"exp2t causal_exp past-sup {show(v)} -> {attempt(ll.causal_exp, exp2t, P(0, 0), v)}")


NUMBER = re.compile(r"(?<![\w.])-?(?:inf|nan|\d+(?:\.\d*)?(?:e[-+]?\d+)?)(?![\w.])")


def moves(a: float, b: float) -> tuple[float, float]:
    """The relative and the absolute move from a to b."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b) / max(abs(a), abs(b)), abs(a - b)


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as fh:
        old = fh.read().splitlines()
    with open(new_path) as fh:
        new = fh.read().splitlines()
    if len(old) != len(new):
        print(f"the dumps differ in length: {len(old)} and {len(new)} lines")
        return 1
    stats = {}  # function -> [lines, moved, changed text, worst relative, worst absolute]
    for a, b in zip(old, new):
        row = stats.setdefault(a.split()[1], [0, 0, 0, 0.0, 0.0])
        row[0] += 1
        if a == b:
            continue
        na, nb = NUMBER.findall(a), NUMBER.findall(b)
        if NUMBER.sub("#", a) != NUMBER.sub("#", b) or len(na) != len(nb):
            row[2] += 1
            continue
        row[1] += 1
        for x, y in zip(na, nb):
            rel, ab = moves(float(x), float(y))
            row[3], row[4] = max(row[3], rel), max(row[4], ab)
    for name, (lines, moved, text, rel, ab) in stats.items():
        print(f"{name}: {moved} of {lines} lines moved, worst relative move {rel:.3g}, "
              f"worst absolute move {ab:.3g}" + (f"; {text} changed text" if text else ""))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two dumps instead of printing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    rng = np.random.default_rng(SEED)
    for prof in profiles():
        dump(prof, rng)
    dump_near_null(rng)
    dump_edges()
    rng = np.random.default_rng(SEED + 1)
    for prof in profiles():
        dump_continuity(prof, rng)
    return 0


if __name__ == "__main__":
    sys.exit(main())
