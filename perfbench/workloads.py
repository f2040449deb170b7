"""The benchmark workloads: inputs made from a seed, one op, and its checks.

Every op builds its own profile through the public text round trip
``parse_profiles(format_profile(get_profile(name)))`` and times it as part of
the op, because a CLI run pays it too.  Shared catalog instances are not used:
their cumulative maps keep one knot per query, so op latency would depend on
earlier ops and memory would grow over a run.

The library receives only the generated points, vectors and probe configs.
"""

from __future__ import annotations

import math

import numpy as np

import lorlab as ll

POOL = 1024  # inputs made per run; ops cycle through them

UNIT_B = ("minkowski", "strip01", "exp2t", "c1power")

# sampling regions and start-point/velocity windows of the acceptance tests
REGIONS = {
    "minkowski": (0.0, 1.0, 0.0, 1.0),
    "strip01": (0.05, 0.95, 0.0, 1.0),
    "exp2t": (0.0, 1.0, 0.0, 1.0),
    "c1power": (-0.5, 0.5, 0.0, 1.0),
    "warpb": (0.0, 1.0, 0.0, 1.0),
}
IC_WINDOWS = {
    "minkowski": ((-1.0, 1.0), (0.2, 1.0)),
    "strip01": ((0.25, 0.45), (0.1, 0.4)),
    "exp2t": ((-0.5, 0.5), (0.2, 1.0)),
    "c1power": ((0.05, 0.8), (0.2, 1.0)),
    "warpb": ((-0.5, 0.5), (0.2, 1.0)),
}

# the unit-b configs of scripts/run_catalog_probes.py, copied so that the
# benchmark's inputs do not move when the script does
PROBE_CONFIGS = {
    "minkowski": dict(p=(0.0, 0.0), q=(1.0, 0.0)),
    "strip01": dict(p=(0.1, 0.0), q=(0.2, 0.0), fc_bound=5.0, ca_bounds=(2.0, 10.0)),
    "exp2t": dict(p=(0.0, 0.0), q=(0.1, 0.0), fc_bound=1.0),
    "c1power": dict(p=(0.0, 0.0), q=(0.5, 0.0)),
}
INCOMPLETE = {"strip01"}  # every probe must fail here and hold elsewhere

AXIOM_TOL = 1e-7
FLAT_TOL = 1e-12      # minkowski taumat against sqrt(dt^2 - dx^2)
BRACKET_TOL = 1e-9    # warpb taumat against its straight-segment/flat bracket
DUAL_TOL = 1e-6       # RK4 against quadrature states, and conserved drift
REPLAY_TOL = 1e-7     # failing probe witnesses replayed

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)   # on [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def fresh_profile(name: str) -> ll.MetricProfile:
    return ll.parse_profiles(ll.format_profile(ll.get_profile(name)))[name]


class SpaceWorkload:
    """Uniform points on a fixed region, as sample_space draws them, made into a
    space by space_from_points and put through the three exhaustive checkers."""

    def __init__(self, profiles, n):
        self.profiles = profiles
        self.n = n

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(POOL):
            name = self.profiles[i % len(self.profiles)]
            t0, t1, x0, x1 = REGIONS[name]
            out.append((name, rng.uniform(t0, t1, self.n), rng.uniform(x0, x1, self.n)))
        return out

    def prepare(self, inp):
        name, ts, xs = inp
        return name, [ll.SpacetimePoint(float(t), float(x)) for t, x in zip(ts, xs)]

    def op(self, args):
        name, points = args
        space = ll.space_from_points(fresh_profile(name), points)
        return (
            space,
            ll.check_axioms(space, tol=AXIOM_TOL),
            ll.check_pushup(space),
            ll.check_causality(space),
        )

    def check(self, inp, out):
        space, axioms, pushup, causality = out
        problems = [
            f"{c.name} {c.status} (witness {c.witness})"
            for c in (*axioms.checks, pushup, causality)
            if c.failed
        ]
        name, ts, xs = inp
        dt = ts[None, :] - ts[:, None]
        dx = xs[None, :] - xs[:, None]
        if name == "minkowski":
            flat = np.where(space.chron, np.sqrt(np.maximum(dt * dt - dx * dx, 0.0)), 0.0)
            err = float(np.abs(space.taumat - flat).max())
            if err > FLAT_TOL:
                problems.append(f"minkowski taumat off sqrt(dt^2-dx^2) by {err:.3e}")
        if name == "warpb":
            problems.extend(_warpb_bracket(space, ts, dt, dx))
        return problems, {}


def _warpb_bracket(space, ts, dt, dx):
    """straight-segment length <= T <= sqrt(dt^2 - dx^2) on chronological pairs.

    warpb has a = 1 and b(t) = 1 + t^2 >= 1, so no causal curve is longer
    than in Minkowski space (upper bound), and the maximizer is at least as
    long as the straight segment whenever that segment is timelike (lower
    bound, by the benchmark's own Gauss-Legendre rule).
    """
    ii, jj = np.nonzero(space.chron)
    T = space.taumat[ii, jj]
    dtc, dxc = dt[ii, jj], dx[ii, jj]
    problems = []
    over = T - np.sqrt(dtc * dtc - dxc * dxc)
    if over.size and over.max() > BRACKET_TOL:
        k = int(over.argmax())
        problems.append(f"warpb T above flat interval by {over[k]:.3e} at {ii[k], jj[k]}")
    b_max = 1.0 + np.maximum(ts[ii] ** 2, ts[jj] ** 2)
    timelike = dtc * dtc > b_max * dxc * dxc
    t_seg = ts[ii][timelike, None] + dtc[timelike, None] * _GL_NODES
    rate = dtc[timelike, None] ** 2 - (1.0 + t_seg * t_seg) * dxc[timelike, None] ** 2
    under = np.sqrt(rate) @ _GL_WEIGHTS - T[timelike]
    if under.size and under.max() > BRACKET_TOL:
        k = int(under.argmax())
        problems.append(f"warpb T below straight segment by {under[k]:.3e}")
    return problems


class GeodesicWorkload:
    """RK4 and the quadrature route on one geodesic, compared at shared s."""

    S_MAX = 1.0
    STEP = 1e-3
    STRIDE = 20  # every 20th RK4 sample: 51 shared parameters

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(POOL):
            name = ll.CATALOG_NAMES[i % len(ll.CATALOG_NAMES)]
            t_window, tau_window = IC_WINDOWS[name]
            t = rng.uniform(*t_window)
            x = rng.uniform(-1.0, 1.0)
            a, b, _, _ = ll.get_profile(name).eval(t)
            tau = rng.uniform(*tau_window)
            xi = rng.uniform(-1.0, 1.0) * tau * math.sqrt(a / b)
            out.append((name, float(t), float(x), float(tau), float(xi)))
        return out

    def prepare(self, inp):
        name, t, x, tau, xi = inp
        return name, ll.SpacetimePoint(t, x), ll.TangentVector(tau, xi)

    def op(self, args):
        name, p, v = args
        prof = fresh_profile(name)
        path = ll.integrate_geodesic(prof, p, v, self.S_MAX, self.STEP)
        states = ll.geodesic_states(prof, p, v, path.samples[:: self.STRIDE, 0])
        return prof, path, states

    def check(self, inp, out):
        prof, path, states = out
        problems = []
        if path.inextendible:
            problems.append("RK4 run left the domain")
        rk = path.samples[:: self.STRIDE]
        quad = np.asarray(states, dtype=float).reshape(-1, 5)
        if len(quad) != len(rk):
            problems.append(f"quadrature route stopped after {len(quad)} of {len(rk)} states")
            return problems, {}
        gap = float(np.hypot(rk[:, 1] - quad[:, 1], rk[:, 2] - quad[:, 2]).max())
        a, b, _, _ = prof.eval_many(path.samples[:, 1])
        td, xd = path.samples[:, 3], path.samples[:, 4]
        drift = float(max(
            np.abs(b * xd - path.conserved.kappa).max(),
            np.abs(-a * td * td + b * xd * xd - path.conserved.epsilon).max(),
        ))
        if gap >= DUAL_TOL:
            problems.append(f"dual-solver gap {gap:.3e}")
        if drift >= DUAL_TOL:
            problems.append(f"conserved-quantity drift {drift:.3e}")
        return problems, {"geodesics.dual_gap_max": gap, "geodesics.drift_max": drift}


class ProbesWorkload:
    """implication_report on the unit-b profiles, x-translated per op."""

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [(UNIT_B[i % len(UNIT_B)], float(rng.uniform(-1.0, 1.0))) for i in range(POOL)]

    def prepare(self, inp):
        name, shift = inp
        cfg = dict(PROBE_CONFIGS[name])
        p, q = cfg.pop("p"), cfg.pop("q")
        return name, ll.ProbeConfig(
            ll.SpacetimePoint(p[0], p[1] + shift), ll.SpacetimePoint(q[0], q[1] + shift), **cfg
        )

    def op(self, args):
        name, config = args
        prof = fresh_profile(name)
        return prof, ll.implication_report(prof, config)

    def check(self, inp, out):
        prof, report = out
        name = inp[0]
        problems = []
        want = name not in INCOMPLETE
        for r in report.reports:
            if r.holds != want:
                problems.append(f"{r.condition} verdict {r.verdict}")
            replay = ll.replay_witness(prof, r)
            if replay >= REPLAY_TOL:
                problems.append(f"{r.condition} witness replays off by {replay:.3e}")
        if not report.consistent:
            problems.append(f"inconsistent verdicts: {report.violated}")
        return problems, {}


WORKLOADS = {
    "space-warpb": SpaceWorkload(("warpb",), 24),
    "space-unitb": SpaceWorkload(UNIT_B, 200),
    "geodesic-dual": GeodesicWorkload(),
    "probes-unitb": ProbesWorkload(),
}
