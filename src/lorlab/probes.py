"""Desk-scale numerical probes of the three completeness conditions.

Finite compactness is probed through the region

    K1 = { x : p << q <= x, T(p, x) <= B },

traced on slices of constant t; the probe holds when the region's time
extent terminates strictly inside the domain (bounded) at a slice the region
actually attains (closed in domain), which is compactness in the 1+1 chart
by Heine-Borel.  The divergence condition is probed along an inextendible
causal geodesic from q: for each supplied bound B the probe reports the
first affine parameter where T(p, gamma(s)) exceeds B, or the supremum of
T observed when the geodesic dies first.  Timelike Cauchy completeness is
probed on a supplied chronological sequence with vanishing forward gaps.

Every T comes from the batched pair path, lorentzian_distance bit for bit
(replay_witness alone calls that).  Both marches compute their slices or
points in blocks of 1, 1, 2, 4, 8 (in_blocks; one point per block with
b != 1) and the trace is one batch of slices; the level crossings of all
traced slices are the rows of one root search, as are the condition-A
bounds passed at one march step.

No finite computation can certify a universally quantified condition, so a
passing verdict is always "holds_on_probe"; failing verdicts carry a
replayable numeric witness.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .causality import _relation, _separations, causally_related, lorentzian_distance
from .errors import NotCausal, NotChronological, PremiseViolated
from .geodesics import _oriented
from .profiles import (
    EPS_NULL,
    MetricProfile,
    SpacetimePoint,
    TangentVector,
    classify_vector,
)
from .quadrature import _cone_map, bracketed_root, in_blocks, toward_end

HOLDS = "holds_on_probe"
FAILS = "fails_with_witness"


@dataclass
class ProbeReport:
    condition: str  # "finite_compactness" | "timelike_cauchy" | "condition_a"
    verdict: str    # HOLDS | FAILS
    witness: dict

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


@dataclass
class K1Region:
    """Traced slices of {T(p, .) <= B} intersected with the future of q.

    slices rows are (t, x_keep_lo, x_keep_hi, min_T) for the part of the
    cone slice that stays under the bound; boundary collects sampled points
    of the level set T = B together with the cone edges.
    """

    p: SpacetimePoint
    q: SpacetimePoint
    B: float
    slices: np.ndarray
    boundary: list[tuple[float, float]]
    bounded: bool
    closed_in_domain: bool


@dataclass
class ImplicationReport:
    finite_compactness: ProbeReport
    timelike_cauchy: ProbeReport
    condition_a: ProbeReport
    consistent: bool
    violated: list[str]

    @property
    def reports(self):
        return (self.finite_compactness, self.timelike_cauchy, self.condition_a)


@dataclass
class ProbeConfig:
    """Inputs shared by the three probes of one profile."""

    p: SpacetimePoint
    q: SpacetimePoint
    fc_bound: float = 5.0
    ca_direction: TangentVector = field(default_factory=lambda: TangentVector(1.0, 0.0))
    ca_bounds: tuple[float, ...] = (10.0, 100.0)
    cauchy_direction: TangentVector = field(
        default_factory=lambda: TangentVector(1.0, 0.0)
    )
    cauchy_span: float = 1.0
    cauchy_len: int = 30


def _require_chronological(profile, p, q, eps_null):
    verdict = causally_related(profile, p, q, eps_null=eps_null)
    if not verdict.chronological:
        raise NotChronological(
            f"probe requires p << q; pair has relation {verdict.relation!r} "
            f"(margin {verdict.margin!r})"
        )


def _tvals(profile, p, ts, xs, eps_null):
    """T(p, (t, x)) for arrays ts and xs, lorentzian_distance bit for bit."""
    cone = _cone_map(profile)
    return _separations(profile, p.t, p.x, ts, xs, cone.many(ts) - cone(p.t), eps_null)[0]


def _march_cap(profile):
    """Largest block of a probe march: 1 with b != 1, where every T is a
    shooting solve that costs more the farther its point, so that no point
    past the march's stop is computed."""
    return 8 if profile.has_unit_b else 1


# -- finite compactness --------------------------------------------------------


def _slices(profile, p, q, B, ts, nx, eps_null):
    """(min_T, keep_lo, keep_hi, xs, Ts) on the cone slices of q at the times
    ts: xs and Ts hold one row of nx points per slice, and a slice at or
    below q.t is nx copies of q.x.  A slice keeping no point has nan bounds."""
    ts = np.asarray(ts, dtype=float)
    cone = _cone_map(profile)
    cone_ts = cone.many(ts)
    half = cone_ts - cone(q.t)
    xs = np.full((len(ts), nx), float(q.x))
    wide = half > 0.0  # one zero-width row makes linspace round every row its own way
    xs[wide] = np.linspace(q.x - half[wide], q.x + half[wide], nx, axis=1)
    Ts = _separations(profile, p.t, p.x, ts[:, None], xs,
                      (cone_ts - cone(p.t))[:, None], eps_null)[0]
    keep = Ts <= B
    kept, rows = keep.any(axis=1), np.arange(len(ts))
    lo = np.where(kept, xs[rows, keep.argmax(axis=1)], math.nan)
    hi = np.where(kept, xs[rows, nx - 1 - keep[:, ::-1].argmax(axis=1)], math.nan)
    return Ts.min(axis=1), lo, hi, xs, Ts


def k1_slices(profile, p, q, B, ts, nx=65, eps_null=EPS_NULL):
    """Keep-interval rows (t, x_keep_lo, x_keep_hi, min_T) for given times."""
    min_T, lo, hi, _, _ = _slices(profile, p, q, B, ts, nx, eps_null)
    return np.column_stack([ts, lo, hi, min_T])


def probe_finite_compactness(
    profile: MetricProfile,
    p: SpacetimePoint,
    q: SpacetimePoint,
    B: float,
    nx: int = 65,
    eps_null: float = EPS_NULL,
) -> tuple[ProbeReport, K1Region]:
    """Trace K1 = {x : p << q <= x, T(p, x) <= B} and judge its compactness;
    a region capped inside the domain is traced on 48 slices of nx points."""
    if not B > 0.0:  # a nan bound would pass every slice and fake an escape
        raise ValueError("bound B must be positive")
    _require_chronological(profile, p, q, eps_null)
    base_witness = {"p": (p.t, p.x), "q": (q.t, q.x), "bound": float(B)}

    T_pq = float(_tvals(profile, p, [q.t], [q.x], eps_null)[0])
    if T_pq > B:
        region = K1Region(p, q, B, np.empty((0, 4)), [], True, True)
        witness = dict(base_witness, empty=True, t_top=q.t)
        return ProbeReport("finite_compactness", HOLDS, witness), region

    # march the slice level toward the domain end until the region empties;
    # the slice at q.t is the single point q, so its minimum is T(p, q)
    def scan(ts):  # (min_T, x_keep_lo, x_keep_hi) of each slice
        return zip(*(v.tolist() for v in _slices(profile, p, q, B, ts, nx, eps_null)[:3]))

    marched = []  # (t, x_keep_lo, x_keep_hi, min_T) of every slice passed
    t_prev, g_prev = q.t, T_pq - B
    n_march = 40 if math.isfinite(profile.t_max) else 70
    march = islice(toward_end(q.t, profile.t_max, max(1e-2, 1e-2 * abs(B))), n_march)
    for t, (min_T, lo, hi) in in_blocks(scan, march, _march_cap(profile)):
        if min_T > B:
            t_top = float(bracketed_root(
                lambda u: _slices(profile, p, q, B, u, nx, eps_null)[0] - B,
                [t_prev], [t], [g_prev], [min_T - B], xtol=1e-9,
            )[0])
            break
        marched.append((t, lo, hi, min_T))
        t_prev, g_prev = t, min_T - B
    else:
        # the region runs into the missing boundary: the escape witness is
        # the midline of the surviving part of each slice the march passed
        mids = [(t, 0.5 * (lo + hi)) for t, lo, hi, _ in marched]
        slices = np.asarray(marched, dtype=float).reshape(-1, 4)
        region = K1Region(p, q, B, slices, [], False, False)
        escaping_T = _tvals(profile, p, *np.array(mids).reshape(-1, 2).T, eps_null).tolist()
        report = ProbeReport("finite_compactness", FAILS, dict(
            base_witness, escaping_points=mids, escaping_T=escaping_T,
            t_boundary=float(profile.t_max)))
        return report, region

    # trace the capped region in one scan: its rows, its cone edges and the
    # sample cells where T(p, (t, .)) crosses B, listed slice by slice
    ts = np.linspace(q.t, t_top, 48)
    min_T, lo, hi, xs, Ts = _slices(profile, p, q, B, ts, nx, eps_null)
    r, i = np.nonzero((Ts[:, :-1] <= B) != (Ts[:, 1:] <= B))
    roots = bracketed_root(lambda x: _tvals(profile, p, ts[r], x, eps_null) - B,
                           xs[r, i], xs[r, i + 1], Ts[r, i] - B, Ts[r, i + 1] - B, xtol=1e-9)
    kept = np.flatnonzero(~np.isnan(lo))
    edges = zip(np.repeat(ts[kept], 2).tolist(), xs[kept][:, [0, -1]].ravel().tolist())
    # a stable sort keeps each slice's crossings ahead of its cone edges
    boundary = sorted([*zip(ts[r].tolist(), roots.tolist()), *edges], key=lambda pt: pt[0])
    region = K1Region(p, q, B, np.column_stack([ts, lo, hi, min_T]), boundary, True, True)
    report = ProbeReport("finite_compactness", HOLDS, dict(base_witness, t_top=float(t_top)))
    return report, region


# -- condition A ----------------------------------------------------------------


def probe_condition_a(
    profile: MetricProfile,
    p: SpacetimePoint,
    q: SpacetimePoint,
    v: TangentVector,
    B_list,
    eps_null: float = EPS_NULL,
) -> ProbeReport:
    """Does T(p, gamma(s)) pass every supplied bound along the geodesic from q?

    The geodesic is extended toward its affine bound c; for each B the
    report records the first parameter with T > B, or the supremum of T
    observed when the geodesic dies with T capped below B.
    """
    bounds = sorted({float(B) for B in B_list})
    if not bounds or not all(B > 0.0 for B in bounds):
        raise ValueError("condition A needs at least one bound, and every bound positive")
    _require_chronological(profile, p, q, eps_null)
    if v.tau0 <= 0.0:
        raise NotCausal("probe extends future-directed geodesics (tau0 > 0)")
    quad, _ = _oriented(profile, q, v, eps_null)
    bound = quad.bound()

    # march s toward the affine bound; each bound is bracketed between the
    # last march point below it and the first one above it
    def along(ss):  # t, x and T(p, gamma(s)) at the parameters ss
        ts = quad.times(ss)
        xs = quad.x_at(ts)
        return ts, xs, _tvals(profile, p, ts, xs, eps_null)

    T_prev = float(_tvals(profile, p, [q.t], [q.x], eps_null)[0])
    crossings = {B: 0.0 for B in bounds if T_prev > B}
    pending = [B for B in bounds if B not in crossings]
    s_prev = 0.0
    tail = deque(maxlen=5)  # the last march points, the witness of a capped T
    march = islice(toward_end(0.0, bound), 45 if math.isfinite(bound) else 90)
    points = in_blocks(lambda ss: zip(*(v.tolist() for v in along(ss))), march,
                       _march_cap(profile))
    # a block is computed when its first point is asked for: ask for none
    # once every bound is passed
    for s, (t, x, T) in points if pending else ():
        passed = np.array([B for B in pending if T > B])  # pending ascends: a prefix
        if len(passed):
            del pending[:len(passed)]
            roots = bracketed_root(lambda u: along(u)[2] - passed, np.full_like(passed, s_prev),
                                   np.full_like(passed, s), T_prev - passed, T - passed,
                                   xtol=1e-10)
            crossings.update(zip(passed.tolist(), roots.tolist()))
        tail.append((s, t, x, T))
        s_prev, T_prev = s, T
        if not pending:
            break
    crossings.update((B, None) for B in pending)

    witness = {
        "p": (p.t, p.x),
        "q": (q.t, q.x),
        "v": (v.tau0, v.xi0),
        "crossings": crossings,
        "max_param": float(bound),
    }
    if pending:
        witness["bounded_by"] = float(T_prev)
        witness["missed_bounds"] = pending
        witness["tail"] = list(tail)
        return ProbeReport("condition_a", FAILS, witness)
    return ProbeReport("condition_a", HOLDS, witness)


# -- timelike Cauchy completeness -------------------------------------------------


def probe_timelike_cauchy(
    profile: MetricProfile,
    seq,
    B_seq,
    tol: float = 1e-6,
    eps_null: float = EPS_NULL,
) -> ProbeReport:
    """Judge convergence of a chronological sequence with vanishing gaps.

    The premises (x_n << x_{n+1}, T(x_n, x_{n+m}) <= B_n, B_n non-increasing)
    are verified first; violating them raises PremiseViolated, which flags a
    malformed probe rather than a property of the spacetime.
    """
    pts = [s if isinstance(s, SpacetimePoint) else SpacetimePoint(*s) for s in seq]
    bounds = [float(b) for b in B_seq]
    if len(pts) < 3:
        raise ValueError("need at least 3 sequence points")
    if len(bounds) != len(pts):
        raise ValueError("need one bound per sequence point")
    ts, xs = np.array([(pt.t, pt.x) for pt in pts]).T
    for t in ts.tolist():
        profile.require_inside(t)
    cone = _cone_map(profile).many(ts)
    # x_i << x_{i+1} by the rule of causally_related
    chron = _relation(cone[1:] - cone[:-1], xs[1:] - xs[:-1], ts[1:] - ts[:-1], eps_null)[1]
    for i in range(len(pts) - 1):
        if not chron[i]:
            raise PremiseViolated(i, f"x_{i} << x_{i + 1} fails")
        if bounds[i + 1] > bounds[i]:
            raise PremiseViolated(i, f"B_{i + 1} > B_{i}: gap bounds must shrink")
    ii, jj = np.triu_indices(len(pts), 1)  # every pair i < j, row-major
    gaps = _separations(profile, ts[ii], xs[ii], ts[jj], xs[jj], cone[jj] - cone[ii], eps_null)[0]
    bad = np.flatnonzero(gaps > np.array(bounds)[ii] + 1e-9)
    if len(bad):
        i, j, gap = int(ii[bad[0]]), int(jj[bad[0]]), float(gaps[bad[0]])
        raise PremiseViolated(i, f"T(x_{i}, x_{j}) = {gap!r} exceeds B_{i} = {bounds[i]!r}")

    k = max(3, len(pts) // 4)
    tail_payload = [(pt.t, pt.x) for pt in pts[-k:]]
    diam = max(math.dist(a, b) for a, b in combinations(tail_payload, 2))
    limit = pts[-1]
    bdist = min(limit.t - profile.t_min, profile.t_max - limit.t)
    margin = max(100.0 * diam, 1e-9)
    if bdist <= margin:
        boundary_t = profile.t_max if (profile.t_max - limit.t) <= margin else profile.t_min
        return ProbeReport("timelike_cauchy", FAILS, {
            "tail": tail_payload, "boundary_t": float(boundary_t),
            "boundary_distance": float(bdist), "tail_diameter": float(diam)})
    if diam <= tol:
        return ProbeReport("timelike_cauchy", HOLDS,
                           {"limit": (limit.t, limit.x), "tail_diameter": float(diam)})
    return ProbeReport("timelike_cauchy", FAILS, {
        "tail": tail_payload, "tail_diameter": float(diam), "non_convergent": True})


def make_cauchy_sequence(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    span: float = 1.0,
    n: int = 30,
    eps_null: float = EPS_NULL,
):
    """Chronological sequence along a timelike geodesic with geometric gaps.

    Points are gamma(s_k) at s_k = cap (1 - 2^-k) where cap is span clipped
    to the geodesic's affine bound, with gap bounds B_k = 2 cap 2^-k, so the
    premises of the Cauchy probe hold by construction.  The bound is marched
    toward only until s passes span.
    """
    char = classify_vector(profile, p, v, eps_null=eps_null)
    if char.kind != "timelike" or v.tau0 <= 0.0:
        raise NotCausal("Cauchy sequences run along future timelike geodesics")
    quad, _ = _oriented(profile, p, v, eps_null)
    cap = quad.bound(float(span))
    T = quad.times(islice(toward_end(0.0, cap), n))
    pts = [SpacetimePoint(t, x) for t, x in zip(T.tolist(), quad.x_at(T).tolist())]
    bounds = [math.ldexp(cap, 1 - k) for k in range(1, len(pts) + 1)]  # 2 cap 2^-k
    return pts, bounds


# -- combined report ---------------------------------------------------------------


def implication_report(profile: MetricProfile, config: ProbeConfig) -> ImplicationReport:
    """Run all three probes and check the verdict pattern for consistency.

    For this metric family the three conditions stand or fall together, so
    any mixed verdict pattern indicates a numerical fault and is flagged
    with the implication it breaks.
    """
    fc, _ = probe_finite_compactness(profile, config.p, config.q, config.fc_bound)
    ca = probe_condition_a(
        profile, config.p, config.q, config.ca_direction, config.ca_bounds
    )
    seq, bounds = make_cauchy_sequence(
        profile,
        config.p,
        config.cauchy_direction,
        span=config.cauchy_span,
        n=config.cauchy_len,
    )
    tcc = probe_timelike_cauchy(profile, seq, bounds)

    verdicts = (fc.holds, tcc.holds, ca.holds)
    violated = []
    if fc.holds and not tcc.holds:
        violated.append("finite_compactness => timelike_cauchy")
    if tcc.holds and not ca.holds:
        violated.append("timelike_cauchy => condition_a")
    if fc.holds and not ca.holds:
        violated.append("finite_compactness => condition_a")
    mixed = len(set(verdicts)) != 1
    if mixed and not violated:
        violated.append("three-way equivalence (converse direction)")
    return ImplicationReport(fc, tcc, ca, not mixed, violated)


def replay_witness(
    profile: MetricProfile, report: ProbeReport, eps_null: float = EPS_NULL
) -> float:
    """Re-evaluate a failing report's witness through the public operations.

    Returns the largest inconsistency between the recorded claims and a
    fresh evaluation; a witness is sound when this stays within quadrature
    noise (well under 1e-7).
    """
    if report.holds:
        return 0.0
    w = report.witness
    worst = 0.0
    if report.condition == "finite_compactness":
        p = SpacetimePoint(*w["p"])
        q = SpacetimePoint(*w["q"])
        B = w["bound"]
        for (t, x), T_claim in zip(w["escaping_points"], w["escaping_T"]):
            pt = SpacetimePoint(t, x)
            if not causally_related(profile, q, pt, eps_null).causal:
                worst = max(worst, 1.0)
            T_new = lorentzian_distance(profile, p, pt, with_path=False, eps_null=eps_null).value
            worst = max(worst, abs(T_new - T_claim))
            worst = max(worst, T_new - B)  # every witness point stays under B
        ts = [t for t, _ in w["escaping_points"]]
        # the escape must approach the recorded boundary monotonically
        gaps = [abs(w["t_boundary"] - t) for t in ts]
        if any(g2 >= g1 for g1, g2 in zip(gaps[:-1], gaps[1:])):
            worst = max(worst, 1.0)
    elif report.condition == "condition_a":
        p = SpacetimePoint(*w["p"])
        for s, t, x, T_claim in w["tail"]:
            T_new = lorentzian_distance(
                profile, p, SpacetimePoint(t, x), with_path=False, eps_null=eps_null
            ).value
            worst = max(worst, abs(T_new - T_claim))
            worst = max(worst, T_new - min(w["missed_bounds"]))
    elif report.condition == "timelike_cauchy":
        if "boundary_distance" in w:
            t_last = w["tail"][-1][0]
            bdist_new = abs(w["boundary_t"] - t_last)
            worst = max(worst, abs(bdist_new - w["boundary_distance"]))
    return worst
