"""Desk-scale numerical probes of the three completeness conditions.

Finite compactness is probed through the region

    K1 = { x : p << q <= x, T(p, x) <= B },

traced slice by slice in t; the probe holds when the region's time extent
terminates strictly inside the domain (bounded) at a slice the region
actually attains (closed in domain), which is compactness in the 1+1 chart
by Heine-Borel.  The divergence condition is probed along an inextendible
causal geodesic from q: for each supplied bound B the probe reports the
first affine parameter where T(p, gamma(s)) exceeds B, or the supremum of
T observed when the geodesic dies first.  Timelike Cauchy completeness is
probed on a supplied chronological sequence with vanishing forward gaps.

Every T comes from the batched pair path, lorentzian_distance bit for bit
(replay_witness alone calls that); the level crossings of all traced slices
are the rows of one root search, as are the condition-A bounds passed at
one march step.

No finite computation can certify a universally quantified condition, so a
passing verdict is always "holds_on_probe"; failing verdicts carry a
replayable numeric witness.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .causality import _relation, _separations, causally_related, cone_time, lorentzian_distance
from .errors import NotCausal, NotChronological, PremiseViolated
from .geodesics import _Quadrature, conserved_quantities
from .profiles import (
    EPS_NULL,
    MetricProfile,
    SpacetimePoint,
    TangentVector,
    classify_vector,
)
from .quadrature import _cone_map, bracketed_root, toward_end

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


# -- finite compactness --------------------------------------------------------


def _slice_scan(profile, p, q, B, t, nx, eps_null):
    """(min_T, keep_lo, keep_hi, xs, Ts) on the cone slice of q at time t."""
    cone_t = cone_time(profile, t)
    half = cone_t - cone_time(profile, q.t)
    xs = np.linspace(q.x - half, q.x + half, nx) if half > 0.0 else np.array([q.x])
    Ts = _separations(profile, p.t, p.x, t, xs, cone_t - cone_time(profile, p.t), eps_null)[0]
    keep = Ts <= B
    if keep.any():
        lo = float(xs[keep][0])
        hi = float(xs[keep][-1])
    else:
        lo = hi = math.nan
    return float(Ts.min()), lo, hi, xs, Ts


def k1_slices(profile, p, q, B, ts, nx=65, eps_null=EPS_NULL):
    """Keep-interval rows (t, x_keep_lo, x_keep_hi, min_T) for given times."""
    rows = []
    for t in ts:
        min_t, lo, hi, _, _ = _slice_scan(profile, p, q, B, float(t), nx, eps_null)
        rows.append((float(t), lo, hi, min_t))
    return np.asarray(rows, dtype=float)


def probe_finite_compactness(
    profile: MetricProfile,
    p: SpacetimePoint,
    q: SpacetimePoint,
    B: float,
    nx: int = 65,
    n_trace: int = 48,
    eps_null: float = EPS_NULL,
) -> tuple[ProbeReport, K1Region]:
    """Trace K1 = {x : p << q <= x, T(p, x) <= B} and judge its compactness."""
    if B <= 0.0:
        raise ValueError("bound B must be positive")
    _require_chronological(profile, p, q, eps_null)
    base_witness = {"p": (p.t, p.x), "q": (q.t, q.x), "bound": float(B)}

    T_pq = float(_tvals(profile, p, [q.t], [q.x], eps_null)[0])
    if T_pq > B:
        region = K1Region(p, q, B, np.empty((0, 4)), [], True, True)
        report = ProbeReport(
            "finite_compactness", HOLDS, dict(base_witness, empty=True, t_top=q.t)
        )
        return report, region

    # march the slice level toward the domain end until the region empties;
    # the slice at q.t is the single point q, so its minimum is T(p, q)
    marched = []  # (t, x_keep_lo, x_keep_hi, min_T) of every slice passed
    t_prev, g_prev = q.t, T_pq - B
    n_march = 40 if math.isfinite(profile.t_max) else 70
    for t in islice(toward_end(q.t, profile.t_max, max(1e-2, 1e-2 * abs(B))), n_march):
        min_T, lo, hi, _, _ = _slice_scan(profile, p, q, B, t, nx, eps_null)
        if min_T > B:
            t_top = float(bracketed_root(
                lambda u: np.array([
                    _slice_scan(profile, p, q, B, u.item(0), nx, eps_null)[0] - B]),
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
        report = ProbeReport(
            "finite_compactness",
            FAILS,
            dict(
                base_witness,
                escaping_points=mids,
                escaping_T=_tvals(profile, p, *np.array(mids).reshape(-1, 2).T, eps_null).tolist(),
                t_boundary=float(profile.t_max),
            ),
        )
        return report, region

    # trace the capped region: one scan per slice gives its row, its cone
    # edges and the sample cells where T(p, (t, .)) crosses B
    rows, edges, cells = [], [], []
    for t in np.linspace(q.t, t_top, n_trace).tolist():
        min_T, lo, hi, xs, Ts = _slice_scan(profile, p, q, B, t, nx, eps_null)
        rows.append((t, lo, hi, min_T))
        for i in np.flatnonzero((Ts[:-1] <= B) != (Ts[1:] <= B)).tolist():
            cells.append((t, xs[i], xs[i + 1], Ts[i] - B, Ts[i + 1] - B))
        if not math.isnan(lo):
            edges += [(t, float(xs[0])), (t, float(xs[-1]))]
    ct, xlo, xhi, glo, ghi = np.array(cells).reshape(-1, 5).T
    roots = bracketed_root(
        lambda x: _tvals(profile, p, ct, x, eps_null) - B, xlo, xhi, glo, ghi, xtol=1e-9
    )
    # a stable sort keeps each slice's crossings ahead of its cone edges
    boundary = sorted([*zip(ct.tolist(), roots.tolist()), *edges], key=lambda pt: pt[0])
    region = K1Region(p, q, B, np.asarray(rows, dtype=float), boundary, True, True)
    report = ProbeReport(
        "finite_compactness", HOLDS, dict(base_witness, t_top=float(t_top))
    )
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
    _require_chronological(profile, p, q, eps_null)
    char = classify_vector(profile, q, v, eps_null=eps_null)
    if not char.is_causal:
        raise NotCausal(f"direction {v} is {char.kind}, need timelike or null")
    if v.tau0 <= 0.0:
        raise NotCausal("probe extends future-directed geodesics (tau0 > 0)")
    quad = _Quadrature(profile, q, conserved_quantities(profile, q, v))
    bound = quad.bound()

    # march s toward the affine bound; each bound is bracketed between the
    # last march point below it and the first one above it
    T_prev = float(_tvals(profile, p, [q.t], [q.x], eps_null)[0])
    bounds = sorted({float(B) for B in B_list})
    crossings = {B: 0.0 for B in bounds if T_prev > B}
    pending = [B for B in bounds if B not in crossings]
    s_prev = 0.0
    tail = deque(maxlen=5)  # the last march points, the witness of a capped T
    for s in islice(toward_end(0.0, bound), 45 if math.isfinite(bound) else 90):
        if not pending:
            break
        pt = quad.point_at(s)
        T = float(_tvals(profile, p, [pt.t], [pt.x], eps_null)[0])
        passed = np.array([B for B in pending if T > B])  # pending ascends: a prefix
        if len(passed):
            del pending[:len(passed)]
            def g(u):
                ts = quad.times(u)
                return _tvals(profile, p, ts, quad.x_at(ts), eps_null) - passed
            roots = bracketed_root(g, np.full_like(passed, s_prev), np.full_like(passed, s),
                                   T_prev - passed, T - passed, xtol=1e-10)
            crossings.update(zip(passed.tolist(), roots.tolist()))
        tail.append((s, pt.t, pt.x, T))
        s_prev, T_prev = s, T
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
    tail = pts[-k:]
    diam = 0.0
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            diam = max(
                diam,
                math.hypot(tail[i].t - tail[j].t, tail[i].x - tail[j].x),
            )
    limit = pts[-1]
    bdist = min(limit.t - profile.t_min, profile.t_max - limit.t)
    margin = max(100.0 * diam, 1e-9)
    tail_payload = [(pt.t, pt.x) for pt in tail]
    if bdist <= margin:
        boundary_t = profile.t_max if (profile.t_max - limit.t) <= margin else profile.t_min
        return ProbeReport(
            "timelike_cauchy",
            FAILS,
            {
                "tail": tail_payload,
                "boundary_t": float(boundary_t),
                "boundary_distance": float(bdist),
                "tail_diameter": float(diam),
            },
        )
    if diam <= tol:
        return ProbeReport(
            "timelike_cauchy",
            HOLDS,
            {"limit": (limit.t, limit.x), "tail_diameter": float(diam)},
        )
    return ProbeReport(
        "timelike_cauchy",
        FAILS,
        {"tail": tail_payload, "tail_diameter": float(diam), "non_convergent": True},
    )


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
    premises of the Cauchy probe hold by construction.
    """
    char = classify_vector(profile, p, v, eps_null=eps_null)
    if char.kind != "timelike" or v.tau0 <= 0.0:
        raise NotCausal("Cauchy sequences run along future timelike geodesics")
    quad = _Quadrature(profile, p, conserved_quantities(profile, p, v))
    cap = min(float(span), quad.bound())
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
