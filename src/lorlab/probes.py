"""Desk-scale numerical probes of the three completeness conditions.

Finite compactness is probed through the region

    K1 = { x : p << q <= x, T(p, x) <= B },

on slices of constant t; the probe holds when the region's time extent
terminates strictly inside the domain (bounded) at a slice the region
actually attains (closed in domain), which is compactness in the 1+1 chart
by Heine-Borel.  With b == 1 the chart (cone time, x) is Minkowski, so the
region's top time t_top is in closed form: the cone time where the slice
minimum reaches B, inverted with no slice computed; a region with no such
time inside the domain escapes.  Otherwise the slices are marched toward
the domain end and a cap's t_top is rooted.  The verdict needs only t_top
and, for an escape, its witness; probe_finite_compactness also traces a
capped region's slices and boundary, which implication_report and the CLI
do not read, so they take the verdict alone.  The divergence condition is
probed along an inextendible causal geodesic from q: for each supplied
bound B the probe reports the first affine parameter where T(p, gamma(s))
exceeds B, or the supremum of T observed when the geodesic dies first.
Timelike Cauchy completeness is probed on a supplied chronological sequence
with vanishing forward gaps.

Every T comes from the batched pair path, lorentzian_distance bit for bit
(replay_witness alone calls that).  Both marches compute their slices or
points in blocks of 8 (in_blocks; one point per block with b != 1), and the
finite-compactness march (b != 1) and its cap's root read each slice's
minimum from the slice's two ends (_slice_min); the slices are scanned at
every point only in the trace, which is one batch, in k1_slices and in an
escape witness, whose marched slices are one batch.  The level crossings of
all traced slices are the rows of one root search, as are all the
condition-A crossings: each bound is bracketed by the march points either
side of it, and the brackets are solved together once the march ends.

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
from .errors import NotCausal, NotChronological, PremiseViolated, QuadratureError
from .geodesics import INVERT_TOL, ConservedQuantities, _oriented, _Quadrature
from .profiles import EPS_NULL, MetricProfile, SpacetimePoint, TangentVector, classify_vector
from .quadrature import ClosedFormMap, _cone_map, in_blocks, solve, toward_end

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
    of the level set T = B together with the cone edges that lie in K1 (on
    the top slice of a capped region, the edges where its minimum B is
    attained).
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


def _require_chronological(profile, p, q) -> float:
    """The relation's margin of p << q; raises NotChronological elsewhere."""
    verdict = causally_related(profile, p, q)
    if not verdict.chronological:
        raise NotChronological(
            f"probe requires p << q; pair has relation {verdict.relation!r} "
            f"(margin {verdict.margin!r})"
        )
    return verdict.margin


def _tvals(profile, p, ts, xs):
    """T(p, (t, x)) for arrays ts and xs, lorentzian_distance bit for bit."""
    cone = _cone_map(profile)
    return _separations(profile, p.t, p.x, ts, xs, cone.many(ts) - cone(p.t), EPS_NULL)[0]


def _stuck(i, lo, hi, steps):  # a level crossing that solve did not find
    return QuadratureError(f"root on [{lo!r}, {hi!r}] did not converge in {steps} steps")


def _march_blocks(profile, f, points):
    """in_blocks for a probe march: blocks of 8 from the first point, or of 1
    with b != 1, where every T is a shooting solve that costs more the
    farther its point, so that no point past the march's stop is computed."""
    cap = 8 if profile.has_unit_b else 1
    return in_blocks(f, points, cap, cap)


# -- finite compactness --------------------------------------------------------


def _check_nx(nx):
    # one point would be a single cone edge standing for the whole slice
    if not (isinstance(nx, (int, np.integer)) and nx >= 2):
        raise ValueError(f"slice points nx must be an integer of at least 2, got {nx!r}")


def _slice_points(profile, p, q, ts, nx):
    """(xs, Ts) on the cone slices of q at the times ts, one row of nx points
    per slice; a slice at or below q.t is nx copies of q.x.  With nx = 2 the
    rows are each slice's two ends, the floats linspace puts there."""
    ts = np.asarray(ts, dtype=float)
    cone = _cone_map(profile)
    cone_ts = cone.many(ts)
    half = cone_ts - cone(q.t)
    lo, hi = q.x - half, q.x + half
    # one row with a grid step of 0 (at or below q.t, or thinner than an ulp
    # of q.x) makes linspace round every row its own way: such a row is q.x
    wide = (hi - lo) / (nx - 1) > 0.0
    xs = np.full((len(ts), nx), float(q.x))
    ends = lo[wide], hi[wide]
    xs[wide] = np.linspace(*ends, nx, axis=1) if nx > 2 else np.array(ends).T
    dcone = cone_ts - cone(p.t)
    return xs, _separations(profile, p.t, p.x, ts[:, None], xs, dcone[:, None], EPS_NULL)[0]


def _slices(profile, p, q, B, ts, nx):
    """(min_T, keep_lo, keep_hi, xs, Ts) on the cone slices of q at the times
    ts (_slice_points).  A slice keeping no point has nan bounds."""
    xs, Ts = _slice_points(profile, p, q, ts, nx)
    keep = Ts <= B
    kept, rows = keep.any(axis=1), np.arange(len(xs))
    lo = np.where(kept, xs[rows, keep.argmax(axis=1)], math.nan)
    hi = np.where(kept, xs[rows, nx - 1 - keep[:, ::-1].argmax(axis=1)], math.nan)
    return Ts.min(axis=1), lo, hi, xs, Ts


def _slice_min(profile, p, q, ts):
    """The min_T of _slices at any nx >= 2 points, read from each slice's
    two ends.

    At fixed t, T(p, (t, x)) does not increase with |x - p.x|: scaling a
    maximizer's offset from p.x by l <= 1 gives the integrand sqrt(a - b l^2
    x'^2) >= sqrt(a - b x'^2).  The grid is monotone in x, so its largest
    |x - p.x| is at an end.  With b == 1 the rule is exact in floats: at the
    slice's one dtau the margin dtau - |dx| and the flat interval, plain or
    scaled by a power of two where dtau^2 overflows, are rounded monotone
    functions of |dx|.  With b != 1 the rule rests on the premise, which
    held on every sampled slice of the catalog and of kinked profiles."""
    return _slice_points(profile, p, q, ts, 2)[1].min(axis=1)


def k1_slices(profile, p, q, B, ts, nx=65):
    """Keep-interval rows (t, x_keep_lo, x_keep_hi, min_T) for given times,
    each slice scanned at nx >= 2 points.  Like the probe it requires p << q
    and a positive bound B, which may be inf.  A time outside the open
    domain, nan included, raises DomainExceeded."""
    _check_nx(nx)
    if not B > 0.0:
        raise ValueError("bound B must be positive")
    for t in np.asarray(ts, dtype=float).ravel().tolist():
        profile.require_inside(t)
    _require_chronological(profile, p, q)
    min_T, lo, hi, _, _ = _slices(profile, p, q, B, ts, nx)
    return np.column_stack([ts, lo, hi, min_T])


def _cone_top(profile, p, q, tau, step):
    """The time, at least q.t, where the cone time above p, cone(t) -
    cone(p.t), reaches tau; None where it stays below tau to the domain end.

    A closed-form cone map (b == 1) is inverted by the solver of the null
    geodesic from p with (kappa, eps) = (1, 0), whose s map is that form
    re-anchored at p.t: exactly where it grows.  On the profile's shared
    anchored cone map tau is bracketed at the slice march's times,
    toward_end(q.t, t_max, step), and solved by one Newton row of
    quadrature.solve with slope sqrt(a)."""
    cone = _cone_map(profile)
    if isinstance(cone, ClosedFormMap):
        T = _Quadrature(profile, p, ConservedQuantities(1.0, 0.0)).times([tau])
        return max(q.t, float(T[0])) if len(T) else None
    c0 = cone(p.t)

    def above(ts):  # the cone time above p, less tau, at the times ts
        return cone.many(ts) - c0 - tau

    def newton(ts, _):  # its value and slope sqrt(a)
        return above(ts), np.sqrt(profile.coefficients_many(ts)[0])

    # tau is at least q's cone time, but for the rounding of tau_top: the
    # root is then q.t, an end with g = 0
    t_prev, g_prev = q.t, min(cone(q.t) - c0 - tau, 0.0)
    march = toward_end(q.t, profile.t_max, step)
    for t, g_t in in_blocks(lambda ts: above(ts).tolist(), march, 8, 8):
        if g_t > 0.0:
            start = t_prev - g_prev * (t - t_prev) / (g_t - g_prev)  # the secant point
            return float(solve(newton, [t_prev], [t], [g_prev], [g_t], INVERT_TOL, _stuck,
                               [start])[0])
        t_prev, g_prev = t, g_t
    return None


def _judge_compactness(profile, p, q, B, nx=65):
    """The finite-compactness verdict and the region rows it computed.

    With b == 1 the chart (cone time tau above p, x) is Minkowski: a
    slice's minimum is at its end farther from p, min_T^2 = gap (2 tau -
    tau_q + d) with d = |q.x - p.x| and gap = tau_q - d the relation's
    margin, so the region's top is at tau_top = (B^2 / gap + gap) / 2, and
    _cone_top gives t_top with no slice computed; where tau_top overflows
    or lies past the domain end the region escapes.  Otherwise the slices
    are marched toward the domain end on their min_T alone and a cap's
    t_top is rooted.  An escape's witness is read off the march's slices,
    every one passed.  The rows are the escape witness's scanned slices
    when the region escapes, none when it is empty, and None when it is
    capped inside the domain: only probe_finite_compactness traces such a
    region (_trace_region)."""
    _check_nx(nx)
    if not 0.0 < B < math.inf:  # a nan bound would pass every slice and fake an escape
        raise ValueError("bound B must be positive and finite")
    gap = _require_chronological(profile, p, q)
    base_witness = {"p": (p.t, p.x), "q": (q.t, q.x), "bound": float(B)}

    T_pq = float(_tvals(profile, p, np.array([q.t]), np.array([q.x]))[0])
    if T_pq > B:
        witness = dict(base_witness, empty=True, t_top=q.t)
        return ProbeReport("finite_compactness", HOLDS, witness), np.empty((0, 4))

    step = max(1e-2, 1e-2 * B)
    n_march = 40 if math.isfinite(profile.t_max) else 70
    march = islice(toward_end(q.t, profile.t_max, step), n_march)
    if profile.has_unit_b:
        # B^2 / gap rounds once where B^2 is exact, as for the catalog's
        # bounds; B (B / gap), which rounds twice, where B^2 alone overflows
        tau_top = (B * B / gap + gap) / 2.0
        if tau_top == math.inf:
            tau_top = (B * (B / gap) + gap) / 2.0
        t_top = _cone_top(profile, p, q, tau_top, step) if tau_top < math.inf else None
        if t_top is not None:
            witness = dict(base_witness, t_top=t_top)
            return ProbeReport("finite_compactness", HOLDS, witness), None
        marched = list(march)  # the region escapes: every slice of the march is passed
    else:
        # march the slice level toward the domain end until the region
        # empties; the slice at q.t is the single point q, of minimum T(p, q)
        def g(ts, _=None):  # min_T - B on the slices at the times ts
            return _slice_min(profile, p, q, ts) - B

        marched = []  # the times of the slices passed
        t_prev, g_prev = q.t, T_pq - B
        for t, g_t in _march_blocks(profile, lambda ts: g(ts).tolist(), march):
            if g_t > 0.0:
                t_top = float(solve(g, [t_prev], [t], [g_prev], [g_t], 1e-9, _stuck)[0])
                witness = dict(base_witness, t_top=t_top)
                return ProbeReport("finite_compactness", HOLDS, witness), None
            marched.append(t)
            t_prev, g_prev = t, g_t

    # the region runs into the missing boundary: the escape witness is the
    # midline of the surviving part of each slice the march passed, or its
    # first kept point where that part is two bands at the cone edges and
    # the midline lies above B
    ts = np.array(marched)
    min_T, lo, hi, _, _ = _slices(profile, p, q, B, ts, nx)
    mids = 0.5 * (lo + hi)
    T_mids = _tvals(profile, p, ts, mids)
    out = T_mids > B
    if out.any():
        mids[out] = lo[out]
        T_mids[out] = _tvals(profile, p, ts[out], lo[out])
    report = ProbeReport("finite_compactness", FAILS, dict(
        base_witness, escaping_points=list(zip(marched, mids.tolist())),
        escaping_T=T_mids.tolist(), t_boundary=float(profile.t_max)))
    return report, np.column_stack([ts, lo, hi, min_T])


def _trace_region(profile, p, q, B, t_top, nx):
    """The K1Region capped at t_top, traced in one scan of 48 slices: its
    rows, the cone edges each slice keeps (T <= B) and the sample cells
    where T(p, (t, .)) crosses B, listed slice by slice.  The top row is the
    cap: min_T = B, kept at the points where the slice attains its minimum,
    which are the only edges it lists, with no crossings."""
    ts = np.linspace(q.t, t_top, 48)
    min_T, lo, hi, xs, Ts = _slices(profile, p, q, B, ts, nx)
    # the top slice is the cap, whose minimum is B, at one cone edge or both:
    # it keeps those and has no crossings, on either side of the cap in floats
    at_min = Ts[-1] == min_T[-1]
    edge_kept = Ts[:, [0, -1]] <= B
    edge_kept[-1] = at_min[[0, -1]]
    top = xs[-1, at_min]
    min_T[-1], lo[-1], hi[-1] = B, top[0], top[-1]
    r, i = np.nonzero((Ts[:-1, :-1] <= B) != (Ts[:-1, 1:] <= B))
    tr = ts[r]
    roots = solve(lambda x, rows: _tvals(profile, p, tr[rows], x) - B,
                  xs[r, i], xs[r, i + 1], Ts[r, i] - B, Ts[r, i + 1] - B, 1e-9, _stuck)
    k, side = np.nonzero(edge_kept)
    edges = zip(ts[k].tolist(), xs[k, side * (nx - 1)].tolist())
    # a stable sort keeps each slice's crossings ahead of its cone edges
    boundary = sorted([*zip(tr.tolist(), roots.tolist()), *edges], key=lambda pt: pt[0])
    return K1Region(p, q, B, np.column_stack([ts, lo, hi, min_T]), boundary, True, True)


def probe_finite_compactness(
    profile: MetricProfile,
    p: SpacetimePoint,
    q: SpacetimePoint,
    B: float,
    nx: int = 65,
) -> tuple[ProbeReport, K1Region]:
    """Judge the compactness of K1 = {x : p << q <= x, T(p, x) <= B} and
    trace the region; a region capped inside the domain is traced on 48
    slices of nx >= 2 points.  The verdict is the one implication_report
    and the CLI take without the trace."""
    report, rows = _judge_compactness(profile, p, q, B, nx)
    if rows is None:
        return report, _trace_region(profile, p, q, B, report.witness["t_top"], nx)
    return report, K1Region(p, q, B, rows, [], report.holds, report.holds)


# -- condition A ----------------------------------------------------------------


def probe_condition_a(
    profile: MetricProfile,
    p: SpacetimePoint,
    q: SpacetimePoint,
    v: TangentVector,
    B_list,
) -> ProbeReport:
    """Does T(p, gamma(s)) pass every supplied bound along the geodesic from q?

    The geodesic is extended toward its affine bound c; for each B the
    report records the first parameter with T > B, or the supremum of T
    observed when the geodesic dies with T capped below B.
    """
    bounds = sorted({float(B) for B in B_list})
    if not bounds or not all(0.0 < B < math.inf for B in bounds):
        raise ValueError(
            "condition A needs at least one bound, and every bound positive and finite")
    _require_chronological(profile, p, q)
    if v.tau0 <= 0.0:
        raise NotCausal("probe extends future-directed geodesics (tau0 > 0)")
    quad = _oriented(profile, q, v)
    bound = quad.bound()

    # march s toward the affine bound; each bound is bracketed between the
    # last march point below it and the first one above it, and every
    # bracket is a row of one root search once the march ends
    def along(ss):  # t, x and T(p, gamma(s)) at the parameters ss
        ts = quad.times(ss)
        xs = quad._x(ts, ss)
        return ts, xs, _tvals(profile, p, ts, xs)

    T_prev = float(_tvals(profile, p, np.array([q.t]), np.array([q.x]))[0])
    crossings = {B: 0.0 for B in bounds if T_prev > B}
    pending = [B for B in bounds if B not in crossings]
    brackets = []  # (B, s below it, s above it, T - B at each)
    s_prev = 0.0
    tail = deque(maxlen=5)  # the last march points, the witness of a capped T
    march = islice(toward_end(0.0, bound), 45 if math.isfinite(bound) else 90)
    points = _march_blocks(profile, lambda ss: zip(*(v.tolist() for v in along(ss))), march)
    # a block is computed when its first point is asked for: ask for none
    # once every bound is passed
    for s, (t, x, T) in points if pending else ():
        while pending and T > pending[0]:  # pending ascends: a prefix is passed
            B = pending.pop(0)
            brackets.append((B, s_prev, s, T_prev - B, T - B))
        tail.append((s, t, x, T))
        s_prev, T_prev = s, T
        if not pending:
            break
    if brackets:
        passed, *ends = (np.array(c) for c in zip(*brackets))
        roots = solve(lambda u, rows: along(u)[2] - passed[rows], *ends, 1e-10, _stuck)
        crossings.update(zip(passed.tolist(), roots.tolist()))
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
) -> ProbeReport:
    """Judge convergence of a chronological sequence with vanishing gaps.

    The premises (x_n << x_{n+1}, T(x_n, x_{n+m}) <= B_n, B_n non-increasing)
    are verified first; violating them raises PremiseViolated, which flags a
    malformed probe rather than a property of the spacetime, and so does a
    NaN bound, which no comparison passes.  A NaN, negative or infinite tol
    is rejected.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
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
    chron = _relation(cone[1:] - cone[:-1], xs[1:] - xs[:-1], ts[1:] - ts[:-1], EPS_NULL)[1]
    for i in range(len(pts) - 1):
        if not chron[i]:
            raise PremiseViolated(i, f"x_{i} << x_{i + 1} fails")
        if not bounds[i + 1] <= bounds[i]:
            raise PremiseViolated(i, f"B_{i + 1} > B_{i}: gap bounds must shrink")
    ii, jj = np.triu_indices(len(pts), 1)  # every pair i < j, row-major
    gaps = _separations(profile, ts[ii], xs[ii], ts[jj], xs[jj], cone[jj] - cone[ii], EPS_NULL)[0]
    bad = np.flatnonzero(~(gaps <= np.array(bounds)[ii] + 1e-9))
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
):
    """Chronological sequence along a timelike geodesic with geometric gaps.

    Points are gamma(s_k) at s_k = cap (1 - 2^-k) where cap is span clipped
    to the geodesic's affine bound, with gap bounds B_k = 2 cap 2^-k, so the
    premises of the Cauchy probe hold by construction.  The bound is marched
    toward only until s passes span.  A span that is not positive, or whose
    cap is not finite, raises ValueError, as does an n that is not an
    integer of at least 3 (the Cauchy probe needs 3 points).
    """
    if not span > 0.0:
        raise ValueError(f"Cauchy span must be positive, got {span!r}")
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ValueError(f"Cauchy sequence length n must be an integer of at least 3, got {n!r}")
    char = classify_vector(profile, p, v)
    if char.kind != "timelike" or v.tau0 <= 0.0:
        raise NotCausal("Cauchy sequences run along future timelike geodesics")
    quad = _oriented(profile, p, v)
    cap = quad.bound(float(span))
    if not math.isfinite(cap):
        raise ValueError(f"Cauchy span {span!r} is not capped by a finite affine bound")
    ss = list(islice(toward_end(0.0, cap), n))
    T = quad.times(ss)
    pts = [SpacetimePoint(t, x) for t, x in zip(T.tolist(), quad._x(T, ss).tolist())]
    bounds = [math.ldexp(cap, 1 - k) for k in range(1, len(pts) + 1)]  # 2 cap 2^-k
    return pts, bounds


# -- combined report ---------------------------------------------------------------


def implication_report(profile: MetricProfile, config: ProbeConfig) -> ImplicationReport:
    """Run all three probes and check the verdict pattern for consistency.

    For this metric family the three conditions stand or fall together, so
    any mixed verdict pattern indicates a numerical fault and is flagged
    with the implication it breaks.  The finite-compactness report is
    probe_finite_compactness's, taken without tracing the region, which
    no report reads.
    """
    fc, _ = _judge_compactness(profile, config.p, config.q, config.fc_bound)
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


def replay_witness(profile: MetricProfile, report: ProbeReport) -> float:
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
            if not causally_related(profile, q, pt).causal:
                worst = max(worst, 1.0)
            T_new = lorentzian_distance(profile, p, pt, with_path=False).value
            worst = max(worst, abs(T_new - T_claim))
            worst = max(worst, T_new - B)  # every witness point stays under B
        ts = [t for t, _ in w["escaping_points"]]
        # the escape must approach the recorded boundary monotonically: its
        # time rises toward an unbounded end
        tb = w["t_boundary"]
        gaps = [abs(tb - t) if math.isfinite(tb) else -t for t in ts]
        if any(g2 >= g1 for g1, g2 in zip(gaps[:-1], gaps[1:])):
            worst = max(worst, 1.0)
    elif report.condition == "condition_a":
        p = SpacetimePoint(*w["p"])
        for s, t, x, T_claim in w["tail"]:
            T_new = lorentzian_distance(profile, p, SpacetimePoint(t, x), with_path=False).value
            worst = max(worst, abs(T_new - T_claim))
            worst = max(worst, T_new - min(w["missed_bounds"]))
    elif report.condition == "timelike_cauchy":
        if "boundary_distance" in w:
            t_last = w["tail"][-1][0]
            bdist_new = abs(w["boundary_t"] - t_last)
            worst = max(worst, abs(bdist_new - w["boundary_distance"]))
    return worst
