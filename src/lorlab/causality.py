"""Causal relations, light cones, and the Lorentzian distance T(p, q).

For g = -a(t) dt^2 + b(t) dx^2 a causal curve satisfies |dx/dt| <= sqrt(a/b)
pointwise, so two points are causally related exactly when

    |x_q - x_p| <= int_{t_p}^{t_q} sqrt(a(u)/b(u)) du,

with strict inequality for chronological relation.  The signed slack of this
cone inequality is the "margin" reported with every verdict; one rule
(_relation) turns margins into relations for single pairs and for the
matrices of sampled spaces and probes alike.

T(p, q) is computed two ways.  When b == 1 the time reparameterization
tau(t) = int sqrt(a) du flattens the metric to -dtau^2 + dx^2, and T is the
flat interval sqrt(dtau^2 - dx^2).  Otherwise a maximizing geodesic from p
to q is found by shooting on the conserved spatial momentum kappa at
unit-speed normalization.  Each pair is solved reflected, on |dx| with
kappa >= 0, and kappa takes the sign of dx back.  Its gap C - |dx| is the
relation's margin, from the cone map, so the shooting T is positive exactly
where the relation says chronological.  With q = sqrt(kappa^2 + b), the
endpoint residual sum w sqrt(a/b) kappa / q - |dx| is summed as gap - sum w
sqrt(a b) / (q (q + kappa)), positive terms that do not cancel near the null
cone.  It is strictly increasing in kappa and positive at k_hi = sqrt(sum w
sqrt(a b) / gap), so each pair has one root in [0, k_hi] (0 where the
residual at 0 is already positive), solved by Newton on the m = 2 rule.  One
loop then doubles the rule, Newton-corrects kappa once per level and keeps
each pair's g-length once it settles.  On profiles that are not globally
hyperbolic the shooting value is only a lower bound for the supremum over
all causal curves.

Shooting runs on a batch of pairs at once: each pair's Gauss-Legendre rule
is a row of (pairs x nodes) arrays, every gate applies per row to the rows
still active, and every sum over nodes is a row-local numpy reduction
rather than BLAS.  So a pair's T does not depend on the batch it is solved
in: a sampled space's time-separation matrix, a probe's slice scan and a
single lorentzian_distance call agree bit for bit.  A single call is a
batch of one on either route, flat interval or shooting.

Every maximizer, null, reduction or shooting, is sampled by the quadrature
route (geodesics._Quadrature) from p with its exact conserved quantities:
(+-sqrt(a b), 0), (dx / T, -1) and (kappa, -1) respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAChain, NotReducible, QuadratureError, ShootingFailed
from .geodesics import ConservedQuantities, GeodesicPath, _Quadrature
from .profiles import EPS_NULL, MetricProfile, SpacetimePoint, check_eps_null
from .quadrature import QUAD_TOL, _cone_map, _flat_map, _panel_edges, _rule_layout, solve


@dataclass(frozen=True)
class CausalVerdict:
    """Relation of an ordered pair with its signed cone slack."""

    relation: str  # "chronological" | "causal_boundary" | "unrelated"
    margin: float

    @property
    def chronological(self) -> bool:
        return self.relation == "chronological"

    @property
    def causal(self) -> bool:
        return self.relation in ("chronological", "causal_boundary")


@dataclass
class DistanceResult:
    value: float
    maximizer: GeodesicPath | None
    method: str  # "reduction" | "shooting"


# -- shared cumulative maps ---------------------------------------------------


def cone_time(profile: MetricProfile, t: float) -> float:
    """Cumulative cone integral int sqrt(a/b) from the profile anchor.

    The value depends only on the profile and t, never on earlier queries.
    It is in closed form (quadrature.ClosedFormMap) when a and b are each a
    constant or one exponential term (sqrt(a/b) * (t - anchor) for
    constants), otherwise a sum over the profile's anchored panel grid
    (quadrature.AnchoredMap).  When b == 1 this is the flat time map.
    """
    profile.require_inside(t)
    return _cone_map(profile)(t)


def flat_time(profile: MetricProfile, t: float) -> float:
    """Cumulative int sqrt(a) from the profile anchor (the flat time map).

    The value depends only on the profile and t, never on earlier queries.
    It is in closed form (quadrature.ClosedFormMap) when a is a constant or
    one exponential term (sqrt(a) * (t - anchor) for a constant), otherwise
    a sum over the profile's anchored panel grid (quadrature.AnchoredMap).
    """
    profile.require_inside(t)
    return _flat_map(profile)(t)


# -- relations and cones -------------------------------------------------------


def _relation(dcone, dx, dt, eps_null):
    """(margin, chronological, causal) of pairs p -> q from their cone-time,
    space and time differences q - p; floats or arrays alike.

    margin = dcone - |dx|; p << q iff margin > eps_null and dt > 0, and the
    pair is on the null boundary iff |margin| <= eps_null and dt >= 0.
    """
    margin = dcone - abs(dx)
    chron = (margin > eps_null) & (dt > 0.0)
    return margin, chron, chron | ((abs(margin) <= eps_null) & (dt >= 0.0))


def causally_related(
    profile: MetricProfile,
    p: SpacetimePoint,
    q: SpacetimePoint,
    eps_null: float = EPS_NULL,
) -> CausalVerdict:
    """Classify the ordered pair (p, q) by the signed cone slack."""
    check_eps_null(eps_null)
    profile.require_inside(p.t)
    profile.require_inside(q.t)
    cm = _cone_map(profile)
    margin, chron, causal = _relation(cm(q.t) - cm(p.t), q.x - p.x, q.t - p.t, eps_null)
    if chron:
        return CausalVerdict("chronological", margin)
    if causal:
        return CausalVerdict("causal_boundary", margin)
    return CausalVerdict("unrelated", margin)


def cone_boundary(profile: MetricProfile, p: SpacetimePoint, t_grid):
    """Left/right null boundary x values of the cone of p over a t grid.

    The grid must lie entirely in the future (all >= p.t) or entirely in
    the past (all <= p.t) of p.
    """
    profile.require_inside(p.t)
    ts = np.asarray(t_grid, dtype=float)
    for t in ts:
        profile.require_inside(float(t))
    if not ((ts >= p.t).all() or (ts <= p.t).all()):
        raise ValueError("cone grid must be one-sided relative to p.t")
    cm = _cone_map(profile)
    offs = np.abs(cm.many(ts) - cm(p.t))
    return p.x - offs, p.x + offs


def minkowski_reduce(profile: MetricProfile, p: SpacetimePoint) -> tuple[float, float]:
    """Image (tau, x) of p under the flattening map for b == 1 profiles."""
    if not profile.has_unit_b:
        raise NotReducible(
            f"profile {profile.name!r} has b != 1; the flat reduction does not apply"
        )
    profile.require_inside(p.t)
    return flat_time(profile, p.t), p.x


def _flat_interval(dtau, dx, chron):
    """sqrt(dtau^2 - dx^2) where chron holds, else 0, elementwise on arrays
    that numpy broadcasts together.

    Where a square overflows, dtau and dx are scaled by the one power of two
    that brings |dtau| into [0.5, 1), exactly, and the plain form on the
    scaled values gives the finite interval: like the plain form, it does
    not increase with |dx| at fixed dtau.  An infinite dtau gives inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = dtau * dtau - dx * dx
    out = np.sqrt(np.where(chron & (q > 0.0), q, 0.0))
    big = chron & ~np.isfinite(q)
    if big.any():
        dtau, dx = np.broadcast_arrays(dtau, dx)
        d = dtau[big]
        e = np.frexp(d)[1]
        s, y = np.ldexp(d, -e), np.ldexp(dx[big], -e)
        with np.errstate(over="ignore", invalid="ignore"):  # where dtau is inf
            w = s * s - y * y
        flat = np.ldexp(np.sqrt(np.where(w > 0.0, w, 0.0)), e)
        out[big] = np.where(np.isinf(d), math.inf, flat)
    return out


# -- shooting solver -----------------------------------------------------------

MAX_LEVELS = 16        # rule doublings before the shooting length must settle
XTOL = 1e-12           # relative kappa tolerance of a root
BLOCK_PANELS = 1024    # rule panels of the pairs solved together


class _Rules:
    """Shooting integrals of a batch of reflected pairs, one node layout per row.

    Rows hold wl = w sqrt(a b) and b at the nodes, and each pair's gap C -
    |dx|: its margin, the cone slack that the relation computed from the
    cone map.  With q = sqrt(kappa^2 + b), the residual is gap - D(kappa),
    D = sum wl / (q (q + kappa)), the rule's sum of w sqrt(a / b) (1 - kappa
    / q); each term of D falls as kappa >= 0 grows, in floating point too.
    The g-length is sum wl / q.  Each sum runs over one row's nodes (a numpy
    reduction, not BLAS), so a row's values depend only on that row, never
    on the rest of the batch.
    """

    def __init__(self, wl, b, gap):
        self.wl, self.b, self.gap = wl, b, gap

    def take(self, rows):
        return _Rules(self.wl[rows], self.b[rows], self.gap[rows])

    def residual(self, k):
        """The residual of newton alone."""
        k = k[:, None]
        q = np.sqrt(k * k + self.b)
        return self.gap - (self.wl / (q * (q + k))).sum(-1)

    def newton(self, k):
        """Residual and its kappa derivative sum wl / q^3 at one kappa per row."""
        k = k[:, None]
        q = np.sqrt(k * k + self.b)
        return self.gap - (self.wl / (q * (q + k))).sum(-1), (self.wl / (q * q * q)).sum(-1)

    def length(self, k):
        k = k[:, None]
        return (self.wl / np.sqrt(k * k + self.b)).sum(-1)


def _kappa_roots(rules, name):
    """Endpoint-matching kappa >= 0 and g-length of every reflected row.

    The bracket is in closed form: q (q + kappa) > 2 kappa^2 bounds D(kappa)
    < sum wl / (2 kappa^2), so the residual exceeds gap / 2 > 0 at k_hi =
    sqrt(sum wl / gap).  At 0 it is evaluated, gap - sum wl / b, and a row
    where that is already positive (|dx| within the rule's rounding of 0)
    ends at 0.  quadrature.solve takes Newton steps in u = asinh(kappa) on
    [0, asinh k_hi] to XTOL, from the false-position point: at large kappa
    the residual is far less flat in u than in kappa.  A row whose k_hi is
    not finite (a gap that is not positive, or an overflow) has no root and
    raises ShootingFailed; name(i) describes row i's pair.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi = np.sqrt(rules.wl.sum(-1) / rules.gap)
    bad = np.flatnonzero(~(hi < np.inf))
    if len(bad):
        raise ShootingFailed(f"no endpoint-x root for {name(bad[0])}: k_hi is not finite "
                             f"at gap {float(rules.gap[bad[0]])!r}")
    lo = np.zeros(len(hi))
    rlo, rhi = rules.residual(lo), rules.residual(hi)
    start = np.arcsinh(np.clip(hi - rhi * (hi - lo) / (rhi - rlo), lo, hi))
    live = [rules]  # the rules of the rows solve last asked for

    def g(u, rows):
        # solve's live rows only drop, so the same count is the same rows
        if rows.size != live[0].gap.size:
            live[0] = rules.take(rows)
        r, dr = live[0].newton(np.sinh(u))
        return r, dr * np.cosh(u)

    def stuck(i, lo, hi, steps):
        return ShootingFailed(f"kappa of {name(i)} did not converge in {steps} Newton steps")

    k = np.sinh(solve(g, lo, np.arcsinh(hi), np.minimum(rlo, 0.0), rhi, XTOL, stuck, start))
    return k, rules.length(k)


def _shoot_block(profile, edges, dx, gap, name):
    """(kappa, length) of pairs whose node layouts share their panel count.

    Pairs are solved reflected, on their gap C - |dx| with kappa >= 0, and
    kappa takes the sign of dx back (0 when dx = 0).  kappa is solved on
    the m = 2 rule.  Then one loop doubles m, Newton-corrects kappa once on
    the finer rule and accepts a row once its g-length moved by at most
    max(QUAD_TOL, 16e-16 L), the test of quadrature's panel refinement.
    Each level evaluates the profile once, for the rows still active.
    """

    def rules_at(rows, m):
        # the m-point rule of each row, from one evaluation of the profile on
        # the cached node layout; each row keeps its nodes in panel order
        frac, ((_, w, _, _),) = _rule_layout((m,))
        edges_r = edges[rows]
        width = (edges_r[:, 1:] - edges_r[:, :-1])[..., None]
        a, b = profile.coefficients_many(edges_r[:, :-1, None] + width * frac)
        flat = (len(rows), -1)
        wsa = ((0.5 / m) * width * w * np.sqrt(a)).reshape(flat)
        return _Rules(wsa * np.sqrt(b).reshape(flat), b.reshape(flat), gap[rows])

    n = len(dx)
    act = np.arange(n)
    k, ln = _kappa_roots(rules_at(act, 2), name)
    kappa, length = np.empty(n), np.empty(n)
    for level in range(2, MAX_LEVELS):
        fine = rules_at(act, 1 << level)
        res, dres = fine.newton(k)
        k = k - res / dres
        ln, prev = fine.length(k), ln
        ok = np.abs(ln - prev) <= np.maximum(QUAD_TOL, 16e-16 * np.abs(ln))
        kappa[act[ok]], length[act[ok]] = k[ok], ln[ok]
        if np.count_nonzero(ok) == len(ok):
            return np.sign(dx) * kappa, length
        act, k, ln = act[~ok], k[~ok], ln[~ok]
    raise QuadratureError(
        f"shooting length of {name(act[0])} did not stabilize under refinement"
    )


def _shoot(profile, t1, x1, t2, x2, gap):
    """Unit-speed shooting for chronological pairs (t1, x1) -> (t2, x2).

    Takes 1-d arrays, gap holding each pair's margin (_relation), and
    returns (kappa, length) arrays.  A pair's values do not depend on the
    other pairs of the batch.
    """
    n = len(t1)
    breaks = profile.breakpoints
    if breaks:
        # pairs by panel count, so that a block's rows share their length
        groups = {}
        for i, (lo, hi) in enumerate(zip(t1.tolist(), t2.tolist())):
            edges = _panel_edges(lo, hi, breaks)
            groups.setdefault(len(edges), []).append((i, edges))
        layouts = [(np.array([i for i, _ in g]), np.array([e for _, e in g]))
                   for g in groups.values()]
    else:
        edges = np.empty((n, 2))
        edges[:, 0], edges[:, 1] = t1, t2
        layouts = [(np.arange(n), edges)]

    def name(i):
        return (f"pair ({float(t1[i])!r},{float(x1[i])!r}) -> "
                f"({float(t2[i])!r},{float(x2[i])!r})")

    kappa, length = np.empty(n), np.empty(n)
    # a degenerate row may divide by zero or overflow on its way to a
    # bisection step
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for idx, edges in layouts:
            size = max(1, BLOCK_PANELS // (edges.shape[1] - 1))
            for s in range(0, len(idx), size):
                sel = idx[s:s + size]
                kappa[sel], length[sel] = _shoot_block(
                    profile, edges[s:s + size], x2[sel] - x1[sel], gap[sel],
                    lambda j, sel=sel: name(sel[j]),
                )
    return kappa, length


def _separations(profile, t1, x1, t2, x2, dcone, eps_null):
    """(T, chronological, causal) for p = (t1, x1) and q = (t2, x2), each of
    the shape that numpy broadcasts the five input arrays to.

    dcone is the cone-time difference cone_time(t2) - cone_time(t1).  Each
    entry of T equals lorentzian_distance(profile, p, q, with_path=False).value
    bit for bit: 0 off the chronological relation, the flat interval when
    b == 1, and a batched shooting solve on the relation's margin otherwise.
    The relation masks are those of causally_related.  Only the shooting
    route, which picks its pairs by mask, spreads the inputs to that shape;
    elsewhere the arithmetic broadcasts them.
    """
    dx = x2 - x1
    margin, chron, causal = _relation(dcone, dx, t2 - t1, eps_null)
    if profile.has_unit_b:
        return _flat_interval(dcone, dx, chron), chron, causal
    t1, x1, t2, x2, margin = np.broadcast_arrays(t1, x1, t2, x2, margin, chron)[:5]
    out = np.zeros(chron.shape)
    if chron.any():
        out[chron] = _shoot(profile, t1[chron], x1[chron], t2[chron], x2[chron],
                            margin[chron])[1]
    return out, chron, causal


def _sampled_path(profile, p, cons, t_end, n_samples):
    """The geodesic from p with conserved quantities cons, sampled from p.t
    to t_end by the quadrature route.  A t grid needs no inversions: the
    affine parameter is read off the cumulative maps at the nodes."""
    rows = _Quadrature(profile, p, cons).rows(np.linspace(p.t, t_end, n_samples))
    return GeodesicPath(rows, cons, math.inf, False)


def lorentzian_distance(
    profile: MetricProfile,
    p: SpacetimePoint,
    q: SpacetimePoint,
    method: str = "auto",
    with_path: bool = True,
    path_samples: int = 65,
    eps_null: float = EPS_NULL,
) -> DistanceResult:
    """Lorentzian distance T(p, q) with the maximizing geodesic.

    Unrelated pairs have T = 0; null-boundary pairs have T = 0 with a null
    maximizer, kappa = +-sqrt(a b) at p.  For chronological pairs the
    reduction route applies when b == 1 (the flat interval as a batch of
    one, with kappa = dx / T), otherwise shooting on kappa; the value is the
    g-length sqrt(-eps) * delta-s of the connecting geodesic, and the
    maximizer is the quadrature route's geodesic from p with (kappa, -1).
    A value that overflows to inf (a closed-form flat time past the float
    range) comes without a maximizer.  A maximizer is sampled at
    path_samples points, an integer of at least 2.
    """
    check_eps_null(eps_null)
    if not (isinstance(path_samples, (int, np.integer)) and path_samples >= 2):
        raise ValueError(f"path_samples must be an integer of at least 2, got {path_samples!r}")
    if method not in ("auto", "reduction", "shooting"):
        raise ValueError(f"unknown method {method!r}")
    if method == "reduction" and not profile.has_unit_b:
        raise NotReducible(f"profile {profile.name!r} has b != 1")
    verdict = causally_related(profile, p, q, eps_null=eps_null)
    use_reduction = method == "reduction" or (method == "auto" and profile.has_unit_b)
    resolved = "reduction" if use_reduction else "shooting"
    if verdict.relation == "unrelated":
        return DistanceResult(0.0, None, resolved)
    if verdict.relation == "causal_boundary":
        degenerate = abs(q.t - p.t) <= eps_null and abs(q.x - p.x) <= eps_null
        path = None
        if with_path and not degenerate:
            a, b, _, _ = profile.eval(p.t)
            kappa = (1.0 if q.x >= p.x else -1.0) * math.sqrt(a * b)
            path = _sampled_path(profile, p, ConservedQuantities(kappa, 0.0), q.t, path_samples)
        return DistanceResult(0.0, path, resolved)
    if use_reduction:
        fm = _flat_map(profile)
        dtau, dx = np.array([fm(q.t) - fm(p.t)]), np.array([q.x - p.x])
        value = float(_flat_interval(dtau, dx, True)[0])
    else:
        pair = np.array([[p.t], [p.x], [q.t], [q.x], [verdict.margin]])
        kappa, value = (float(v[0]) for v in _shoot(profile, *pair))
    if not (with_path and 0.0 < value < math.inf):
        return DistanceResult(value, None, resolved)
    if use_reduction:
        kappa = (q.x - p.x) / value  # dx / ds at unit speed with b == 1
    path = _sampled_path(profile, p, ConservedQuantities(kappa, -1.0), q.t, path_samples)
    return DistanceResult(value, path, resolved)


# -- chain and polyline lengths --------------------------------------------------


def tau_length_chain(tau_matrix, chain_indices, causal=None) -> float:
    """Infimum over sub-partitions of the chain of summed time separations.

    Dynamic programming over prefixes: L[j] = min_{i<j} L[i] + tau(c_i, c_j),
    with both endpoints always included.  When the causal relation matrix is
    supplied, consecutive chain links are verified against it.  An index
    outside [0, n) of the n points raises NotAChain.
    """
    tau = np.asarray(tau_matrix, dtype=float)
    chain = [int(i) for i in chain_indices]
    if len(chain) < 2:
        raise NotAChain("a chain needs at least two points")
    if not all(0 <= i < len(tau) for i in chain):
        raise NotAChain(f"chain index outside [0, {len(tau)}) in {chain!r}")
    if causal is not None:
        rel = np.asarray(causal, dtype=bool)
        for k in range(len(chain) - 1):
            if not rel[chain[k], chain[k + 1]]:
                raise NotAChain(
                    f"consecutive pair ({chain[k]}, {chain[k + 1]}) is not causally "
                    "related"
                )
    best = [0.0] + [math.inf] * (len(chain) - 1)
    for j in range(1, len(chain)):
        for i in range(j):
            cand = best[i] + tau[chain[i], chain[j]]
            if cand < best[j]:
                best[j] = cand
    return best[-1]


def d_length(points) -> float:
    """Euclidean length of a coordinate polyline (at least two points)."""
    coords = []
    for pt in points:
        if isinstance(pt, SpacetimePoint):
            coords.append((pt.t, pt.x))
        else:
            t, x = pt
            coords.append((float(t), float(x)))
    if len(coords) < 2:
        raise ValueError("a polyline needs at least two points")
    total = 0.0
    for (t1, x1), (t2, x2) in zip(coords[:-1], coords[1:]):
        total += math.hypot(t2 - t1, x2 - x1)
    return total
