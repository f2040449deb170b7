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
unit-speed normalization.  The endpoint x is strictly increasing in kappa:
the residual is sum w sqrt(a/b) kappa / sqrt(kappa^2 + b) - dx over a
rule's nodes, each term has derivative w sqrt(a/b) b / (kappa^2 + b)^{3/2}
> 0, and Gauss weights, panel widths, a and b are all positive.  So every
pair has exactly one root, solved in its bracket by Newton.  On
profiles that are not globally hyperbolic the shooting value is only a
lower bound for the supremum over all causal curves.

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
from .profiles import EPS_NULL, MetricProfile, SpacetimePoint
from .quadrature import (
    QUAD_TOL,
    ROOT_MAX_ITER,
    _cone_map,
    _flat_map,
    _panel_edges,
    _rule_layout,
)


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


def _flat_interval(dtau, dx):
    """sqrt(dtau^2 - dx^2), or 0 off the cone, elementwise on arrays.

    Where a square overflows, the scaled form |dtau| sqrt((1 - r)(1 + r))
    with r = dx / dtau gives the finite interval instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = dtau * dtau - dx * dx
    out = np.sqrt(np.where(q > 0.0, q, 0.0))
    big = ~np.isfinite(q)
    if big.any():
        r = dx[big] / dtau[big]
        w = (1.0 - r) * (1.0 + r)
        out[big] = np.abs(dtau[big]) * np.sqrt(np.where(w > 0.0, w, 0.0))
    return out


# -- shooting solver -----------------------------------------------------------

RULE_LEVELS = 12       # doublings of m for the cone surrogate to converge
REFINEMENTS = 4        # further doublings for the shooting length to settle
XTOL = 1e-12           # relative kappa tolerance of a root
BLOCK_PANELS = 1024    # rule panels of the pairs solved together
EVAL_BUDGET = 1 << 13  # (pair, kappa, node) elements evaluated at once
SWEEP_BLOCK = 4        # bracket sweep magnitudes tried per pass
_SWEEP = 2.0 ** np.arange(64)
_SWEEP_COLS = [np.concatenate([ks, -ks]) for ks in _SWEEP.reshape(-1, SWEEP_BLOCK)]


class _Rules:
    """Shooting integrals of a batch of pairs, one node layout per row.

    Rows hold wc = w sqrt(a / b), wl = w sqrt(a b) and b at the nodes, and
    the target dx.  With q = sqrt(kappa^2 + b), the endpoint-x residual is
    sum wc kappa / q - dx and the g-length is sum wl / q.  Each sum runs over
    one row's nodes (a numpy reduction, not BLAS), so a row's values depend
    only on that row, never on the rest of the batch.
    """

    def __init__(self, wc, wl, b, dx):
        self.wc, self.wl, self.b, self.dx = wc, wl, b, dx

    @classmethod
    def from_nodes(cls, w, a, b, dx):
        """Rows from weights w and a, b at the nodes, and the targets dx."""
        wsa, sb = w * np.sqrt(a), np.sqrt(b)
        return cls(wsa / sb, wsa * sb, b, dx)

    def take(self, rows):
        return _Rules(self.wc[rows], self.wl[rows], self.b[rows], self.dx[rows])

    def endpoint(self, ks):
        """Residual of every row at every kappa of the 1-d array ks."""
        out = np.empty((len(self.dx), len(ks)))
        step = max(1, EVAL_BUDGET // (len(ks) * self.b.shape[1]))
        k = ks[:, None]
        for s in range(0, len(out), step):
            q = np.sqrt(k * k + self.b[s:s + step, None, :])
            out[s:s + step] = (self.wc[s:s + step, None, :] * (k / q)).sum(-1)
        return out - self.dx[:, None]

    def newton(self, k):
        """Residual and its kappa derivative at one kappa per row."""
        k = k[:, None]
        q = np.sqrt(k * k + self.b)
        return (self.wc * (k / q)).sum(-1) - self.dx, (self.wl / (q * q * q)).sum(-1)

    def length(self, k):
        k = k[:, None]
        return (self.wl / np.sqrt(k * k + self.b)).sum(-1)


def _roots(rules, lo, hi, rlo, rhi, name):
    """Root of each row's increasing residual in [lo, hi], where it is
    rlo < 0 at lo and rhi > 0 at hi.

    Newton in u = asinh(kappa) from the false-position point, where the
    residual is far less flat than in kappa at large |kappa|; a step that
    leaves the bracket bisects it in u instead.  A row stops once its u
    step is at most XTOL, a kappa change of at most about XTOL max(1, |kappa|),
    or once a step returns onto a bracket end: at large |kappa| the
    residual's rounding noise can hold Newton in a 2-cycle of wider steps.
    A row still moving after ROOT_MAX_ITER steps raises ShootingFailed;
    name(i) describes row i's pair.
    """
    k = np.clip(hi - rhi * (hi - lo) / (rhi - rlo), lo, hi)
    u, ulo, uhi = np.arcsinh(k), np.arcsinh(lo), np.arcsinh(hi)
    out = np.empty(len(k))
    act = np.arange(len(k))
    for _ in range(ROOT_MAX_ITER):
        r, dr = rules.newton(np.sinh(u))
        right = r > 0.0                      # u lies right of the root
        np.copyto(uhi, u, where=right)
        np.copyto(ulo, u, where=~right)
        nu = u - r / (dr * np.cosh(u))
        inside = (ulo <= nu) & (nu <= uhi)
        if np.count_nonzero(inside) < len(u):
            nu = np.where(inside, nu, 0.5 * (ulo + uhi))
        go = (np.abs(nu - u) > XTOL) & (nu != ulo) & (nu != uhi)
        u = nu
        moving = np.count_nonzero(go)
        if not moving:
            out[act] = np.sinh(u)
            return out
        if moving < len(u):
            out[act[~go]] = np.sinh(u[~go])
            act, rules = act[go], rules.take(go)
            u, ulo, uhi = u[go], ulo[go], uhi[go]
    raise ShootingFailed(
        f"kappa of {name(act[0])} did not converge in {ROOT_MAX_ITER} Newton steps"
    )


def _kappa_roots(rules, name):
    """Endpoint-matching kappa and g-length of every row.

    Every wc is > 0, so each row's residual is strictly increasing in kappa
    and has one root.  The sweep finds each row's least bracket [-2^j, 2^j]
    with a residual < 0 at -2^j and > 0 at 2^j, where Newton solves it to
    XTOL.  The residual tends to +-(cone - |dx|) as kappa -> +-inf, so a
    chronological pair always brackets.  name(i) describes row i's pair in
    errors.
    """
    n = len(rules.dx)
    bound, rlo, rhi = np.empty(n), np.empty(n), np.empty(n)
    todo = np.arange(n)
    for j in range(0, len(_SWEEP), SWEEP_BLOCK):
        sub = rules if j == 0 else rules.take(todo)
        res = sub.endpoint(_SWEEP_COLS[j // SWEEP_BLOCK]).reshape(-1, 2, SWEEP_BLOCK)
        brackets = (res[:, 0] > 0.0) & (res[:, 1] < 0.0)
        hit = np.nonzero(brackets.any(1))[0]
        col = brackets[hit].argmax(1)
        rows = todo[hit]
        bound[rows], rhi[rows], rlo[rows] = _SWEEP[j + col], res[hit, 0, col], res[hit, 1, col]
        todo = np.delete(todo, hit)
        if not len(todo):
            k = _roots(rules, -bound, bound, rlo, rhi, name)
            return k, rules.length(k)
    raise ShootingFailed(
        f"no endpoint-x sign change for {name(todo[0])} within kappa bracket 2^64"
    )


def _shoot_block(profile, edges, dx, name):
    """(kappa, length) of pairs whose node layouts share their panel count.

    One loop doubles m for every pair: first until its cone surrogate
    integral sum w sqrt(a / b) converges, where kappa is solved, then until
    the g-length of the kappa Newton-corrected on the finer rule stops
    moving.  Pairs solved at the same level refine together, and each level
    evaluates the profile once per such cohort and once for the pairs whose
    rule is still converging.
    """
    n = len(dx)

    def rules_at(rows, *ms):
        # the rules at each m in ms, from one evaluation of the profile on
        # the cached node layout of ms; each row keeps its nodes in panel order
        edges_r, dx_r = (edges, dx) if len(rows) == n else (edges[rows], dx[rows])
        frac, cols = _rule_layout(ms)
        width = (edges_r[:, 1:] - edges_r[:, :-1])[..., None]
        a, b = profile.coefficients_many(edges_r[:, :-1, None] + width * frac)
        flat = (len(dx_r), -1)
        return [_Rules.from_nodes(((0.5 / m) * width * w).reshape(flat),
                                  a[..., s:e].reshape(flat), b[..., s:e].reshape(flat), dx_r)
                for m, w, s, e in cols]

    kappa, length = np.empty(n), np.empty(n)
    # rows whose rule has not converged; no row can at m = 1, so that level
    # is evaluated together with m = 2
    todo = np.arange(n)
    coarse, rules = rules_at(todo, 1, 2)
    prev = coarse.wc.sum(-1)
    cohorts = []                     # (rows, kappa, length, level solved at)
    for level in range(1, RULE_LEVELS + REFINEMENTS):
        m = 1 << level
        refining = []
        for rows, k, ln, since in cohorts:
            fine, = rules_at(rows, m)
            res, dres = fine.newton(k)
            k = k - res / dres
            ln, prev_ln = fine.length(k), ln
            ok = np.abs(ln - prev_ln) <= np.maximum(1e-10, 1e-9 * np.abs(ln))
            if np.count_nonzero(ok) == len(ok):
                kappa[rows], length[rows] = k, ln
                continue
            if level - since >= REFINEMENTS:
                raise QuadratureError("shooting length did not stabilize under refinement")
            kappa[rows[ok]], length[rows[ok]] = k[ok], ln[ok]
            refining.append((rows[~ok], k[~ok], ln[~ok], since))
        cohorts = refining
        if len(todo):
            if level > 1:
                rules, = rules_at(todo, m)
            surr = rules.wc.sum(-1)
            conv = np.abs(surr - prev) <= np.maximum(QUAD_TOL, 16e-16 * np.abs(surr))
            done = np.count_nonzero(conv)
            if done:
                rows, sub = (todo, rules) if done == len(todo) else (todo[conv], rules.take(conv))
                cohorts.append((rows, *_kappa_roots(sub, lambda j: name(rows[j])), level))
                todo, surr = todo[~conv], surr[~conv]
            if len(todo) and level == RULE_LEVELS - 1:
                j = todo[0]
                raise QuadratureError(
                    f"node layout on [{float(edges[j, 0])!r}, {float(edges[j, -1])!r}] "
                    "did not converge"
                )
            prev = surr
        if not cohorts and not len(todo):
            return kappa, length
    raise QuadratureError("shooting length did not stabilize under refinement")


def _shoot(profile, t1, x1, t2, x2):
    """Unit-speed shooting for chronological pairs (t1, x1) -> (t2, x2).

    Takes 1-d arrays and returns (kappa, length) arrays.  A pair's values do
    not depend on the other pairs of the batch.
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
                    profile, edges[s:s + size], x2[sel] - x1[sel],
                    lambda j, sel=sel: name(sel[j]),
                )
    return kappa, length


def _separations(profile, t1, x1, t2, x2, dcone, eps_null):
    """(T, chronological, causal) for p = (t1, x1) and q = (t2, x2), arrays
    broadcast together.

    dcone is the cone-time difference cone_time(t2) - cone_time(t1).  Each
    entry of T equals lorentzian_distance(profile, p, q, with_path=False).value
    bit for bit: 0 off the chronological relation, the flat interval when
    b == 1, and a batched shooting solve otherwise.  The relation masks are
    those of causally_related.
    """
    t1, x1, t2, x2, dcone = np.broadcast_arrays(t1, x1, t2, x2, dcone)
    dx = x2 - x1
    _, chron, causal = _relation(dcone, dx, t2 - t1, eps_null)
    out = np.zeros(chron.shape)
    if profile.has_unit_b:
        out[chron] = _flat_interval(dcone[chron], dx[chron])
    elif chron.any():
        out[chron] = _shoot(profile, t1[chron], x1[chron], t2[chron], x2[chron])[1]
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
    range) comes without a maximizer.
    """
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
        value = float(_flat_interval(dtau, dx)[0])
    else:
        pair = np.array([[p.t], [p.x], [q.t], [q.x]])
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
    supplied, consecutive chain links are verified against it.
    """
    tau = np.asarray(tau_matrix, dtype=float)
    chain = [int(i) for i in chain_indices]
    if len(chain) < 2:
        raise NotAChain("a chain needs at least two points")
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
