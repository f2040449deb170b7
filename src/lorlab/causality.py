"""Causal relations, light cones, and the Lorentzian distance T(p, q).

For g = -a(t) dt^2 + b(t) dx^2 a causal curve satisfies |dx/dt| <= sqrt(a/b)
pointwise, so two points are causally related exactly when

    |x_q - x_p| <= int_{t_p}^{t_q} sqrt(a(u)/b(u)) du,

with strict inequality for chronological relation.  The signed slack of this
cone inequality is the "margin" reported with every verdict.

T(p, q) is computed two ways.  When b == 1 the time reparameterization
tau(t) = int sqrt(a) du flattens the metric to -dtau^2 + dx^2, and T is the
flat interval sqrt(dtau^2 - dx^2).  Otherwise a maximizing geodesic from p
to q is found by shooting on the conserved spatial momentum kappa at
unit-speed normalization; the endpoint x is strictly increasing in kappa
for this metric family, but a single sign change is still verified and a
dense scan with max-length root selection is used as a fallback.  On
profiles that are not globally hyperbolic the shooting value is only a
lower bound for the supremum over all causal curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAChain, NotReducible, QuadratureError, ShootingFailed
from .geodesics import ConservedQuantities, GeodesicPath, _Quadrature
from .profiles import (
    EPS_NULL,
    MetricProfile,
    SpacetimePoint,
    TangentVector,
    constant_value,
)
from .quadrature import (
    QUAD_TOL,
    AnchoredMap,
    ClosedFormMap,
    bracketed_root,
    panel_rule,
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


def _exp_form(terms):
    """(c, lam) when a coefficient is c * exp(lam t) (lam = 0 for constants)."""
    c = constant_value(terms)
    if c is not None:
        return c, 0.0
    if len(terms) == 1 and terms[0].kind == "exp":
        return terms[0].c, terms[0].lam
    return None


def _store_map(profile: MetricProfile, key: str, form, f):
    """Closed form for an integrand k exp(r t), form = (k, r); else anchored."""
    anchor = profile.anchor_time()
    if form is not None:
        m = ClosedFormMap(*form, anchor)
    else:
        m = AnchoredMap(f, anchor, breaks=profile.breakpoints,
                        domain=(profile.t_min, profile.t_max))
    return profile._maps.setdefault(key, m)


def _cone_map(profile: MetricProfile):
    m = profile._maps.get("cone")
    if m is None and profile.has_unit_b:
        # b is exactly 1.0, so sqrt(a / b) is sqrt(a) bit for bit
        m = profile._maps.setdefault("cone", _flat_map(profile))
    if m is None:
        ea, eb = _exp_form(profile.terms_a), _exp_form(profile.terms_b)
        form = None
        if ea is not None and eb is not None:
            # sqrt(ca e^(la t) / (cb e^(lb t))) = sqrt(ca / cb) e^((la - lb) t / 2)
            form = (math.sqrt(ea[0] / eb[0]), 0.5 * (ea[1] - eb[1]))

        def f(u):
            a, b, _, _ = profile.eval_many(u)
            return np.sqrt(a / b)

        m = _store_map(profile, "cone", form, f)
    return m


def _flat_map(profile: MetricProfile):
    m = profile._maps.get("flat")
    if m is None:
        ea = _exp_form(profile.terms_a)
        form = None if ea is None else (math.sqrt(ea[0]), 0.5 * ea[1])

        def f(u):
            a, _, _, _ = profile.eval_many(u)
            return np.sqrt(a)

        m = _store_map(profile, "flat", form, f)
    return m


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
    margin = (cm(q.t) - cm(p.t)) - abs(q.x - p.x)
    if margin > eps_null and q.t > p.t:
        return CausalVerdict("chronological", margin)
    if abs(margin) <= eps_null and q.t >= p.t:
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
    """sqrt(dtau^2 - dx^2), or 0 off the cone; elementwise on arrays.

    Floats take math.sqrt, which is far cheaper than numpy on a scalar;
    both square roots are correctly rounded, so the two paths agree.
    """
    q = dtau * dtau - dx * dx
    if isinstance(q, float):
        return math.sqrt(q) if q > 0.0 else 0.0
    return np.sqrt(np.where(q > 0.0, q, 0.0))


# -- shooting solver -----------------------------------------------------------


def _converged_rule(profile, t1, t2):
    """Fixed node layout on [t1, t2] whose cone surrogate integral converged."""
    m = 1
    prev = None
    for _ in range(12):
        xs, w = panel_rule(t1, t2, breaks=profile.breakpoints, m=m)
        a, b, _, _ = profile.eval_many(xs)
        surr = float(w @ np.sqrt(a / b))
        if prev is not None and abs(surr - prev) <= max(QUAD_TOL, 16e-16 * abs(surr)):
            return xs, w, a, b, m
        prev = surr
        m *= 2
    raise QuadratureError(f"node layout on [{t1!r}, {t2!r}] did not converge")


class _ShootRule:
    """Endpoint residual, its kappa derivative, and the g-length on one rule."""

    def __init__(self, w, a, b, dx_target):
        self.w = w
        self.sqa = np.sqrt(a)
        self.b = b
        self.dx = dx_target

    def endpoint_many(self, kappas):
        k = np.asarray(kappas, dtype=float)[:, None]
        # integrand kappa sqrt(a) / sqrt(b kappa^2 + b^2)
        integ = k * self.sqa / np.sqrt(self.b * k * k + self.b * self.b)
        return integ @ self.w - self.dx

    def residual(self, kappa):
        return float(self.endpoint_many([kappa])[0])

    def dresidual(self, kappa):
        core = self.b * kappa * kappa + self.b * self.b
        return float(self.w @ (self.sqa * self.b * self.b * core ** -1.5))

    def length(self, kappa):
        return float(self.w @ (self.sqa / np.sqrt(kappa * kappa / self.b + 1.0)))


def _solve_kappa(rule, p, q):
    """Root of the endpoint-x residual on a fixed rule; returns (kappa, length)."""
    # geometric two-sided sweep: the residual tends to +-(cone - |dx|) as
    # kappa -> +-inf, so a chronological pair always brackets
    ks = 2.0 ** np.arange(0, 64, dtype=float)
    res_pos = rule.endpoint_many(ks)
    res_neg = rule.endpoint_many(-ks)
    up = np.nonzero(res_pos > 0.0)[0]
    dn = np.nonzero(res_neg < 0.0)[0]
    if not len(up) or not len(dn):
        raise ShootingFailed(
            f"no endpoint-x sign change for pair ({p.t!r},{p.x!r}) -> "
            f"({q.t!r},{q.x!r}) within kappa bracket 2^64"
        )
    bracket = float(max(ks[up[0]], ks[dn[0]]))

    grid = np.linspace(-bracket, bracket, 33)
    res = rule.endpoint_many(grid)
    sign = np.sign(res)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = np.nonzero(sign == 0)[0]
    if len(flips) + len(exact) != 1:
        # multiple candidate roots: dense scan, keep the longest maximizer
        # (ties broken toward smaller kappa)
        grid = np.linspace(-bracket, bracket, 1025)
        res = rule.endpoint_many(grid)
        sign = np.sign(res)
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        roots = [float(grid[i]) for i in np.nonzero(sign == 0)[0]]
        for i in flips:
            roots.append(
                bracketed_root(
                    rule.residual, float(grid[i]), float(grid[i + 1]),
                    glo=float(res[i]), ghi=float(res[i + 1]), xtol=1e-12,
                )
            )
        if not roots:
            raise ShootingFailed("scan at resolution 2^10 found no sign change")
        best = min(roots, key=lambda k: (-rule.length(k), k))
        return best, rule.length(best)
    if len(exact) == 1:
        k0 = float(grid[exact[0]])
        return k0, rule.length(k0)
    i = flips[0]
    k0 = bracketed_root(
        rule.residual, float(grid[i]), float(grid[i + 1]),
        glo=float(res[i]), ghi=float(res[i + 1]), xtol=1e-12,
    )
    return k0, rule.length(k0)


def _shoot(profile, p, q):
    """Unit-speed shooting for chronological pairs; returns (kappa, length)."""
    xs, w, a, b, m = _converged_rule(profile, p.t, q.t)
    dx_target = q.x - p.x
    rule = _ShootRule(w, a, b, dx_target)
    kappa, length = _solve_kappa(rule, p, q)
    for _ in range(4):
        # one refinement level: Newton-correct the root there and accept once
        # the g-length stops moving
        xs2, w2 = panel_rule(p.t, q.t, breaks=profile.breakpoints, m=2 * m)
        a2, b2, _, _ = profile.eval_many(xs2)
        fine = _ShootRule(w2, a2, b2, dx_target)
        kappa2 = kappa - fine.residual(kappa) / fine.dresidual(kappa)
        length2 = fine.length(kappa2)
        if abs(length2 - length) <= max(1e-10, 1e-9 * abs(length2)):
            return kappa2, length2
        m *= 2
        rule, kappa, length = fine, kappa2, length2
    raise QuadratureError("shooting length did not stabilize under refinement")


def _sampled_path(profile, p, v, t_end, n_samples, conserved):
    # sampling on a t grid needs no quadrature inversions: the affine
    # parameter is read off the cumulative map at each node
    quad = _Quadrature(profile, p, v)
    rows = []
    for t in np.linspace(p.t, t_end, n_samples):
        t = float(t)
        a, b, _, _ = profile.eval(t)
        td = math.sqrt((quad.kappa * quad.kappa / b - quad.eps) / a)
        rows.append(
            (quad.s_of(t), t, p.x + quad._x(t), td, quad.kappa / b)
        )
    return GeodesicPath(np.asarray(rows, dtype=float), conserved, math.inf, False)


def _null_path(profile, p, q, n_samples):
    a, b, _, _ = profile.eval(p.t)
    dxsgn = 1.0 if q.x >= p.x else -1.0
    v = TangentVector(1.0, dxsgn * math.sqrt(a / b))
    cons = ConservedQuantities(b * v.xi0, 0.0)
    return _sampled_path(profile, p, v, q.t, n_samples, cons)


def _reduction_path(profile, p, q, value, n_samples):
    fm = _flat_map(profile)
    tau_p, tau_q = fm(p.t), fm(q.t)
    dtau, dx = tau_q - tau_p, q.x - p.x
    kappa = dx / value
    rows = []
    for t in np.linspace(p.t, q.t, n_samples):
        t = float(t)
        sigma = (fm(t) - tau_p) * value / dtau
        a, _, _, _ = profile.eval(t)
        rows.append((sigma, t, p.x + sigma * dx / value,
                     (dtau / value) / math.sqrt(a), kappa))
    return GeodesicPath(
        np.asarray(rows, dtype=float),
        ConservedQuantities(kappa, -1.0),
        math.inf,
        False,
    )


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
    maximizer.  For chronological pairs the reduction route applies when
    b == 1, otherwise shooting on kappa; the value is the g-length
    sqrt(-eps) * delta-s of the connecting geodesic.
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
            path = _null_path(profile, p, q, path_samples)
        return DistanceResult(0.0, path, resolved)
    if use_reduction:
        fm = _flat_map(profile)
        value = _flat_interval(fm(q.t) - fm(p.t), q.x - p.x)
        path = _reduction_path(profile, p, q, value, path_samples) if with_path else None
        return DistanceResult(value, path, "reduction")
    kappa, value = _shoot(profile, p, q)
    path = None
    if with_path:
        a, b, _, _ = profile.eval(p.t)
        v = TangentVector(math.sqrt((kappa * kappa / b + 1.0) / a), kappa / b)
        path = _sampled_path(
            profile, p, v, q.t, path_samples, ConservedQuantities(kappa, -1.0)
        )
    return DistanceResult(value, path, "shooting")


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
