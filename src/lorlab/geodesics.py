"""Causal geodesics of g = -a(t) dt^2 + b(t) dx^2, solved two independent ways.

Route one integrates the second-order geodesic system with fixed-step
classical Runge-Kutta.  Route two uses the two conserved quantities

    kappa = b(t) dx/ds          (spatial momentum),
    eps   = g(gdot, gdot)       (constant squared speed),

which reduce the system to the strictly monotone quadrature

    s(T) = int_{t0}^{T} sqrt(a(u)) / sqrt(kappa^2/b(u) - eps) du,
    x(T) = x0 + int_{t0}^{T} kappa sqrt(a(u)) / (b(u) sqrt(kappa^2/b(u) - eps)) du,

inverted for T by monotone bracketing plus Illinois refinement.  The metric
is only C^1, so the Runge-Kutta error theory is not trusted; every run is
certified a posteriori by conserved-quantity drift and by cross-checking
against the quadrature route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DomainExceeded, Inextendible, NotCausal, QuadratureError, StepTooLarge
from .profiles import (
    EPS_NULL,
    MetricProfile,
    SpacetimePoint,
    TangentVector,
    classify_vector,
)
from .quadrature import CumulativeMap, _shrink_overflow, toward_end

DRIFT_TOL = 1e-6   # allowed conserved-quantity drift per unit affine parameter
INVERT_TOL = 1e-12  # relative tolerance of the quadrature inversion in T


@dataclass(frozen=True)
class ConservedQuantities:
    kappa: float
    epsilon: float


@dataclass(frozen=True)
class InextendibleCertificate:
    """How far a geodesic survives before leaving the domain.

    max_param is the affine-parameter bound; t_boundary the domain edge the
    time coordinate approaches (+-inf when the escape is to an unbounded
    end); x_limit the spatial coordinate observed near the boundary.
    """

    max_param: float
    t_boundary: float
    x_limit: float | None = None


@dataclass
class GeodesicPath:
    """Sampled affinely parameterized solution.

    samples has columns (s, t, x, dt/ds, dx/ds) with s strictly increasing.
    max_param is the affine exit parameter when the run left the domain
    (inextendible=True) and +inf when no exit was observed within the run.
    """

    samples: np.ndarray
    conserved: ConservedQuantities
    max_param: float
    inextendible: bool

    def endpoint(self) -> SpacetimePoint:
        row = self.samples[-1]
        return SpacetimePoint(float(row[1]), float(row[2]))


@dataclass(frozen=True)
class DisplacementRow:
    """One radius of the exponential-map continuity probe."""

    radius: float
    max_displacement: float
    n_causal: int
    n_skipped: int


# -- conserved quantities and the ODE route ----------------------------------


def conserved_quantities(
    profile: MetricProfile, p: SpacetimePoint, v: TangentVector
) -> ConservedQuantities:
    """kappa = b(t0) xi0 and eps = -a(t0) tau0^2 + b(t0) xi0^2."""
    a, b, _, _ = profile.eval(p.t)
    kappa = b * v.xi0
    eps = -a * v.tau0 * v.tau0 + b * v.xi0 * v.xi0
    return ConservedQuantities(kappa, eps)


def ode_rhs(profile: MetricProfile, state) -> tuple[float, float, float, float]:
    """First-order form of the geodesic system at state (t, x, dt/ds, dx/ds)."""
    t, _, td, xd = state
    a, b, da, db = profile.eval(t)
    g000 = da / (2.0 * a)
    g011 = db / (2.0 * a)
    g101 = db / (2.0 * b)
    return (td, xd, -g000 * td * td - g011 * xd * xd, -2.0 * g101 * td * xd)


def _rk4_step(profile, state, h):
    k1 = ode_rhs(profile, state)
    s2 = tuple(y + 0.5 * h * k for y, k in zip(state, k1))
    k2 = ode_rhs(profile, s2)
    s3 = tuple(y + 0.5 * h * k for y, k in zip(state, k2))
    k3 = ode_rhs(profile, s3)
    s4 = tuple(y + h * k for y, k in zip(state, k3))
    k4 = ode_rhs(profile, s4)
    return tuple(
        y + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for y, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def _try_step(profile, state, h):
    try:
        nxt = _rk4_step(profile, state, h)
    except DomainExceeded:
        return None
    if not profile.contains(nxt[0]):
        return None
    return nxt


def integrate_geodesic(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_max: float,
    step: float,
    drift_tol: float = DRIFT_TOL,
) -> GeodesicPath:
    """Fixed-step RK4 until s_max or domain exit.

    A domain exit is located by bisecting the final step and converts to
    inextendible=True with max_param set to the exit parameter; it is never
    raised.  Conserved-quantity drift beyond 1000 * drift_tol * (1 + s)
    raises StepTooLarge, the signal that the merely continuous right-hand
    side needs a smaller step.
    """
    profile.require_inside(p.t)
    if v.tau0 == 0.0 and v.xi0 == 0.0:
        raise NotCausal("zero initial velocity")
    if step <= 0.0 or s_max <= 0.0:
        raise ValueError("step and s_max must be positive")
    cons = conserved_quantities(profile, p, v)
    hard_limit = 1000.0 * drift_tol

    def check_drift(state, s):
        a, b, _, _ = profile.eval(state[0])
        kappa = b * state[3]
        eps = -a * state[2] * state[2] + b * state[3] * state[3]
        budget = hard_limit * (1.0 + s)
        if abs(kappa - cons.kappa) > budget or abs(eps - cons.epsilon) > budget:
            raise StepTooLarge(
                f"conserved-quantity drift exceeded {budget!r} at s={s!r}; "
                "reduce the step"
            )

    rows = [(0.0, p.t, p.x, v.tau0, v.xi0)]
    state = (p.t, p.x, v.tau0, v.xi0)
    s = 0.0
    inext = False
    max_param = math.inf
    while s < s_max - 1e-15 * max(1.0, s_max):
        h = min(step, s_max - s)
        nxt = _try_step(profile, state, h)
        if nxt is None:
            lo, hi = 0.0, h
            good = None
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                trial = _try_step(profile, state, mid)
                if trial is None:
                    hi = mid
                else:
                    lo, good = mid, trial
                if hi - lo <= 1e-14 * max(1.0, step):
                    break
            if good is not None and lo > 0.0:
                s += lo
                state = good
                rows.append((s, *state))
                check_drift(state, s)
            inext = True
            max_param = s
            break
        s += h
        state = nxt
        rows.append((s, *state))
        check_drift(state, s)
    return GeodesicPath(np.asarray(rows, dtype=float), cons, max_param, inext)


def _advance_fixed(profile, p, v, s_total, h):
    """Endpoint of the RK4 route at exactly s_total (full steps + remainder)."""
    state = (p.t, p.x, v.tau0, v.xi0)
    n = int(math.floor(s_total / h + 1e-12))
    for _ in range(n):
        state = _rk4_step(profile, state, h)
    rem = s_total - n * h
    if rem > 1e-15 * max(1.0, s_total):
        state = _rk4_step(profile, state, rem)
    return state


# -- quadrature route ---------------------------------------------------------


class _Quadrature:
    """Conserved-quantity solver for future-directed causal data (tau0 > 0)."""

    def __init__(self, profile: MetricProfile, p: SpacetimePoint, v: TangentVector):
        profile.require_inside(p.t)
        self.profile = profile
        self.t0 = p.t
        self.x0 = p.x
        cons = conserved_quantities(profile, p, v)
        self.kappa = cons.kappa
        self.eps = cons.epsilon

        kappa, eps = self.kappa, self.eps

        def f_s(u):
            a, b, _, _ = profile.eval_many(u)
            return np.sqrt(a / (kappa * kappa / b - eps))

        def f_x(u):
            a, b, _, _ = profile.eval_many(u)
            return kappa * np.sqrt(a) / (b * np.sqrt(kappa * kappa / b - eps))

        breaks = profile.breakpoints
        self._s = CumulativeMap(f_s, self.t0, breaks=breaks)
        self._x = CumulativeMap(f_x, self.t0, breaks=breaks)

    def s_of(self, T: float) -> float:
        return self._s(T)

    def _march(self, target):
        """('bracket', lo, hi, s_lo, s_hi) once s passes target, else ('bound', total).

        The affine integral is strictly increasing in T, so marching the
        time coordinate toward the domain end either brackets the target or
        converges to the total affine length available.
        """
        tmax = self.profile.t_max
        finite = math.isfinite(tmax)

        def stall_gate(sT):
            return max(1e-13, 1e-12 * abs(sT))

        lo, slo = self.t0, 0.0
        stall = 0
        for T in islice(toward_end(self.t0, tmax), 49 if finite else 75):
            sT = self._s(T)
            if not math.isfinite(sT):
                # the affine integral overflowed: there is no finite bound,
                # and a target lies before T
                if target is None:
                    return ("bound", math.inf)
                return ("bracket", lo, T, slo, sT)
            gain = sT - slo
            # a saturating integral can touch the target exactly in floats;
            # only healthy progress past the target counts as a bracket
            if target is not None and (
                sT > target or (sT == target and gain > stall_gate(sT))
            ):
                return ("bracket", lo, T, slo, sT)
            if gain < stall_gate(sT):
                stall += 1
                # an unbounded march waits one step longer: the affine
                # length can converge although t escapes to infinity
                if stall >= (2 if finite else 3):
                    return ("bound", sT)
            else:
                stall = 0
            lo, slo = T, sT
        if finite:
            return ("bound", slo)
        if target is None:
            return ("bound", math.inf)
        raise QuadratureError("affine target not bracketed while doubling T")

    def _certificate(self, total):
        tmax = self.profile.t_max
        # the march point 2^-45 of the span short of a finite end, or 2^40
        # past t0 toward an unbounded one
        *_, t_near = islice(toward_end(self.t0, tmax), 45 if math.isfinite(tmax) else 41)
        try:
            x_lim = self.x0 + self._x(t_near)
            if not math.isfinite(x_lim):
                x_lim = None
        except (DomainExceeded, QuadratureError):
            x_lim = None
        return InextendibleCertificate(total, tmax, x_lim)

    def _f_scalar(self, T: float) -> float:
        a, b, _, _ = self.profile.eval(T)
        return math.sqrt(a / (self.kappa * self.kappa / b - self.eps))

    def t_of(self, s: float) -> float:
        if s == 0.0:
            return self.t0
        if s < 0.0:
            raise ValueError("affine parameter must be non-negative")
        kind, *rest = self._march(s)
        if kind == "bound":
            raise Inextendible(self._certificate(rest[0]))
        lo, hi, slo, shi = _shrink_overflow(self._s, *rest, level=s)
        # safeguarded Newton: the integrand is the exact derivative of s(T)
        T = lo + (s - slo) * (hi - lo) / (shi - slo)
        for _ in range(100):
            if not lo < T < hi:
                T = 0.5 * (lo + hi)
            sT = self._s(T)
            err = sT - s
            fT = self._f_scalar(T)
            if abs(err) <= fT * INVERT_TOL * max(1.0, abs(T)):
                return T - err / fT
            if err < 0.0:
                lo = T
            else:
                hi = T
            if hi - lo <= INVERT_TOL * max(1.0, abs(lo), abs(hi)):
                return 0.5 * (lo + hi)
            T = T - err / fT
        return 0.5 * (lo + hi)

    def point_at(self, s: float) -> SpacetimePoint:
        T = self.t_of(s)
        return SpacetimePoint(T, self.x0 + self._x(T))

    def state_at(self, s: float):
        """(t, x, dt/ds, dx/ds) at affine parameter s."""
        T = self.t_of(s)
        a, b, _, _ = self.profile.eval(T)
        td = math.sqrt((self.kappa * self.kappa / b - self.eps) / a)
        return (T, self.x0 + self._x(T), td, self.kappa / b)

    def bound(self) -> float:
        """Affine length available before the domain boundary (may be inf)."""
        kind, total = self._march(None)
        return total


def _require_future_causal(profile, p, v, eps_null):
    char = classify_vector(profile, p, v, eps_null=eps_null)
    if not char.is_causal:
        raise NotCausal(f"vector {v} is {char.kind}, need timelike or null")
    if v.tau0 <= 0.0:
        raise NotCausal(
            "quadrature route requires future-directed data (tau0 > 0); "
            "past-directed vectors are handled by time reflection"
        )


def quadrature_advance(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_target: float,
    eps_null: float = EPS_NULL,
) -> SpacetimePoint:
    """Advance the causal geodesic from (p, v) to affine parameter s_target.

    Raises Inextendible with a boundary-limit certificate when the affine
    length available before the domain boundary is below s_target.
    """
    _require_future_causal(profile, p, v, eps_null)
    return _Quadrature(profile, p, v).point_at(s_target)


def _reflect(profile, p, v):
    return (
        profile.reflected(),
        SpacetimePoint(-p.t, p.x),
        TangentVector(-v.tau0, v.xi0),
    )


def causal_exp(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    eps_null: float = EPS_NULL,
):
    """Point reached at affine parameter 1, or the inextendibility certificate.

    Accepts future- and past-directed causal vectors; past-directed data is
    solved in the time-reflected profile a~(t) = a(-t) and mapped back.
    """
    char = classify_vector(profile, p, v, eps_null=eps_null)
    if not char.is_causal:
        raise NotCausal(f"vector {v} is {char.kind}, need timelike or null")
    if v.tau0 > 0.0:
        try:
            return quadrature_advance(profile, p, v, 1.0, eps_null=eps_null)
        except Inextendible as exc:
            return exc.certificate
    rprof, rp, rv = _reflect(profile, p, v)
    try:
        out = quadrature_advance(rprof, rp, rv, 1.0, eps_null=eps_null)
    except Inextendible as exc:
        cert = exc.certificate
        return InextendibleCertificate(cert.max_param, -cert.t_boundary, cert.x_limit)
    return SpacetimePoint(-out.t, out.x)


def affine_bound(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    eps_null: float = EPS_NULL,
) -> float:
    """Affine length available to the causal geodesic before the domain ends."""
    char = classify_vector(profile, p, v, eps_null=eps_null)
    if not char.is_causal:
        raise NotCausal(f"vector {v} is {char.kind}, need timelike or null")
    if v.tau0 > 0.0:
        return _Quadrature(profile, p, v).bound()
    rprof, rp, rv = _reflect(profile, p, v)
    return _Quadrature(rprof, rp, rv).bound()


def exp_continuity_probe(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    radii,
    eps_null: float = EPS_NULL,
) -> list[DisplacementRow]:
    """Worst displacement of the exponential map under velocity perturbations.

    For each radius r, 32 vectors at Euclidean distance r from v are tried;
    non-causal perturbations and perturbations whose geodesic no longer
    survives to parameter 1 are skipped and counted.
    """
    base = causal_exp(profile, p, v, eps_null=eps_null)
    if isinstance(base, InextendibleCertificate):
        raise Inextendible(base)
    rows = []
    for r in radii:
        worst = 0.0
        used = 0
        skipped = 0
        for k in range(32):
            ang = 2.0 * math.pi * k / 32.0
            vp = TangentVector(v.tau0 + r * math.cos(ang), v.xi0 + r * math.sin(ang))
            char = classify_vector(profile, p, vp, eps_null=eps_null)
            if not char.is_causal:
                skipped += 1
                continue
            out = causal_exp(profile, p, vp, eps_null=eps_null)
            if isinstance(out, InextendibleCertificate):
                skipped += 1
                continue
            used += 1
            worst = max(worst, math.hypot(out.t - base.t, out.x - base.x))
        rows.append(DisplacementRow(float(r), worst, used, skipped))
    return rows


def uniqueness_witness(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    steps: tuple[float, float] = (1e-2, 1e-3),
    s_max: float = 1.0,
    n_checks: int = 10,
) -> float:
    """Maximum three-way gap between two RK4 runs and the quadrature route.

    The three solvers are compared at n_checks shared affine parameters up
    to s_max; a small gap certifies that all of them found the one solution
    the conserved-quantity reduction admits for tau0 != 0.
    """
    if v.tau0 == 0.0:
        raise NotCausal("uniqueness witness requires tau0 != 0")
    if v.tau0 < 0.0:
        profile, p, v = _reflect(profile, p, v)
    quad = _Quadrature(profile, p, v)
    gap = 0.0
    for i in range(1, n_checks + 1):
        s_i = s_max * i / n_checks
        ref = quad.point_at(s_i)
        pts = [(ref.t, ref.x)]
        for h in steps:
            st = _advance_fixed(profile, p, v, s_i, h)
            pts.append((st[0], st[1]))
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                gap = max(
                    gap,
                    math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1]),
                )
    return gap


def geodesic_states(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_values,
    eps_null: float = EPS_NULL,
):
    """Quadrature-route states (t, x, dt/ds, dx/ds) at each affine parameter.

    Stops early (returning the surviving prefix) when the geodesic leaves
    the domain between requested parameters.
    """
    _require_future_causal(profile, p, v, eps_null)
    quad = _Quadrature(profile, p, v)
    out = []
    for s in s_values:
        try:
            out.append((float(s),) + quad.state_at(float(s)))
        except Inextendible:
            break
    return out
