"""Causal geodesics of g = -a(t) dt^2 + b(t) dx^2, solved two independent ways.

Route one integrates the second-order geodesic system with fixed-step
classical Runge-Kutta.  One fused step unrolls the four stages on plain
floats and evaluates the profile through its generated scalar evaluator
(MetricProfile.geodesic_rhs), bitwise the same arithmetic as ode_rhs, the
documented reference form.  The drift check's evaluation at each new state
is the next step's first stage, so a step costs four evaluations.  Route
two uses the two conserved quantities

    kappa = b(t) dx/ds          (spatial momentum),
    eps   = g(gdot, gdot)       (constant squared speed),

which reduce the system to the strictly monotone quadrature

    s(T) = int_{t0}^{T} sqrt(a(u)) / sqrt(kappa^2/b(u) - eps) du,
    x(T) = x0 + int_{t0}^{T} kappa sqrt(a(u)) / (b(u) sqrt(kappa^2/b(u) - eps)) du,

inverted for T in one batch: one sorted search over a march of T toward
the domain end brackets every s, then safeguarded Newton runs on every
unconverged s at once.  A finite end is the march's last point, so the
affine bound there is s(t_max).  Past-directed data is solved in the
time-reflected profile.  The metric is only C^1, so the Runge-Kutta error
theory is not trusted; every run is certified a posteriori by
conserved-quantity drift and by cross-checking against the quadrature route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import DomainExceeded, Inextendible, NotCausal, QuadratureError, StepTooLarge
from .profiles import (
    EPS_NULL,
    MetricProfile,
    SpacetimePoint,
    TangentVector,
    classify_vector,
)
from .quadrature import ROOT_MAX_ITER, AnchoredMap, ClosedFormMap, _flat_map, in_blocks, toward_end

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
    end); x_limit the spatial coordinate at a finite edge, or 2^40 past the
    start toward an unbounded one (None where it is not finite).
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
    drift_max is the worst |kappa - kappa0| and |eps - eps0| over the samples
    of an RK4 run, as its drift check computed them; None for paths sampled
    from the quadrature route, whose conserved quantities are exact.
    """

    samples: np.ndarray
    conserved: ConservedQuantities
    max_param: float
    inextendible: bool
    drift_max: float | None = None

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
    """First-order form of the geodesic system at state (t, x, dt/ds, dx/ds).

    The reference form of the RK4 route's right-hand side: the route itself
    calls profile.geodesic_rhs, whose accelerations equal these bit for bit.
    """
    t, _, td, xd = state
    a, b, da, db = profile.eval(t)
    g000 = da / (2.0 * a)
    g011 = db / (2.0 * a)
    g101 = db / (2.0 * b)
    return (td, xd, -g000 * td * td - g011 * xd * xd, -2.0 * g101 * td * xd)


def _rk4(rhs, state, k1, h):
    """One classical RK4 step of h from state = (t, x, dt/ds, dx/ds).

    k1 is rhs at state, which the caller has: the four stages are unrolled
    on plain floats, and only the fourth-order update needs x.  The
    arithmetic is that of four ode_rhs stages, operation for operation.
    """
    t, x, td, xd = state
    at1, ax1, _, _ = k1
    hh = 0.5 * h
    td2, xd2 = td + hh * at1, xd + hh * ax1
    at2, ax2, _, _ = rhs(t + hh * td, td2, xd2)
    td3, xd3 = td + hh * at2, xd + hh * ax2
    at3, ax3, _, _ = rhs(t + hh * td2, td3, xd3)
    td4, xd4 = td + h * at3, xd + h * ax3
    at4, ax4, _, _ = rhs(t + h * td3, td4, xd4)
    h6 = h / 6.0
    return (
        t + h6 * (td + 2.0 * td2 + 2.0 * td3 + td4),
        x + h6 * (xd + 2.0 * xd2 + 2.0 * xd3 + xd4),
        td + h6 * (at1 + 2.0 * at2 + 2.0 * at3 + at4),
        xd + h6 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
    )


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
    side needs a smaller step.  The drift check evaluates the profile at
    each new state, and that evaluation is the next step's k1, so a step
    costs four evaluations.
    """
    profile.require_inside(p.t)
    if v.tau0 == 0.0 and v.xi0 == 0.0:
        raise NotCausal("zero initial velocity")
    if step <= 0.0 or s_max <= 0.0:
        raise ValueError("step and s_max must be positive")
    cons = conserved_quantities(profile, p, v)
    hard_limit = 1000.0 * drift_tol
    kappa0, eps0 = cons.kappa, cons.epsilon
    rhs, t_min, t_max = profile.geodesic_rhs, profile.t_min, profile.t_max
    worst = 0.0

    def checked(state, s):
        """rhs at state, once its conserved-quantity drift is in budget."""
        nonlocal worst
        t, _, td, xd = state
        k = rhs(t, td, xd)
        a, b = k[2], k[3]
        dk = abs(b * xd - kappa0)
        de = abs(-a * td * td + b * xd * xd - eps0)
        budget = hard_limit * (1.0 + s)
        if dk > budget or de > budget:
            raise StepTooLarge(
                f"conserved-quantity drift exceeded {budget!r} at s={s!r}; "
                "reduce the step"
            )
        worst = max(worst, dk, de)
        return k

    def inside_step(state, k1, h):
        """The step, or None when a stage or its end leaves the domain."""
        try:
            nxt = _rk4(rhs, state, k1, h)
        except DomainExceeded:
            return None
        return nxt if t_min < nxt[0] < t_max else None

    rows = [(0.0, p.t, p.x, v.tau0, v.xi0)]
    state = (p.t, p.x, v.tau0, v.xi0)
    s = 0.0
    end = s_max - 1e-15 * max(1.0, s_max)
    k1 = rhs(p.t, v.tau0, v.xi0) if s < end else None
    inext = False
    max_param = math.inf
    while s < end:
        h = min(step, s_max - s)
        nxt = inside_step(state, k1, h)
        if nxt is None:
            lo, hi = 0.0, h
            good = None
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                trial = inside_step(state, k1, mid)
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
                checked(state, s)
            inext = True
            max_param = s
            break
        s += h
        state = nxt
        rows.append((s, *state))
        k1 = checked(state, s)
    return GeodesicPath(np.asarray(rows, dtype=float), cons, max_param, inext, worst)


def _advance_fixed(profile, p, v, s_values, h):
    """States of the RK4 route at each s of the increasing s_values: full
    steps of h from p, then a remainder step that is not carried forward."""
    rhs = profile.geodesic_rhs
    state, done, out = (p.t, p.x, v.tau0, v.xi0), 0, []
    for s in s_values:
        n = int(math.floor(s / h + 1e-12))
        for _ in range(n - done):
            state = _rk4(rhs, state, rhs(state[0], state[2], state[3]), h)
        done, rem = n, s - n * h
        if rem > 1e-15 * max(1.0, s):
            out.append(_rk4(rhs, state, rhs(state[0], state[2], state[3]), rem))
        else:
            out.append(state)
    return out


# -- quadrature route ---------------------------------------------------------


class _Quadrature:
    """Conserved-quantity solver for the future-directed causal geodesic
    from p with conserved quantities cons = (kappa, eps).

    The public entry points compute cons once from a velocity (_oriented);
    distance maximizers pass their exact (kappa, eps); (0, 0), which a causal
    vector gives only by underflow, raises QuadratureError.  Each geodesic
    reads only maps of its own, anchored at t0, so a value depends only on
    the geodesic and T.  When the profile's flat map is a closed form (b == 1,
    so kappa^2 / b - eps is a constant c^2), s(T) is that closed form scaled
    by 1 / c and re-anchored at t0; otherwise s is an AnchoredMap.  With
    b == 1, x(T) = x0 + kappa s(T); otherwise x has an AnchoredMap too.
    The rate ds/dT (Newton's slope, and 1 / (dt/ds) in rows) is the
    integrand of the s map: k e^{rT} for a closed form, which stays finite
    where a itself overflows (exp2t past t ~ 355), else
    sqrt(a / (kappa^2 / b - eps)).  t_sign maps T to the caller's time:
    -1 when the caller reflected past-directed data.
    """

    def __init__(self, profile: MetricProfile, p: SpacetimePoint, cons: ConservedQuantities,
                 t_sign: float = 1.0):
        profile.require_inside(p.t)
        self.profile, self.t_sign = profile, t_sign
        self.t0 = t0 = p.t
        self.x0 = x0 = p.x
        self.kappa = kappa = cons.kappa
        self.eps = eps = cons.epsilon
        if eps == 0.0 and kappa * kappa == 0.0:
            raise QuadratureError(
                f"kappa^2 = {kappa * kappa!r} and eps = {eps!r} at t = {t0!r}: the "
                "conserved quantities underflowed, so s(T) is not defined")

        def f_s(u):
            a, b = profile.coefficients_many(u)
            return np.sqrt(a / (kappa * kappa / b - eps))

        def anchored(f):
            return AnchoredMap(f, t0, breaks=profile.breakpoints,
                               domain=(profile.t_min, profile.t_max))

        # s_at, x_at and _rate map an array of times T to s(T), x(T) and ds/dT
        flat = _flat_map(profile) if profile.has_unit_b else None
        if isinstance(flat, ClosedFormMap):
            # anchored at t0: F(T) - F(t0) would cancel where sqrt(a)
            # vanishes, as e^t does toward -inf
            s_map = ClosedFormMap(flat.k / math.sqrt(kappa * kappa - eps), flat.r, t0)
            self._rate = s_map.integrand
        else:
            s_map, self._rate = anchored(f_s), f_s
        self.s_at = s_map.many
        if profile.has_unit_b:
            self.x_at = lambda ts: x0 + kappa * s_map.many(ts)
        else:
            def f_x(u):
                a, b = profile.coefficients_many(u)
                return kappa * np.sqrt(a) / (b * np.sqrt(kappa * kappa / b - eps))

            x_map = anchored(f_x)
            self.x_at = lambda ts: x0 + x_map.many(ts)
        # the march from t0 toward the domain end, in blocks; a finite end is
        # its last point.  _T and _S hold the points (T, s(T)) computed so far,
        # from (t0, 0); once the march has ended, _total is the affine bound
        finite = math.isfinite(profile.t_max)
        ends = islice(toward_end(t0, profile.t_max), 49 if finite else 75)
        self._march = in_blocks(lambda ts: s_map.many(ts).tolist(),
                                chain(ends, [profile.t_max] if finite else []))
        self._T, self._S, self._stall, self._ended, self._total = [t0], [0.0], 0, False, math.inf

    def _extend(self) -> None:
        """Compute the next march point, or end the march.

        s(T) is mapped over the march in blocks of 1, 1, 2, 4, 8, 8, ...
        points (in_blocks).  s(T) is strictly increasing, so the march ends
        when s overflows (bound inf) or when it runs out of points.  A finite
        end is the last point: the integrand is finite there, so the bound
        is s(t_max).  An unbounded march that runs out saw no bound (inf);
        it also ends when s stalls on three points in a row, at the affine
        length available: that length can converge although t escapes to
        infinity.  A NaN s raises QuadratureError: it is not an overflow.
        """
        finite = math.isfinite(self.profile.t_max)
        T, sT = next(self._march, (None, None))
        if T is None:
            self._ended, self._total = True, self._S[-1] if finite else math.inf
            return
        if math.isnan(sT):
            raise QuadratureError(
                f"affine parameter s(T) is NaN at T = {self.t_sign * T!r}: the metric "
                "degenerates before this point")
        stalled = not finite and sT - self._S[-1] < max(1e-13, 1e-12 * abs(sT))
        self._stall = self._stall + 1 if stalled else 0
        self._T.append(T)
        self._S.append(sT)
        if not math.isfinite(sT) or self._stall >= 3:
            self._ended, self._total = True, sT

    def times(self, s_values) -> np.ndarray:
        """T at each s of s_values, in order, up to the first s beyond the
        affine bound.

        The march extends until one point lies strictly above the largest s
        or the march ends; an s at or past the bound of an ended march is
        beyond it.  One search over the march then brackets every s between
        its last point at or below s and the next one: a point that hits s
        is its T (s = 0 is t0), and safeguarded Newton runs on the other rows
        with one evaluation of the maps per iteration.  Its secant start is
        kept anywhere on the closed bracket, so a target an ulp from a march
        value converges from that point in one step; a later iterate not
        strictly inside the bracket is its midpoint.  A row's arithmetic is
        its own, so its T does not depend on the batch.  A row still moving
        after ROOT_MAX_ITER steps raises QuadratureError.
        """
        s = np.fromiter(s_values, dtype=float)
        if not (np.isfinite(s) & (s >= 0.0)).all():
            raise ValueError("affine parameter must be finite and non-negative")
        top = s.max(initial=-1.0)
        while not self._ended and self._S[-1] <= top:
            self._extend()
        beyond = np.flatnonzero(s >= self._total)
        if len(beyond):
            s = s[:beyond[0]]
        if s.max(initial=-1.0) >= self._S[-1]:
            raise QuadratureError("affine target not bracketed while doubling T")
        march_T, march_s = np.array(self._T), np.array(self._S)
        i = np.searchsorted(march_s, s, side="right")  # the first point above s
        out = march_T[i - 1]
        act = np.flatnonzero(march_s[i - 1] != s)
        i = i[act]
        s, lo, hi, slo, shi = s[act], march_T[i - 1], march_T[i], march_s[i - 1], march_s[i]
        # past an overflowed s (exp2t) the iterate is inf or nan, and the
        # bracket throws it back to the midpoint
        with np.errstate(over="ignore", invalid="ignore"):
            T = lo + (s - slo) * (hi - lo) / (shi - slo)
            # the secant start may sit on a march point an ulp from s, where
            # one Newton step converges; a later iterate on a bracket end is
            # bisected, since it may repeat a point Newton has evaluated
            inside = (lo <= T) & (T <= hi)
            for _ in range(ROOT_MAX_ITER):
                if not len(act):
                    break
                T = np.where(inside, T, 0.5 * (lo + hi))
                err, rate = self.s_at(T) - s, self._rate(T)
                step = err / rate
                below = err < 0.0
                lo, hi = np.where(below, T, lo), np.where(below, hi, T)
                tol = INVERT_TOL * np.maximum(1.0, np.abs(T))
                # a step from an overflowed rate is 0 wherever T is
                done = (np.abs(step) <= tol) & np.isfinite(rate)
                T = T - step
                # a converged row keeps its last Newton step, a row whose
                # bracket has narrowed to tol its midpoint
                stop = done | (hi - lo <= tol)
                if np.count_nonzero(stop):
                    out[act[stop]] = np.where(done, T, 0.5 * (lo + hi))[stop]
                    keep = ~stop
                    act, s, T, lo, hi = act[keep], s[keep], T[keep], lo[keep], hi[keep]
                inside = (lo < T) & (T < hi)
        if len(act):
            raise QuadratureError(
                f"inversion of s = {s.item(0)!r} did not converge in {ROOT_MAX_ITER} "
                "Newton steps")
        return out

    def _certificate(self, total):
        tmax = self.profile.t_max
        # x at a finite end, or 2^40 past t0 toward an unbounded one
        *_, t_near = (tmax,) if math.isfinite(tmax) else islice(toward_end(self.t0, tmax), 41)
        try:
            x_lim = float(self.x_at(t_near))
            if not math.isfinite(x_lim):
                x_lim = None
        except (DomainExceeded, QuadratureError):
            x_lim = None
        return InextendibleCertificate(total, self.t_sign * tmax, x_lim)

    def t_of(self, s: float) -> float:
        T = self.times((s,))
        if not len(T):
            raise Inextendible(self._certificate(self.bound()))
        return float(T[0])

    def point_at(self, s: float) -> SpacetimePoint:
        """The point at s, in the caller's time."""
        T = self.t_of(s)
        return SpacetimePoint(self.t_sign * T, float(self.x_at(T)))

    def rows(self, T, s=None) -> np.ndarray:
        """Rows (s, t, x, dt/ds = 1 / rate, dx/ds) at the times T; s defaults
        to s(T)."""
        kappa = self.kappa
        if self.profile.has_unit_b:
            dxds = np.full(len(T), kappa)  # kappa / b with b exactly 1.0
        else:
            dxds = kappa / self.profile.coefficients_many(T)[1]
        return np.column_stack([
            self.s_at(T) if s is None else s, T, self.x_at(T), 1.0 / self._rate(T), dxds,
        ])

    def bound(self, cap: float = math.inf) -> float:
        """min(cap, the affine length available before the domain boundary);
        inf when both are.

        The march extends only while its last s is at most cap, as past that
        point the length exceeds cap; so a capped bound leaves the rest of the
        march uncomputed (toward an unbounded end it runs out to t0 + 2^74).
        """
        while not self._ended and self._S[-1] <= cap:
            self._extend()
        return min(cap, self._total)


def _reflect(profile, p, v):
    return (
        profile.reflected(),
        SpacetimePoint(-p.t, p.x),
        TangentVector(-v.tau0, v.xi0),
    )


def _oriented(profile: MetricProfile, p: SpacetimePoint, v: TangentVector, eps_null: float):
    """The solver of the causal geodesic from (p, v) and its start velocity:
    past-directed data is solved in the time-reflected profile a~(t) = a(-t)
    from (-tau0, xi0), with t_sign = -1.  tau0 = 0 is rejected: such a vector
    is causal only inside the null band, and it has no time direction."""
    char = classify_vector(profile, p, v, eps_null=eps_null)
    if not char.is_causal:
        raise NotCausal(f"vector {v} is {char.kind}, need timelike or null")
    if v.tau0 == 0.0:
        raise NotCausal(f"vector {v} has tau0 = 0, need a time direction")
    t_sign = math.copysign(1.0, v.tau0)
    if t_sign < 0.0:
        profile, p, v = _reflect(profile, p, v)
    return _Quadrature(profile, p, conserved_quantities(profile, p, v), t_sign), v


def quadrature_advance(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_target: float,
    eps_null: float = EPS_NULL,
) -> SpacetimePoint:
    """Advance the future-directed causal geodesic from (p, v) to affine
    parameter s_target.

    Raises Inextendible with a boundary-limit certificate when the affine
    length available before the domain boundary is below s_target.
    """
    if v.tau0 < 0.0:
        raise NotCausal(f"vector {v} is past-directed; the quadrature route needs tau0 > 0")
    return _oriented(profile, p, v, eps_null)[0].point_at(s_target)


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
    try:
        return _oriented(profile, p, v, eps_null)[0].point_at(1.0)
    except Inextendible as exc:
        return exc.certificate


def affine_bound(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    eps_null: float = EPS_NULL,
) -> float:
    """Affine length available to the causal geodesic before the domain ends."""
    return _oriented(profile, p, v, eps_null)[0].bound()


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
        worst, used = 0.0, 0
        for k in range(32):
            ang = 2.0 * math.pi * k / 32.0
            vp = TangentVector(v.tau0 + r * math.cos(ang), v.xi0 + r * math.sin(ang))
            if not classify_vector(profile, p, vp, eps_null=eps_null).is_causal:
                continue
            out = causal_exp(profile, p, vp, eps_null=eps_null)
            if isinstance(out, SpacetimePoint):
                used += 1
                worst = max(worst, math.hypot(out.t - base.t, out.x - base.x))
        rows.append(DisplacementRow(float(r), worst, used, 32 - used))
    return rows


def uniqueness_witness(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    steps: tuple[float, float] = (1e-2, 1e-3),
    s_max: float = 1.0,
) -> float:
    """Maximum three-way gap between two RK4 runs and the quadrature route.

    The three solvers are compared at the ten shared affine parameters
    s_max i / 10 (i = 1, ..., 10); a small gap certifies that all of them
    found the one solution the conserved-quantity reduction admits for
    tau0 != 0.  v must be causal with tau0 != 0; past-directed data runs in
    the time-reflected profile.
    """
    quad, v = _oriented(profile, p, v, EPS_NULL)
    profile, p = quad.profile, SpacetimePoint(quad.t0, quad.x0)
    s_checks = [s_max * i / 10 for i in range(1, 11)]
    T = quad.times(s_checks)
    if len(T) < len(s_checks):
        raise Inextendible(quad._certificate(quad.bound()))
    runs = [zip(T.tolist(), quad.x_at(T).tolist())]
    runs += [[st[:2] for st in _advance_fixed(profile, p, v, s_checks, h)] for h in steps]
    return max((math.hypot(a[0] - b[0], a[1] - b[1])
                for pts in zip(*runs) for a, b in combinations(pts, 2)), default=0.0)


def geodesic_states(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_values,
    eps_null: float = EPS_NULL,
):
    """Quadrature-route states (s, t, x, dt/ds, dx/ds) at each affine parameter.

    Stops early (returning the surviving prefix) at the first parameter, in
    the given order, that lies beyond the affine bound.  A state depends only
    on its own s, not on the other parameters asked for.
    """
    if v.tau0 < 0.0:
        raise NotCausal(f"vector {v} is past-directed; the quadrature route needs tau0 > 0")
    quad, _ = _oriented(profile, p, v, eps_null)
    s = [float(x) for x in s_values]
    T = quad.times(s)
    return [tuple(row) for row in quad.rows(T, s[:len(T)]).tolist()]
