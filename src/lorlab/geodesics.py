"""Causal geodesics of g = -a(t) dt^2 + b(t) dx^2, solved two independent ways.

Route one integrates the second-order geodesic system with fixed-step
classical Runge-Kutta.  The whole step loop is generated for the profile's
term kinds (rk4_run of MetricProfile._kernels): the four stages unrolled on
plain floats with the coefficient code inlined, bitwise the same arithmetic
as ode_rhs, the documented reference form, plus the domain and drift
checks.  The drift check's evaluation at each new state is the next step's
first stage, so a step costs four evaluations.  A step that leaves the
domain is bisected with the generated single step.  Route two uses the two
conserved quantities

    kappa = b(t) dx/ds          (spatial momentum),
    eps   = g(gdot, gdot)       (constant squared speed),

which reduce the system to the strictly monotone quadrature

    s(T) = int_{t0}^{T} sqrt(a(u)) / sqrt(kappa^2/b(u) - eps) du,
    x(T) = x0 + int_{t0}^{T} kappa sqrt(a(u)) / (b(u) sqrt(kappa^2/b(u) - eps)) du,

inverted for T in one batch: one sorted search over a march of T toward
the domain end brackets every s, then a growing closed-form s(T) is
inverted exactly, and otherwise safeguarded Newton runs on every
unconverged s at once.  A finite end is the march's last point, so the
affine bound there is s(t_max).  Past-directed data is solved on the
profile's own maps, in time -t.  The metric is only C^1, so the
Runge-Kutta error theory is not trusted; every run is certified a
posteriori by conserved-quantity drift and by cross-checking against the
quadrature route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import DomainExceeded, Inextendible, NotCausal, QuadratureError, StepTooLarge
from .profiles import MetricProfile, SpacetimePoint, TangentVector, classify_vector
from .quadrature import AnchoredMap, ClosedFormMap, _flat_map, in_blocks, solve, toward_end

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


def integrate_geodesic(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_max: float,
    step: float,
    drift_tol: float = DRIFT_TOL,
) -> GeodesicPath:
    """Fixed-step RK4 until s_max or domain exit.

    The steps run in the profile's generated loop (rk4_run of
    MetricProfile._kernels).  A domain exit is located by bisecting the
    final step with the generated single step and converts to
    inextendible=True with max_param set to the exit parameter; it is never
    raised.  Conserved-quantity drift beyond 1000 * drift_tol * (1 + s)
    raises StepTooLarge, the signal that the merely continuous right-hand
    side needs a smaller step.  The drift check evaluates the profile at
    each new state, and that evaluation is the next step's k1, so a step
    costs four evaluations.  step and s_max must be positive and finite,
    drift_tol positive.
    """
    profile.require_inside(p.t)
    if v.tau0 == 0.0 and v.xi0 == 0.0:
        raise NotCausal("zero initial velocity")
    if not (0.0 < step < math.inf and 0.0 < s_max < math.inf):
        raise ValueError("step and s_max must be positive and finite")
    if not drift_tol > 0.0:
        raise ValueError("drift_tol must be positive")
    cons = conserved_quantities(profile, p, v)
    _, run, rk4_step = profile._kernels
    drift = (cons.kappa, cons.epsilon, 1000.0 * drift_tol)
    rows = [0.0, p.t, p.x, v.tau0, v.xi0]  # flat, five numbers a row
    end = s_max - 1e-15 * max(1.0, s_max)
    worst, left = run(rows.extend, 0.0, p.t, p.x, v.tau0, v.xi0, s_max, end, step, *drift, 0.0)
    s = math.inf
    if left is not None:
        # the longest part of the leaving step that stays inside
        s, *state = left
        lo, hi, good = 0.0, min(step, s_max - s), None
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            try:
                good, lo = rk4_step(*state, mid), mid
            except DomainExceeded:
                hi = mid
            if hi - lo <= 1e-14 * max(1.0, step):
                break
        if good is not None and lo > 0.0:
            s += lo
            rows += (s, *good)
            # a run with end = s takes no step: the drift check of the last state
            worst, _ = run(rows.extend, s, *good, s_max, s, step, *drift, worst)
    samples = np.array(rows, dtype=float).reshape(-1, 5)
    return GeodesicPath(samples, cons, s, left is not None, worst)


def _advance_fixed(profile, p, v, s_values, h):
    """States of the RK4 route at each s of the increasing s_values: full
    steps of h from p, then a remainder step that is not carried forward.
    A step that leaves the domain raises DomainExceeded."""
    rk4_step = profile._kernels[2]
    state, done, out = (p.t, p.x, v.tau0, v.xi0), 0, []
    for s in s_values:
        n = int(math.floor(s / h + 1e-12))
        for _ in range(n - done):
            state = rk4_step(*state, h)
        done, rem = n, s - n * h
        out.append(rk4_step(*state, rem) if rem > 1e-15 * max(1.0, s) else state)
    return out


# -- quadrature route ---------------------------------------------------------


class _Quadrature:
    """Conserved-quantity solver for the causal geodesic from p with
    conserved quantities cons = (kappa, eps), in forward time T = t_sign t.

    The public entry points compute cons once from a velocity (_oriented);
    distance maximizers pass their exact (kappa, eps); (0, 0), which a causal
    vector gives only by underflow, raises QuadratureError.  Each geodesic
    reads only maps of its own, anchored at t0, so a value depends only on
    the geodesic and T.  When the profile's flat map is a closed form (b == 1,
    so kappa^2 / b - eps is a constant c^2), s(T) is that closed form scaled
    by 1 / c and re-anchored at t0; otherwise s is an AnchoredMap.  With
    b == 1, x(T) = x0 + kappa s(T); otherwise x has an AnchoredMap too.
    The rate ds/dT (Newton's slope, and 1 / (dT/ds) in rows) is the
    integrand of the s map: k e^{rT} for a closed form, which stays finite
    where a itself overflows (exp2t past t ~ 355), else
    sqrt(a / (kappa^2 / b - eps)).  A closed form with r >= 0 is inverted
    exactly (ClosedFormMap.inverse); a saturating one (r < 0) keeps Newton,
    as anchored maps do (see the quadrature module).  Past-directed data
    (t_sign = -1) is solved on the profile's own maps, in time -t: the
    coefficients are read at -T, the breakpoints, the domain and r are
    negated (exact in floats), and t0 and t_end, the end the march heads
    for, are forward times.
    """

    def __init__(self, profile: MetricProfile, p: SpacetimePoint, cons: ConservedQuantities,
                 t_sign: float = 1.0):
        profile.require_inside(p.t)
        self.profile, self.t_sign = profile, t_sign
        t0, coefficients, breaks = p.t, profile.coefficients_many, profile.breakpoints
        domain = profile.t_min, profile.t_max
        if t_sign < 0.0:
            def coefficients(u, at=coefficients):
                return at(-u)

            t0, breaks, domain = -t0, tuple(-b for b in reversed(breaks)), (-domain[1], -domain[0])
        self.t0, self.t_end, self._coefficients = t0, domain[1], coefficients
        x0 = p.x
        self.kappa = kappa = cons.kappa
        self.eps = eps = cons.epsilon
        if eps == 0.0 and kappa * kappa == 0.0:
            raise QuadratureError(
                f"kappa^2 = {kappa * kappa!r} and eps = {eps!r} at t = {p.t!r}: the "
                "conserved quantities underflowed, so s(T) is not defined")

        def f_s(u):
            a, b = coefficients(u)
            return np.sqrt(a / (kappa * kappa / b - eps))

        def anchored(f):
            return AnchoredMap(f, t0, breaks=breaks, domain=domain)

        # s_at, x_at and _rate map an array of times T to s(T), x(T) and ds/dT
        flat = _flat_map(profile) if profile.has_unit_b else None
        if isinstance(flat, ClosedFormMap):
            # anchored at t0: F(T) - F(t0) would cancel where sqrt(a)
            # vanishes, as e^t does toward -inf
            s_map = ClosedFormMap(flat.k / math.sqrt(kappa * kappa - eps),
                                  flat.r if t_sign > 0.0 else -flat.r, t0)
            self._rate, self._closed = s_map.integrand, s_map
        else:
            s_map, self._rate, self._closed = anchored(f_s), f_s, None
        self._x0, self.s_at = x0, s_map.many
        if profile.has_unit_b:
            self.x_at = lambda ts: x0 + kappa * s_map.many(ts)
        else:
            def f_x(u):
                a, b = coefficients(u)
                return kappa * np.sqrt(a) / (b * np.sqrt(kappa * kappa / b - eps))

            x_map = anchored(f_x)
            self.x_at = lambda ts: x0 + x_map.many(ts)
        # the march from t0 toward t_end, in blocks; a finite end is its last
        # point.  _T and _S hold the points (T, s(T)) computed so far, from
        # (t0, 0); once the march has ended, _total is the affine bound
        finite = math.isfinite(self.t_end)
        ends = islice(toward_end(t0, self.t_end), 49 if finite else 75)
        self._march = in_blocks(lambda ts: s_map.many(ts).tolist(),
                                chain(ends, [self.t_end] if finite else []))
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
        finite = math.isfinite(self.t_end)
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
        is its T (s = 0 is t0).  On a growing closed form the other rows
        take the exact inverse, kept on the bracket and strictly below the
        domain end; otherwise they are solved to INVERT_TOL by
        quadrature.solve's Newton steps from the secant start, with one
        evaluation of the maps per iteration.  A row's T does not depend on
        the batch.
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
        lo, hi, slo, shi = march_T[i - 1], march_T[i], march_s[i - 1], march_s[i]
        closed = self._closed
        if closed is not None and closed.r >= 0.0:
            # a growing closed form's exact inverse, kept on the bracket and
            # below the domain end, onto which the exact T of an s an ulp
            # below the bound can round.  The bracket is open above where s
            # overflowed: the map overflows with e^{rT}, before s itself does
            end = math.nextafter(self.t_end, -math.inf)
            top = np.where(shi < math.inf, np.minimum(hi, end), end)
            return np.where(slo == s, lo, np.minimum(np.maximum(closed.inverse(s), lo), top))

        def stuck(k, lo, hi, steps):
            return QuadratureError(
                f"inversion of s = {s.item(k)!r} did not converge in {steps} Newton steps")

        # Newton's secant start; solve bisects an overflowed s (exp2t) back first
        with np.errstate(over="ignore", invalid="ignore"):
            start = lo + (s - slo) * (hi - lo) / (shi - slo)
            return solve(lambda T, rows: (self.s_at(T) - s[rows], self._rate(T)),
                         lo, hi, slo - s, shi - s, INVERT_TOL, stuck, start)

    def _certificate(self, total):
        tmax = self.t_end
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
        return SpacetimePoint(self.t_sign * T, float(self._x(np.array([T]), s)[0]))

    def _x(self, T, s) -> np.ndarray:
        """x at the forward times T of the affine parameters s: x_at(T), but
        with b == 1 x0 + kappa s where s(T) overflows in floats while s does
        not, as a closed form's does past the overflow of e^{rT}."""
        if not self.profile.has_unit_b:
            return self.x_at(T)
        sT = self.s_at(T)
        fine = np.isfinite(sT)
        if fine.all():
            return self._x0 + self.kappa * sT
        with np.errstate(over="ignore"):  # an x beyond floats is inf
            return self._x0 + self.kappa * np.where(fine, sT, s)

    def rows(self, T, s=None) -> np.ndarray:
        """Rows (s, T, x, dT/ds = 1 / rate, dx/ds) at the forward times T; s
        defaults to s(T).

        Where a closed form's rate k e^{rT} overflows while s does not, the
        rate is r s + k e^{r t0}, equal in exact arithmetic, and x is taken
        from s (_x); every other value is the plain form's.  A row holding a
        value beyond floats raises QuadratureError.
        """
        kappa, rate = self.kappa, self._rate(T)
        if s is None:
            s, x = self.s_at(T), self.x_at(T)
        else:
            s = np.asarray(s, dtype=float)
            x, closed = self._x(T, s), self._closed
            if closed is not None and not np.isfinite(rate).all():
                k0 = float(closed.integrand(self.t0))
                with np.errstate(over="ignore"):
                    rate = np.where(np.isfinite(rate), rate, closed.r * s + k0)
        if self.profile.has_unit_b:
            dxds = np.full(len(T), kappa)  # kappa / b with b exactly 1.0
        else:
            dxds = kappa / self._coefficients(T)[1]
        out = np.column_stack([s, T, x, 1.0 / rate, dxds])
        if not np.isfinite(out).all():
            row = out[~np.isfinite(out).all(axis=1)][0].tolist()
            raise QuadratureError(f"the state at s = {row[0]!r} is {row!r}, not finite in floats")
        return out

    def _diverges(self) -> bool:
        """True when s(T) is known to diverge toward an unbounded end.

        On [t0, inf) of forward time every term of a and of b is then
        non-negative and each coefficient has a positive constant part, so
        a >= A > 0 and b >= B > 0 there; with eps <= 0 the integrand
        sqrt(a / (kappa^2 / b - eps)) is at least sqrt(A / (kappa^2 / B -
        eps)) > 0.  Every term is checked, not only the leading one: a
        negative term can drive a coefficient through zero however small it
        is.
        """
        profile, t0, t_sign = self.profile, self.t0, self.t_sign
        return (self.t_end == math.inf and self.eps <= 0.0
                and _bounded_below(profile.terms_a, t0, t_sign)
                and _bounded_below(profile.terms_b, t0, t_sign))

    def bound(self, cap: float = math.inf) -> float:
        """min(cap, the affine length available before the domain boundary);
        inf when both are.

        When s(T) diverges (_diverges) this is cap, with no march.  Else the
        march extends only while its last s is at most cap, as past that
        point the length exceeds cap; so a capped bound leaves the rest of the
        march uncomputed (toward an unbounded end it runs out to t0 + 2^74).
        """
        if not self._ended and self._diverges():
            return cap
        while not self._ended and self._S[-1] <= cap:
            self._extend()
        return min(cap, self._total)


def _bounded_below(terms, t0: float, t_sign: float) -> bool:
    """True when every term is non-negative on [t0, inf) of forward time T =
    t_sign t and the constant terms sum to a positive value, which the
    coefficient then stays above.  A linear term c t is -c T going backward."""
    for term in terms:
        c = -term.c if term.kind == "linear" and t_sign < 0.0 else term.c
        if c < 0.0 or (term.kind == "linear" and c * t0 < 0.0):
            return False
    return sum(term.c for term in terms if term.kind == "const") > 0.0


def _oriented(profile: MetricProfile, p: SpacetimePoint, v: TangentVector):
    """The solver of the causal geodesic from (p, v), v classified at the
    fixed null band EPS_NULL: past-directed data is solved on the profile's
    own maps, in time -t (t_sign = -1).  tau0 = 0 is rejected: such a vector
    is causal only inside the null band, and it has no time direction."""
    char = classify_vector(profile, p, v)
    if not char.is_causal:
        raise NotCausal(f"vector {v} is {char.kind}, need timelike or null")
    if v.tau0 == 0.0:
        raise NotCausal(f"vector {v} has tau0 = 0, need a time direction")
    return _Quadrature(profile, p, conserved_quantities(profile, p, v), math.copysign(1.0, v.tau0))


def quadrature_advance(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_target: float,
) -> SpacetimePoint:
    """Advance the future-directed causal geodesic from (p, v) to affine
    parameter s_target.

    Raises Inextendible with a boundary-limit certificate when the affine
    length available before the domain boundary is below s_target.
    """
    if v.tau0 < 0.0:
        raise NotCausal(f"vector {v} is past-directed; the quadrature route needs tau0 > 0")
    return _oriented(profile, p, v).point_at(s_target)


def causal_exp(profile: MetricProfile, p: SpacetimePoint, v: TangentVector):
    """Point reached at affine parameter 1, or the inextendibility certificate.

    Accepts future- and past-directed causal vectors; past-directed data is
    solved on the profile's own maps, in time -t, and mapped back.
    """
    try:
        return _oriented(profile, p, v).point_at(1.0)
    except Inextendible as exc:
        return exc.certificate


def affine_bound(profile: MetricProfile, p: SpacetimePoint, v: TangentVector) -> float:
    """Affine length available to the causal geodesic before the domain ends."""
    return _oriented(profile, p, v).bound()


def exp_continuity_probe(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    radii,
) -> list[DisplacementRow]:
    """Worst displacement of the exponential map under velocity perturbations.

    For each radius r, 32 vectors at Euclidean distance r from v are tried;
    non-causal perturbations, perturbations with tau0 = 0 (causal only
    inside the null band, with no time direction) and perturbations whose
    geodesic no longer survives to parameter 1 are skipped and counted.
    """
    base = causal_exp(profile, p, v)
    if isinstance(base, InextendibleCertificate):
        raise Inextendible(base)
    rows = []
    for r in radii:
        worst, used = 0.0, 0
        for k in range(32):
            ang = 2.0 * math.pi * k / 32.0
            vp = TangentVector(v.tau0 + r * math.cos(ang), v.xi0 + r * math.sin(ang))
            if vp.tau0 == 0.0 or not classify_vector(profile, p, vp).is_causal:
                continue
            out = causal_exp(profile, p, vp)
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
    tau0 != 0.  v must be causal with tau0 != 0; the quadrature route solves
    past-directed data on the profile's own maps, in time -t, and its T is
    mapped back.  Every step and s_max must be positive and finite.
    """
    if not all(0.0 < h < math.inf for h in (*steps, s_max)):
        raise ValueError(f"steps {steps!r} and s_max {s_max!r} must be positive and finite")
    quad = _oriented(profile, p, v)
    s_checks = [s_max * i / 10 for i in range(1, 11)]
    T = quad.times(s_checks)
    if len(T) < len(s_checks):
        raise Inextendible(quad._certificate(quad.bound()))
    runs = [zip((T if quad.t_sign > 0.0 else -T).tolist(), quad.x_at(T).tolist())]
    runs += [[st[:2] for st in _advance_fixed(profile, p, v, s_checks, h)] for h in steps]
    return max((math.hypot(a[0] - b[0], a[1] - b[1])
                for pts in zip(*runs) for a, b in combinations(pts, 2)), default=0.0)


def geodesic_states(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_values,
):
    """Quadrature-route states (s, t, x, dt/ds, dx/ds) at each affine parameter.

    Stops early (returning the surviving prefix) at the first parameter, in
    the given order, that lies beyond the affine bound.  A state depends only
    on its own s, not on the other parameters asked for.
    """
    if v.tau0 < 0.0:
        raise NotCausal(f"vector {v} is past-directed; the quadrature route needs tau0 > 0")
    quad = _oriented(profile, p, v)
    s = [float(x) for x in s_values]
    T = quad.times(s)
    return [tuple(row) for row in quad.rows(T, s[:len(T)]).tolist()]
