import math
from itertools import combinations, islice

import numpy as np
import pytest

from lorlab import (
    CATALOG_NAMES,
    DomainExceeded,
    Inextendible,
    InextendibleCertificate,
    NotCausal,
    QuadratureError,
    SpacetimePoint,
    StepTooLarge,
    TangentVector,
    affine_bound,
    causal_exp,
    classify_vector,
    conserved_quantities,
    const,
    exp_continuity_probe,
    exponential,
    format_profile,
    geodesic_states,
    get_profile,
    integrate_geodesic,
    linear,
    make_cauchy_sequence,
    ode_rhs,
    parse_profiles,
    power,
    probe_condition_a,
    quadrature_advance,
    uniqueness_witness,
)
from lorlab import geodesics, profiles, quadrature
from lorlab.geodesics import (
    DRIFT_TOL,
    INVERT_TOL,
    GeodesicPath,
    _oriented,
    _Quadrature,
)
from lorlab.profiles import EPS_NULL, MetricProfile
from lorlab.quadrature import ROOT_MAX_ITER, _flat_map, in_blocks, toward_end
from oracles import mirrored, mp_exp_map_inverse

P = SpacetimePoint
V = TangentVector

LN15 = 0.4054651081081644  # log(1.5)
LN2 = 0.6931471805599453

# three terms and more in a (every kind, a kink at 0.2) and an exp term in b
MIXED = MetricProfile(
    "mixed",
    (const(1.0), linear(0.1), power(0.7, 0.2, 1.5), exponential(0.3, 0.7)),
    (const(0.5), exponential(0.6, 0.3)),
    t_min=-2.0, t_max=2.0, alpha=0.1,
)


def random_causal(prof, rng, t_range, tau_range=(0.2, 1.0), future_only=False):
    t = rng.uniform(*t_range)
    x = rng.uniform(-1.0, 1.0)
    a, b, _, _ = prof.eval(t)
    tau = rng.uniform(*tau_range)
    if not future_only and rng.uniform() < 0.5:
        tau = -tau
    xi = rng.uniform(-1.0, 1.0) * abs(tau) * math.sqrt(a / b)
    return P(t, x), V(tau, xi)


# -- ode_rhs -----------------------------------------------------------------


def test_rhs_flat():
    assert ode_rhs(get_profile("minkowski"), (0.0, 0.0, 1.0, 1.0)) == (1.0, 1.0, 0.0, 0.0)


def test_rhs_exp_time_warp():
    got = ode_rhs(get_profile("exp2t"), (0.0, 0.0, 1.0, 0.0))
    assert got[0] == 1.0 and got[1] == 0.0
    assert got[2] == pytest.approx(-1.0, abs=1e-15)
    assert got[3] == 0.0


def test_rhs_exp_space_warp():
    from lorlab import MetricProfile, const, exponential

    prof = MetricProfile("bexp", (const(1.0),), (exponential(1.0, 2.0),),
                         alpha=1e-18, check_window=(-20.0, 20.0))
    got = ode_rhs(prof, (0.0, 0.0, 1.0, 1.0))
    assert got[:2] == (1.0, 1.0)
    assert got[2] == pytest.approx(-1.0, abs=1e-15)
    assert got[3] == pytest.approx(-2.0, abs=1e-15)


def test_geodesic_rhs_is_ode_rhs_bit_for_bit():
    rng = np.random.default_rng(5)
    for prof in [get_profile(name) for name in CATALOG_NAMES] + [MIXED]:
        ts = [0.0, 0.2, *rng.uniform(max(prof.t_min, -1.5), min(prof.t_max, 1.5), 20)]
        for t in ts:
            if not prof.contains(t):
                continue
            td, xd = rng.uniform(-2.0, 2.0, 2)
            want = ode_rhs(prof, (t, 0.0, td, xd))
            a, b, _, _ = prof.eval(t)
            got = prof.geodesic_rhs(t, td, xd)
            assert repr(got) == repr((*want[2:], a, b))
        with pytest.raises(DomainExceeded) as want_err:
            prof.require_inside(prof.t_max)
        with pytest.raises(DomainExceeded) as got_err:
            prof.geodesic_rhs(prof.t_max, 1.0, 0.0)
        assert str(got_err.value) == str(want_err.value)


# -- conserved quantities ------------------------------------------------------


def test_conserved_examples():
    mink = get_profile("minkowski")
    c = conserved_quantities(mink, P(0, 0), V(1, 0))
    assert (c.kappa, c.epsilon) == (0.0, -1.0)
    c = conserved_quantities(mink, P(0, 0), V(1, 1))
    assert (c.kappa, c.epsilon) == (1.0, 0.0)
    from lorlab import MetricProfile, const

    prof = MetricProfile("b4", (const(1.0),), (const(4.0),))
    c = conserved_quantities(prof, P(0, 0), V(2, 1))
    assert (c.kappa, c.epsilon) == (4.0, 0.0)


# -- integrate_geodesic -----------------------------------------------------------


def test_integrate_flat_straight_line():
    path = integrate_geodesic(get_profile("minkowski"), P(0, 0), V(1, 0.5), 1.0, 1e-3)
    end = path.endpoint()
    assert abs(end.t - 1.0) < 1e-9 and abs(end.x - 0.5) < 1e-9
    assert not path.inextendible


def test_integrate_strip_exit():
    path = integrate_geodesic(get_profile("strip01"), P(0.5, 0), V(1, 0), 10.0, 1e-3)
    assert path.inextendible
    assert path.max_param == pytest.approx(0.5, abs=1e-6)


def test_integrate_exp2t_against_closed_form():
    # ds = sqrt(a) dt for a vertical unit geodesic, so s = e^t - 1
    path = integrate_geodesic(get_profile("exp2t"), P(0, 0), V(1, 0), 0.5, 1e-4)
    end = path.endpoint()
    assert abs(end.t - LN15) < 1e-6
    assert abs(end.x) < 1e-12


def test_integrate_sample_monotonicity_and_drift():
    rng = np.random.default_rng(11)
    for name in CATALOG_NAMES:
        prof = get_profile(name)
        lo = max(prof.t_min, -1.0) + 0.3
        hi = min(prof.t_max, 1.0) - 0.3
        for _ in range(5):
            p, v = random_causal(prof, rng, (lo, hi), future_only=True)
            path = integrate_geodesic(prof, p, v, 0.5, 1e-3)
            s = path.samples[:, 0]
            t = path.samples[:, 1]
            assert (np.diff(s) > 0).all()
            assert (np.diff(t) > 0).all()
            for s_i, t_i, _, td, xd in path.samples:
                a, b, _, _ = prof.eval(t_i)
                kappa = b * xd
                eps = -a * td * td + b * xd * xd
                budget = 1e-6 * (1.0 + s_i)
                assert abs(kappa - path.conserved.kappa) < budget
                assert abs(eps - path.conserved.epsilon) < budget


def test_integrate_preserves_causal_character():
    rng = np.random.default_rng(17)
    prof = get_profile("c1power")
    for _ in range(5):
        p, v = random_causal(prof, rng, (-0.8, -0.2), future_only=True)
        char0 = classify_vector(prof, p, v)
        path = integrate_geodesic(prof, p, v, 1.0, 1e-3)
        for s_i, t_i, x_i, td, xd in path.samples[:: len(path.samples) // 20 + 1]:
            a, b, _, _ = prof.eval(t_i)
            q = -a * td * td + b * xd * xd
            band = 1e-12 * (1.0 + s_i) + 1e-9 * (1.0 + s_i)
            if char0.kind == "timelike":
                assert q < band
            else:
                assert abs(q) <= band


def test_integrate_affine_reparameterization():
    prof = get_profile("exp2t")
    p, v = P(0, 0), V(0.7, 0.3)
    end1 = integrate_geodesic(prof, p, v, 1.0, 1e-3).endpoint()
    end2 = integrate_geodesic(prof, p, V(1.4, 0.6), 0.5, 5e-4).endpoint()
    assert math.hypot(end1.t - end2.t, end1.x - end2.x) < 1e-6


def test_integrate_step_too_large():
    with pytest.raises(StepTooLarge):
        integrate_geodesic(get_profile("exp2t"), P(0, 0), V(1, 0), 4.0, 0.5)


def test_integrate_rejects_zero_velocity():
    with pytest.raises(NotCausal):
        integrate_geodesic(get_profile("minkowski"), P(0, 0), V(0, 0), 1.0, 0.1)


@pytest.mark.parametrize("s_max, step, drift_tol", [
    (1.0, math.nan, DRIFT_TOL),   # once a false exit: one row, inextendible at 0
    (1.0, math.inf, DRIFT_TOL),
    (1.0, 0.0, DRIFT_TOL),
    (math.nan, 0.1, DRIFT_TOL),   # once only the start row
    (math.inf, 0.1, DRIFT_TOL),
    (-1.0, 0.1, DRIFT_TOL),
    (1.0, 0.1, math.nan),         # once no drift check at all
    (1.0, 0.1, 0.0),
    (1.0, 0.1, -1e-6),
])
def test_integrate_rejects_non_finite_or_non_positive_input(s_max, step, drift_tol):
    with pytest.raises(ValueError):
        integrate_geodesic(get_profile("minkowski"), P(0, 0), V(1, 0.5), s_max, step, drift_tol)


# -- quadrature_advance --------------------------------------------------------------


def test_quadrature_flat():
    got = quadrature_advance(get_profile("minkowski"), P(0, 0), V(1, 0.5), 2.0)
    assert abs(got.t - 2.0) < 1e-11 and abs(got.x - 1.0) < 1e-11


def test_quadrature_exp2t_closed_form():
    got = quadrature_advance(get_profile("exp2t"), P(0, 0), V(1, 0), 0.5)
    assert abs(got.t - LN15) < 1e-10
    assert got.x == 0.0


def test_quadrature_crosses_kink_matches_ode():
    prof = get_profile("c1power")
    p, v = P(-1.0, 0.0), V(1.0, 0.3)
    s = 1.5  # enough to cross t = 0
    quad = quadrature_advance(prof, p, v, s)
    assert quad.t > 0.0
    path = integrate_geodesic(prof, p, v, s, 1e-4)
    end = path.endpoint()
    assert math.hypot(end.t - quad.t, end.x - quad.x) < 1e-5


def test_quadrature_requires_future_causal():
    mink = get_profile("minkowski")
    with pytest.raises(NotCausal):
        quadrature_advance(mink, P(0, 0), V(1, 2), 1.0)   # spacelike
    with pytest.raises(NotCausal):
        quadrature_advance(mink, P(0, 0), V(-1, 0), 1.0)  # past-directed


def test_quadrature_inextendible_certificate():
    with pytest.raises(Inextendible) as err:
        quadrature_advance(get_profile("strip01"), P(0.5, 0), V(1, 0), 2.0)
    cert = err.value.certificate
    assert cert.max_param == pytest.approx(0.5, abs=1e-6)
    assert cert.t_boundary == 1.0
    assert cert.x_limit == pytest.approx(0.0, abs=1e-9)


def _fresh(name):
    return parse_profiles(format_profile(get_profile(name)))[name]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_quadrature_states_depend_only_on_their_own_s(name):
    p, v = P(0.3, 0.0), V(1.0, 0.2)
    # s at the first march point, where a bracket ends exactly on the target
    t_march = next(toward_end(p.t, get_profile(name).t_max))
    fresh = _fresh(name)
    s_march = float(_Quadrature(fresh, p, conserved_quantities(fresh, p, v)).s_at(t_march))
    s_values = [0.13, 0.37, 0.5, 0.61, s_march]
    # each reference comes from a fresh profile asked for that s alone
    want = {}
    for s in s_values:
        (row,) = geodesic_states(_fresh(name), p, v, [s])
        fresh = _fresh(name)
        pt = _Quadrature(fresh, p, conserved_quantities(fresh, p, v)).point_at(s)
        assert (pt.t, pt.x) == row[1:3]
        want[s] = row
    assert want[s_march][1] == t_march
    rng = np.random.default_rng(17)
    prof = _fresh(name)
    for _ in range(3):
        order = rng.permutation(s_values + s_values[:2]).tolist()  # with repeats
        assert geodesic_states(prof, p, v, order) == [want[s] for s in order]
        quad = _Quadrature(prof, p, conserved_quantities(prof, p, v))
        for s in rng.permutation(s_values).tolist():
            pt = quad.point_at(s)
            assert (pt.t, pt.x) == want[s][1:3]
    # states stop at the first s, in the given order, beyond the affine bound
    bound = affine_bound(prof, p, v)
    if math.isfinite(bound):
        order = [0.5, bound + 0.1, 0.13]
        assert geodesic_states(prof, p, v, order) == [want[0.5]]


@pytest.mark.parametrize("s", [1e150, 1e154, 1e200, 1e223, 1e300, 1.7e308])
def test_exp2t_inversion_where_a_overflows(s):
    # s(T) = e^T - 1 from (0, 0) with v = (1, 0), and dt/ds = e^{-T}; a = e^{2T}
    # overflows past T ~ 355, but the closed-form rate e^T does not
    prof, p, v = get_profile("exp2t"), P(0.0, 0.0), V(1.0, 0.0)
    want = math.log1p(s)
    assert quadrature_advance(prof, p, v, s).t == pytest.approx(want, rel=1e-12, abs=0.0)
    ((_, t, _, dtds, _),) = geodesic_states(prof, p, v, [s])
    assert t == pytest.approx(want, rel=1e-12, abs=0.0)
    assert dtds == pytest.approx(math.exp(-t), rel=1e-12, abs=0.0)


# exp2t has a = e^{2t} and b = 1: s(T) = (e^T - e^t0) / (e^t0 tau0), so the
# state at s is t = t0 + log1p(tau0 s), x = x0 + xi0 s, dt/ds = tau0 / (1 +
# tau0 s) and dx/ds = xi0
EXP2T_FAR = [
    (P(300.0, 0.0), V(1e-100, 0.0), 1e300),   # e^{rT} overflows below the target
    (P(300.0, 0.0), V(1.0, 0.0), 1e300),      # T lies past the march's overflow
    (P(0.0, 0.0), V(1.0, 0.0), 1.7e308),
    (P(0.0, 0.0), V(0.01, 0.005), 1e300),
    (P(-300.0, 0.0), V(1.0, 0.0), 1e150),
]


@pytest.mark.parametrize("p, v, s", EXP2T_FAR)
def test_exp2t_state_where_the_closed_form_overflows(p, v, s):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        tau, m_s = mpmath.mpf(v.tau0), mpmath.mpf(s)
        want = (s, float(p.t + mpmath.log1p(tau * m_s)), float(p.x + v.xi0 * m_s),
                float(tau / (1 + tau * m_s)), v.xi0)
    (row,) = geodesic_states(get_profile("exp2t"), p, v, [s])
    # T to a few ulps of t0 + log1p(tau0 s); x and dt/ds carry T's rounding,
    # amplified by |T| (d log(dt/ds) / dT = -1)
    assert abs(row[1] - want[1]) <= 4.0 * math.ulp(max(abs(p.t), abs(want[1])))
    assert row == pytest.approx(want, rel=1e-13, abs=0.0)
    assert quadrature_advance(get_profile("exp2t"), p, v, s) == P(row[1], row[2])


def test_exp2t_state_beyond_floats_raises():
    # x = kappa s = 1e430 cannot be finite: an error, never a nan or inf row
    with pytest.raises(QuadratureError, match="not finite"):
        geodesic_states(get_profile("exp2t"), P(300.0, 0.0), V(1.0, 1e130), [1e300])


def _count_s_at(quad):
    """Route quad's s_at through a counter, which Newton calls once per
    iteration (the march reads its map directly), and return the counts."""
    calls = []
    s_at = quad.s_at

    def counted(ts):
        calls.append(np.size(ts))
        return s_at(ts)

    quad.s_at = counted
    return calls


def test_inversion_returns_a_bracket_end_that_hits_the_target():
    prof = _fresh("minkowski")
    p, v = P(1.0, 0.3), V(1.0, 0.0)
    quad = _Quadrature(prof, p, conserved_quantities(prof, p, v))
    calls = _count_s_at(quad)
    # s(T) = T - 1, and the march points T = 2, 3, 5, ..., 65 give s = 2^k
    assert quad.t_of(1.0) == 2.0
    assert quad.t_of(64.0) == 65.0
    # between march points the closed form's exact inverse, with no Newton
    assert quad.t_of(1.5) == 2.5
    assert calls == []
    # the counter sees Newton where it runs: on c1power, a target an ulp
    # either side of a march value takes one step from the closed bracket
    prof = _fresh("c1power")
    quad = _Quadrature(prof, p, conserved_quantities(prof, p, v))
    march = quad.s_at(list(islice(toward_end(quad.t0, quad.t_end), 10))).tolist()
    targets = [math.nextafter(s, d) for s in march for d in (0.0, math.inf)]
    calls = _count_s_at(quad)
    quad.times(targets)
    assert calls == [len(targets)]


# -- causal_exp --------------------------------------------------------------------


def test_exp_flat_is_translation():
    mink = get_profile("minkowski")
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, v = random_causal(mink, rng, (-1.0, 1.0))
        got = causal_exp(mink, p, v)
        assert isinstance(got, SpacetimePoint)
        assert math.hypot(got.t - (p.t + v.tau0), got.x - (p.x + v.xi0)) < 1e-9


def test_exp_strip_certificate():
    got = causal_exp(get_profile("strip01"), P(0.5, 0), V(1, 0))
    assert isinstance(got, InextendibleCertificate)
    assert got.max_param == pytest.approx(0.5, abs=1e-6)


def test_exp_exp2t_closed_form():
    got = causal_exp(get_profile("exp2t"), P(0, 0), V(1, 0))
    assert abs(got.t - LN2) < 1e-8
    assert got.x == 0.0


@pytest.mark.parametrize("t0", [-30.0, -45.0])
@pytest.mark.parametrize("tau", [1.0, 2.0])
def test_exp_exp2t_closed_form_far_below_the_anchor(t0, tau):
    # a = e^(2t): with xi = e^t0 / 2, c = tau e^t0 and s(T) = (e^T - e^t0) / c,
    # so s = 1 lands at T = log(e^t0 + c) and x = xi; e^t vanishes toward
    # -inf, where a difference taken from the profile's anchor t = 0 cancels
    xi = 0.5 * math.exp(t0)
    got = causal_exp(get_profile("exp2t"), P(t0, 0.0), V(tau, xi))
    assert isinstance(got, SpacetimePoint)
    want = math.log(math.exp(t0) + tau * math.exp(t0))
    assert abs(got.t - want) <= 1e-12 * abs(want)
    assert abs(got.x - xi) <= 1e-12 * xi


def test_exp_past_directed_exp2t():
    # backwards from t=0 the flat time e^t - 1 has only 1 unit left, so the
    # past unit geodesic is inextendible with affine bound exactly 1
    got = causal_exp(get_profile("exp2t"), P(0, 0), V(-1, 0))
    assert isinstance(got, InextendibleCertificate)
    assert got.max_param == pytest.approx(1.0, abs=1e-9)
    assert got.t_boundary == -math.inf


def test_exp_rejects_spacelike():
    with pytest.raises(NotCausal):
        causal_exp(get_profile("minkowski"), P(0, 0), V(0.5, 2.0))


def test_affine_bound_matches_certificate():
    assert affine_bound(get_profile("strip01"), P(0.5, 0), V(1, 0)) == pytest.approx(
        0.5, abs=1e-6
    )
    assert affine_bound(get_profile("minkowski"), P(0, 0), V(1, 0)) == math.inf


def _count_anchored_maps(monkeypatch):
    """Record the integrand of every AnchoredMap built from now on."""
    built, init = [], quadrature.AnchoredMap.__init__

    def counted(self, f, *args, **kwargs):
        built.append(f)
        init(self, f, *args, **kwargs)

    monkeypatch.setattr(quadrature.AnchoredMap, "__init__", counted)
    return built


@pytest.mark.parametrize("v", [V(1.0, 0.3), V(-1.0, 0.3)], ids=["future", "past"])
def test_unit_b_geodesics_read_only_the_shared_flat_map(monkeypatch, v):
    # c1power has b == 1 and no closed form: s(T) comes off the profile's
    # flat map F, in either time direction, and no geodesic builds a map
    prof = _fresh("c1power")
    flat = _flat_map(prof)
    built = _count_anchored_maps(monkeypatch)
    p = P(0.5, 0.0)
    assert affine_bound(prof, p, v) == math.inf
    quad = _oriented(prof, p, v)
    ss = np.linspace(0.0, 5.0, 51)
    T = quad.times(ss)
    sign = quad.t_sign
    assert quad.s_at(T).tolist() == (sign * (flat.many(sign * T) - flat(p.t))
                                     / math.sqrt(quad.kappa ** 2 - quad.eps)).tolist()
    quad.rows(T, ss)
    causal_exp(prof, p, v)
    assert built == [] and list(prof._maps) == ["flat"]
    assert len(flat._up.cells) + len(flat._down.cells) > 0


@pytest.mark.parametrize("name", ["warpb", "mixed"])
def test_geodesics_off_unit_b_integrate_on_maps_of_their_own(monkeypatch, name):
    # with b != 1 s(T) and x(T) are maps anchored at t0, one pair a geodesic
    prof = MIXED if name == "mixed" else _fresh(name)
    built = _count_anchored_maps(monkeypatch)
    for v in (V(1.0, 0.3), V(-1.0, 0.3)):
        causal_exp(prof, P(0.1, 0.0), v)
    assert len(built) == 4


def test_nan_affine_parameter_is_not_an_infinite_bound():
    # the floor is checked on +-20 only: a(t) = 1 + t / 1000 vanishes at t = -1000
    lin = MetricProfile("lin", (const(1.0), linear(1e-3)), (const(1.0),), alpha=0.9)
    # past-directed data is solved in time -t, but the error names the time
    # of the profile passed in
    for v in (V(-1.0, 0.0), V(-1.0, 0.5)):
        with pytest.raises(QuadratureError, match=r"NaN at T = -1024\.0:"):
            affine_bound(lin, P(0.0, 0.0), v)


def test_geodesic_maps_match_an_mpmath_reference():
    # s(T) and x(T) inside cells come from dense output; on MIXED, whose
    # kink at 0.2 lies just outside some cells, an interpolant check as
    # loose as the integral's (QUAD_TOL) left s 8.7e-13 off
    mpmath = pytest.importorskip("mpmath")
    from oracles import mp_coefficient, mp_integral

    rng = np.random.default_rng(11)
    for _ in range(6):
        p, v = random_causal(MIXED, rng, (-1.2, 1.2), future_only=True)
        cons = conserved_quantities(MIXED, p, v)
        quad = _Quadrature(MIXED, p, cons)
        k, e = mpmath.mpf(cons.kappa), mpmath.mpf(cons.epsilon)

        def f_s(u):
            a, b = mp_coefficient(MIXED.terms_a, u), mp_coefficient(MIXED.terms_b, u)
            return mpmath.sqrt(a / (k * k / b - e))

        def f_x(u):
            b = mp_coefficient(MIXED.terms_b, u)
            return k * f_s(u) / b

        Ts = p.t + rng.uniform(0.0, min(1.0, MIXED.t_max - p.t - 1e-3), 5)
        got_s, got_x = quad.s_at(Ts), quad.x_at(Ts) - p.x
        for T, s, x in zip(Ts.tolist(), got_s.tolist(), got_x.tolist()):
            for got, f in ((s, f_s), (x, f_x)):
                want = mp_integral(f, p.t, T, MIXED.breakpoints)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (p, v, T)


@pytest.mark.parametrize("t0", [0.5, 85.0, 1e3, 1e5])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["future", "past"])
def test_c1power_geodesics_match_an_mpmath_reference(t0, sign):
    # s(T) comes off the shared flat map F, far from its anchor too: s =
    # (F(T) - F(t0)) / c.  T is checked through the mpmath s at T, whose slope
    # there is sqrt(a(T)) / c; x is the straight line x0 + kappa s
    mpmath = pytest.importorskip("mpmath")
    from oracles import mp_coefficient, mp_integral

    prof = _fresh("c1power")
    p = P(t0, 0.25)
    v = V(sign, 0.3 * math.sqrt(prof.eval(t0)[0]))
    quad = _oriented(prof, p, v)
    c = mpmath.sqrt(mpmath.mpf(quad.kappa) ** 2 - mpmath.mpf(quad.eps))

    def f_s(u):
        return mpmath.sqrt(mp_coefficient(prof.terms_a, u)) / c

    for s in (0.25, 1.0, 7.0, 40.0):
        pt = quad.point_at(s)
        T = sign * pt.t
        if sign > 0.0:
            s_mp = mp_integral(f_s, t0, pt.t, prof.breakpoints)
        else:
            s_mp = mp_integral(f_s, pt.t, t0, prof.breakpoints)
        err = (s_mp - s) / float(f_s(pt.t))
        assert abs(err) <= INVERT_TOL * max(1.0, abs(T)), (s, pt)
        assert pt.x == p.x + quad.kappa * s


def _count_extends(monkeypatch):
    calls = []
    extend = _Quadrature._extend
    monkeypatch.setattr(_Quadrature, "_extend", lambda self: calls.append(1) or extend(self))
    return calls


def test_divergent_bound_needs_no_march(monkeypatch):
    calls = _count_extends(monkeypatch)
    # every term of a and b is non-negative on [t0, inf) with a positive
    # constant part, in either time direction: s(T) diverges
    for name, p, v in [("c1power", P(0.1, 0.0), V(1.0, 0.0)),
                       ("c1power", P(-0.4, 0.0), V(-1.0, 0.3)),
                       ("warpb", P(0.2, 0.0), V(1.0, 0.5)),
                       ("minkowski", P(0.0, 0.0), V(1.0, 0.0))]:
        assert affine_bound(_fresh(name), p, v) == math.inf
    assert calls == []
    # the same geodesics still march to invert s
    row, = geodesic_states(_fresh("c1power"), P(0.1, 0.0), V(1.0, 0.0), [3.0])
    assert calls and row[0] == 3.0


def test_bound_checks_the_sign_of_every_term(monkeypatch):
    calls = _count_extends(monkeypatch)
    # a = 1 - t / 100 + 1e-6 |t|^1.5 leads with a positive power, but
    # a(1000) = -9: the march meets the NaN that a leading-term rule misses
    dip = MetricProfile("dip", (const(1.0), linear(-0.01), power(1e-6, 0.0, 1.5)),
                        (const(1.0),), alpha=0.5)
    with pytest.raises(QuadratureError, match=r"NaN at T = 128\.0:"):
        affine_bound(dip, P(0.0, 0.0), V(1.0, 0.0))
    # a linear term is non-negative on [t0, inf) only from t0 >= 0
    lin = MetricProfile("lin", (const(1.0), linear(1e-3)), (const(1.0),), alpha=0.9)
    calls.clear()
    assert affine_bound(lin, P(0.5, 0.0), V(1.0, 0.0)) == math.inf
    assert calls == []
    assert affine_bound(lin, P(-0.5, 0.0), V(1.0, 0.0)) == math.inf
    assert calls  # marched: the rule cannot tell
    # a finite end is never a divergent tail
    calls.clear()
    assert affine_bound(MIXED, P(0.5, 0.0), V(1.0, 0.0)) < math.inf
    assert calls


def test_underflowed_conserved_quantities_raise():
    # a(-400) = e^-800 underflows to 0, so kappa = eps = 0
    with pytest.raises(QuadratureError, match="underflow"):
        affine_bound(get_profile("exp2t"), P(-400.0, 0.0), V(1e174, 0.0))


def test_finite_end_bound_is_the_map_value_at_the_end():
    # strip01 has a = b = 1 on (0, 1): s(t) = t - t0, so the bounds are
    # 1 - t0 forward and t0 backward, and s = 0.5 from t0 = 0.5 is not reached
    strip = get_profile("strip01")
    assert affine_bound(strip, P(0.3, 0), V(1, 0)) == 1.0 - 0.3
    assert affine_bound(strip, P(0.3, 0), V(-1, 0)) == 0.3
    with pytest.raises(Inextendible) as err:
        quadrature_advance(strip, P(0.5, 0), V(1, 0), 0.5)
    assert err.value.certificate == InextendibleCertificate(0.5, 1.0, 0.0)
    # with anchored maps (b != 1) the bound is s at the end, and x_limit is x there
    p, v = P(1.5, 0.0), V(1.0, 0.1)
    quad = _Quadrature(MIXED, p, conserved_quantities(MIXED, p, v))
    with pytest.raises(Inextendible) as err:
        quad.t_of(1.0)
    assert err.value.certificate == InextendibleCertificate(
        float(quad.s_at(2.0)), 2.0, float(quad.x_at(2.0)))
    assert quad.bound() == float(quad.s_at(2.0))


def test_past_directed_certificates_name_the_callers_end():
    slab = MetricProfile("slab", (const(1.0),), (const(1.0),), t_min=-1.0, t_max=2.0)
    assert causal_exp(slab, P(-0.5, 0.25), V(-1.0, 0.0)) == InextendibleCertificate(
        0.5, -1.0, 0.25)
    with pytest.raises(Inextendible) as err:
        uniqueness_witness(slab, P(0.0, 0.0), V(-1.0, 0.0), s_max=2.0)
    assert err.value.certificate == InextendibleCertificate(1.0, -1.0, 0.0)


# a = 1 - t / 10 grows toward the past: from t < 0 its linear term stays
# non-negative going backward, so the past-directed affine length diverges
LINDOWN = MetricProfile("lindown", (const(1.0), linear(-0.1)), (const(1.0),),
                        alpha=0.4, check_window=(-20.0, 5.0))

# past-directed starts whose geodesic leaves the domain before s = 1: a
# finite end, and toward -inf on exp2t, where the affine length is 1 / tau0
PAST_EXITS = {
    "strip01": [(P(0.3, 0.1), V(-0.5, 0.2)), (P(0.35, 0.0), V(-0.9, 0.0))],
    "exp2t": [(P(0.2, 0.0), V(-1.5, 0.4)), (P(-0.3, 0.5), V(-2.0, -0.9))],
    "mixed": [(P(-1.5, 0.0), V(-1.0, 0.2))],
}


def _past_directed(prof, rng, n):
    """n random past-directed causal starts, and the profile's PAST_EXITS."""
    t_window, tau_window = IC_WINDOWS.get(prof.name, ((-1.5, 1.5), (0.2, 1.0)))
    for _ in range(n):
        p, v = random_causal(prof, rng, t_window, tau_window, future_only=True)
        yield p, V(-v.tau0, v.xi0)
    yield from PAST_EXITS.get(prof.name, [])


def _mirror_back(out):
    """A result of the mirrored profile in the original's time: t negated."""
    if isinstance(out, SpacetimePoint):
        return P(-out.t, out.x)
    if isinstance(out, InextendibleCertificate):
        return InextendibleCertificate(out.max_param, -out.t_boundary, out.x_limit)
    return out


def _witness(prof, p, v):
    try:
        return uniqueness_witness(prof, p, v)
    except Inextendible as exc:
        return exc.certificate


@pytest.mark.parametrize("prof", [get_profile(n) for n in CATALOG_NAMES] + [MIXED, LINDOWN],
                         ids=lambda prof: prof.name)
def test_past_directed_results_are_the_mirrored_future_results(prof):
    # the mirror oracle is built by hand from flipped terms; solving on the
    # profile's own maps in time -t negates exactly, so every point,
    # certificate and gap is the mirrored profile's with t negated, bit for bit
    mirror = mirrored(prof)
    exits = 0
    for p, v in _past_directed(prof, np.random.default_rng(16), 6):
        pm, vm = P(-p.t, p.x), V(-v.tau0, v.xi0)
        got = causal_exp(prof, p, v)
        assert repr(got) == repr(_mirror_back(causal_exp(mirror, pm, vm))), (p, v)
        exits += isinstance(got, InextendibleCertificate)
        assert repr(affine_bound(prof, p, v)) == repr(affine_bound(mirror, pm, vm))
        assert repr(_witness(prof, p, v)) == repr(_mirror_back(_witness(mirror, pm, vm)))
    assert exits >= len(PAST_EXITS.get(prof.name, []))


def test_past_directed_calls_build_no_profile(monkeypatch):
    cases = [(get_profile("minkowski"), P(0.0, 0.0), V(-1.0, 0.25)),
             (get_profile("strip01"), P(0.9, 0.0), V(-0.5, 0.1)),
             (get_profile("exp2t"), P(0.0, 0.0), V(-0.8, 0.2)),
             (get_profile("c1power"), P(0.3, 0.0), V(-1.0, 0.2)),
             (get_profile("warpb"), P(0.2, 0.0), V(-1.0, 0.3)),
             (MIXED, P(0.5, 0.1), V(-0.8, 0.2))]
    built, post_init = [], MetricProfile.__post_init__
    monkeypatch.setattr(MetricProfile, "__post_init__",
                        lambda self: built.append(self.name) or post_init(self))
    for prof, p, v in cases:
        assert isinstance(causal_exp(prof, p, v), SpacetimePoint)
        affine_bound(prof, p, v)
        uniqueness_witness(prof, p, v)
        # the larger radius turns some perturbations future-directed
        exp_continuity_probe(prof, p, v, [0.05, 2.0 * abs(v.tau0)])
    assert built == []


def test_past_directed_divergence_reads_a_linear_term_backward(monkeypatch):
    # from t = -1 every term of a stays non-negative toward the past, so the
    # bound is inf with no march; from t = 1 the term -t / 10 starts
    # negative and the march runs; toward the future a falls to 0 at t = 10
    calls = _count_extends(monkeypatch)
    assert affine_bound(LINDOWN, P(-1.0, 0.0), V(-1.0, 0.3)) == math.inf
    assert len(calls) == 0
    assert affine_bound(LINDOWN, P(1.0, 0.0), V(-1.0, 0.3)) == math.inf
    assert len(calls) > 0
    with pytest.raises(QuadratureError, match="NaN"):
        affine_bound(LINDOWN, P(-1.0, 0.0), V(1.0, 0.3))


@pytest.mark.parametrize("entry", [affine_bound, causal_exp, uniqueness_witness])
@pytest.mark.parametrize("name", ["minkowski", "warpb"])
def test_null_band_vector_without_time_direction_is_rejected(entry, name):
    # g(v, v) = 1e-12 lies in the null band, but tau0 = 0 picks no time direction
    with pytest.raises(NotCausal, match="tau0 = 0"):
        entry(get_profile(name), P(0, 0), V(0, 1e-6))


def test_geodesic_entry_points_classify_at_the_fixed_null_band():
    # on minkowski g(v, v) = xi0^2 - tau0^2: about 8e-13 for the first
    # vector, inside the band EPS_NULL = 1e-12, and about 2e-12 for the
    # second, outside it
    mink, p = get_profile("minkowski"), P(0, 0)
    inside, outside = V(1, 1 + 4e-13), V(1, 1 + 1e-12)
    assert classify_vector(mink, p, inside).norm_sq <= EPS_NULL < \
        classify_vector(mink, p, outside).norm_sq
    assert causal_exp(mink, p, inside) == P(1.0, 1.0000000000004)
    assert geodesic_states(mink, p, inside, [1.0]) == [(1.0, 1.0, 1.0000000000004, 1.0, 1 + 4e-13)]
    for entry in (causal_exp, lambda *args: geodesic_states(*args, [1.0])):
        with pytest.raises(NotCausal, match="spacelike"):
            entry(mink, p, outside)


@pytest.mark.parametrize("s", [-1e-3, math.inf, math.nan])
def test_inversion_rejects_a_parameter_out_of_range(s):
    with pytest.raises(ValueError, match="finite and non-negative"):
        geodesic_states(get_profile("minkowski"), P(0, 0), V(1, 0), [0.5, s])


def test_inversion_out_of_steps_raises(monkeypatch):
    p, v = P(0.5, 0.0), V(1.0, 0.3)
    assert quadrature_advance(_fresh("c1power"), p, v, 0.37).t > 0.5
    monkeypatch.setattr(quadrature, "ROOT_MAX_ITER", 1)
    with pytest.raises(QuadratureError,
                       match=r"^inversion of s = 0\.37 did not converge in 1 Newton steps$"):
        quadrature_advance(_fresh("c1power"), p, v, 0.37)


# -- exp continuity ------------------------------------------------------------------


def test_continuity_probe_flat_linear():
    mink = get_profile("minkowski")
    rows = exp_continuity_probe(mink, P(0, 0), V(1.5, 0.2), [0.1, 0.01])
    # in flat space exp is the identity on (p + v), so displacement == radius
    for row in rows:
        assert row.max_displacement == pytest.approx(row.radius, rel=1e-6)
    assert rows[0].max_displacement > rows[1].max_displacement


def test_continuity_probe_across_kink():
    prof = get_profile("c1power")
    v = V(1.2, 0.1)  # from (-0.5, 0) this crosses t = 0 before s = 1
    base = causal_exp(prof, P(-0.5, 0), v)
    assert base.t > 0.0
    radii = [1e-2, 1e-3, 1e-4, 1e-5]
    rows = exp_continuity_probe(prof, P(-0.5, 0), v, radii)
    disps = [r.max_displacement for r in rows]
    assert all(d1 > d2 for d1, d2 in zip(disps[:-1], disps[1:]))
    assert disps[-1] < 1e-4


@pytest.mark.parametrize("v, r", [(V(0.5, 0), 0.5), (V(1, 0), 1.0)])
def test_continuity_probe_skips_a_perturbation_without_time_direction(v, r):
    # the perturbation at angle pi is (0, r sin(pi)) = (0, ~6e-17 r): g(v, v)
    # lies in the null band, so it is causal, but it has no time direction
    # and no geodesic, so it is skipped like a non-causal one
    rows = exp_continuity_probe(get_profile("minkowski"), P(0, 0), v, [r])
    assert len(rows) == 1 and rows[0].n_causal + rows[0].n_skipped == 32


def test_continuity_probe_refuses_outside_domain_of_exp():
    with pytest.raises(Inextendible):
        exp_continuity_probe(get_profile("strip01"), P(0.5, 0), V(1, 0), [0.01])


# -- uniqueness witness ------------------------------------------------------------------


def test_uniqueness_witness_flat():
    gap = uniqueness_witness(get_profile("minkowski"), P(0, 0), V(1, 0.5))
    assert gap < 1e-12


def test_uniqueness_witness_exp2t():
    gap = uniqueness_witness(get_profile("exp2t"), P(0, 0), V(1, 0.2),
                             steps=(1e-2, 1e-3))
    assert gap < 1e-6


def test_uniqueness_witness_crossing_kink():
    gap = uniqueness_witness(get_profile("c1power"), P(-0.5, 0), V(1, 0.2),
                             steps=(1e-2, 1e-3), s_max=1.2)
    assert gap < 1e-5


def test_uniqueness_witness_past_directed():
    gap = uniqueness_witness(get_profile("minkowski"), P(0, 0), V(-1, 0.25))
    assert gap < 1e-12


def test_uniqueness_witness_rejects_zero_tau():
    with pytest.raises(NotCausal):
        uniqueness_witness(get_profile("minkowski"), P(0, 0), V(0, 1))


def test_uniqueness_witness_rejects_spacelike():
    with pytest.raises(NotCausal, match="spacelike"):
        uniqueness_witness(get_profile("minkowski"), P(0, 0), V(1, 2))


@pytest.mark.parametrize("steps, s_max", [
    ((-1e-2, 1e-3), 1.0),  # read a made-up gap of 1.0198
    ((0.0, 1e-3), 1.0),  # raised ZeroDivisionError
    ((1e-2, math.nan), 1.0), ((math.inf, 1e-3), 1.0),
    ((1e-2, 1e-3), 0.0), ((1e-2, 1e-3), -1.0), ((1e-2, 1e-3), math.nan), ((1e-2, 1e-3), math.inf),
])
@pytest.mark.parametrize("tau0", [1.0, -1.0])
def test_uniqueness_witness_rejects_steps_not_positive_and_finite(steps, s_max, tau0):
    with pytest.raises(ValueError, match="positive and finite"):
        uniqueness_witness(get_profile("minkowski"), P(0, 0), V(tau0, 0.2), steps, s_max)


# -- dual-solver equivalence property ----------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_dual_solver_agreement(name):
    prof = get_profile(name)
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    lo = max(prof.t_min, -1.0) + 0.3
    hi = min(prof.t_max, 1.0) - 0.45
    for _ in range(25):
        p, v = random_causal(prof, rng, (lo, hi), tau_range=(0.1, 0.4),
                             future_only=True)
        quad = quadrature_advance(prof, p, v, 1.0)
        end = integrate_geodesic(prof, p, v, 1.0, 1e-3).endpoint()
        assert math.hypot(end.t - quad.t, end.x - quad.x) < 1e-6


# -- gate: the fused RK4 step against the per-stage route it replaced ------------------
#
# Verbatim copies of the per-stage route: four ode_rhs calls through
# profile.eval per step, one more eval for the drift check, and the
# uniqueness witness stepping with the same _rk4_step.


def seed_ode_rhs(profile: MetricProfile, state) -> tuple[float, float, float, float]:
    """First-order form of the geodesic system at state (t, x, dt/ds, dx/ds)."""
    t, _, td, xd = state
    a, b, da, db = profile.eval(t)
    g000 = da / (2.0 * a)
    g011 = db / (2.0 * a)
    g101 = db / (2.0 * b)
    return (td, xd, -g000 * td * td - g011 * xd * xd, -2.0 * g101 * td * xd)


def seed_rk4_step(profile, state, h):
    k1 = seed_ode_rhs(profile, state)
    s2 = tuple(y + 0.5 * h * k for y, k in zip(state, k1))
    k2 = seed_ode_rhs(profile, s2)
    s3 = tuple(y + 0.5 * h * k for y, k in zip(state, k2))
    k3 = seed_ode_rhs(profile, s3)
    s4 = tuple(y + h * k for y, k in zip(state, k3))
    k4 = seed_ode_rhs(profile, s4)
    return tuple(
        y + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for y, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def seed_try_step(profile, state, h):
    try:
        nxt = seed_rk4_step(profile, state, h)
    except DomainExceeded:
        return None
    if not profile.contains(nxt[0]):
        return None
    return nxt


def seed_integrate_geodesic(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    s_max: float,
    step: float,
    drift_tol: float = DRIFT_TOL,
) -> GeodesicPath:
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
        nxt = seed_try_step(profile, state, h)
        if nxt is None:
            lo, hi = 0.0, h
            good = None
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                trial = seed_try_step(profile, state, mid)
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


def seed_advance_fixed(profile, p, v, s_values, h):
    state, done, out = (p.t, p.x, v.tau0, v.xi0), 0, []
    for s in s_values:
        n = int(math.floor(s / h + 1e-12))
        for _ in range(n - done):
            state = seed_rk4_step(profile, state, h)
        done, rem = n, s - n * h
        out.append(seed_rk4_step(profile, state, rem) if rem > 1e-15 * max(1.0, s) else state)
    return out


def seed_uniqueness_witness(profile, p, v, steps=(1e-2, 1e-3), s_max=1.0, n_checks=10):
    if v.tau0 == 0.0:
        raise NotCausal("uniqueness witness requires tau0 != 0")
    if v.tau0 < 0.0:
        profile, p, v = mirrored(profile), P(-p.t, p.x), V(-v.tau0, v.xi0)
    quad = _Quadrature(profile, p, conserved_quantities(profile, p, v))
    s_checks = [s_max * i / n_checks for i in range(1, n_checks + 1)]
    T = quad.times(s_checks)
    if len(T) < n_checks:
        raise Inextendible(quad._certificate(quad.bound()))
    runs = [zip(T.tolist(), quad._x(T, s_checks).tolist())]
    runs += [[st[:2] for st in seed_advance_fixed(profile, p, v, s_checks, h)] for h in steps]
    return max((math.hypot(a[0] - b[0], a[1] - b[1])
                for pts in zip(*runs) for a, b in combinations(pts, 2)), default=0.0)


# the start windows of the acceptance tests and the benchmark
IC_WINDOWS = {
    "minkowski": ((-1.0, 1.0), (0.2, 1.0)),
    "strip01": ((0.25, 0.45), (0.1, 0.4)),
    "exp2t": ((-0.5, 0.5), (0.2, 1.0)),
    "c1power": ((0.05, 0.8), (0.2, 1.0)),
    "warpb": ((-0.5, 0.5), (0.2, 1.0)),
}

# a decreases toward t_max, so a geodesic heading there speeds up: its later
# stages reach further than the earlier ones
RAMP = MetricProfile("ramp", (const(2.0), linear(-0.5)), (const(1.0), exponential(0.2, 1.0)),
                     t_min=-1.0, t_max=1.0)

# (profile, p, v, step, first point of the first step outside the domain)
EXIT_CASES = [
    (MIXED, P(1.99, 0.0), V(0.5, 0.0), 0.1, 2),
    (RAMP, P(0.94975, 0.0), V(1.0, 0.0), 0.1, 3),
    (MIXED, P(1.974875, 0.0), V(0.5, 0.0), 0.1, 4),
    (RAMP, P(0.8999992, 0.0), V(1.0, 1.0), 0.1, "end"),
]


def _first_outside(profile, p, v, h):
    """Where the per-stage RK4 step of h from (p, v) first leaves the domain:
    stage 2, 3 or 4, "end", or None when it stays inside."""
    state = (p.t, p.x, v.tau0, v.xi0)
    k = seed_ode_rhs(profile, state)
    for stage, frac in ((2, 0.5), (3, 0.5), (4, 1.0)):
        nxt = tuple(y + frac * h * kk for y, kk in zip(state, k))
        if not profile.contains(nxt[0]):
            return stage
        k = seed_ode_rhs(profile, nxt)
    return "end" if seed_try_step(profile, state, h) is None else None


def test_exit_cases_leave_at_each_stage_and_at_the_end():
    for prof, p, v, step, where in EXIT_CASES:
        assert _first_outside(prof, p, v, step) == where
        assert integrate_geodesic(prof, p, v, 1.0, step).inextendible


def test_a_step_whose_third_stage_alone_leaves_is_an_exit():
    # a is a steep well centred at 0.8.  A coarse step from below it speeds
    # up toward t_max at its first stage, so stage 3 overshoots the end; past
    # the centre the pull back is strong, so stage 4 and the end state lie
    # inside.  Only the stage-3 check sees this exit
    well = MetricProfile("well", (const(1.0), power(50.0, 0.8, 2.0)), (const(1.0),),
                         t_min=-1.0, t_max=1.0)
    p, v, step = P(0.66237, 0.0), V(2.0, 0.0), 0.2
    assert _first_outside(well, p, v, step) == 3
    # a step this coarse breaks the default drift budget, so the runs allow
    # a drift_tol of 1
    want = seed_integrate_geodesic(well, p, v, 1.0, step, 1.0)
    got = integrate_geodesic(well, p, v, 1.0, step, 1.0)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert (got.max_param, got.inextendible) == (want.max_param, True)


def _gate_cases():
    """(profile, p, v, s_max, step) runs covering every branch of the step."""
    cases = []
    for name in CATALOG_NAMES:
        prof = get_profile(name)
        t_window, tau_window = IC_WINDOWS[name]
        rng = np.random.default_rng(909)
        for _ in range(6):
            p, v = random_causal(prof, rng, t_window, tau_window)
            cases.append((prof, p, v, 1.0, 1e-3))
        t = 0.5 * sum(t_window)
        a, b, _, _ = prof.eval(t)
        # xi0 = 0, xi0 < 0, and a coarse step
        cases.append((prof, P(t, 0.2), V(0.7, 0.0), 1.0, 1e-3))
        cases.append((prof, P(t, -0.4), V(0.9, -0.6 * math.sqrt(a / b)), 1.0, 1e-3))
        cases.append((prof, P(t, 0.0), V(0.5, 0.3 * math.sqrt(a / b)), 1.0, 1e-2))
    # domain exits located by bisection, and starts on and across kinks
    cases.append((get_profile("strip01"), P(0.5, 0.0), V(1.0, 0.3), 1.0, 1e-3))
    cases.append((get_profile("strip01"), P(0.6, 0.0), V(-1.0, 0.5), 1.0, 1e-2))
    cases.append((get_profile("c1power"), P(0.0, 0.1), V(1.0, 0.3), 1.0, 1e-3))
    cases.append((get_profile("c1power"), P(-0.5, 0.0), V(1.0, 0.2), 1.2, 1e-3))
    rng = np.random.default_rng(404)
    for _ in range(4):
        p, v = random_causal(MIXED, rng, (-1.0, 1.0))
        cases.append((MIXED, p, v, 1.0, 1e-3))
    cases.append((MIXED, P(0.2, 0.0), V(1.0, -0.4), 1.0, 1e-3))
    cases.append((MIXED, P(1.5, 0.0), V(1.0, 0.1), 2.0, 1e-3))
    cases += [(prof, p, v, 1.0, step) for prof, p, v, step, _ in EXIT_CASES]
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (StepTooLarge, Inextendible, NotCausal) as exc:
        return type(exc), str(exc)


def test_fused_rk4_is_bitwise_the_per_stage_route():
    exits = 0
    for prof, p, v, s_max, step in _gate_cases():
        want = seed_integrate_geodesic(prof, p, v, s_max, step)
        got = integrate_geodesic(prof, p, v, s_max, step)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert (got.max_param, got.inextendible) == (want.max_param, want.inextendible)
        assert got.conserved == want.conserved
        exits += got.inextendible
    assert exits >= 3


def test_profiles_of_the_same_term_kinds_share_one_code_object():
    # MIXED's term kinds, with other constants and another domain
    other = MetricProfile(
        "mixed2",
        (const(1.5), linear(-0.2), power(0.4, -0.3, 1.8), exponential(0.1, -0.9)),
        (const(0.8), exponential(0.3, 0.5)),
        t_min=-1.5, t_max=1.2, alpha=0.1,
    )
    for fn_a, fn_b in zip(MIXED._kernels, other._kernels):
        assert fn_a is not fn_b and fn_a.__code__ is fn_b.__code__
    for prof in (MIXED, other):
        rng = np.random.default_rng(31)
        exits = 0
        for _ in range(3):
            p, v = random_causal(prof, rng, (-1.0, 1.0))
            for s_max, step in ((1.0, 1e-3), (6.0, 1e-2)):
                want = seed_integrate_geodesic(prof, p, v, s_max, step)
                got = integrate_geodesic(prof, p, v, s_max, step)
                assert got.samples.tobytes() == want.samples.tobytes()
                assert (got.max_param, got.inextendible) == (want.max_param, want.inextendible)
                exits += got.inextendible
        assert exits >= 2


def test_generated_source_is_compiled_once_per_distinct_source(monkeypatch):
    compiled = []

    def counting_compile(src, *args):
        compiled.append(src)
        return compile(src, *args)

    profiles._compiled.cache_clear()
    monkeypatch.setattr(profiles, "compile", counting_compile, raising=False)
    flat = [MetricProfile(f"b{c}", (const(1.0),), (const(c),)) for c in (1.0, 2.0, 3.0)]
    kinks = [MetricProfile(f"k{c}", (const(1.0), power(c, 0.0, 1.5)), (const(1.0),))
             for c in (1.0, 2.0)]
    for prof in flat + kinks:
        prof.geodesic_rhs(0.5, 1.0, 0.0)
        integrate_geodesic(prof, P(0.0, 0.0), V(1.0, 0.2), 0.1, 1e-2)
    assert len(compiled) == len(set(compiled)) == 2


def test_fused_rk4_raises_the_same_step_too_large():
    prof, p, v = get_profile("exp2t"), P(0.0, 0.0), V(1.0, 0.0)
    with pytest.raises(StepTooLarge) as want:
        seed_integrate_geodesic(prof, p, v, 4.0, 0.5)
    with pytest.raises(StepTooLarge) as got:
        integrate_geodesic(prof, p, v, 4.0, 0.5)
    assert str(got.value) == str(want.value)


def test_uniqueness_witness_is_bitwise_the_per_stage_route():
    seen = set()
    for prof, p, v, _, _ in _gate_cases():
        if (prof.name, p, v) in seen:
            continue
        seen.add((prof.name, p, v))
        want = _outcome(seed_uniqueness_witness, prof, p, v)
        assert _outcome(uniqueness_witness, prof, p, v) == want


def test_drift_max_is_the_benchmark_drift():
    for prof, p, v, s_max, step in _gate_cases():
        path = integrate_geodesic(prof, p, v, s_max, step)
        kappa0, eps0 = path.conserved.kappa, path.conserved.epsilon
        # the benchmark's drift, with the scalar evaluation the drift check uses
        drift = 0.0
        for _, t, _, td, xd in path.samples.tolist():
            a, b, _, _ = prof.eval(t)
            drift = max(drift, abs(b * xd - kappa0), abs(-a * td * td + b * xd * xd - eps0))
        assert path.drift_max == drift
        # and the benchmark's vectorized check, whose np.exp and np.power can
        # differ from math.exp and pow in the last bit of a and b
        a, b, _, _ = prof.eval_many(path.samples[:, 1])
        td, xd = path.samples[:, 3], path.samples[:, 4]
        vec = max(np.abs(b * xd - kappa0).max(), np.abs(-a * td * td + b * xd * xd - eps0).max())
        assert path.drift_max == pytest.approx(float(vec), rel=0.0, abs=1e-14)


# -- gate: the sorted march against the per-target walk it replaced ----------------
#
# SeedInversion holds verbatim copies of the quadrature route's inversion
# before one sorted march bracketed every target: the stall gate, the march,
# its extension, the per-target bracket walk and the batched Newton.  It
# inverts the maps of the solver it is given.


def seed_stall_gate(s: float) -> float:
    """Least gain in s between march points that counts as progress."""
    return max(1e-13, 1e-12 * abs(s))


class SeedInversion:
    def __init__(self, quad):
        self.t_end, self.t_sign, self.t0 = quad.t_end, quad.t_sign, quad.t0
        self.s_at, self._rate = quad.s_at, quad._rate
        t_end, t0 = self.t_end, self.t0
        finite = math.isfinite(t_end)
        self._march = in_blocks(lambda ts: quad.s_at(ts).tolist(),
                                islice(toward_end(t0, t_end), 49 if finite else 75))
        self._points, self._stall, self._ended, self._total = [], 0, False, None

    def _extend(self) -> None:
        pts = self._points
        finite = math.isfinite(self.t_end)
        prev = pts[-1][1] if pts else 0.0
        T, sT = next(self._march, (None, prev))
        if T is None:
            self._ended, self._total = True, prev if finite else None
            return
        if math.isnan(sT):
            raise QuadratureError(
                f"affine parameter s(T) is NaN at T = {self.t_sign * T!r}: the metric "
                "degenerates before this point")
        pts.append((T, sT))
        self._stall = self._stall + 1 if sT - prev < seed_stall_gate(sT) else 0
        # an unbounded march waits one step longer: the affine length can
        # converge although t escapes to infinity
        if not math.isfinite(sT) or self._stall >= (2 if finite else 3):
            self._ended, self._total = True, sT

    def _bracket(self, s: float):
        if s < 0.0:
            raise ValueError("affine parameter must be non-negative")
        lo, slo, i = self.t0, 0.0, 0
        while i < len(self._points) or not self._ended:
            if i == len(self._points):
                self._extend()
                continue
            T, sT = self._points[i]
            i += 1
            # a saturating integral can touch the target exactly in floats;
            # only healthy progress onto the target counts as a bracket
            if not math.isfinite(sT) or sT > s or (sT == s and sT - slo > seed_stall_gate(sT)):
                return s, lo, T, slo, sT
            lo, slo = T, sT
        if self._total is None:
            raise QuadratureError("affine target not bracketed while doubling T")
        return None

    def times(self, s_values) -> np.ndarray:
        rows = []
        for s in s_values:
            row = self._bracket(float(s))
            if row is None:
                break
            rows.append(row)
        s, lo, hi, slo, shi = np.array(rows).reshape(-1, 5).T
        # a bracket end can hit the target exactly (s = 0 is t0)
        out = np.where(shi == s, hi, lo)
        act = np.nonzero((slo != s) & (shi != s))[0]
        s, lo, hi, slo, shi = s[act], lo[act], hi[act], slo[act], shi[act]
        T = lo + (s - slo) * (hi - lo) / (shi - slo)
        # past an overflowed s (exp2t) the iterate is inf or nan, and the
        # bracket throws it back to the midpoint
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(100):
                if not len(act):
                    return out
                T = np.where((lo < T) & (T < hi), T, 0.5 * (lo + hi))
                err, rate = self.s_at(T) - s, self._rate(T)
                step = err / rate
                below = err < 0.0
                lo, hi = np.where(below, T, lo), np.where(below, hi, T)
                tol = geodesics.INVERT_TOL * np.maximum(1.0, np.abs(T))
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
        out[act] = 0.5 * (lo + hi)
        return out


@pytest.mark.parametrize("prof", [get_profile(n) for n in CATALOG_NAMES] + [MIXED],
                         ids=lambda prof: prof.name)
def test_sorted_march_is_bitwise_the_per_target_walk(prof):
    t_window, tau_window = IC_WINDOWS.get(prof.name, ((-1.5, 1.5), (0.2, 1.0)))
    rng = np.random.default_rng(14)
    for _ in range(8):
        p, v = random_causal(prof, rng, t_window, tau_window)  # half past-directed
        quad = _oriented(prof, p, v)
        seed = SeedInversion(_oriented(prof, p, v))
        # interior targets: s = 0, s at the first march points (each hits a
        # bracket end) while s still gains on them, and random s below those
        hits = []
        march = list(islice(toward_end(quad.t0, quad.t_end), 20))
        for s in quad.s_at(march).tolist():
            if not math.isfinite(s) or s - (hits or [0.0])[-1] < seed_stall_gate(s):
                break
            hits.append(s)
        targets = [0.0, *hits, *(hits[-1] * rng.uniform(0.0, 1.0, 20)).tolist()]
        targets = rng.permutation(targets).tolist()
        if _inverts_exactly(quad):
            # a growing closed form is inverted exactly, with no march and
            # not by the seed's Newton: every T, those of the march values
            # included, is held to the mpmath inverse, and s = 0 is t0
            T = _assert_exact_inversion(quad, targets)
            assert T[targets.index(0.0)] == quad.t0
            continue
        want = seed.times(targets)
        assert len(want) == len(targets)
        assert quad.times(targets).tobytes() == want.tobytes()


def _inverts_exactly(quad):
    """True when quad's s map is a growing closed form (r >= 0)."""
    return quad._closed is not None and quad._closed.r >= 0.0


def _assert_exact_inversion(quad, targets):
    """Invert targets with quad, a solver on a growing closed form, all below
    its affine bound, and check that no Newton row ran, that no target was
    dropped as beyond and that every T lies within INVERT_TOL max(1, |T|) of
    a 40-digit mpmath inverse and strictly below the domain end."""
    pytest.importorskip("mpmath")
    calls = _count_s_at(quad)
    T = quad.times(targets)
    assert calls == [] and len(T) == len(targets)
    m = quad._closed
    want = np.array([mp_exp_map_inverse(m.k, m.r, m.anchor, s) for s in targets])
    assert (np.abs(T - want) <= INVERT_TOL * np.maximum(1.0, np.abs(want))).all()
    assert (T < quad.t_end).all()
    return T


# beyond the first march points: s the march reaches on minkowski (which
# runs out at t0 + 2^74), and s past the overflow of e^T on exp2t
FAR_TARGETS = {"minkowski": [1e6, 1e12, 1e18], "exp2t": [1e150, 1e300, 1.7e308]}


@pytest.mark.parametrize("name", ["minkowski", "strip01", "exp2t"])
def test_growing_closed_form_inversion_against_mpmath(name):
    prof = _fresh(name)
    t_window, tau_window = IC_WINDOWS[name]
    rng = np.random.default_rng(31)
    growing = 0
    for _ in range(12):
        p, v = random_causal(prof, rng, t_window, tau_window)  # half past-directed
        quad = _oriented(prof, p, v)
        if not _inverts_exactly(quad):  # a saturating s keeps Newton
            assert name == "exp2t" and quad.t_sign < 0.0
            continue
        growing += 1
        bound = quad.bound()
        if math.isfinite(bound):
            near = [bound * (1.0 - 2.0 ** -k) for k in (1, 10, 30, 52)]
            near.append(math.nextafter(bound, 0.0))
        else:
            near = FAR_TARGETS[name]
        _assert_exact_inversion(quad, [*rng.uniform(0.0, min(bound, 4.0), 12).tolist(), *near])
    assert growing >= 5


def test_strip01_inversion_stays_below_the_domain_end():
    # the exact T = 1 - 2^-54 of s = 0.5 - 2^-54 rounds onto t_max = 1.0
    s = math.nextafter(0.5, 0.0)
    quad = _oriented(_fresh("strip01"), P(0.5, 0.0), V(1.0, 0.0))
    assert quad.times([s]).tolist() == [math.nextafter(1.0, 0.0)]
    ((_, t, *_),) = geodesic_states(_fresh("strip01"), P(0.5, 0.0), V(1.0, 0.0), [s])
    assert t == math.nextafter(1.0, 0.0)


def test_minkowski_target_past_any_march_reach_is_exact():
    # a march toward the unbounded end ran out at t0 + 2^74 and raised
    # "affine target not bracketed" for this target
    mink = _fresh("minkowski")
    assert geodesic_states(mink, P(0, 0), V(1, 0), [1e23]) == [(1e23, 1e23, 0.0, 1.0, 0.0)]


@pytest.mark.parametrize("t0", [0.5, 0.1])
def test_strip01_affine_bound_is_the_map_at_the_end_with_no_march(monkeypatch, t0):
    def refuse(self):
        raise AssertionError("the march was extended")

    monkeypatch.setattr(_Quadrature, "_extend", refuse)
    strip = _fresh("strip01")
    quad = _oriented(strip, P(t0, 0.0), V(1.0, 0.0))
    assert affine_bound(strip, P(t0, 0.0), V(1.0, 0.0)) == quad._closed(1.0) == 1.0 - t0
    # past-directed, the end ahead is t = 0, forward time -0.0
    assert affine_bound(strip, P(t0, 0.0), V(-1.0, 0.0)) == t0


def test_exp2t_inverse_far_below_its_anchor_is_within_an_ulp_of_mpmath():
    # the anchor -300 would cancel against T = 45.39 in anchor + log1p(z) / r,
    # which put T 1.8 ulps off; log(r s / k) / r + log1p(1 / z) / r has no
    # anchor term
    quad = _oriented(get_profile("exp2t"), P(-300.0, 0.0), V(1.0, 0.0))
    pytest.importorskip("mpmath")
    m = quad._closed
    want = mp_exp_map_inverse(m.k, m.r, m.anchor, 1e150)
    (T,) = quad.times([1e150]).tolist()
    assert abs(T - want) <= math.ulp(want)


# -- gate: Newton on the closed bracket against the open-bracket inversion ---------
#
# seed_times is a verbatim copy of _Quadrature.times from before Newton kept
# an iterate on a bracket end.  It inverts the maps of the solver it is given.


def seed_times(self, s_values) -> np.ndarray:
    """T at each s of s_values, in order, up to the first s beyond the
    affine bound.

    The march extends until one point lies strictly above the largest s
    or the march ends; an s at or past the bound of an ended march is
    beyond it.  One search over the march then brackets every s between
    its last point at or below s and the next one: a point that hits s
    is its T (s = 0 is t0), and safeguarded Newton runs on the other rows
    with one evaluation of the maps per iteration.  A row's arithmetic
    is its own, so its T does not depend on the batch.  A row still
    moving after ROOT_MAX_ITER steps raises QuadratureError.
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
        for _ in range(ROOT_MAX_ITER):
            if not len(act):
                break
            T = np.where((lo < T) & (T < hi), T, 0.5 * (lo + hi))
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
    if len(act):
        raise QuadratureError(
            f"inversion of s = {s.item(0)!r} did not converge in {ROOT_MAX_ITER} "
            "Newton steps")
    return out


def _near_march_targets(quad, rng):
    """s = 0, the first march values while s still gains on them, a target an
    ulp or two either side of each, and random targets below them."""
    hits = []
    for s in quad.s_at(list(islice(toward_end(quad.t0, quad.t_end), 20))).tolist():
        if not math.isfinite(s) or s - (hits or [0.0])[-1] < seed_stall_gate(s):
            break
        hits.append(s)
    hits = np.array(hits)
    near = [np.nextafter(hits, 0.0), np.nextafter(np.nextafter(hits, 0.0), 0.0),
            np.nextafter(hits, np.inf)]
    targets = [0.0, *hits, *np.concatenate(near), *(hits[-1] * rng.uniform(0.0, 1.0, 20))]
    return rng.permutation(targets).tolist()


@pytest.mark.parametrize("prof", [get_profile(n) for n in CATALOG_NAMES] + [MIXED],
                         ids=lambda prof: prof.name)
def test_newton_on_a_bracket_end_moves_t_within_the_inversion_tolerance(prof):
    t_window, tau_window = IC_WINDOWS.get(prof.name, ((-1.5, 1.5), (0.2, 1.0)))
    rng = np.random.default_rng(15)
    for _ in range(8):
        p, v = random_causal(prof, rng, t_window, tau_window)  # half past-directed
        quad = _oriented(prof, p, v)
        seed = _oriented(prof, p, v)
        targets = _near_march_targets(quad, rng)
        if _inverts_exactly(quad):
            # no march to bracket on: the exact inverse is held to mpmath
            _assert_exact_inversion(quad, targets)
            continue
        want = seed_times(seed, targets)
        got = quad.times(targets)
        assert len(got) == len(want) == len(targets)
        assert (np.abs(got - want) <= INVERT_TOL * np.maximum(1.0, np.abs(want))).all()


def _newton_rows(monkeypatch):
    """Newton's row-iterations in every solver the probes build from now on."""
    calls = []

    class Counted(_Quadrature):
        def __init__(self, *args):
            super().__init__(*args)
            calls.append(_count_s_at(self))

    monkeypatch.setattr(geodesics, "_Quadrature", Counted)
    return lambda: sum(sum(c) for c in calls)


def _b4(**domain):
    """a = 1 and b = 4: s(T) = T - t0 along v = (1, 0), as on strip01 and
    minkowski, but on an AnchoredMap, which Newton inverts."""
    return MetricProfile("b4", (const(1.0),), (const(4.0),), **domain)


def test_cauchy_target_an_ulp_below_a_march_value_takes_one_newton_step(monkeypatch):
    # the bound is 0.9, and s = 0.45 lies one ulp below the march's
    # s(0.55) = 0.45000000000000007; every other target hits a march value.
    # An open bracket bisected that row down to INVERT_TOL: 39 iterations
    strip = _b4(t_min=0.0, t_max=1.0)
    quad = _oriented(strip, P(0.1, 0.0), V(1.0, 0.0))
    assert math.nextafter(float(quad.s_at(0.55)), 0.0) == 0.45
    rows = _newton_rows(monkeypatch)
    make_cauchy_sequence(strip, P(0.1, 0.0), V(1.0, 0.0), span=1.0, n=30)
    assert rows() == 1
    # strip01's growing closed form is inverted exactly: no Newton row
    make_cauchy_sequence(_fresh("strip01"), P(0.1, 0.0), V(1.0, 0.0), span=1.0, n=30)
    assert rows() == 1


def test_condition_a_targets_an_ulp_from_march_values_take_one_newton_step(monkeypatch):
    # from q = (0.2, 0) the targets s = 2^k meet s(0.2 + 2^k) = 2^k - 1 ulp;
    # an open bracket took 83 iterations for the march's 8 targets and the
    # crossing solves' 3.  The 8 march targets take 2 Newton row-iterations,
    # and the crossing solve asks 4 targets, two per bound in one call, one
    # step each
    plane = _b4()
    quad = _oriented(plane, P(0.2, 0.0), V(1.0, 0.0))
    assert math.nextafter(float(quad.s_at(0.2 + 2.0 ** 3)), math.inf) == 2.0 ** 3
    rows = _newton_rows(monkeypatch)
    probe_condition_a(plane, P(0.1, 0.0), P(0.2, 0.0), V(1.0, 0.0), [10, 100])
    assert rows() == 6
    # minkowski's growing closed form is inverted exactly: no Newton row
    probe_condition_a(_fresh("minkowski"), P(0.1, 0.0), P(0.2, 0.0), V(1.0, 0.0), [10, 100])
    assert rows() == 6
