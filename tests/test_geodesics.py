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
from lorlab import geodesics
from lorlab.geodesics import (
    DRIFT_TOL,
    INVERT_TOL,
    GeodesicPath,
    _oriented,
    _Quadrature,
    _reflect,
)
from lorlab.profiles import EPS_NULL, MetricProfile
from lorlab.quadrature import ROOT_MAX_ITER, in_blocks, toward_end

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
    assert calls == []  # no Newton iteration ran
    # the counter sees Newton when it runs
    assert quad.t_of(1.5) == 2.5
    assert calls == [1]


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


def test_geodesics_integrate_on_maps_of_their_own():
    # c1power has b == 1 and no closed form; its shared flat map stays empty
    prof = _fresh("c1power")
    assert affine_bound(prof, P(0.5, 0.0), V(1.0, 0.0)) == math.inf
    geodesic_states(prof, P(0.5, 0.0), V(1.0, 0.3), np.linspace(0.0, 5.0, 51))
    assert [side.cells for side in prof._maps["flat"]._sides.values()] == [[], []]


def test_nan_affine_parameter_is_not_an_infinite_bound():
    # the floor is checked on +-20 only: a(t) = 1 + t / 1000 vanishes at t = -1000
    lin = MetricProfile("lin", (const(1.0), linear(1e-3)), (const(1.0),), alpha=0.9)
    # past-directed data is solved in the time-reflected profile, but the
    # error names the time of the profile passed in
    for v in (V(-1.0, 0.0), V(-1.0, 0.5)):
        with pytest.raises(QuadratureError, match=r"NaN at T = -1024\.0:"):
            affine_bound(lin, P(0.0, 0.0), v)


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


@pytest.mark.parametrize("entry", [affine_bound, causal_exp, uniqueness_witness])
@pytest.mark.parametrize("name", ["minkowski", "warpb"])
def test_null_band_vector_without_time_direction_is_rejected(entry, name):
    # g(v, v) = 1e-12 lies in the null band, but tau0 = 0 picks no time direction
    with pytest.raises(NotCausal, match="tau0 = 0"):
        entry(get_profile(name), P(0, 0), V(0, 1e-6))


@pytest.mark.parametrize("s", [-1e-3, math.inf, math.nan])
def test_inversion_rejects_a_parameter_out_of_range(s):
    with pytest.raises(ValueError, match="finite and non-negative"):
        geodesic_states(get_profile("minkowski"), P(0, 0), V(1, 0), [0.5, s])


def test_inversion_out_of_steps_raises(monkeypatch):
    p, v = P(0.5, 0.0), V(1.0, 0.3)
    assert quadrature_advance(_fresh("c1power"), p, v, 0.37).t > 0.5
    monkeypatch.setattr(geodesics, "ROOT_MAX_ITER", 1)
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
        profile, p, v = _reflect(profile, p, v)
    quad = _Quadrature(profile, p, conserved_quantities(profile, p, v))
    s_checks = [s_max * i / n_checks for i in range(1, n_checks + 1)]
    T = quad.times(s_checks)
    if len(T) < n_checks:
        raise Inextendible(quad._certificate(quad.bound()))
    runs = [zip(T.tolist(), quad.x_at(T).tolist())]
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
        self.profile, self.t_sign, self.t0 = quad.profile, quad.t_sign, quad.t0
        self.s_at, self._rate = quad.s_at, quad._rate
        profile, t0 = self.profile, self.t0
        finite = math.isfinite(profile.t_max)
        self._march = in_blocks(lambda ts: quad.s_at(ts).tolist(),
                                islice(toward_end(t0, profile.t_max), 49 if finite else 75))
        self._points, self._stall, self._ended, self._total = [], 0, False, None

    def _extend(self) -> None:
        pts = self._points
        finite = math.isfinite(self.profile.t_max)
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
        quad, _ = _oriented(prof, p, v, EPS_NULL)
        seed = SeedInversion(_oriented(prof, p, v, EPS_NULL)[0])
        # interior targets: s = 0, s at the first march points (each hits a
        # bracket end) while s still gains on them, and random s below those
        hits = []
        for s in quad.s_at(list(islice(toward_end(quad.t0, quad.profile.t_max), 20))).tolist():
            if not math.isfinite(s) or s - (hits or [0.0])[-1] < seed_stall_gate(s):
                break
            hits.append(s)
        targets = [0.0, *hits, *(hits[-1] * rng.uniform(0.0, 1.0, 20)).tolist()]
        targets = rng.permutation(targets).tolist()
        want = seed.times(targets)
        assert len(want) == len(targets)
        assert quad.times(targets).tobytes() == want.tobytes()


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
    for s in quad.s_at(list(islice(toward_end(quad.t0, quad.profile.t_max), 20))).tolist():
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
        quad, _ = _oriented(prof, p, v, EPS_NULL)
        seed, _ = _oriented(prof, p, v, EPS_NULL)
        targets = _near_march_targets(quad, rng)
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


def test_cauchy_target_an_ulp_below_a_march_value_takes_one_newton_step(monkeypatch):
    # the bound is 0.9, and s = 0.45 lies one ulp below the march's
    # s(0.55) = 0.45000000000000007; every other target hits a march value.
    # An open bracket bisected that row down to INVERT_TOL: 39 iterations
    rows = _newton_rows(monkeypatch)
    make_cauchy_sequence(_fresh("strip01"), P(0.1, 0.0), V(1.0, 0.0), span=1.0, n=30)
    assert rows() == 1


def test_condition_a_targets_an_ulp_from_march_values_take_one_newton_step(monkeypatch):
    # from q = (0.2, 0) the targets s = 2^k meet s(0.2 + 2^k) = 2^k - 1 ulp;
    # an open bracket took 83 iterations for these 11 targets
    rows = _newton_rows(monkeypatch)
    probe_condition_a(_fresh("minkowski"), P(0.1, 0.0), P(0.2, 0.0), V(1.0, 0.0), [10, 100])
    assert rows() == 5
