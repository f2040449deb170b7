import math

import numpy as np
import pytest

from lorlab import (
    CATALOG_NAMES,
    Inextendible,
    InextendibleCertificate,
    NotCausal,
    SpacetimePoint,
    StepTooLarge,
    TangentVector,
    affine_bound,
    causal_exp,
    classify_vector,
    conserved_quantities,
    exp_continuity_probe,
    format_profile,
    geodesic_states,
    get_profile,
    integrate_geodesic,
    ode_rhs,
    parse_profiles,
    quadrature_advance,
    uniqueness_witness,
)
from lorlab.geodesics import _Quadrature
from lorlab.profiles import MetricProfile
from lorlab.quadrature import toward_end

P = SpacetimePoint
V = TangentVector

LN15 = 0.4054651081081644  # log(1.5)
LN2 = 0.6931471805599453


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
    s_march = float(_Quadrature(_fresh(name), p, v).s_at(t_march))
    s_values = [0.13, 0.37, 0.5, 0.61, s_march]
    # each reference comes from a fresh profile asked for that s alone
    want = {}
    for s in s_values:
        (row,) = geodesic_states(_fresh(name), p, v, [s])
        pt = _Quadrature(_fresh(name), p, v).point_at(s)
        assert (pt.t, pt.x) == row[1:3]
        want[s] = row
    assert want[s_march][1] == t_march
    rng = np.random.default_rng(17)
    prof = _fresh(name)
    for _ in range(3):
        order = rng.permutation(s_values + s_values[:2]).tolist()  # with repeats
        assert geodesic_states(prof, p, v, order) == [want[s] for s in order]
        quad = _Quadrature(prof, p, v)
        for s in rng.permutation(s_values).tolist():
            pt = quad.point_at(s)
            assert (pt.t, pt.x) == want[s][1:3]
    # states stop at the first s, in the given order, beyond the affine bound
    bound = affine_bound(prof, p, v)
    if math.isfinite(bound):
        order = [0.5, bound + 0.1, 0.13]
        assert geodesic_states(prof, p, v, order) == [want[0.5]]


def test_inversion_returns_a_bracket_end_that_hits_the_target(monkeypatch):
    prof = _fresh("minkowski")
    calls = []
    eval_many = MetricProfile.eval_many

    def counted(self, t):
        calls.append(np.size(t))
        return eval_many(self, t)

    monkeypatch.setattr(MetricProfile, "eval_many", counted)
    quad = _Quadrature(prof, P(1.0, 0.3), V(1.0, 0.0))
    # s(T) = T - 1, and the march points T = 2, 3, 5, ..., 65 give s = 2^k
    assert quad.t_of(1.0) == 2.0
    assert quad.t_of(64.0) == 65.0
    assert calls == []  # no Newton iteration ran


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
