import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lorlab import (
    CATALOG_NAMES,
    EPS_NULL,
    MetricProfile,
    NotAChain,
    NotReducible,
    ShootingFailed,
    SpacetimePoint,
    TangentVector,
    affine_bound,
    causally_related,
    cone_boundary,
    cone_time,
    const,
    d_length,
    exponential,
    flat_time,
    format_profile,
    get_profile,
    lorentzian_distance,
    minkowski_reduce,
    parse_profiles,
    power,
    quadrature_advance,
    space_from_points,
    tau_length_chain,
)

from lorlab import causality, quadrature
from lorlab.quadrature import _rule_layout
from oracles import enumerate_tau_length, lattice_distance, mp_shooting, simpson_integral
from test_geodesics import MIXED

P = SpacetimePoint
V = TangentVector

SQRT3 = 1.7320508075688772
E_MINUS_1 = 1.718281828459045


def random_chronological_pair(prof, rng, t_range):
    span = t_range[1] - t_range[0]
    t1 = rng.uniform(t_range[0], t_range[1] - 0.1 * span)
    t2 = rng.uniform(t1 + 0.05 * span, t_range[1])
    x1 = rng.uniform(-0.5, 0.5)
    half = cone_time(prof, t2) - cone_time(prof, t1)
    x2 = x1 + rng.uniform(-0.95, 0.95) * half
    return P(t1, x1), P(t2, x2)


# -- causally_related ----------------------------------------------------------


def test_verdict_examples():
    mink = get_profile("minkowski")
    v = causally_related(mink, P(0, 0), P(2, 1))
    assert v.relation == "chronological" and v.margin == pytest.approx(1.0, abs=1e-12)
    v = causally_related(mink, P(0, 0), P(1, 1))
    assert v.relation == "causal_boundary" and abs(v.margin) <= 1e-12
    v = causally_related(mink, P(0, 0), P(1, 2))
    assert v.relation == "unrelated"
    v = causally_related(mink, P(1, 0), P(0, 0))
    assert v.relation == "unrelated"


def test_verdict_warpb_margin_closed_form():
    # int_0^1 (1+u^2)^{-1/2} du = asinh(1)
    v = causally_related(get_profile("warpb"), P(0, 0), P(1, 0.8))
    assert v.relation == "chronological"
    assert v.margin == pytest.approx(math.asinh(1.0) - 0.8, abs=1e-10)


def test_verdict_reflexive_pair():
    v = causally_related(get_profile("minkowski"), P(0.3, 0.4), P(0.3, 0.4))
    assert v.relation == "causal_boundary" and v.margin == 0.0


def test_pushup_property():
    # x <= y << z and x << y <= z both force x << z
    rng = np.random.default_rng(23)
    for name in CATALOG_NAMES:
        prof = get_profile(name)
        lo = max(prof.t_min, -1.0) + 0.1
        hi = min(prof.t_max, 1.0) - 0.1
        for _ in range(500):
            y, z = random_chronological_pair(prof, rng, (lo, hi))
            # x on or inside the past cone of y
            dt = rng.uniform(0.01, max(y.t - lo, 0.02))
            t_x = y.t - dt
            half = cone_time(prof, y.t) - cone_time(prof, t_x)
            x = P(t_x, y.x + rng.uniform(-1.0, 1.0) * half * 0.999)
            assert causally_related(prof, x, y).causal
            assert causally_related(prof, x, z).relation == "chronological"
        for _ in range(500):
            x, y = random_chronological_pair(prof, rng, (lo, hi))
            # z on or inside the future cone of y
            dt = rng.uniform(0.01, max(hi - y.t, 0.02))
            t_z = min(y.t + dt, hi)
            half = cone_time(prof, t_z) - cone_time(prof, y.t)
            z = P(t_z, y.x + rng.uniform(-1.0, 1.0) * half * 0.999)
            assert causally_related(prof, y, z).causal
            assert causally_related(prof, x, z).relation == "chronological"


# -- cone_boundary -----------------------------------------------------------------


def test_cone_flat():
    left, right = cone_boundary(get_profile("minkowski"), P(0, 0), [1.0])
    assert left[0] == -1.0 and right[0] == 1.0


def test_cone_exp2t_closed_form():
    left, right = cone_boundary(get_profile("exp2t"), P(0, 0), [1.0])
    assert right[0] == pytest.approx(math.e - 1.0, abs=1e-10)
    assert left[0] == pytest.approx(1.0 - math.e, abs=1e-10)


def test_cone_strip_finite_at_boundary():
    ts = [0.6, 0.9, 1.0 - 1e-9]
    left, right = cone_boundary(get_profile("strip01"), P(0.5, 0), ts)
    assert right[-1] == pytest.approx(0.5, abs=1e-6)
    assert left[-1] == pytest.approx(-0.5, abs=1e-6)


def test_cone_past_grid():
    left, right = cone_boundary(get_profile("minkowski"), P(0, 0), [-1.0, -2.0])
    assert right.tolist() == [1.0, 2.0]


def test_cone_mixed_grid_rejected():
    with pytest.raises(ValueError):
        cone_boundary(get_profile("minkowski"), P(0, 0), [-1.0, 1.0])


# -- minkowski_reduce ---------------------------------------------------------------


def test_reduce_identity_on_flat():
    assert minkowski_reduce(get_profile("minkowski"), P(0.3, 0.7)) == (0.3, 0.7)


def test_reduce_exp2t():
    tau, x = minkowski_reduce(get_profile("exp2t"), P(1, 0))
    assert tau == pytest.approx(E_MINUS_1, abs=1e-10)
    assert x == 0.0


def test_reduce_c1power_against_simpson():
    tau, x = minkowski_reduce(get_profile("c1power"), P(1, 2))
    want = simpson_integral(lambda u: np.sqrt(1.0 + np.abs(u) ** 1.5), 0.0, 1.0)
    assert tau == pytest.approx(want, abs=1e-9)
    assert x == 2.0


# -- cumulative maps -----------------------------------------------------------------


def _fresh(name):
    return parse_profiles(format_profile(get_profile(name)))[name]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cumulative_maps_independent_of_query_history(name):
    rng = np.random.default_rng(31)
    prof = get_profile(name)
    lo = max(prof.t_min, -3.0) + 1e-3
    hi = min(prof.t_max, 3.0) - 1e-3
    probes = rng.uniform(lo, hi, 6).tolist()
    # each reference value comes from a profile that saw no other query
    want = {t: (cone_time(_fresh(name), t).hex(), flat_time(_fresh(name), t).hex())
            for t in probes}
    for _ in range(10):
        prof = _fresh(name)
        for t in rng.uniform(lo, hi, int(rng.integers(1, 30))).tolist():
            cone_time(prof, t)
            flat_time(prof, t)
        # the batch path of a sampled space
        pts = [P(float(t), float(x))
               for t, x in zip(rng.uniform(lo, hi, 5), rng.uniform(0.0, 1.0, 5))]
        space_from_points(prof, pts)
        for t in rng.permutation(probes).tolist():
            assert (cone_time(prof, t).hex(), flat_time(prof, t).hex()) == want[t]


def test_dropped_profile_frees_its_maps_without_the_cycle_collector():
    prof = _fresh("c1power")
    cone_time(prof, 0.5)
    # the affine bound is known to diverge; a point on the geodesic
    # integrates cells of maps of its own
    assert affine_bound(prof, P(0.1, 0.0), V(1.0, 0.0)) == math.inf
    quadrature_advance(prof, P(0.1, 0.0), V(1.0, 0.0), 3.0)
    refs = (weakref.ref(prof), weakref.ref(prof._maps["flat"]))
    gc.disable()
    try:
        del prof
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_cone_boundary_batch_matches_scalar_cone_time():
    prof = _fresh("c1power")
    ts = np.linspace(0.02, 1.9, 17)
    left, right = cone_boundary(prof, P(0.01, 0.5), ts)
    offs = [abs(cone_time(_fresh("c1power"), t) - cone_time(_fresh("c1power"), 0.01))
            for t in ts.tolist()]
    assert right.tolist() == [0.5 + o for o in offs]
    assert left.tolist() == [0.5 - o for o in offs]


@pytest.mark.parametrize("terms_a, terms_b", [
    ((const(4.0),), (const(1.0),)),
    ((const(2.0), const(7.0)), (const(4.0),)),
])
def test_constant_coefficients_give_exact_closed_form(terms_a, terms_b):
    # not a catalog profile: the exactness comes from the constant terms
    prof = MetricProfile("consts", terms_a, terms_b, t_min=1.0, t_max=3.0)
    a = sum(term.c for term in terms_a)
    b = sum(term.c for term in terms_b)
    assert prof.anchor_time() == 2.0
    for t in (1.1, 1.7, 2.0, 2.3, 2.9999):
        assert cone_time(prof, t) == math.sqrt(a / b) * (t - 2.0)
        assert flat_time(prof, t) == math.sqrt(a) * (t - 2.0)


def test_single_exponential_coefficient_in_closed_form():
    # a = 4 e^t, b = 1: int_0^t 2 e^{u/2} du = 4 (e^{t/2} - 1)
    prof = MetricProfile("expo", (exponential(4.0, 1.0),), (const(1.0),), alpha=1e-9)
    for t in (-1.5, -0.1, 1e-9, 0.5, 2.0):
        want = 4.0 * math.expm1(0.5 * t)
        # relative accuracy holds next to the anchor too, where exp(t/2) - 1 cancels
        assert flat_time(prof, t) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert cone_time(prof, t) == flat_time(prof, t)
        tau = simpson_integral(lambda u: 2.0 * np.exp(0.5 * u), 0.0, t)
        assert flat_time(prof, t) == pytest.approx(tau, abs=1e-10)


def test_reduce_monotone_in_t():
    prof = get_profile("c1power")
    taus = [minkowski_reduce(prof, P(t, 0))[0] for t in np.linspace(-2, 2, 41)]
    assert all(t2 > t1 for t1, t2 in zip(taus[:-1], taus[1:]))


def test_reduce_rejects_warped_b():
    with pytest.raises(NotReducible):
        minkowski_reduce(get_profile("warpb"), P(0, 0))


# -- lorentzian_distance --------------------------------------------------------------


def test_distance_flat_interval():
    d = lorentzian_distance(get_profile("minkowski"), P(0, 0), P(2, 1))
    assert d.value == pytest.approx(SQRT3, abs=1e-9)
    assert d.method == "reduction"
    assert d.maximizer is not None


@pytest.mark.parametrize("x", [0.0, 1e200])
def test_distance_past_the_float_range_is_inf(x):
    # cone_time(exp2t, 710) is inf: the interval is inf however far apart
    # the points are, dx^2 overflowing too, and comes without a maximizer
    d = lorentzian_distance(get_profile("exp2t"), P(0, 0), P(710, x))
    assert d.value == math.inf and d.maximizer is None


def test_distance_exp2t_vertical():
    t1 = math.log(2.0)
    d = lorentzian_distance(get_profile("exp2t"), P(0, 0), P(t1, 0))
    assert d.value == pytest.approx(1.0, abs=1e-9)
    # the maximizer is the vertical line
    assert np.abs(d.maximizer.samples[:, 2]).max() < 1e-12


def test_distance_reduction_method_rejects_warped_b():
    with pytest.raises(NotReducible):
        lorentzian_distance(get_profile("warpb"), P(0, 0), P(1, 0),
                            method="reduction")


@pytest.mark.parametrize("n", [0, 1, -3, 2.5, 65.0, None])
@pytest.mark.parametrize("name", ["minkowski", "warpb"])
def test_distance_rejects_path_samples_below_two_or_not_an_integer(name, n):
    # 0 gave a maximizer with no rows, whose endpoint() raised IndexError;
    # 1 a one-row path at p that never reached q
    with pytest.raises(ValueError, match="path_samples"):
        lorentzian_distance(get_profile(name), P(0, 0), P(1, 0.3), path_samples=n)
    path = lorentzian_distance(get_profile(name), P(0, 0), P(1, 0.3), path_samples=2).maximizer
    assert len(path.samples) == 2 and path.endpoint().t == 1.0


def test_distance_unrelated_zero():
    d = lorentzian_distance(get_profile("minkowski"), P(0, 0), P(1, 5))
    assert d.value == 0.0 and d.maximizer is None


def test_distance_null_pair_zero_with_null_maximizer():
    d = lorentzian_distance(get_profile("minkowski"), P(0, 0), P(1, 1))
    assert d.value == 0.0
    assert d.maximizer is not None
    assert d.maximizer.conserved.epsilon == 0.0
    end = d.maximizer.samples[-1]
    assert math.hypot(end[1] - 1.0, end[2] - 1.0) < 1e-9


def test_distance_warpb_against_lattice_oracle():
    warpb = get_profile("warpb")
    d = lorentzian_distance(warpb, P(0, 0), P(1, 0))
    assert d.method == "shooting"
    oracle = lattice_distance(warpb, P(0, 0), P(1, 0), nt=400, nx=400)
    assert abs(d.value - oracle) < 2e-2


def test_distance_warpb_off_axis_against_lattice_oracle():
    warpb = get_profile("warpb")
    d = lorentzian_distance(warpb, P(0, 0), P(1, 0.5))
    oracle = lattice_distance(warpb, P(0, 0), P(1, 0.5), nt=250, nx=1200, width=0.4)
    assert abs(d.value - oracle) < 2e-2


@pytest.mark.parametrize("delta", [0.25, 1e-3, 1e-6, 1e-9, 1e-11])
def test_shooting_near_null_against_exact_b4(delta):
    # a = 1, b = 4: T = sqrt(dt^2 - 4 dx^2) exactly, here 1 - 2 dx = 2 delta
    b4 = MetricProfile("b4", (const(1.0),), (const(4.0),))
    dx = 0.5 - delta
    d = lorentzian_distance(b4, P(0, 0), P(1, dx), with_path=False)
    assert d.method == "shooting"
    exact = math.sqrt((1.0 - 2.0 * dx) * (1.0 + 2.0 * dx))
    assert abs(d.value - exact) <= 1e-13 * exact


def test_shooting_random_near_null_pairs_against_exact_b4():
    # margins from 0.1 down to 1e-12 of the cone dt / 2; dt - 2 |dx| is exact
    b4 = MetricProfile("b4", (const(1.0),), (const(4.0),))
    rng = np.random.default_rng(61)
    for _ in range(200):
        t1 = rng.uniform(-1.0, 1.0)
        t2 = t1 + rng.uniform(0.05, 2.5)
        dx = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** -rng.uniform(1.0, 12.0)) * (t2 - t1) / 2
        d = lorentzian_distance(b4, P(t1, 0.0), P(t2, dx), with_path=False)
        dt = t2 - t1
        exact = math.sqrt((dt - 2.0 * abs(dx)) * (dt + 2.0 * abs(dx)))
        if causally_related(b4, P(t1, 0.0), P(t2, dx)).chronological:
            assert abs(d.value - exact) <= 1e-13 * exact, (t1, t2, dx)


def test_shooting_against_an_mpmath_solve():
    # interior pairs on warpb and on MIXED (a kink at 0.2, an exponential b)
    # against a 30-digit shooting solve from the solver's own kappa; the
    # first MIXED pair ends 6e-4 below the kink, where the rule converges
    # slowest (5.6e-12 off)
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(59)
    near_kink = (P(-0.13310035876276882, 0.6330278325544181),
                 P(0.19940454425674914, 0.3327777084020478))
    for prof, t_range, fixed in ((get_profile("warpb"), (-1.0, 1.0), []),
                                 (MIXED, (-1.5, 1.5), [near_kink])):
        pairs = fixed + [random_chronological_pair(prof, rng, t_range) for _ in range(8)]
        for p, q in pairs:
            d = lorentzian_distance(prof, p, q, method="shooting")
            want = mp_shooting(prof, p, q, d.maximizer.conserved.kappa)
            assert abs(d.value - want) <= 1e-11 * want, (prof.name, p, q)


def test_shooting_mirror_pairs_share_their_value():
    # a pair is solved on |dx|: the mirror pair has the same T bit for bit and
    # the opposite kappa, dx = 0 gives kappa = 0, and each maximizer ends on q
    warpb, p = get_profile("warpb"), P(-0.3, 0.2)
    results = {dx: lorentzian_distance(warpb, p, P(0.9, 0.2 + dx)) for dx in (-0.7, 0.0, 0.7)}
    assert results[-0.7].value == results[0.7].value
    kappa = {dx: d.maximizer.conserved.kappa for dx, d in results.items()}
    assert kappa[0.7] > 0.0 and kappa[-0.7] == -kappa[0.7] and kappa[0.0] == 0.0
    for dx, d in results.items():
        end = d.maximizer.samples[-1]
        assert math.hypot(end[1] - 0.9, end[2] - (0.2 + dx)) < 1e-9


def test_shooting_near_null_mix_pair_converges():
    # margin 1.6e-11 with kappa near 8.8e5, where kappa / q rounds to 1: the
    # residual summed as sum wc kappa / q - dx cannot resolve the root there
    mix = MetricProfile("mix", (const(1), power(1, 0.3, 1.5)), (exponential(1, 1),),
                        alpha=1e-9)
    p = P(1.4711221123536244, -0.8078635145770623)
    q = P(3.9933257002179845, 0.5979339234358898)
    d = lorentzian_distance(mix, p, q)
    assert d.method == "shooting" and 0.0 < d.value < 1e-4
    end = d.maximizer.samples[-1]
    assert math.hypot(end[1] - q.t, end[2] - q.x) <= 1e-9


@pytest.mark.parametrize("name, p, q", [
    # margins 1.4e-12, 1.7e-11 and 8.4e-12: a gap taken from each level's
    # rule cone moved by ulps between levels, and T with it, so these raised
    # "shooting length did not stabilize"
    ("warpb", P(0.24782326144339328, 0.0), P(1.7353657096235098, -1.0732599838851584)),
    ("c1power", P(-0.6582330694107523, 0.0), P(1.2721419472707074, 2.3047868031881613)),
    ("exp2t", P(0.08292325832718972, 0.0), P(1.3676879410098803, -2.839804014132297)),
])
def test_shooting_near_null_pairs_on_the_relations_gap(name, p, q):
    d = lorentzian_distance(get_profile(name), p, q, method="shooting")
    assert d.method == "shooting" and d.value > 0.0
    end = d.maximizer.samples[-1]
    assert math.hypot(end[1] - q.t, end[2] - q.x) <= 1e-9


@given(
    st.sampled_from(["warpb", "c1power"]),
    st.floats(-1.0, 1.0),
    st.floats(0.05, 2.5),
    st.floats(math.log10(2.0 * EPS_NULL), -10.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_shooting_is_positive_on_every_near_null_chronological_pair(name, t1, dt, e, sign):
    # a margin in (eps_null, 1e-10] is chronological, and its shooting T > 0
    prof = get_profile(name)
    p = P(t1, 0.0)
    t2 = t1 + dt
    q = P(t2, sign * (cone_time(prof, t2) - cone_time(prof, t1) - 10.0 ** e))
    verdict = causally_related(prof, p, q)
    assume(EPS_NULL < verdict.margin <= 1e-10)
    assert verdict.chronological
    assert lorentzian_distance(prof, p, q, method="shooting", with_path=False).value > 0.0


def test_distance_reduction_shooting_agree_on_unit_b():
    rng = np.random.default_rng(31)
    for name in ("minkowski", "exp2t", "c1power"):
        prof = get_profile(name)
        for _ in range(20):
            p, q = random_chronological_pair(prof, rng, (-0.8, 0.8))
            dr = lorentzian_distance(prof, p, q, method="reduction", with_path=False)
            ds = lorentzian_distance(prof, p, q, method="shooting", with_path=False)
            assert abs(dr.value - ds.value) < 1e-6


def test_distance_maximizer_length_matches_value():
    # independent reconstruction: integrate sqrt(-g(gdot, gdot)) over the
    # sampled maximizer by the trapezoid rule
    rng = np.random.default_rng(37)
    for name in ("exp2t", "c1power", "warpb"):
        prof = get_profile(name)
        for _ in range(8):
            p, q = random_chronological_pair(prof, rng, (-0.7, 0.9))
            d = lorentzian_distance(prof, p, q, path_samples=2049)
            s = d.maximizer.samples
            a, b, _, _ = prof.eval_many(s[:, 1])
            speed2 = a * s[:, 3] ** 2 - b * s[:, 4] ** 2
            lg = np.trapezoid(np.sqrt(np.maximum(speed2, 0.0)), s[:, 0])
            assert abs(lg - d.value) < 5e-6


def test_distance_isometry_check_unit_b():
    # the g-length of the maximizer equals the flat interval of the images
    rng = np.random.default_rng(41)
    for name in ("exp2t", "c1power"):
        prof = get_profile(name)
        for _ in range(50):
            p, q = random_chronological_pair(prof, rng, (-0.8, 0.8))
            d = lorentzian_distance(prof, p, q, with_path=False)
            tp = minkowski_reduce(prof, p)
            tq = minkowski_reduce(prof, q)
            flat = math.sqrt(
                max((tq[0] - tp[0]) ** 2 - (tq[1] - tp[1]) ** 2, 0.0)
            )
            assert abs(d.value - flat) < 1e-6


# three synthetic rule rows of the batched kappa solver: two ordinary ones and
# a near-null one, whose |dx| is within 1e-9 of its cone sum w sqrt(a / b) = 1
SYNTH_W = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
SYNTH_A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1e4]])
SYNTH_B = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 1e4]])
SYNTH_DX = np.array([0.3, -0.5, 1e-9 - 1.0])


def rules_of(w, a, b, adx):
    """Reflected rows from weights w and a, b at the nodes: wl = w sqrt(a b)
    and the gap C - |dx|, with the rows' own cone C = sum w sqrt(a / b) in
    place of the relation's margin."""
    wsa, sb = w * np.sqrt(a), np.sqrt(b)
    return causality._Rules(wsa * sb, b, (wsa / sb).sum(-1) - adx)


def synth_rules(rows):
    return rules_of(SYNTH_W[rows], SYNTH_A[rows], SYNTH_B[rows], np.abs(SYNTH_DX[rows]))


def synth_residual(row, k):
    return sum(w * math.sqrt(a / b) * k / math.sqrt(k * k + b)
               for w, a, b in zip(SYNTH_W[row], SYNTH_A[row], SYNTH_B[row])) - SYNTH_DX[row]


def test_kappa_solver_rows_equal_their_batch_of_one():
    kappa, length = causality._kappa_roots(synth_rules([0, 1, 2]), lambda i: f"row {i}")
    assert (kappa >= 0.0).all()
    assert kappa[2] > 1e3  # the near-null row's root is far out
    for row in (0, 1, 2):
        alone = causality._kappa_roots(synth_rules([row]), lambda i: f"row {i}")
        assert alone[0][0] == kappa[row] and alone[1][0] == length[row]
        # the root of the reflected row, with the sign of dx, solves the pair
        assert abs(synth_residual(row, math.copysign(kappa[row], SYNTH_DX[row]))) < 1e-12
    pair = causality._kappa_roots(synth_rules([0, 1]), lambda i: f"row {i}")
    assert np.array_equal(pair[0], kappa[:2]) and np.array_equal(pair[1], length[:2])


def warpb_nodes(m):
    """Weights, a, b at the nodes of m-point rules, and the signed dx, of
    interior and near-null warpb pairs."""
    prof = get_profile("warpb")
    rng = np.random.default_rng(47)
    t1 = rng.uniform(-1.0, 0.5, 40)
    t2 = t1 + rng.uniform(0.05, 2.0, 40)
    cone = np.array([cone_time(prof, b) - cone_time(prof, a) for a, b in zip(t1, t2)])
    frac = np.concatenate([rng.uniform(-0.95, 0.95, 30), [1.0, -1.0] * 5])
    frac[30:] *= 1.0 - np.logspace(-3, -7, 10)
    width = (t2 - t1)[:, None]
    nodes, ((_, w, _, _),) = _rule_layout((m,))
    a, b = prof.coefficients_many(t1[:, None] + width * nodes)
    return (0.5 / m) * width * w, a, b, frac * cone


def test_kappa_residual_and_its_closed_form_bracket(monkeypatch):
    solve, seen = causality.solve, []

    def recording(g, lo, hi, glo, ghi, *args):
        seen.append((lo, hi, glo, ghi))
        return solve(g, lo, hi, glo, ghi, *args)

    monkeypatch.setattr(causality, "solve", recording)
    ladder = np.concatenate([[0.0], 2.0 ** np.arange(-20.0, 64.0, 0.125)])
    for w, a, b, dx in (warpb_nodes(32), (SYNTH_W, SYNTH_A, SYNTH_B, SYNTH_DX)):
        adx = np.abs(dx)
        rules = rules_of(w, a, b, adx)
        causality._kappa_roots(rules, lambda i: f"row {i}")
        lo, hi, rlo, rhi = seen.pop()
        wc = w * np.sqrt(a) / np.sqrt(b)
        cone = wc.sum(-1)
        ulp = np.spacing(cone)[:, None]
        # [0, sqrt(sum wl / gap)] in u = asinh(kappa), with the solver's own
        # residual at both ends: within 2 ulps of the cone C of -|dx| at 0
        # (and never above 0), and > 0 at k_hi
        k_hi = np.sqrt(rules.wl.sum(-1) / rules.gap)
        assert np.array_equal(lo, np.zeros(len(dx)))
        assert np.array_equal(rlo, np.minimum(rules.newton(lo)[0], 0.0))
        assert (np.abs(rlo + adx) <= 2.0 * ulp[:, 0]).all()
        assert np.array_equal(hi, np.arcsinh(k_hi))
        assert (rhi > 0.0).all() and np.array_equal(rhi, rules.newton(k_hi)[0])
        # row by row along the ladder: non-decreasing with no rounding slack,
        # and the direct form sum wc kappa / q - |dx| to within its rounding,
        # a few ulps of the cone C (of |dx| on the near-null rows)
        res = np.array([rules.newton(np.full(len(dx), k))[0] for k in ladder]).T
        assert (np.diff(res, axis=1) >= 0.0).all()
        k = ladder[None, :, None]
        old = (wc[:, None, :] * (k / np.sqrt(k * k + b[:, None, :]))).sum(-1) - adx[:, None]
        assert (np.abs(res - old) <= 4.0 * ulp).all()
        # a gap above the rule's cone, |dx| within its rounding of 0, ends at 0
        above = causality._Rules(rules.wl, rules.b, cone * (1.0 + 2.0 ** -50))
        assert (causality._kappa_roots(above, lambda i: f"row {i}")[0] == 0.0).all()


# a warpb pair whose kappa Newton iteration falls into a 2-cycle between two
# u = asinh(kappa) 1.25e-12 apart, wider than XTOL, at the rounding floor
CYCLE_P = P(0.7459653195137426, -0.031538110635106475)
CYCLE_Q = P(3.526880476450398, 1.2515357956159963)


def test_kappa_newton_stops_at_the_rounding_floor(monkeypatch):
    calls = []
    newton = causality._Rules.newton

    def counting(self, k):
        calls.append(len(k))
        return newton(self, k)

    monkeypatch.setattr(causality._Rules, "newton", counting)
    d = lorentzian_distance(get_profile("warpb"), CYCLE_P, CYCLE_Q, with_path=False)
    assert len(calls) <= 20
    assert 0.0 < d.value < math.sqrt((CYCLE_Q.t - CYCLE_P.t) ** 2 - (CYCLE_Q.x - CYCLE_P.x) ** 2)


def test_kappa_newton_out_of_steps_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "ROOT_MAX_ITER", 1)
    with pytest.raises(
        ShootingFailed,
        match=r"kappa of pair \(0\.7459653195137426,-0\.031538110635106475\) -> "
              r"\(3\.526880476450398,1\.2515357956159963\) did not converge in 1 Newton steps",
    ):
        lorentzian_distance(get_profile("warpb"), CYCLE_P, CYCLE_Q, with_path=False)


def test_kappa_solver_without_sign_change_raises():
    # a = b: the rule cone is 1, and |dx| is inside it by an ulp, where k_hi =
    # sqrt(sum wl / gap) overflows: no root, and the row is named
    ab = np.array([[1.0, 1e300]])
    rules = rules_of(SYNTH_W[:1], ab, ab, np.array([1.0 - 2.0 ** -53]))
    with pytest.raises(ShootingFailed, match=r"no endpoint-x root for row 0: k_hi is not "
                                             r"finite at gap 1\.1102230246251565e-16"):
        causality._kappa_roots(rules, lambda i: f"row {i}")


def test_reverse_triangle_property():
    rng = np.random.default_rng(43)
    for name in CATALOG_NAMES:
        prof = get_profile(name)
        lo = max(prof.t_min, -1.0) + 0.1
        hi = min(prof.t_max, 1.0) - 0.1
        for _ in range(1000):
            x, z = random_chronological_pair(prof, rng, (lo, hi))
            # y inside the diamond: sample on a causal curve from x toward z
            lam = rng.uniform(0.2, 0.8)
            t_y = x.t + lam * (z.t - x.t)
            half_x = cone_time(prof, t_y) - cone_time(prof, x.t)
            half_z = cone_time(prof, z.t) - cone_time(prof, t_y)
            x_lo = max(x.x - half_x, z.x - half_z)
            x_hi = min(x.x + half_x, z.x + half_z)
            y = P(t_y, rng.uniform(x_lo, x_hi))
            if not (causally_related(prof, x, y).causal
                    and causally_related(prof, y, z).causal):
                continue
            txy = lorentzian_distance(prof, x, y, with_path=False).value
            tyz = lorentzian_distance(prof, y, z, with_path=False).value
            txz = lorentzian_distance(prof, x, z, with_path=False).value
            assert txz >= txy + tyz - 1e-7


def test_positivity_iff_chronological():
    rng = np.random.default_rng(47)
    for name in CATALOG_NAMES:
        prof = get_profile(name)
        lo = max(prof.t_min, -1.0) + 0.1
        hi = min(prof.t_max, 1.0) - 0.1
        for _ in range(120):
            p = P(rng.uniform(lo, hi), rng.uniform(-1, 1))
            q = P(rng.uniform(lo, hi), rng.uniform(-1, 1))
            verdict = causally_related(prof, p, q)
            value = lorentzian_distance(prof, p, q, with_path=False).value
            if verdict.relation == "chronological":
                assert value > 1e-9
            else:
                assert value <= 1e-9


def test_strict_monotonicity_along_geodesics():
    rng = np.random.default_rng(53)
    for name in CATALOG_NAMES:
        prof = get_profile(name)
        lo = max(prof.t_min, -1.0) + 0.15
        hi = min(prof.t_max, 1.0) - 0.3
        for _ in range(5):
            p, q = random_chronological_pair(prof, rng, (lo, hi - 0.1))
            a, b, _, _ = prof.eval(q.t)
            u = rng.uniform(-1, 1)
            v = V(1.0, u * math.sqrt(a / b))
            from lorlab import affine_bound

            cap = min(affine_bound(prof, q, v), 2.0) * 0.9
            values = []
            for s in np.linspace(cap / 50, cap, 50):
                pt = quadrature_advance(prof, q, v, float(s))
                values.append(
                    lorentzian_distance(prof, p, pt, with_path=False).value
                )
            diffs = np.diff(values)
            assert (diffs > 0).all()


# -- tau_length_chain -------------------------------------------------------------------


def _flat_tau(points):
    n = len(points)
    tau = np.zeros((n, n))
    causal = np.zeros((n, n), dtype=bool)
    for i in range(n):
        causal[i, i] = True
        for j in range(n):
            dt = points[j][0] - points[i][0]
            dx = points[j][1] - points[i][1]
            if dt >= abs(dx):
                causal[i, j] = True
                tau[i, j] = math.sqrt(max(dt * dt - dx * dx, 0.0))
    return tau, causal


def test_chain_collinear():
    tau, causal = _flat_tau([(0, 0), (1, 0), (2, 0)])
    assert tau_length_chain(tau, [0, 1, 2], causal) == 2.0


def test_chain_bent_beats_coarse():
    tau, causal = _flat_tau([(0, 0), (1, 0.9), (2, 0)])
    got = tau_length_chain(tau, [0, 1, 2], causal)
    assert got == pytest.approx(2.0 * math.sqrt(0.19), abs=1e-15)
    assert got < 2.0


def test_chain_single_segment():
    tau, causal = _flat_tau([(0, 0), (1, 0.5)])
    assert tau_length_chain(tau, [0, 1], causal) == tau[0, 1]


def test_chain_rejects_non_chain():
    tau, causal = _flat_tau([(0, 0), (1, 5)])
    with pytest.raises(NotAChain):
        tau_length_chain(tau, [0, 1], causal)


@pytest.mark.parametrize("chain", [[-1, 0], [0, -2], [0, 2], [2, 0, 1]])
def test_chain_rejects_an_index_outside_the_points(chain):
    # -1 wrapped to the last point, so [-1, 0] read tau[1, 0] = 0.0
    with pytest.raises(NotAChain, match="outside"):
        tau_length_chain([[0.0, 1.0], [0.0, 0.0]], chain)
    assert tau_length_chain([[0.0, 1.0], [0.0, 0.0]], [0, 1]) == 1.0


def test_chain_matches_enumeration_flat_points():
    rng = np.random.default_rng(59)
    for _ in range(30):
        n = rng.integers(3, 13)
        ts = np.sort(rng.uniform(0, 5, n))
        xs = np.cumsum(rng.uniform(-0.9, 0.9, n) * np.diff(np.concatenate([[0], ts])))
        pts = list(zip(ts, xs))
        tau, causal = _flat_tau(pts)
        chain = list(range(n))
        assert tau_length_chain(tau, chain, causal) == enumerate_tau_length(tau, chain)


@given(
    st.integers(3, 8),
    st.lists(st.floats(0.0, 10.0), min_size=64, max_size=64),
)
def test_chain_matches_enumeration_random_tau(n, raw):
    tau = np.array(raw[: n * n]).reshape(n, n)
    chain = list(range(n))
    assert tau_length_chain(tau, chain) == enumerate_tau_length(tau, chain)


# -- d_length -----------------------------------------------------------------------------


def test_d_length_examples():
    assert d_length([(0, 0), (1, 0)]) == 1.0
    assert d_length([(0, 0), (1, 1), (2, 0)]) == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-15
    )


def test_d_length_needs_two_points():
    with pytest.raises(ValueError):
        d_length([(0, 0)])


def test_d_length_polyline_converges_to_arclength():
    # unit-speed circle arc of parameter length 1
    s = np.linspace(0.0, 1.0, 100)
    pts = list(zip(np.cos(s), np.sin(s)))
    assert abs(d_length(pts) - 1.0) < 1e-3


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2, max_size=12))
def test_d_length_dominates_endpoint_distance(pts):
    end_to_end = math.hypot(pts[-1][0] - pts[0][0], pts[-1][1] - pts[0][1])
    assert d_length(pts) >= end_to_end - 1e-9


def _eps_null_calls():
    """Every public function that takes eps_null, called with a given band."""
    import lorlab as ll

    mink = get_profile("minkowski")
    p, q = P(0.0, 0.0), P(2.0, 1.0)
    return {
        "causally_related": lambda e: causally_related(mink, p, q, eps_null=e),
        "lorentzian_distance": lambda e: lorentzian_distance(mink, p, q, eps_null=e),
        "space_from_points": lambda e: space_from_points(mink, [p, q], eps_null=e),
        "sample_space": lambda e: ll.sample_space(mink, (0.0, 1.0, 0.0, 1.0), 4, 0, eps_null=e),
    }


@pytest.mark.parametrize("eps_null", [math.nan, -1e-12, math.inf])
def test_public_functions_reject_an_unusable_null_band(eps_null):
    # a NaN band read the timelike pair (0, 0), (2, 1) as 'unrelated' with
    # distance 0.0; every entry point now checks the band first
    for name, call in _eps_null_calls().items():
        call(1e-12)  # the default band works
        with pytest.raises(ValueError, match="eps_null must be finite and non-negative"):
            call(eps_null)
