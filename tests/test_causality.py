import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorlab import (
    CATALOG_NAMES,
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
    quadrature_advance,
    space_from_points,
    tau_length_chain,
)

from lorlab import causality
from lorlab.quadrature import _rule_layout
from oracles import enumerate_tau_length, lattice_distance, simpson_integral

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
    # the affine bound marches maps of its own to t0 + 2^74
    assert affine_bound(prof, P(0.1, 0.0), V(1.0, 0.0)) == math.inf
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
    assert abs(d.value - exact) <= max(1e-10, 1e-9 * exact)


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
# a near-null one, whose dx is within 1e-9 of its cone sum w sqrt(a / b) = 1
SYNTH_W = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
SYNTH_A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1e4]])
SYNTH_B = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 1e4]])
SYNTH_DX = np.array([0.3, -0.5, 1e-9 - 1.0])


def synth_rules(rows):
    return causality._Rules.from_nodes(
        SYNTH_W[rows], SYNTH_A[rows], SYNTH_B[rows], SYNTH_DX[rows]
    )


def synth_residual(row, k):
    return sum(w * math.sqrt(a / b) * k / math.sqrt(k * k + b)
               for w, a, b in zip(SYNTH_W[row], SYNTH_A[row], SYNTH_B[row])) - SYNTH_DX[row]


def test_kappa_solver_rows_equal_their_batch_of_one():
    kappa, length = causality._kappa_roots(synth_rules([0, 1, 2]), lambda i: f"row {i}")
    assert kappa[2] < -1e3  # the near-null row's root is far out
    for row in (0, 1, 2):
        alone = causality._kappa_roots(synth_rules([row]), lambda i: f"row {i}")
        assert alone[0][0] == kappa[row] and alone[1][0] == length[row]
        assert abs(synth_residual(row, kappa[row])) < 1e-12
    pair = causality._kappa_roots(synth_rules([0, 1]), lambda i: f"row {i}")
    assert np.array_equal(pair[0], kappa[:2]) and np.array_equal(pair[1], length[:2])


def warpb_rules(m):
    """Shooting rules of interior and near-null warpb pairs on m-point rules."""
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
    return causality._Rules.from_nodes((0.5 / m) * width * w, a, b, frac * cone)


def test_kappa_bracket_is_the_least_sweep_bracket(monkeypatch):
    rules = warpb_rules(32)
    roots, seen = causality._roots, []

    def recording(rules, lo, hi, rlo, rhi, name):
        seen.append((lo, hi, rlo, rhi))
        return roots(rules, lo, hi, rlo, rhi, name)

    monkeypatch.setattr(causality, "_roots", recording)
    causality._kappa_roots(rules, lambda i: f"row {i}")
    (lo, hi, rlo, rhi), = seen
    # brute force: max(2^i, 2^j) for the first i with a residual > 0 at 2^i
    # and the first j with one < 0 at -2^j
    ladder = 2.0 ** np.arange(64)
    up, down = rules.endpoint(ladder) > 0.0, rules.endpoint(-ladder) < 0.0
    assert up.any(1).all() and down.any(1).all()
    k = np.maximum(up.argmax(1), down.argmax(1))
    assert np.array_equal(hi, ladder[k]) and np.array_equal(lo, -hi)
    # the end residuals are the sweep's own, bit for bit
    assert np.array_equal(rhi, rules.endpoint(hi).diagonal())
    assert np.array_equal(rlo, rules.endpoint(lo).diagonal())


def test_kappa_endpoint_is_non_decreasing():
    # exactly along the sweep's ladder +-2^k, which the bracket relies on; on
    # a finer ladder up to rounding, which moves the residual by an ulp where
    # kappa^2 + b starts to round to kappa^2
    rules = warpb_rules(32)
    for step, slack in ((1.0, 0.0), (0.125, 1e-15)):
        ladder = 2.0 ** np.arange(-20.0, 64.0, step)
        res = rules.endpoint(np.concatenate([-ladder[::-1], [0.0], ladder]))
        assert (np.diff(res, axis=1) >= -slack).all()


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
    monkeypatch.setattr(causality, "ROOT_MAX_ITER", 1)
    with pytest.raises(
        ShootingFailed,
        match=r"kappa of pair \(0\.7459653195137426,-0\.031538110635106475\) -> "
              r"\(3\.526880476450398,1\.2515357956159963\) did not converge in 1 Newton steps",
    ):
        lorentzian_distance(get_profile("warpb"), CYCLE_P, CYCLE_Q, with_path=False)


def test_kappa_solver_without_sign_change_raises():
    rules = causality._Rules.from_nodes(
        SYNTH_W[:1], SYNTH_A[:1], SYNTH_B[:1], np.array([5.0])  # dx beyond the cone
    )
    with pytest.raises(ShootingFailed, match=r"row 0 within kappa bracket 2\^64"):
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
