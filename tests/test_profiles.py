import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorlab import (
    CATALOG_NAMES,
    DomainExceeded,
    InvalidProfile,
    MetricProfile,
    SpacetimePoint,
    TangentVector,
    classify_vector,
    const,
    exponential,
    format_profile,
    get_profile,
    linear,
    parse_profiles,
    power,
)

P = SpacetimePoint
V = TangentVector


# -- eval ---------------------------------------------------------------------


def test_eval_minkowski_constant():
    assert get_profile("minkowski").eval(0.7) == (1.0, 1.0, 0.0, 0.0)


def test_eval_exp2t_at_zero():
    # d/dt e^{2t} = 2 e^{2t}, so (a, b, a', b') = (1, 1, 2, 0) at t = 0
    a, b, da, db = get_profile("exp2t").eval(0.0)
    assert (a, b, db) == (1.0, 1.0, 0.0)
    assert da == pytest.approx(2.0, abs=1e-15)


def test_eval_c1power_derivative_vanishes_at_kink():
    # one-sided limits of (3/2)|t|^{1/2} agree (= 0) at the center
    a, b, da, db = get_profile("c1power").eval(0.0)
    assert (a, b, da, db) == (1.0, 1.0, 0.0, 0.0)


def test_eval_outside_domain():
    with pytest.raises(DomainExceeded):
        get_profile("strip01").eval(1.0)
    with pytest.raises(DomainExceeded):
        get_profile("strip01").eval(-0.2)


def test_power_exponent_must_exceed_one():
    with pytest.raises(InvalidProfile):
        MetricProfile("bad", (const(1.0), power(1.0, 0.0, 1.0)), (const(1.0),))
    with pytest.raises(InvalidProfile):
        MetricProfile("bad", (const(1.0), power(1.0, 0.0, 0.5)), (const(1.0),))


def test_floor_violation_rejected():
    # a(t) = t dips under alpha = 0.5 inside the window
    with pytest.raises(InvalidProfile):
        MetricProfile("bad", (linear(1.0),), (const(1.0),), t_min=0.0, t_max=2.0,
                      alpha=0.5)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for name in CATALOG_NAMES:
        prof = get_profile(name)
        lo = max(prof.t_min, -10.0) + 0.01
        hi = min(prof.t_max, 10.0) - 0.01
        for t in rng.uniform(lo, hi, 100):
            a_p, b_p, _, _ = prof.eval(t + h)
            a_m, b_m, _, _ = prof.eval(t - h)
            _, _, da, db = prof.eval(t)
            assert abs((a_p - a_m) / (2 * h) - da) < 1e-6 * (1.0 + abs(da))
            assert abs((b_p - b_m) / (2 * h) - db) < 1e-6 * (1.0 + abs(db))


def test_eval_many_matches_scalar():
    prof = get_profile("c1power")
    ts = np.linspace(-3.0, 3.0, 37)
    a, b, da, db = prof.eval_many(ts)
    for i, t in enumerate(ts):
        sa, sb, sda, sdb = prof.eval(float(t))
        assert (a[i], b[i], da[i], db[i]) == (sa, sb, sda, sdb)


# -- gate: coefficients_many against the eval_many it was split from -------------
#
# seed_value_and_deriv_many and seed_eval_many are verbatim copies of
# Term.value_and_deriv_many and MetricProfile.eval_many from before the values
# and derivatives were summed in separate passes.


def seed_value_and_deriv_many(self, t: np.ndarray):
    # scalar returns for t-independent parts keep allocations down; the
    # caller broadcasts the accumulated sums
    k = self.kind
    if k == "const":
        return self.c, 0.0
    if k == "linear":
        return self.c * t, self.c
    if k == "power":
        u = t - self.t0
        au = np.abs(u)
        val = self.c * au ** self.p
        der = self.c * self.p * au ** (self.p - 1.0) * np.sign(u)
        return val, der
    e = np.exp(self.lam * t)
    return self.c * e, self.c * self.lam * e


def seed_eval_many(self, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectorized (a, b, a', b'); every entry must lie inside the domain."""
    t = np.asarray(t, dtype=float)
    if t.size and not ((t > self.t_min).all() and (t < self.t_max).all()):
        raise DomainExceeded(
            f"grid leaves open domain ({self.t_min!r}, {self.t_max!r}) "
            f"of profile {self.name!r}"
        )
    a = da = 0.0
    for term in self.terms_a:
        v, d = seed_value_and_deriv_many(term, t)
        a = a + v
        da = da + d
    b = db = 0.0
    for term in self.terms_b:
        v, d = seed_value_and_deriv_many(term, t)
        b = b + v
        db = db + d
    # t-independent sums are still scalars here; fill them out to t's shape
    out = []
    for arr in (a, b, da, db):
        arr = np.asarray(arr, dtype=float)
        out.append(arr if arr.shape == t.shape else np.full(t.shape, arr))
    return tuple(out)


GATE_PROFILES = [get_profile(n) for n in CATALOG_NAMES] + [
    # every term kind in a, a kink at 0.2, and an exp term in b
    MetricProfile(
        "mixed",
        (const(1.0), linear(0.1), power(0.7, 0.2, 1.5), exponential(0.3, 0.7)),
        (const(0.5), exponential(0.6, 0.3)),
        t_min=-2.0, t_max=2.0, alpha=0.1,
    ),
    # linear and exp terms, kinks at -0.4 and 0.6 and a smooth power at 0.6
    MetricProfile(
        "two_kinks",
        (const(2.0), linear(0.3), power(0.5, -0.4, 1.5), power(0.2, 0.6, 2.0),
         exponential(0.1, -0.8)),
        (const(1.0), linear(-0.05), power(0.3, 0.6, 1.7), exponential(0.2, 0.5)),
        t_min=-3.0, t_max=3.0, alpha=0.1,
    ),
]


def _gate_times(prof, rng):
    """Random times inside prof's domain, its power centers (u == 0) and
    the floats either side of them, and 0."""
    lo, hi = max(prof.t_min, -20.0), min(prof.t_max, 20.0)
    centers = np.array([term.t0 for term in prof.terms_a + prof.terms_b
                        if term.kind == "power"] + [0.0])
    ts = np.concatenate([rng.uniform(lo, hi, 200), centers,
                         np.nextafter(centers, -np.inf), np.nextafter(centers, np.inf)])
    return ts[(ts > prof.t_min) & (ts < prof.t_max)]


@pytest.mark.parametrize("prof", GATE_PROFILES, ids=lambda prof: prof.name)
def test_coefficients_many_is_bitwise_the_values_of_eval_many(prof):
    rng = np.random.default_rng(15)
    ts = _gate_times(prof, rng)
    for t in (ts, ts.reshape(-1, 1), ts[:1].reshape(()), ts[:0]):
        want = seed_eval_many(prof, t)
        got = prof.coefficients_many(t)
        assert len(got) == 2
        for g, w in zip(got + prof.eval_many(t), want[:2] + want):
            assert g.shape == w.shape == np.shape(t)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("prof", GATE_PROFILES, ids=lambda prof: prof.name)
def test_coefficients_many_rejects_nan_and_points_outside_the_domain(prof):
    inside = _gate_times(prof, np.random.default_rng(15))[:5]
    bad = [np.nan, -np.inf, np.inf]
    bad += [end for end in (prof.t_min, prof.t_max) if np.isfinite(end)]
    bad += [prof.t_max + 1.0] if np.isfinite(prof.t_max) else []
    for t in bad:
        for grid in (np.append(inside, t), np.array(t)):
            with pytest.raises(DomainExceeded):
                prof.coefficients_many(grid)
            with pytest.raises(DomainExceeded):
                prof.eval_many(grid)


# -- classify_vector ---------------------------------------------------------------


def test_classify_examples():
    mink = get_profile("minkowski")
    c = classify_vector(mink, P(0, 0), V(1, 0))
    assert c.kind == "timelike" and c.norm_sq == -1.0
    c = classify_vector(mink, P(0, 0), V(1, 1))
    assert c.kind == "null" and c.norm_sq == 0.0
    prof = MetricProfile("a4", (const(4.0),), (const(1.0),))
    c = classify_vector(prof, P(0, 0), V(1, 1))
    assert c.kind == "timelike" and c.norm_sq == -3.0


def test_classify_zero_vector():
    assert classify_vector(get_profile("minkowski"), P(0, 0), V(0, 0)).kind == "zero"


@given(
    tau=st.floats(-3, 3).filter(lambda v: abs(v) > 1e-3),
    xi=st.floats(-3, 3),
    scale=st.floats(0.1, 10),
)
def test_classify_invariances(tau, xi, scale):
    mink = get_profile("minkowski")
    base = classify_vector(mink, P(0, 0), V(tau, xi))
    # stay away from the null band so scaling cannot cross it
    if abs(base.norm_sq) < 1e-6:
        return
    flipped = classify_vector(mink, P(0, 0), V(-tau, -xi))
    scaled = classify_vector(mink, P(0, 0), V(scale * tau, scale * xi))
    assert flipped.kind == base.kind
    assert scaled.kind == base.kind
    assert flipped.norm_sq == base.norm_sq
    assert scaled.norm_sq == pytest.approx(scale * scale * base.norm_sq, rel=1e-12)


# -- structure helpers -----------------------------------------------------------


def test_unit_b_detection():
    assert get_profile("exp2t").has_unit_b
    assert get_profile("c1power").has_unit_b
    assert not get_profile("warpb").has_unit_b


def test_breakpoints_skip_even_powers():
    assert get_profile("warpb").breakpoints == ()     # |t|^2 is smooth
    assert get_profile("c1power").breakpoints == (0.0,)


# -- catalog and file records --------------------------------------------------------


def test_catalog_names():
    assert CATALOG_NAMES == ("minkowski", "strip01", "exp2t", "c1power", "warpb")
    for name in CATALOG_NAMES:
        assert get_profile(name).name == name


def test_unknown_profile():
    with pytest.raises(InvalidProfile):
        get_profile("nosuch")


def test_profile_record_roundtrip():
    for name in CATALOG_NAMES:
        prof = get_profile(name)
        parsed = parse_profiles(format_profile(prof))
        back = parsed[name]
        assert back.terms_a == prof.terms_a
        assert back.terms_b == prof.terms_b
        assert (back.t_min, back.t_max, back.alpha) == (
            prof.t_min, prof.t_max, prof.alpha,
        )


def test_profile_record_unknown_key_rejected():
    text = "name: x\ndomain: 0 1\ncolor: blue\nterms_a:\n  const 1\nterms_b:\n  const 1\n"
    with pytest.raises(InvalidProfile):
        parse_profiles(text)


def test_profile_record_multiple():
    text = format_profile(get_profile("minkowski")) + "\n" + format_profile(
        get_profile("strip01")
    )
    book = parse_profiles(text)
    assert set(book) == {"minkowski", "strip01"}
