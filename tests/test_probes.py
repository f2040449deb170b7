import math
import subprocess
import sys
from collections import deque
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorlab import (
    DomainExceeded,
    MetricProfile,
    NotCausal,
    NotChronological,
    PremiseViolated,
    ProbeConfig,
    SpacetimePoint,
    TangentVector,
    const,
    exponential,
    get_profile,
    implication_report,
    k1_slices,
    lorentzian_distance,
    make_cauchy_sequence,
    power,
    probe_condition_a,
    probe_finite_compactness,
    probe_timelike_cauchy,
    replay_witness,
)
from lorlab.errors import QuadratureError
from lorlab.geodesics import _Quadrature, conserved_quantities
from lorlab import geodesics, probes
from lorlab.causality import _separations, cone_time
from lorlab.probes import (
    FAILS,
    HOLDS,
    K1Region,
    ProbeReport,
    _require_chronological,
)
from lorlab.profiles import EPS_NULL, classify_vector
from lorlab.quadrature import ROOT_MAX_ITER, toward_end

from test_geodesics import MIXED

P = SpacetimePoint
V = TangentVector

CONFIGS = {
    "minkowski": ProbeConfig(P(0, 0), P(1, 0)),
    "strip01": ProbeConfig(P(0.1, 0), P(0.2, 0), fc_bound=5.0, ca_bounds=(2.0, 10.0)),
    "exp2t": ProbeConfig(P(0, 0), P(0.1, 0), fc_bound=1.0),
    "c1power": ProbeConfig(P(0, 0), P(0.5, 0)),
    "warpb": ProbeConfig(P(0, 0), P(0.5, 0), fc_bound=3.0, ca_bounds=(5.0, 20.0)),
}


# -- finite compactness ----------------------------------------------------------


def test_fc_minkowski_holds_with_flat_cap():
    # the slice min of T(p, .) over the cone of q sits on the cone edge
    # (t, t-1), where T = sqrt(2t - 1); the region caps when that passes B
    rep, region = probe_finite_compactness(get_profile("minkowski"), P(0, 0), P(1, 0), 5.0)
    assert rep.holds
    assert region.bounded and region.closed_in_domain
    assert rep.witness["t_top"] == pytest.approx(13.0, abs=1e-3)
    assert len(region.boundary) > 0


def test_fc_strip_fails_with_escaping_midline():
    strip = get_profile("strip01")
    rep, region = probe_finite_compactness(strip, P(0.1, 0), P(0.2, 0), 5.0)
    assert not rep.holds
    assert not region.bounded and not region.closed_in_domain
    pts = rep.witness["escaping_points"]
    ts = [t for t, _ in pts]
    assert all(abs(x) < 1e-9 for _, x in pts)
    assert all(t2 > t1 for t1, t2 in zip(ts[:-1], ts[1:]))
    assert 1.0 - ts[-1] < 1e-6
    assert max(rep.witness["escaping_T"]) <= 0.9 + 1e-9
    assert replay_witness(strip, rep) < 1e-7


def test_fc_exp2t_caps_at_closed_form_time():
    # on the flattened picture the cap solves (E-1)^2 - (E-e^0.1)^2 = B^2
    B = 1.0
    e01 = math.exp(0.1)
    E = (B * B / (e01 - 1.0) + 1.0 + e01) / 2.0
    rep, region = probe_finite_compactness(get_profile("exp2t"), P(0, 0), P(0.1, 0), B)
    assert rep.holds
    assert rep.witness["t_top"] == pytest.approx(math.log(E), abs=2e-3)


def _mp_minkowski_t_top(q, B):
    """t_top of the region from p = (0, 0) on Minkowski space, (B^2 / gap +
    gap) / 2 at the float gap q.t - |q.x|, in 40-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        gap = mp.mpf(q.t - abs(q.x))
        return float((mp.mpf(B) ** 2 / gap + gap) / 2)


def test_fc_near_the_light_cone_takes_the_closed_form_top():
    # the slice march's Illinois root stopped at 12499156.518, 843 off,
    # although its tolerance is 1e-9 relative: g is flat to rounding there
    q = P(1, 0.999999)
    rep, _ = probe_finite_compactness(get_profile("minkowski"), P(0, 0), q, 5.0)
    want = _mp_minkowski_t_top(q, 5.0)
    assert rep.holds and abs(rep.witness["t_top"] - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("q, B, t_top", [
    (P(1, 1 - 2e-12), 1e9, 2.500055305523757e29),  # near the light cone
    (P(1e5, 0), 1e155, 5e304),  # B^2 overflows, B^2 / gap does not
])
def test_fc_caps_past_the_slice_march_reach(q, B, t_top):
    # Minkowski space is finitely compact, but the slice march reported an
    # escape: t_top lies past its reach, q.t + 2^69 max(1e-2, 1e-2 B), and
    # long before that a slice's ends round its margin away (min_T reads 0
    # from t = 1e15 on the first config).  The verdict as implication_report
    # takes it, with no trace
    rep, _ = probes._judge_compactness(get_profile("minkowski"), P(0, 0), q, B)
    want = _mp_minkowski_t_top(q, B)
    assert rep.holds and abs(rep.witness["t_top"] - want) <= 2 * math.ulp(want)
    assert rep.witness["t_top"] == pytest.approx(t_top, rel=1e-15)


def test_fc_traced_region_with_an_overflowing_secant_product():
    # the traced region's slice roots are Illinois rows whose g(hi) (hi - lo)
    # overflowed: the false-position point raised a RuntimeWarning
    q, B = P(1e5, 0), 1e155
    rep, region = probe_finite_compactness(get_profile("minkowski"), P(0, 0), q, B)
    assert rep.holds and rep.witness["t_top"] == pytest.approx(5e304, rel=1e-15)
    assert np.isfinite(np.array(region.boundary)).all()


def test_fc_c1power_cap_far_up_is_bracketed_on_the_shared_cone_map():
    # far up, a slice's two ends round its margin away, so the slice march
    # read min_T = 0 and reported an escape; t_top = 2.6e34 is bracketed on
    # the shared cone map and solved by one Newton row
    prof, p, q, B = get_profile("c1power"), P(0, 0), P(0.5, 0), 1e30
    rep, _ = probes._judge_compactness(prof, p, q, B)
    gap = cone_time(prof, q.t) - cone_time(prof, p.t)
    tau_top = (B * B / gap + gap) / 2
    above = cone_time(prof, rep.witness["t_top"]) - cone_time(prof, p.t)
    assert rep.holds and above == pytest.approx(tau_top, rel=1e-12)


def test_fc_cone_map_underflowed_at_p_is_inverted_in_logs():
    # exp2t's cone time is e^t: from p.t = -800 the cone map re-anchored at
    # p.t has k e^(r p.t) = 0 in floats.  The margin is 1, so tau_top = (25 +
    # 1) / 2 and t_top = log 13
    rep, _ = probe_finite_compactness(get_profile("exp2t"), P(-800, 0), P(0, 0), 5.0)
    assert rep.holds and abs(rep.witness["t_top"] - math.log(13.0)) <= math.ulp(2.5)


def test_fc_top_beyond_floats_escapes_with_a_sound_witness():
    # B^2 overflows, so tau_top does: the slice march runs out and reports an
    # escape toward t = inf.  Past t = B the slices keep two bands at the
    # cone edges, whose midline lies outside K1, so the witness takes their
    # first kept point there, and it approaches the unbounded end as t rises
    mink, p, q, B = get_profile("minkowski"), P(0, 0), P(1, 0.5), 1e160
    rep, _ = probe_finite_compactness(mink, p, q, B)
    assert not rep.holds and rep.witness["t_boundary"] == math.inf
    assert replay_witness(mink, rep) < 1e-7
    assert max(rep.witness["escaping_T"]) <= B < max(t for t, _ in rep.witness["escaping_points"])


def test_fc_empty_region_when_bound_below_Tpq():
    rep, region = probe_finite_compactness(get_profile("minkowski"), P(0, 0), P(2, 0), 1.0)
    assert rep.holds
    assert rep.witness.get("empty") is True
    assert region.slices.shape[0] == 0


def test_fc_requires_chronological_pair():
    with pytest.raises(NotChronological):
        probe_finite_compactness(get_profile("minkowski"), P(0, 0), P(1, 5), 2.0)


def test_fc_requires_positive_bound():
    with pytest.raises(ValueError):
        probe_finite_compactness(get_profile("minkowski"), P(0, 0), P(1, 0), -1.0)


@pytest.mark.parametrize("nx", (1, 0, -3, 2.0))
def test_slices_need_two_points(nx):
    # one point would stand for the whole slice as a single cone edge
    mink, p, q = get_profile("minkowski"), P(0, 0), P(1, 0)
    with pytest.raises(ValueError, match="nx"):
        k1_slices(mink, p, q, 5.0, [1.5], nx=nx)
    with pytest.raises(ValueError, match="nx"):
        probe_finite_compactness(mink, p, q, 5.0, nx=nx)


def test_fc_rejects_infinite_bound():
    # the march step 1e-2 B was inf, so the march passed no slice and the
    # escape witness had no point, which replay_witness scored 0
    with pytest.raises(ValueError, match="finite"):
        probe_finite_compactness(get_profile("minkowski"), P(0, 0), P(1, 0), math.inf)


def test_fc_rejects_nan_bound():
    # every min_T > nan is false, so the march would run to the end and
    # report an escape on Minkowski space
    with pytest.raises(ValueError):
        probe_finite_compactness(get_profile("minkowski"), P(0, 0), P(1, 0), math.nan)


@pytest.mark.parametrize("name, q, B", [("minkowski", P(1, 0), 5.0),
                                        ("c1power", P(0.5, 0), 5.0)])
def test_fc_slices_are_k1_slices_of_the_trace(name, q, B):
    prof = get_profile(name)
    rep, region = probe_finite_compactness(prof, P(0, 0), q, B)
    ts = np.linspace(q.t, rep.witness["t_top"], 48)
    want = k1_slices(prof, P(0, 0), q, B, ts)
    assert region.slices[:-1].tobytes() == want[:-1].tobytes()
    # the top row is the cap: min_T = B, kept at both cone edges (p.x = q.x),
    # which k1_slices keeps under an infinite bound
    cap = k1_slices(prof, P(0, 0), q, math.inf, ts[-1:])[0]
    assert region.slices[-1].tolist() == [*cap[:3].tolist(), B]


@pytest.mark.parametrize("name, q, B, t_top", [
    ("warpb", P(0.5, 0), 1.0, 1.1642423530540442),  # kept 120 or 116 points
    # b == 1: t_top in closed form, (B^2 / gap + gap) / 2 from p = (0, 0)
    ("minkowski", P(1, 0), 5.0, 13.0),  # both edges at the minimum
    ("minkowski", P(1, 0.37), 1.5, 2.100714285714286),  # the far edge alone
])
def test_traced_cap_slice_does_not_depend_on_the_last_ulps_of_t_top(name, q, B, t_top):
    # at the cap the slice's minimum is B: the top row keeps the points at
    # that minimum, lists only the cone edges among them and adds no level
    # crossing, whichever side of the cap the root landed on
    prof, p = get_profile(name), P(0, 0)
    assert probe_finite_compactness(prof, p, q, B)[0].witness["t_top"] == t_top
    regions = [probes._trace_region(prof, p, q, B, float(t), 65)
               for t in (np.nextafter(t_top, -math.inf), t_top, np.nextafter(t_top, math.inf))]
    assert len({len(region.boundary) for region in regions}) == 1
    tops = np.array([region.slices[-1] for region in regions])
    assert (tops[:, 3] == B).all()
    assert np.allclose(tops, tops[1], rtol=4e-16, atol=0.0)
    for region, top in zip(regions, tops):
        cap = [pt for pt in region.boundary if pt[0] == top[0]]
        xs, Ts = probes._slice_points(prof, p, q, top[:1], 65)
        at_min = Ts[0] == Ts[0].min()
        # the cone edges at the slice minimum alone
        assert cap == [(top[0], xs[0, k]) for k in (0, -1) if at_min[k]]
        assert top[1:3].tolist() == [xs[0, Ts[0] == Ts[0].min()][k] for k in (0, -1)]


def test_traced_boundary_lists_only_cone_edges_inside_k1():
    # near the top of this leaning region the slices keep only the far cone
    # edge: the near one lies outside K1, up to T = 1.97 against B = 1.5
    mink, p, q, B = get_profile("minkowski"), P(0, 0), P(1, 0.37), 1.5
    _, region = probe_finite_compactness(mink, p, q, B)
    ts, xs = np.array(region.boundary).T
    assert (probes._tvals(mink, p, ts, xs) <= B + 1e-9).all()
    assert_fc_is_the_scalar_route(mink, p, q, B)


@pytest.mark.parametrize("name, q, B, dt", [("minkowski", P(1, 0.37), 1.5, 0.7),
                                            ("c1power", P(0.5, 0.4), 1.2, 0.7),
                                            ("warpb", P(0.5, 0.1), 0.9, 0.45),
                                            ("exp2t", P(400, 0.3), 8e173, 0.5)])
@pytest.mark.parametrize("nx", (65, 10))
def test_k1_slices_are_the_scalar_slice_scans(name, q, B, dt, nx):
    # rows below q.t, at q.t (half = 0) and past the cap (nothing kept), in
    # one batch.  With nx = 10 the keep interval of the slice at q.t + dt
    # starts at a grid point that a batched linspace would round differently
    # because of the zero-width row (nx - 1 is not a power of 2).  Far up on
    # exp2t the squares of the flat interval overflow, so its scaled form
    # runs on the (n, 1) cone-time and (n, nx) space differences
    prof, p = get_profile(name), P(0, 0)
    ts = np.array([q.t - 0.25, q.t, q.t + dt, q.t + 9.0])
    got = k1_slices(prof, p, q, B, ts, nx=nx)
    want = [(t, lo, hi, min_T)
            for t in ts.tolist()
            for min_T, lo, hi, _, _ in [_slice_scan(prof, p, q, B, t, nx)]]
    assert got.tobytes() == np.array(want).tobytes()
    assert math.isnan(got[-1, 1]) and not math.isnan(got[2, 1])


def test_k1_slices_rows_ignore_a_slice_thinner_than_an_ulp():
    # q.x -+ half rounds to q.x on the slice 1e-17 above q.t, a grid step of
    # 0; had linspace scanned it, every row of the batch would take its
    # zero-step rounding, which differs where nx - 1 = 9 is not a power of 2
    mink, p, q, B = get_profile("minkowski"), P(-0.5, 0), P(1e-3, 0.3), 0.9113408055198581
    ts = np.array([q.t + 1e-17, 0.4250471285354768])
    got = k1_slices(mink, p, q, B, ts, nx=10)
    want = [(t, lo, hi, min_T)
            for t in ts.tolist()
            for min_T, lo, hi, _, _ in [_slice_scan(mink, p, q, B, t, 10)]]
    assert got.tobytes() == np.array(want).tobytes()


def _recorded_slice_mins(monkeypatch):
    """The times of every _slice_min call from now on, one list a call."""
    calls, slice_min = [], probes._slice_min
    monkeypatch.setattr(probes, "_slice_min", lambda *args: calls.append(
        np.asarray(args[3], dtype=float).tolist()) or slice_min(*args))
    return calls


@pytest.mark.parametrize("name, q, B, sizes", [("minkowski", P(1, 0), 5.0, []),
                                               ("warpb", P(0.5, 0), 3.0, [1] * 9)])
def test_fc_march_scans_in_blocks_but_shoots_nothing_past_its_stop(monkeypatch, name, q, B,
                                                                    sizes):
    # t_top lies between the march's 8th and 9th slices.  warpb's march stops
    # at the 9th; with b != 1 every T is a shooting solve that costs more the
    # farther its point, so no block runs past it.  With b == 1 the cap is in
    # closed form: no slice is computed at all
    calls = _recorded_slice_mins(monkeypatch)
    rep, _ = probe_finite_compactness(get_profile(name), P(0, 0), q, B)
    march = list(islice(toward_end(q.t, math.inf, 1e-2 * B), 9))
    assert march[-2] < rep.witness["t_top"] < march[-1]
    if not sizes:
        assert calls == []
        return
    assert [len(ts) for ts in calls[:len(sizes)]] == sizes
    assert sum(calls[:len(sizes)], [])[:9] == march
    if name == "warpb":
        assert max(max(ts) for ts in calls) == march[-1]


@pytest.mark.parametrize("name", ["minkowski", "exp2t", "c1power", "strip01"])
def test_unit_b_fc_scans_slices_only_for_an_escape(monkeypatch, name):
    # a capped b == 1 region is judged with no slice; strip01's escape reads
    # no slice minimum and scans the 40 slices of its march once, for the
    # witness
    calls = _recorded_slice_mins(monkeypatch)
    scans, slices = [], probes._slices
    monkeypatch.setattr(probes, "_slices", lambda *args: scans.append(
        np.asarray(args[4], dtype=float).tolist()) or slices(*args))
    cfg = CONFIGS[name]
    rep, _ = probes._judge_compactness(get_profile(name), cfg.p, cfg.q, cfg.fc_bound)
    assert calls == []
    if name != "strip01":
        assert rep.holds and scans == []
        return
    march = list(islice(toward_end(cfg.q.t, 1.0), 40))
    assert not rep.holds and scans == [march]


@pytest.mark.parametrize("name, bounds, stop, sizes", [("minkowski", (10.0, 200.0), 9, [8, 8]),
                                                       ("warpb", (5.0, 20.0), 6, [1] * 6)])
def test_ca_march_extends_in_blocks_but_shoots_nothing_past_its_stop(monkeypatch, name,
                                                                     bounds, stop, sizes):
    # the march stops at the first point past its last bound: the 9th on
    # minkowski, where T = 1 + s, and the 6th on warpb, where no block runs
    # past it; the crossings' root searches ask for parameters between points
    calls, times = [], _Quadrature.times
    monkeypatch.setattr(_Quadrature, "times", lambda self, ss: calls.append(
        np.asarray(ss, dtype=float).tolist()) or times(self, ss))
    cfg = CONFIGS[name]
    rep = probe_condition_a(get_profile(name), cfg.p, cfg.q, cfg.ca_direction, bounds)
    march = list(islice(toward_end(0.0, math.inf), stop))
    assert rep.holds and march[-2] < max(rep.witness["crossings"].values()) < march[-1]
    blocks = [ss for ss in calls if ss[0] in march]
    assert [len(ss) for ss in blocks] == sizes
    assert sum(blocks, [])[:len(march)] == march
    if name == "warpb":
        assert max(max(ss) for ss in calls) == march[-1]


# the slice-end rule: (profile, range of p.t, largest q.t - p.t, last slice time)
END_RULE_UNIT_B = {
    "minkowski": (get_profile("minkowski"), (-1.0, 1.0), 2.0, 6.0),
    "strip01": (get_profile("strip01"), (0.02, 0.4), 0.3, 0.99),
    "exp2t": (get_profile("exp2t"), (-0.5, 0.5), 1.0, 3.0),
    "c1power": (get_profile("c1power"), (-0.8, 0.8), 1.0, 4.0),
}
# warpb and the kinked b != 1 profiles of scripts/dump_outputs.py
MIX = MetricProfile("mix", (const(1), power(1, 0.3, 1.5)), (exponential(1, 1),), alpha=1e-9)
END_RULE_SHOOTING = {
    "warpb": (get_profile("warpb"), (-0.5, 0.5), 1.0, 2.5),
    "mixed": (MIXED, (-1.5, 0.0), 0.8, 1.9),
    "mix": (MIX, (0.0, 2.0), 2.0, 5.0),
}


@st.composite
def slice_batches(draw, case):
    """p << q (q inside p's cone by a drawn fraction of the cone-time gap)
    and slice times from just below q.t to the case's last slice time."""
    profile, window, span, t_end = case
    p = P(draw(st.floats(*window)), draw(st.floats(-1.0, 1.0)))
    qt = p.t + draw(st.floats(1e-3, span))
    lean = draw(st.floats(-0.999, 0.999))
    q = P(qt, p.x + lean * (cone_time(profile, qt) - cone_time(profile, p.t)))
    fractions = draw(st.lists(st.floats(-0.01, 1.0), min_size=1, max_size=4))
    return p, q, np.array([qt + u * (t_end - qt) for u in fractions])


def _check_slice_ends(case, batch):
    profile = case[0]
    p, q, ts = batch
    got = probes._slice_min(profile, p, q, ts)
    want = probes._slices(profile, p, q, math.inf, ts, 65)[0]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(END_RULE_UNIT_B))
@given(data=st.data())
def test_slice_min_is_read_exactly_from_the_ends_with_unit_b(name, data):
    """Exact with b == 1, whatever the premise: every point of a slice has
    its one dtau, and the relation's margin dtau - |dx| and the flat
    interval sqrt(dtau^2 - dx^2) are IEEE-rounded monotone functions of |dx|,
    which the grid, monotone in x, takes its largest at an end."""
    case = END_RULE_UNIT_B[name]
    _check_slice_ends(case, data.draw(slice_batches(case)))


def test_slice_min_reads_the_ends_where_the_flat_interval_takes_its_scaled_form():
    # past dtau^2 = inf the flat interval is the plain form on dtau and dx
    # scaled by one power of two, which stays monotone in |dx|; the scaled
    # form |dtau| sqrt((1 - r)(1 + r)) could rise by an ulp as |r| grew and
    # left these slices an ulp or two above q.t their minimum inside
    mink, p = get_profile("minkowski"), P(0.0, 0.0)
    q = P(9.605749966830115e270, 1.222105954120503e269)
    ts = np.array([q.t + k * math.ulp(q.t) for k in range(1, 6)])
    scan = probes._slices(mink, p, q, math.inf, ts, 65)[0]
    ends = probes._slice_points(mink, p, q, ts, 2)[1].min(axis=1)
    assert ends.tobytes() == scan.tobytes()


@pytest.mark.parametrize("name", sorted(END_RULE_SHOOTING))
@settings(max_examples=20)
@given(data=st.data())
def test_slice_min_is_read_from_the_ends_with_shooting(name, data):
    # with b != 1 the rule rests on the premise that T(p, (t, x)) does not
    # increase with |x - p.x| in floats too, near-null and thin slices included
    case = END_RULE_SHOOTING[name]
    _check_slice_ends(case, data.draw(slice_batches(case)))


@settings(max_examples=15)
@given(pt=st.floats(0.02, 0.4), px=st.floats(-1.0, 1.0), dt=st.floats(1e-3, 0.3),
       lean=st.floats(-0.9, 0.9), B=st.floats(1.0, 10.0))
def test_strip_escape_witness_is_the_per_slice_scan(pt, px, dt, lean, B):
    # T stays below 1 on the strip, so every region escapes; the witness is
    # read from one scan of every marched slice, the reference scans each
    strip = get_profile("strip01")
    p = P(pt, px)
    q = P(pt + dt, px + lean * (cone_time(strip, pt + dt) - cone_time(strip, pt)))
    got, got_region = probe_finite_compactness(strip, p, q, B)
    want, want_region = scalar_probe_finite_compactness(strip, p, q, B)
    assert not got.holds
    assert repr(got) == repr(want)
    assert got_region.slices.tobytes() == want_region.slices.tobytes()


def test_k1_slices_require_a_chronological_pair():
    # q = (0, 5) is not in the future of p = (0, 0), so K1 is empty; the
    # slice at t = 1.5 read keep bounds (3.5, 6.5) with min_T 0
    with pytest.raises(NotChronological):
        k1_slices(get_profile("minkowski"), P(0, 0), P(0, 5), 5.0, [1.5])


@pytest.mark.parametrize("B", (math.nan, -1.0, 0.0))
def test_k1_slices_require_a_positive_bound(B):
    # such a bound kept no point and read all-nan rows
    with pytest.raises(ValueError, match="bound"):
        k1_slices(get_profile("minkowski"), P(0, 0), P(1, 0), B, [1.5])


def test_k1_slices_keep_the_whole_slice_under_an_infinite_bound():
    rows = k1_slices(get_profile("minkowski"), P(0, 0), P(1, 0), math.inf, [1.5])
    assert rows.tolist() == [[1.5, -0.5, 0.5, math.sqrt(2.0)]]


@pytest.mark.parametrize("name, t", [
    ("strip01", 2.0), ("strip01", 1.0), ("strip01", 0.0), ("strip01", math.nan),
    ("c1power", math.nan), ("c1power", math.inf), ("c1power", -math.inf),
])
def test_k1_slices_reject_times_outside_the_open_domain(name, t):
    # strip01's closed-form cone map checks no domain: t = 2.0 read a row
    # past the domain's end and nan a row of zeros
    with pytest.raises(DomainExceeded):
        k1_slices(get_profile(name), P(0.1, 0), P(0.2, 0), 5.0, [0.5, t])


def test_k1_nesting_in_bound():
    mink = get_profile("minkowski")
    ts = np.linspace(1.0, 4.0, 12)
    small = k1_slices(mink, P(0, 0), P(1, 0), 2.0, ts)
    large = k1_slices(mink, P(0, 0), P(1, 0), 3.0, ts)
    for row_s, row_l in zip(small, large):
        if math.isnan(row_s[1]):
            continue
        assert row_l[1] <= row_s[1] + 1e-9
        assert row_l[2] >= row_s[2] - 1e-9


# -- condition A ------------------------------------------------------------------


def test_ca_minkowski_vertical_linear_growth():
    rep = probe_condition_a(get_profile("minkowski"), P(0, 0), P(1, 0), V(1, 0),
                            [1000.0])
    assert rep.holds
    assert rep.witness["crossings"][1000.0] == pytest.approx(999.0, rel=1e-6)
    assert rep.witness["max_param"] == math.inf


def test_ca_minkowski_null_ray_diverges():
    # along gamma(s) = (1+s, s) from q=(1,0), T(p, gamma) = sqrt(1+2s)
    rep = probe_condition_a(get_profile("minkowski"), P(0, 0), P(1, 0), V(1, 1),
                            [10.0])
    assert rep.holds
    assert rep.witness["crossings"][10.0] == pytest.approx(49.5, rel=1e-6)


def test_ca_strip_capped():
    strip = get_profile("strip01")
    rep = probe_condition_a(strip, P(0.1, 0), P(0.2, 0), V(1, 0), [2.0, 10.0])
    assert not rep.holds
    assert rep.witness["max_param"] == pytest.approx(0.8, abs=1e-9)
    assert rep.witness["bounded_by"] <= 0.9 + 1e-6
    assert rep.witness["bounded_by"] == pytest.approx(0.9, abs=1e-6)
    assert rep.witness["missed_bounds"] == [2.0, 10.0]
    assert replay_witness(strip, rep) < 1e-7


def test_ca_monotone_in_bound():
    rep = probe_condition_a(get_profile("exp2t"), P(0, 0), P(0.1, 0), V(1, 0),
                            [0.5, 1.0, 2.0, 4.0])
    assert rep.holds
    stars = [rep.witness["crossings"][b] for b in (0.5, 1.0, 2.0, 4.0)]
    assert all(s2 >= s1 - 1e-9 for s1, s2 in zip(stars[:-1], stars[1:]))


def test_ca_crossing_at_zero_when_bound_below_Tpq():
    rep = probe_condition_a(get_profile("minkowski"), P(0, 0), P(2, 0), V(1, 0),
                            [1.0])
    assert rep.holds
    assert rep.witness["crossings"][1.0] == 0.0


@pytest.mark.parametrize("bounds", ([], [-1.0], [0.0], [5.0, -1.0], [math.nan],
                                    [10.0, math.inf]))
def test_ca_rejects_vacuous_bounds(bounds):
    # no bound, or one that T >= 0 passes at once, makes "holds" say nothing;
    # no T passes inf, whose crossing search gave up doubling T
    with pytest.raises(ValueError, match="bound"):
        probe_condition_a(get_profile("minkowski"), P(0, 0), P(1, 0), V(1, 0), bounds)


def test_ca_rejects_spacelike_direction():
    with pytest.raises(NotCausal):
        probe_condition_a(get_profile("minkowski"), P(0, 0), P(1, 0), V(0.5, 2.0),
                          [1.0])


# -- timelike Cauchy -----------------------------------------------------------------


def seq_dyadic(n=30):
    pts = [P(1.0 - 2.0 ** (-k), 0.0) for k in range(1, n + 1)]
    bounds = [2.0 * 2.0 ** (-k) for k in range(1, n + 1)]
    return pts, bounds


def test_tcc_minkowski_converges():
    pts, bounds = seq_dyadic()
    rep = probe_timelike_cauchy(get_profile("minkowski"), pts, bounds)
    assert rep.holds
    lt, lx = rep.witness["limit"]
    assert math.hypot(lt - 1.0, lx) < 1e-6


def test_tcc_strip_escapes_missing_boundary():
    pts, bounds = seq_dyadic()
    rep = probe_timelike_cauchy(get_profile("strip01"), pts, bounds)
    assert not rep.holds
    assert rep.witness["boundary_t"] == 1.0
    assert replay_witness(get_profile("strip01"), rep) < 1e-7


@pytest.mark.parametrize("tol", (math.nan, -1.0, math.inf))
def test_tcc_rejects_a_tolerance_not_finite_and_non_negative(tol):
    # nan and -1 read a made-up non_convergent failure; inf held on any sequence
    pts, bounds = seq_dyadic()
    with pytest.raises(ValueError, match="tol"):
        probe_timelike_cauchy(get_profile("minkowski"), pts, bounds, tol=tol)
    assert not probe_timelike_cauchy(get_profile("minkowski"), pts, bounds, tol=0.0).holds


def test_tcc_premise_violation_on_non_chronological_sequence():
    pts = [P(0.1, 0), P(0.5, 0), P(0.3, 0), P(0.6, 0)]
    bounds = [1.0, 0.5, 0.25, 0.125]
    with pytest.raises(PremiseViolated) as err:
        probe_timelike_cauchy(get_profile("minkowski"), pts, bounds)
    assert err.value.index == 1


@pytest.mark.parametrize("bounds, index, message", [
    ([1.0, 0.5, 0.75, 0.125], 1, "x_1 << x_2 fails"),  # chronology ahead of bounds
    ([1.0, 1.5, 0.25, 0.125], 0, "B_1 > B_0: gap bounds must shrink"),
])
def test_tcc_premise_names_first_failing_step(bounds, index, message):
    pts = [P(0.1, 0), P(0.5, 0), P(0.3, 0), P(0.6, 0)]
    with pytest.raises(PremiseViolated) as err:
        probe_timelike_cauchy(get_profile("minkowski"), pts, bounds)
    assert (err.value.index, str(err.value)) == (index, message)


@pytest.mark.parametrize("nan_at", ["all", 0, 5, 11])
def test_tcc_rejects_nan_gap_bounds(nan_at):
    # a NaN bound failed both premise comparisons, so it held on the probe
    mink = get_profile("minkowski")
    seq, bounds = make_cauchy_sequence(mink, P(0, 0), V(1, 0))
    assert probe_timelike_cauchy(mink, seq, bounds).holds
    if nan_at == "all":
        bounds = [math.nan] * len(seq)
    else:
        bounds[nan_at] = math.nan
    with pytest.raises(PremiseViolated, match="gap bounds must shrink"):
        probe_timelike_cauchy(mink, seq, bounds)


def test_tcc_premise_checks_the_domain():
    pts = [P(0.3, 0), P(0.5, 0), P(0.7, 0), P(1.2, 0)]
    with pytest.raises(DomainExceeded):
        probe_timelike_cauchy(get_profile("strip01"), pts, [1.0, 0.5, 0.25, 0.125])


def test_tcc_premise_violation_on_gap_bound():
    pts = [P(0.0, 0), P(0.5, 0), P(0.6, 0), P(0.65, 0)]
    bounds = [0.1, 0.05, 0.025, 0.0125]  # T(x_0, x_1) = 0.5 > 0.1
    with pytest.raises(PremiseViolated):
        probe_timelike_cauchy(get_profile("minkowski"), pts, bounds)


@pytest.mark.parametrize("name", ("minkowski", "warpb"))
def test_tcc_premise_gap_violation_names_first_pair_in_row_major_order(name):
    prof = get_profile(name)
    pts, bounds = make_cauchy_sequence(prof, P(0.1, 0), V(1, 0), span=0.7, n=12)
    # still non-increasing, but T(x_5, x_6) now exceeds B_5
    bounds = bounds[:5] + [0.01 * b for b in bounds[5:]]
    i, j, gap = next(
        (i, j, T)
        for i in range(len(pts)) for j in range(i + 1, len(pts))
        if (T := lorentzian_distance(prof, pts[i], pts[j], with_path=False).value)
        > bounds[i] + 1e-9
    )
    assert (i, j) == (5, 6)
    with pytest.raises(PremiseViolated) as err:
        probe_timelike_cauchy(prof, pts, bounds)
    assert err.value.index == i
    assert str(err.value) == f"T(x_{i}, x_{j}) = {gap!r} exceeds B_{i} = {bounds[i]!r}"


def test_make_cauchy_sequence_satisfies_premises():
    for name in ("minkowski", "exp2t", "warpb"):
        prof = get_profile(name)
        pts, bounds = make_cauchy_sequence(prof, P(0.1, 0), V(1, 0), span=0.7, n=30)
        rep = probe_timelike_cauchy(prof, pts, bounds)  # must not raise
        assert rep.holds


@pytest.mark.parametrize("name, span", [("exp2t", 0.7), ("strip01", 5.0), ("strip01", 1.0),
                                        ("minkowski", 8.0), ("c1power", 1.0),
                                        ("c1power", 1e6), ("warpb", 1.0),
                                        ("strip01", math.inf)])
def test_make_cauchy_sequence_at_geometric_parameters(name, span):
    prof = get_profile(name)
    pts, bounds = make_cauchy_sequence(prof, P(0.1, 0), V(1, 0), span=span, n=30)
    quad = _Quadrature(prof, P(0.1, 0), conserved_quantities(prof, P(0.1, 0), V(1, 0)))
    cap = min(span, quad.bound())
    want = [quad.point_at(cap * (1.0 - 2.0 ** -k)) for k in range(1, 31)]
    assert [(p.t, p.x) for p in pts] == [(p.t, p.x) for p in want]
    assert bounds == [2.0 * cap * 2.0 ** -k for k in range(1, 31)]


@pytest.mark.parametrize("span", [math.nan, 0.0, -1.0, math.inf])
def test_make_cauchy_sequence_rejects_a_span_with_no_finite_cap(span):
    # minkowski geodesics have no affine bound, so an infinite span has no
    # finite cap
    with pytest.raises(ValueError, match="Cauchy span"):
        make_cauchy_sequence(get_profile("minkowski"), P(0, 0), V(1, 0), span=span)


@pytest.mark.parametrize("n", [-1, 0, 2, 2.5, 30.0, True])
def test_make_cauchy_sequence_rejects_a_length_below_three(monkeypatch, n):
    # the Cauchy probe needs 3 points; the length is checked before the
    # geodesic is built or marched
    monkeypatch.setattr(probes, "_oriented", None)
    with pytest.raises(ValueError, match="Cauchy sequence length n"):
        make_cauchy_sequence(get_profile("minkowski"), P(0, 0), V(1, 0), n=n)


def test_make_cauchy_sequence_caps_at_exit():
    pts, bounds = make_cauchy_sequence(get_profile("strip01"), P(0.1, 0), V(1, 0),
                                       span=5.0, n=25)
    assert max(p.t for p in pts) < 1.0
    assert 1.0 - pts[-1].t < 1e-6


def test_capped_bound_marches_only_past_the_span(monkeypatch):
    made = []

    class Recorded(_Quadrature):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(geodesics, "_Quadrature", Recorded)
    p, v = P(0.1, 0.0), V(1.0, 0.0)
    for name in ("c1power", "strip01"):
        prof = get_profile(name)
        make_cauchy_sequence(prof, p, v, span=1.0, n=30)
        full = _Quadrature(prof, p, conserved_quantities(prof, p, v))
        full.bound()
        if name == "c1power":
            # the bound is inf: the march stops at its first s above the span,
            # and the full bound is known to diverge with no march at all
            assert not made[-1]._ended and made[-1]._S[-2] <= 1.0 < made[-1]._S[-1]
            assert full._T == [p.t]
        else:
            # the bound 0.9 lies below the span; on the growing closed form it
            # is s(t_max), read with no march
            assert made[-1]._T == full._T == [p.t]
            assert full.bound() == full._closed(1.0) == 0.9


# -- implication report ----------------------------------------------------------------


@pytest.mark.parametrize("name", ("minkowski", "exp2t", "c1power", "warpb"))
def test_implications_all_hold_on_complete_profiles(name):
    rep = implication_report(get_profile(name), CONFIGS[name])
    assert rep.finite_compactness.holds
    assert rep.timelike_cauchy.holds
    assert rep.condition_a.holds
    assert rep.consistent and not rep.violated


def test_implications_all_fail_on_strip():
    rep = implication_report(get_profile("strip01"), CONFIGS["strip01"])
    assert not rep.finite_compactness.holds
    assert not rep.timelike_cauchy.holds
    assert not rep.condition_a.holds
    assert rep.consistent and not rep.violated


def _refuse_trace(*args):
    raise AssertionError("the region was traced")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_implication_report_judges_compactness_without_the_trace(monkeypatch, name):
    # the report's verdict and witness are the probe's, strip01's escape
    # witness included, and no region is traced for them
    prof, cfg = get_profile(name), CONFIGS[name]
    want, _ = probe_finite_compactness(prof, cfg.p, cfg.q, cfg.fc_bound)
    monkeypatch.setattr(probes, "_trace_region", _refuse_trace)
    got = implication_report(prof, cfg).finite_compactness
    assert repr(got) == repr(want)
    assert got.holds == (name != "strip01")


# -- gate: the batched probes against the scalar route they replaced ---------------
#
# Verbatim copies of the scalar route: every T through lorentzian_distance and
# one scalar Illinois search per level crossing and per condition-A bound,
# each step asking g at two points as quadrature.solve does.


def scalar_bracketed_root(g, lo: float, hi: float, glo=None, ghi=None,
                          xtol: float = 1e-12) -> float:
    if glo is None:
        glo = g(lo)
    if ghi is None:
        ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    for _ in range(200):
        # bisect an overflowed upper end back into the finite region
        if math.isfinite(ghi):
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if math.isfinite(gm) and (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    if (glo > 0.0) == (ghi > 0.0):
        raise QuadratureError(f"root not bracketed on [{lo!r}, {hi!r}]")

    def false_position():
        denom = ghi - glo
        mid = hi - ghi * (hi - lo) / denom if denom != 0.0 else math.nan
        return mid if lo < mid < hi else 0.5 * (lo + hi)

    if hi - lo <= xtol * max(1.0, abs(lo), abs(hi)):
        return 0.5 * (lo + hi)
    # each step asks g at x -+ h around the false-position point x, h a
    # quarter of the stop width, both at least h inside the bracket
    up, last, x = ghi > 0.0, ghi > 0.0, false_position()
    for it in range(ROOT_MAX_ITER):
        h = 0.25 * xtol * max(1.0, abs(lo), abs(hi))
        x = min(max(x, lo + 2.0 * h), hi - 2.0 * h)
        a, b = x - h, x + h
        ga, gb = g(a), g(b)
        if ga == 0.0:
            return a
        if gb == 0.0:
            return b
        a_right, b_right = (ga > 0.0) == up, (gb > 0.0) == up
        if it:  # the value at an end kept twice in a row is halved
            if a_right and last:
                glo *= 0.5
            if not b_right and not last:
                ghi *= 0.5
        if a_right:
            hi, ghi = a, ga
        elif b_right:  # the root lies between a and b
            lo, glo, hi, ghi = a, ga, b, gb
            return false_position()
        else:
            lo, glo = b, gb
        if hi - lo <= xtol * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        x, last = false_position(), a_right
    return 0.5 * (lo + hi)


def _slice_scan(profile, p, q, B, t, nx):
    """(min_T, keep_lo, keep_hi, xs, Ts) on the cone slice of q at time t."""
    cone_t = cone_time(profile, t)
    half = cone_t - cone_time(profile, q.t)
    xs = np.linspace(q.x - half, q.x + half, nx) if half > 0.0 else np.array([q.x])
    Ts = _separations(profile, p.t, p.x, t, xs, cone_t - cone_time(profile, p.t), EPS_NULL)[0]
    keep = Ts <= B
    if keep.any():
        lo = float(xs[keep][0])
        hi = float(xs[keep][-1])
    else:
        lo = hi = math.nan
    return float(Ts.min()), lo, hi, xs, Ts


def scalar_tval(profile, p, pt):
    return lorentzian_distance(profile, p, pt, with_path=False).value


def scalar_level_crossings(profile, p, B, t, xs, Ts):
    out = []
    inside = Ts <= B
    for i in range(len(xs) - 1):
        if inside[i] == inside[i + 1]:
            continue
        root = scalar_bracketed_root(
            lambda x: scalar_tval(profile, p, SpacetimePoint(t, float(x))) - B,
            float(xs[i]),
            float(xs[i + 1]),
            glo=float(Ts[i] - B),
            ghi=float(Ts[i + 1] - B),
            xtol=1e-9,
        )
        out.append((t, float(root)))
    return out


def scalar_probe_finite_compactness(profile, p, q, B, nx=65, n_trace=48, t_top=None):
    """The scalar route's report and region; a given t_top stands in for
    the root of a capped region's top time, in the report and the trace."""
    if B <= 0.0:
        raise ValueError("bound B must be positive")
    _require_chronological(profile, p, q)
    base_witness = {"p": (p.t, p.x), "q": (q.t, q.x), "bound": float(B)}

    scans = {}  # the root search can end on a slice the trace needs again

    def scan(t):
        if t not in scans:
            scans[t] = _slice_scan(profile, p, q, B, t, nx)
        return scans[t]

    T_pq = scalar_tval(profile, p, q)
    if T_pq > B:
        region = K1Region(p, q, B, np.empty((0, 4)), [], True, True)
        report = ProbeReport(
            "finite_compactness", HOLDS, dict(base_witness, empty=True, t_top=q.t)
        )
        return report, region

    marched = []  # (t, x_keep_lo, x_keep_hi, min_T) of every slice passed
    t_prev, g_prev = q.t, T_pq - B
    n_march = 40 if math.isfinite(profile.t_max) else 70
    for t in islice(toward_end(q.t, profile.t_max, max(1e-2, 1e-2 * abs(B))), n_march):
        min_T, lo, hi, _, _ = scan(t)
        if min_T > B:
            if t_top is None:
                t_top = scalar_bracketed_root(
                    lambda u: scan(u)[0] - B, t_prev, t, glo=g_prev, ghi=min_T - B, xtol=1e-9
                )
            break
        marched.append((t, lo, hi, min_T))
        t_prev, g_prev = t, min_T - B
    else:
        mids = [(t, 0.5 * (lo + hi)) for t, lo, hi, _ in marched]
        slices = np.asarray(marched, dtype=float).reshape(-1, 4)
        region = K1Region(p, q, B, slices, [], False, False)
        report = ProbeReport(
            "finite_compactness",
            FAILS,
            dict(
                base_witness,
                escaping_points=mids,
                escaping_T=[
                    scalar_tval(profile, p, SpacetimePoint(*pt)) for pt in mids
                ],
                t_boundary=float(profile.t_max),
            ),
        )
        return report, region

    rows, boundary = [], []
    for t in np.linspace(q.t, t_top, n_trace).tolist():
        min_T, lo, hi, xs, Ts = scan(t)
        if t == t_top:
            # the cap: min_T is B, kept at the slice's minimum, the cone
            # edges there, no crossing
            at_min = [float(x) for x, T in zip(xs, Ts) if T == min_T]
            rows.append((t, at_min[0], at_min[-1], B))
            boundary += [(t, float(xs[k])) for k in (0, -1) if Ts[k] == min_T]
            continue
        rows.append((t, lo, hi, min_T))
        boundary.extend(scalar_level_crossings(profile, p, B, t, xs, Ts))
        boundary += [(t, float(xs[k])) for k in (0, -1) if Ts[k] <= B]  # the kept cone edges
    region = K1Region(p, q, B, np.asarray(rows, dtype=float), boundary, True, True)
    report = ProbeReport(
        "finite_compactness", HOLDS, dict(base_witness, t_top=float(t_top))
    )
    return report, region


def scalar_probe_condition_a(profile, p, q, v, B_list):
    _require_chronological(profile, p, q)
    char = classify_vector(profile, q, v)
    if not char.is_causal:
        raise NotCausal(f"direction {v} is {char.kind}, need timelike or null")
    if v.tau0 <= 0.0:
        raise NotCausal("probe extends future-directed geodesics (tau0 > 0)")
    quad = _Quadrature(profile, q, conserved_quantities(profile, q, v))
    bound = quad.bound()

    T_prev = scalar_tval(profile, p, q)
    bounds = sorted({float(B) for B in B_list})
    crossings = {B: 0.0 for B in bounds if T_prev > B}
    pending = [B for B in bounds if B not in crossings]
    s_prev = 0.0
    tail = deque(maxlen=5)  # the last march points, the witness of a capped T
    for s in islice(toward_end(0.0, bound), 45 if math.isfinite(bound) else 90):
        if not pending:
            break
        pt = quad.point_at(s)
        T = scalar_tval(profile, p, pt)
        while pending and T > pending[0]:
            B = pending.pop(0)
            crossings[B] = float(
                scalar_bracketed_root(
                    lambda u: scalar_tval(profile, p, quad.point_at(u)) - B,
                    s_prev, s, glo=T_prev - B, ghi=T - B, xtol=1e-10)
            )
        tail.append((s, pt.t, pt.x, T))
        s_prev, T_prev = s, T
    crossings.update((B, None) for B in pending)

    witness = {
        "p": (p.t, p.x),
        "q": (q.t, q.x),
        "v": (v.tau0, v.xi0),
        "crossings": crossings,
        "max_param": float(bound),
    }
    if pending:
        witness["bounded_by"] = float(T_prev)
        witness["missed_bounds"] = pending
        witness["tail"] = list(tail)
        return ProbeReport("condition_a", FAILS, witness)
    return ProbeReport("condition_a", HOLDS, witness)


def x_shifted(config, shift, ca_bounds):
    return ProbeConfig(P(config.p.t, config.p.x + shift), P(config.q.t, config.q.x + shift),
                       fc_bound=config.fc_bound, ca_bounds=ca_bounds)


# (profile, config) by case: the catalog configs and two x-shifted unit-b
# ones, whose first two condition-A bounds are passed at one march step
GATE_CASES = {name: (name, cfg) for name, cfg in CONFIGS.items()}
GATE_CASES["minkowski+0.37"] = (
    "minkowski", x_shifted(CONFIGS["minkowski"], 0.37, (10.0, 10.5, 100.0)))
GATE_CASES["c1power-0.81"] = (
    "c1power", x_shifted(CONFIGS["c1power"], -0.81, (10.0, 12.0, 100.0)))


def assert_fc_is_the_scalar_route(prof, p, q, B):
    """The probe's report and region are the scalar route's, bit for bit.
    On b == 1 the probe takes a capped region's t_top in closed form: it
    lies within the scalar root's tolerance, 1e-9 max(1, |t_top|), of that
    root, and the region is the scalar trace at the probe's own t_top.
    repr tells every float apart: an empty slice keeps nan bounds, which ==
    would report as a mismatch."""
    got, got_region = probe_finite_compactness(prof, p, q, B)
    want, want_region = scalar_probe_finite_compactness(prof, p, q, B)
    if prof.has_unit_b and got.holds and not got.witness.get("empty"):
        t_top, root = got.witness["t_top"], want.witness["t_top"]
        assert abs(t_top - root) <= 1e-9 * max(1.0, abs(root))
        want, want_region = scalar_probe_finite_compactness(prof, p, q, B, t_top=t_top)
    assert repr(got) == repr(want)
    assert repr(got_region) == repr(want_region)
    assert got_region.slices.tobytes() == want_region.slices.tobytes()


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_probes_match_scalar_route(case):
    name, cfg = GATE_CASES[case]
    prof = get_profile(name)
    assert_fc_is_the_scalar_route(prof, cfg.p, cfg.q, cfg.fc_bound)
    got = probe_condition_a(prof, cfg.p, cfg.q, cfg.ca_direction, cfg.ca_bounds)
    want = scalar_probe_condition_a(prof, cfg.p, cfg.q, cfg.ca_direction, cfg.ca_bounds)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_condition_a_solves_every_crossing_in_one_call(monkeypatch, case):
    # every config marches vertically from q (v = (1, 0), kappa = 0) with
    # p.x = q.x, so T(p, gamma(s)) = T(p, q) + sqrt(a(q.t)) s is affine in s:
    # false position lands on each root, and the two points around it close
    # every bracket in the first call.  The brackets come from different
    # march points: minkowski passes 10 at s = 16 and 100 at s = 128, two
    # points of its first block of 8
    solves, real = [], probes.solve

    def counted(g, lo, hi, *args):
        solves.append((np.asarray(lo).tolist(), np.asarray(hi).tolist(), []))
        return real(lambda x, rows: solves[-1][2].append(len(x)) or g(x, rows), lo, hi, *args)

    monkeypatch.setattr(probes, "solve", counted)
    name, cfg = GATE_CASES[case]
    rep = probe_condition_a(get_profile(name), cfg.p, cfg.q, cfg.ca_direction, cfg.ca_bounds)
    if not rep.holds:  # strip01 caps T below every bound: there is nothing to solve
        assert solves == []
        return
    (lo, hi, sizes), = solves
    assert sizes == [2 * len(cfg.ca_bounds)]
    if case == "minkowski":
        assert (lo, hi) == ([8.0, 64.0], [16.0, 128.0])
    if case == "minkowski+0.37":  # 10 and 10.5 are passed at one march point
        assert (lo, hi) == ([8.0, 8.0, 64.0], [16.0, 16.0, 128.0])


def _exact_roots():
    """The catalog configs' t_top and condition-A crossings, by key (name,
    "t_top") or (name, B), as mpmath numbers.  With b == 1 the chart (int
    sqrt(a) dt, x) is flat, so T is the flat interval and each root has a
    closed form in F(t) = int_0^t sqrt(a): the slice ends at F(t_top) = E
    meet T = B where E^2 - (E - F(q.t))^2 = B^2 (p = (0, 0)), and T(p,
    gamma(s)) = F(q.t) + sqrt(a(q.t)) s.  warpb's t_top is the root of a
    30-digit shooting solve at the exact slice end (a = 1, b = 1 + t^2)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    e01, half = mp.exp(mp.mpf("0.1")), mp.mpf("0.5")

    def flat(t):  # F for c1power
        return mp.quad(lambda u: mp.sqrt(1 + u ** mp.mpf("1.5")), [0, t])

    Fq, c1_rate = flat(half), mp.sqrt(1 + half ** mp.mpf("1.5"))
    roots = {("minkowski", "t_top"): mp.mpf(13), ("minkowski", 10.0): mp.mpf(9),
             ("minkowski", 100.0): mp.mpf(99),
             ("exp2t", "t_top"): mp.log((1 / (e01 - 1) + 1 + e01) / 2),
             ("c1power", "t_top"): mp.findroot(lambda t: flat(t) - (25 + Fq ** 2) / (2 * Fq),
                                               mp.mpf(8)),
             ("warpb", 5.0): mp.mpf("4.5"), ("warpb", 20.0): mp.mpf("19.5")}
    for B in (10.0, 100.0):
        roots[("exp2t", B)] = (B + 1 - e01) / e01  # F = e^t - 1
        roots[("c1power", B)] = (B - Fq) / c1_rate

    def warpb_T(t):  # T((0, 0), (t, asinh(t) - asinh(0.5))) by shooting
        x = mp.asinh(t) - mp.asinh(half)
        kappa = mp.findroot(lambda k: mp.quad(
            lambda u: k / mp.sqrt((1 + u * u) * (k * k + 1 + u * u)), [0, t]) - x, mp.mpf("0.3"))
        return mp.quad(lambda u: mp.sqrt((1 + u * u) / (kappa * kappa + 1 + u * u)), [0, t])

    roots[("warpb", "t_top")] = mp.findroot(lambda t: warpb_T(t) - 3, mp.mpf("4.5094"))
    return roots


# each root as the solver found it with one point per Illinois step
ONE_POINT_ROOTS = {
    ("minkowski", "t_top"): 13.0000000000001, ("minkowski", 10.0): 9.0,
    ("minkowski", 100.0): 99.0, ("exp2t", "t_top"): 1.759021280484145,
    ("exp2t", 10.0): 8.953211598395553, ("exp2t", 100.0): 90.38857922163191,
    ("c1power", "t_top"): 8.011052701625044, ("c1power", 10.0): 8.136663890225439,
    ("c1power", 100.0): 85.49458922948006, ("warpb", "t_top"): 4.509417005734019,
    ("warpb", 5.0): 4.5, ("warpb", 20.0): 19.5,
}


def test_catalog_roots_lie_within_their_tolerance_of_the_exact_roots():
    # t_top is solved to 1e-9 and the crossings to 1e-10, each times max(1,
    # |root|).  No root is farther from the exact one than the one-point
    # step's, or than 4 ulps of the root: g's rounding, a few ulps of T over
    # the slope, puts the float root there
    exact, got = _exact_roots(), {}
    for name, cfg in CONFIGS.items():
        prof = get_profile(name)
        rep = implication_report(prof, cfg)
        if rep.consistent and rep.finite_compactness.holds:
            got[(name, "t_top")] = rep.finite_compactness.witness["t_top"]
            got.update(((name, B), s) for B, s in rep.condition_a.witness["crossings"].items())
    assert got.keys() == exact.keys() == ONE_POINT_ROOTS.keys()
    for key, root in got.items():
        want = exact[key]
        off = abs(root - want)
        assert off <= (1e-9 if key[1] == "t_top" else 1e-10) * max(1.0, abs(want)), key
        ulp = math.ulp(float(want))
        assert off <= max(abs(ONE_POINT_ROOTS[key] - want), 4 * ulp), (key, off / ulp)


def test_catalog_probe_script_passes():
    # the catalog-verdict gate: every probe fails on strip01 and holds elsewhere
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_catalog_probes.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
