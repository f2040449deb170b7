import math
import subprocess
import sys
from collections import deque
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from lorlab import (
    DomainExceeded,
    NotCausal,
    NotChronological,
    PremiseViolated,
    ProbeConfig,
    SpacetimePoint,
    TangentVector,
    get_profile,
    implication_report,
    k1_slices,
    lorentzian_distance,
    make_cauchy_sequence,
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
    assert region.slices.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, q, B, dt", [("minkowski", P(1, 0.37), 1.5, 0.7),
                                            ("c1power", P(0.5, 0.4), 1.2, 0.7),
                                            ("warpb", P(0.5, 0.1), 0.9, 0.45)])
@pytest.mark.parametrize("nx", (65, 10))
def test_k1_slices_are_the_scalar_slice_scans(name, q, B, dt, nx):
    # rows below q.t, at q.t (half = 0) and past the cap (nothing kept), in
    # one batch.  With nx = 10 the keep interval of the slice at q.t + dt
    # starts at a grid point that a batched linspace would round differently
    # because of the zero-width row (nx - 1 is not a power of 2)
    prof, p = get_profile(name), P(0, 0)
    ts = np.array([q.t - 0.25, q.t, q.t + dt, q.t + 9.0])
    got = k1_slices(prof, p, q, B, ts, nx=nx)
    want = [(t, lo, hi, min_T)
            for t in ts.tolist()
            for min_T, lo, hi, _, _ in [_slice_scan(prof, p, q, B, t, nx, EPS_NULL)]]
    assert got.tobytes() == np.array(want).tobytes()
    assert math.isnan(got[-1, 1]) and not math.isnan(got[2, 1])


@pytest.mark.parametrize("name, q, B, sizes", [("minkowski", P(1, 0), 5.0, [1, 1, 2, 4, 8]),
                                               ("warpb", P(0.5, 0), 3.0, [1] * 9)])
def test_fc_march_scans_in_blocks_but_shoots_nothing_past_its_stop(monkeypatch, name, q, B,
                                                                    sizes):
    # both marches stop at their 9th slice; with b != 1 every T is a shooting
    # solve that costs more the farther its point, so no block runs past it
    calls, scan = [], probes._slices
    monkeypatch.setattr(probes, "_slices", lambda *args: calls.append(
        np.asarray(args[4], dtype=float).tolist()) or scan(*args))
    rep, _ = probe_finite_compactness(get_profile(name), P(0, 0), q, B)
    march = list(islice(toward_end(q.t, math.inf, 1e-2 * B), 9))
    assert march[-2] < rep.witness["t_top"] < march[-1]
    assert [len(ts) for ts in calls[:len(sizes)]] == sizes
    assert sum(calls[:len(sizes)], [])[:9] == march
    if name == "warpb":
        assert max(max(ts) for ts in calls) == march[-1]


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


@pytest.mark.parametrize("bounds", ([], [-1.0], [0.0], [5.0, -1.0], [math.nan]))
def test_ca_rejects_vacuous_bounds(bounds):
    # no bound, or one that T >= 0 passes at once, makes "holds" say nothing
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
                                        ("c1power", 1e6), ("warpb", 1.0)])
def test_make_cauchy_sequence_at_geometric_parameters(name, span):
    prof = get_profile(name)
    pts, bounds = make_cauchy_sequence(prof, P(0.1, 0), V(1, 0), span=span, n=30)
    quad = _Quadrature(prof, P(0.1, 0), conserved_quantities(prof, P(0.1, 0), V(1, 0)))
    cap = min(span, quad.bound())
    want = [quad.point_at(cap * (1.0 - 2.0 ** -k)) for k in range(1, 31)]
    assert [(p.t, p.x) for p in pts] == [(p.t, p.x) for p in want]
    assert bounds == [2.0 * cap * 2.0 ** -k for k in range(1, 31)]


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
            # the bound is inf: the march stops at its first s above the span
            assert not made[-1]._ended and made[-1]._S[-2] <= 1.0 < made[-1]._S[-1]
            assert len(made[-1]._T) < len(full._T)
        else:
            # the bound 0.9 lies below the span, so the march runs to its end
            assert made[-1]._ended and made[-1]._T == full._T


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


# -- gate: the batched probes against the scalar route they replaced ---------------
#
# Verbatim copies of the scalar route: every T through lorentzian_distance and
# one scalar Illinois search per level crossing and per condition-A bound.


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
    side = 0
    for _ in range(ROOT_MAX_ITER):
        if hi - lo <= xtol * max(1.0, abs(lo), abs(hi)):
            break
        denom = ghi - glo
        mid = hi - ghi * (hi - lo) / denom if denom != 0.0 else 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (ghi > 0.0):
            hi, ghi = mid, gm
            if side == 1:
                glo *= 0.5
            side = 1
        else:
            lo, glo = mid, gm
            if side == -1:
                ghi *= 0.5
            side = -1
    return 0.5 * (lo + hi)


def _slice_scan(profile, p, q, B, t, nx, eps_null):
    """(min_T, keep_lo, keep_hi, xs, Ts) on the cone slice of q at time t."""
    cone_t = cone_time(profile, t)
    half = cone_t - cone_time(profile, q.t)
    xs = np.linspace(q.x - half, q.x + half, nx) if half > 0.0 else np.array([q.x])
    Ts = _separations(profile, p.t, p.x, t, xs, cone_t - cone_time(profile, p.t), eps_null)[0]
    keep = Ts <= B
    if keep.any():
        lo = float(xs[keep][0])
        hi = float(xs[keep][-1])
    else:
        lo = hi = math.nan
    return float(Ts.min()), lo, hi, xs, Ts


def scalar_tval(profile, p, pt, eps_null):
    return lorentzian_distance(
        profile, p, pt, with_path=False, eps_null=eps_null
    ).value


def scalar_level_crossings(profile, p, B, t, xs, Ts, eps_null):
    out = []
    inside = Ts <= B
    for i in range(len(xs) - 1):
        if inside[i] == inside[i + 1]:
            continue
        root = scalar_bracketed_root(
            lambda x: scalar_tval(profile, p, SpacetimePoint(t, float(x)), eps_null) - B,
            float(xs[i]),
            float(xs[i + 1]),
            glo=float(Ts[i] - B),
            ghi=float(Ts[i + 1] - B),
            xtol=1e-9,
        )
        out.append((t, float(root)))
    return out


def scalar_probe_finite_compactness(profile, p, q, B, nx=65, n_trace=48, eps_null=EPS_NULL):
    if B <= 0.0:
        raise ValueError("bound B must be positive")
    _require_chronological(profile, p, q, eps_null)
    base_witness = {"p": (p.t, p.x), "q": (q.t, q.x), "bound": float(B)}

    scans = {}  # the root search can end on a slice the trace needs again

    def scan(t):
        if t not in scans:
            scans[t] = _slice_scan(profile, p, q, B, t, nx, eps_null)
        return scans[t]

    T_pq = scalar_tval(profile, p, q, eps_null)
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
                    scalar_tval(profile, p, SpacetimePoint(*pt), eps_null) for pt in mids
                ],
                t_boundary=float(profile.t_max),
            ),
        )
        return report, region

    rows, boundary = [], []
    for t in np.linspace(q.t, t_top, n_trace).tolist():
        min_T, lo, hi, xs, Ts = scan(t)
        rows.append((t, lo, hi, min_T))
        boundary.extend(scalar_level_crossings(profile, p, B, t, xs, Ts, eps_null))
        if not math.isnan(lo):
            boundary.append((t, float(xs[0])))
            boundary.append((t, float(xs[-1])))
    region = K1Region(p, q, B, np.asarray(rows, dtype=float), boundary, True, True)
    report = ProbeReport(
        "finite_compactness", HOLDS, dict(base_witness, t_top=float(t_top))
    )
    return report, region


def scalar_probe_condition_a(profile, p, q, v, B_list, eps_null=EPS_NULL):
    _require_chronological(profile, p, q, eps_null)
    char = classify_vector(profile, q, v, eps_null=eps_null)
    if not char.is_causal:
        raise NotCausal(f"direction {v} is {char.kind}, need timelike or null")
    if v.tau0 <= 0.0:
        raise NotCausal("probe extends future-directed geodesics (tau0 > 0)")
    quad = _Quadrature(profile, q, conserved_quantities(profile, q, v))
    bound = quad.bound()

    T_prev = scalar_tval(profile, p, q, eps_null)
    bounds = sorted({float(B) for B in B_list})
    crossings = {B: 0.0 for B in bounds if T_prev > B}
    pending = [B for B in bounds if B not in crossings]
    s_prev = 0.0
    tail = deque(maxlen=5)  # the last march points, the witness of a capped T
    for s in islice(toward_end(0.0, bound), 45 if math.isfinite(bound) else 90):
        if not pending:
            break
        pt = quad.point_at(s)
        T = scalar_tval(profile, p, pt, eps_null)
        while pending and T > pending[0]:
            B = pending.pop(0)
            crossings[B] = float(
                scalar_bracketed_root(
                    lambda u: scalar_tval(profile, p, quad.point_at(u), eps_null) - B,
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


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_probes_match_scalar_route(case):
    # repr tells every float apart: an empty slice keeps nan bounds, which
    # == would report as a mismatch
    name, cfg = GATE_CASES[case]
    prof = get_profile(name)
    got, got_region = probe_finite_compactness(prof, cfg.p, cfg.q, cfg.fc_bound)
    want, want_region = scalar_probe_finite_compactness(prof, cfg.p, cfg.q, cfg.fc_bound)
    assert repr(got) == repr(want)
    assert repr(got_region) == repr(want_region)
    assert got_region.slices.tobytes() == want_region.slices.tobytes()
    got = probe_condition_a(prof, cfg.p, cfg.q, cfg.ca_direction, cfg.ca_bounds)
    want = scalar_probe_condition_a(prof, cfg.p, cfg.q, cfg.ca_direction, cfg.ca_bounds)
    assert repr(got) == repr(want)


def test_catalog_probe_script_passes():
    # the catalog-verdict gate: every probe fails on strip01 and holds elsewhere
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_catalog_probes.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
