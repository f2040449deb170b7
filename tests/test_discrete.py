import math

import numpy as np
import pytest

from lorlab import (
    CATALOG_NAMES,
    RegionOutsideDomain,
    SpacetimePoint,
    TooLarge,
    causally_related,
    check_axioms,
    check_causality,
    check_pushup,
    get_profile,
    lorentzian_distance,
    sample_space,
    space_from_points,
)
from lorlab.causality import BLOCK_PANELS, flat_time
from lorlab.discrete import (
    MAX_POINTS,
    AxiomReport,
    CheckResult,
    DiscreteCausalSpace,
    _first_link,
    _require_small,
)

P = SpacetimePoint

REGIONS = {
    "minkowski": (0.0, 1.0, 0.0, 1.0),
    "strip01": (0.05, 0.95, 0.0, 1.0),
    "exp2t": (0.0, 1.0, 0.0, 1.0),
    "c1power": (-0.5, 0.5, 0.0, 1.0),
    "warpb": (0.0, 1.0, 0.0, 1.0),
}


def copy_space(space):
    import copy

    out = copy.copy(space)
    out.chron = space.chron.copy()
    out.causal = space.causal.copy()
    out.taumat = space.taumat.copy()
    return out


def first_chron_triple(space):
    """The first strict triple x << y << z in row-major order."""
    chron = space.chron
    for x in range(len(space)):
        for y in np.nonzero(chron[x])[0]:
            zs = np.nonzero(chron[y])[0]
            if len(zs):
                return x, int(y), int(zs[0])
    raise AssertionError("no strict triple")


def test_two_point_flat_space():
    space = space_from_points(get_profile("minkowski"), [P(0.1, 0), P(0.9, 0)])
    assert space.chron[0, 1] and not space.chron[1, 0]
    assert space.causal[0, 1] and space.causal[0, 0] and space.causal[1, 1]
    assert space.taumat[0, 1] == pytest.approx(0.8, abs=1e-12)
    assert space.taumat[1, 0] == 0.0
    assert space.dmat[0, 1] == pytest.approx(0.8, abs=1e-12)


def test_sample_space_rejects_single_point():
    with pytest.raises(ValueError):
        sample_space(get_profile("minkowski"), (0, 1, 0, 1), 1, seed=0)


def test_sample_space_region_must_fit_domain():
    with pytest.raises(RegionOutsideDomain):
        sample_space(get_profile("strip01"), (-0.5, 0.5, 0, 1), 10, seed=0)


def test_sample_space_deterministic():
    prof = get_profile("exp2t")
    s1 = sample_space(prof, (0, 1, 0, 1), 50, seed=12)
    s2 = sample_space(prof, (0, 1, 0, 1), 50, seed=12)
    assert s1.points == s2.points
    assert np.array_equal(s1.chron, s2.chron)
    assert np.array_equal(s1.causal, s2.causal)
    assert np.array_equal(s1.dmat, s2.dmat)
    assert np.array_equal(s1.taumat, s2.taumat)
    s3 = sample_space(prof, (0, 1, 0, 1), 50, seed=13)
    assert not np.array_equal(s1.taumat, s3.taumat)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_space_matrix_invariants(name):
    prof = get_profile(name)
    n = 60 if name == "warpb" else 200
    space = sample_space(prof, REGIONS[name], n, seed=7)
    chron, causal, tau = space.chron, space.causal, space.taumat
    assert causal.diagonal().all()
    assert not chron.diagonal().any()
    assert (chron <= causal).all()
    big = causal.astype(np.int64)
    assert ((big @ big > 0) <= causal).all()
    assert ((tau > 0) == chron).all()
    assert (tau[~causal] == 0).all()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_taumat_consistent_with_distance(name):
    prof = get_profile(name)
    space = sample_space(prof, REGIONS[name], 25, seed=3)
    for i in range(len(space)):
        for j in range(len(space)):
            want = lorentzian_distance(
                prof, space.points[i], space.points[j], with_path=False
            ).value
            assert abs(space.taumat[i, j] - want) < 1e-9


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_space_relations_equal_causally_related(name):
    prof = get_profile(name)
    rng = np.random.default_rng(11)
    pts = [P(t, x) for t, x in zip(rng.uniform(0.1, 0.9, 20), rng.uniform(-0.5, 0.5, 20))]
    # null pairs (dt == |dx| exactly on minkowski) and coincident points
    pts += [P(0.25, 0.0), P(0.75, 0.5), P(0.75, -0.5), P(0.5, 0.25), P(0.25, 0.0), pts[0]]
    space = space_from_points(prof, pts)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            verdict = causally_related(prof, p, q)
            assert space.chron[i, j] == verdict.chronological, (i, j)
            assert space.causal[i, j] == verdict.causal, (i, j)
    boundary = space.causal & ~space.chron
    assert boundary[0, -1] and boundary[-1, 0] and boundary[20, 24]
    if name == "minkowski":
        assert boundary[20, 21] and boundary[20, 22] and boundary[20, 23]


@pytest.mark.parametrize("name", ["minkowski", "strip01", "exp2t", "c1power"])
def test_unit_b_taumat_equals_scalar_distance(name):
    # the batched matrix repeats the scalar reduction route's arithmetic
    prof = get_profile(name)
    space = sample_space(prof, REGIONS[name], 25, seed=4)
    for i, p in enumerate(space.points):
        for j, q in enumerate(space.points):
            want = lorentzian_distance(prof, p, q, with_path=False).value
            assert space.taumat[i, j] == want


def test_flat_taumat_where_the_squares_overflow():
    # far up exp2t, dtau and dx are near 1e174, so every chronological pair's
    # squares overflow and take the scaled form of the flat interval
    prof = get_profile("exp2t")
    space = sample_space(prof, (400.0, 401.0, 0.0, 1e174), 12, seed=3)
    assert space.chron.sum() == 25
    for i, p in enumerate(space.points):
        for j, q in enumerate(space.points):
            if space.chron[i, j]:
                dtau, dx = flat_time(prof, q.t) - flat_time(prof, p.t), q.x - p.x
                assert not math.isfinite(dtau * dtau - dx * dx)
            want = lorentzian_distance(prof, p, q, with_path=False).value
            assert repr(float(space.taumat[i, j])) == repr(want), (i, j)


def test_dmat_is_the_coordinate_distance_matrix():
    rng = np.random.default_rng(5)
    ts, xs = rng.uniform(0, 1, 40), rng.uniform(-3, 3, 40)
    space = space_from_points(get_profile("minkowski"), [P(t, x) for t, x in zip(ts, xs)])
    want = np.hypot(ts[None, :] - ts[:, None], xs[None, :] - xs[:, None])
    assert np.array_equal(space.dmat.view(np.int64), want.view(np.int64))


def test_warpb_taumat_equals_scalar_distance():
    # the batched shooting solve gives every pair the scalar call's float
    prof = get_profile("warpb")
    space = sample_space(prof, REGIONS["warpb"], 25, seed=4)
    for i, p in enumerate(space.points):
        for j, q in enumerate(space.points):
            want = lorentzian_distance(prof, p, q, with_path=False).value
            assert space.taumat[i, j] == want


def test_warpb_taumat_permutes_with_points():
    # a pair's separation does not depend on the other pairs of its batch;
    # 80 points make more shooting pairs than one block holds (a warpb rule
    # has one panel)
    prof = get_profile("warpb")
    space = sample_space(prof, REGIONS["warpb"], 80, seed=6)
    assert space.chron.sum() > BLOCK_PANELS
    perm = np.random.default_rng(2).permutation(len(space))
    shuffled = space_from_points(prof, [space.points[i] for i in perm])
    assert np.array_equal(shuffled.taumat, space.taumat[np.ix_(perm, perm)])


def test_monotone_refinement():
    prof = get_profile("minkowski")
    rng = np.random.default_rng(9)
    pts = [P(float(t), float(x)) for t, x in zip(rng.uniform(0, 1, 30),
                                                 rng.uniform(0, 1, 30))]
    small = space_from_points(prof, pts)
    extra = [P(float(t), float(x)) for t, x in zip(rng.uniform(0, 1, 10),
                                                   rng.uniform(0, 1, 10))]
    big = space_from_points(prof, pts + extra)
    n = len(pts)
    assert np.array_equal(small.chron, big.chron[:n, :n])
    assert np.array_equal(small.causal, big.causal[:n, :n])
    assert np.array_equal(small.taumat, big.taumat[:n, :n])


# -- checkers ------------------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_axioms_pass_on_catalog(name):
    prof = get_profile(name)
    n = 60 if name == "warpb" else 120
    space = sample_space(prof, REGIONS[name], n, seed=5)
    report = check_axioms(space, tol=1e-7)
    assert report.passed
    assert report["lower-semicontinuity"].status == "skipped"
    assert check_pushup(space).status == "pass"
    assert check_causality(space).status == "pass"


def zeroed_chron_tau():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=2)
    i, j = np.argwhere(space.chron)[0]
    broken = copy_space(space)
    broken.taumat[i, j] = 0.0
    return broken, (i, j)


def lowered_triangle():
    # lower tau(x, z) below tau(x, y) + tau(y, z)
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=2)
    x, y, z = first_chron_triple(space)
    broken = copy_space(space)
    broken.taumat[x, z] = 0.5 * (broken.taumat[x, y] + broken.taumat[y, z])
    return broken, (x, y, z)


def tau_on_unrelated():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=2)
    i, j = np.argwhere(~space.causal)[0]
    broken = copy_space(space)
    broken.taumat[i, j] = 0.3
    return broken, (i, j)


def cleared_chron():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=4)
    x, y, z = first_chron_triple(space)
    broken = copy_space(space)
    broken.chron[x, z] = False
    broken.taumat[x, z] = 0.0
    return broken, (x, y, z)


def symmetric_causal():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 20, seed=6)
    broken = copy_space(space)
    broken.causal[3, 5] = True
    broken.causal[5, 3] = True
    return broken, (3, 5)


def test_axioms_catch_zeroed_tau_on_chronological_pair():
    broken, (i, j) = zeroed_chron_tau()
    report = check_axioms(broken, tol=1e-7)
    check = report["positivity-iff-chronology"]
    assert check.status == "fail"
    assert check.witness == (i, j)


@pytest.mark.parametrize("chronological", [True, False])
def test_axioms_catch_nan_separation(chronological):
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=1)
    # the first non-chronological pair is a diagonal one: causal, so the
    # vanishing check does not see it
    i, j = (int(v) for v in np.argwhere(space.chron == chronological)[0])
    broken = copy_space(space)
    broken.taumat[i, j] = np.nan
    report = check_axioms(broken, tol=1e-7)
    assert not report.passed
    check = report["positivity-iff-chronology"]
    assert (check.status, check.witness) == ("fail", (i, j))


def test_axioms_catch_reverse_triangle_violation():
    broken, _ = lowered_triangle()
    report = check_axioms(broken, tol=1e-7)
    check = report["reverse-triangle"]
    assert check.status == "fail"
    assert check.residual > 1e-7
    bx, by, bz = check.witness
    assert broken.taumat[bx, by] + broken.taumat[by, bz] - broken.taumat[bx, bz] \
        == pytest.approx(check.residual)


def test_axioms_catch_tau_on_unrelated_pair():
    broken, _ = tau_on_unrelated()
    report = check_axioms(broken, tol=1e-7)
    assert report["vanishing-on-unrelated"].status == "fail"
    # the same entry also breaks positivity-iff-chronology
    assert report["positivity-iff-chronology"].status == "fail"


def test_vanishing_check_ignores_inf_on_causal_pair():
    # an infinite separation on a causal pair is no value off the relation
    broken, (i, j) = zeroed_chron_tau()
    broken.taumat[i, j] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf in the reverse triangle
        check = check_axioms(broken, tol=1e-7)["vanishing-on-unrelated"]
    assert (check.status, check.residual, check.witness) == ("pass", 0.0, None)


def test_pushup_catches_cleared_chron():
    broken, (x, _, z) = cleared_chron()
    result = check_pushup(broken)
    assert result.status == "fail"
    wx, wy, wz = result.witness
    assert (wx, wz) == (x, z) or broken.chron[wx, wz] == False  # noqa: E712


def test_pushup_vacuous_on_unrelated_points():
    space = space_from_points(get_profile("minkowski"), [P(0, 0), P(0, 5), P(0, 9)])
    assert not space.chron.any()
    assert check_pushup(space).status == "pass"


def test_causality_catches_injected_symmetric_pair():
    broken, _ = symmetric_causal()
    result = check_causality(broken)
    assert result.status == "fail"
    assert set(result.witness) == {3, 5}


def test_causality_single_pair_space():
    space = space_from_points(get_profile("minkowski"), [P(0, 0), P(1, 0)])
    assert check_causality(space).status == "pass"


def test_checks_reject_oversized_spaces():
    rng = np.random.default_rng(1)
    pts = [P(float(t), float(x)) for t, x in
           zip(np.sort(rng.uniform(0, 1, 501)), rng.uniform(0, 1, 501))]
    space = space_from_points(get_profile("minkowski"), pts)
    with pytest.raises(TooLarge):
        check_axioms(space)
    with pytest.raises(TooLarge):
        check_pushup(space)


@pytest.mark.parametrize("tol", [math.nan, -1e-7, math.inf])
def test_check_axioms_rejects_an_unusable_tolerance(tol):
    space = sample_space(get_profile("minkowski"), (0.0, 1.0, 0.0, 1.0), 10, seed=1)
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        check_axioms(space, tol=tol)
    assert check_axioms(space, tol=0.0).tol == 0.0


# -- gate: the checkers against their masked full-matrix form --------------------
#
# masked_check_axioms and int64_check_pushup are the checkers as they were
# before the reverse triangle scanned only each middle point's causal past x
# future and the link counts became float matrix products; the current checkers
# must give the same status, residual and witness bit for bit.


def masked_check_axioms(space, tol=1e-7):
    """Exhaustive verification of the relation algebra and the time separation.

    Lower semicontinuity is vacuous on finite point sets and is reported as
    skipped rather than passed.
    """
    _require_small(len(space))
    chron = space.chron
    causal = space.causal
    tau = space.taumat
    n = len(space)
    checks = [CheckResult("lower-semicontinuity", "skipped", 0.0, None)]

    # relation algebra: reflexivity, transitivity, chron contained in causal
    bad = None
    violations = 0
    if not causal.diagonal().all():
        i = int(np.nonzero(~causal.diagonal())[0][0])
        bad = (i, i)
        violations += int((~causal.diagonal()).sum())
    for rel_name, rel in (("causal", causal), ("chron", chron)):
        implied = (rel.astype(np.int64) @ rel.astype(np.int64)) > 0
        viol = implied & ~rel
        if viol.any():
            violations += int(viol.sum())
            if bad is None:
                i, k = (int(v[0]) for v in np.nonzero(viol))
                bad = (i, _first_link(rel, rel, i, k), k)
    mixed = chron & ~causal
    if mixed.any():
        violations += int(mixed.sum())
        if bad is None:
            i, j = (int(v[0]) for v in np.nonzero(mixed))
            bad = (i, j)
    checks.append(
        CheckResult(
            "relation-algebra",
            "fail" if violations else "pass",
            float(violations),
            bad,
        )
    )

    # reverse triangle inequality over causal triples x <= y <= z
    worst = -np.inf
    worst_triple = None
    for y in range(n):
        mask = causal[:, y][:, None] & causal[y, :][None, :]
        if not mask.any():
            continue
        resid = np.where(mask, tau[:, y][:, None] + tau[y, :][None, :] - tau, -np.inf)
        idx = np.unravel_index(np.argmax(resid), resid.shape)
        if resid[idx] > worst:
            worst = float(resid[idx])
            worst_triple = (int(idx[0]), y, int(idx[1]))
    worst = max(worst, 0.0)
    checks.append(
        CheckResult(
            "reverse-triangle",
            "pass" if worst <= tol else "fail",
            worst,
            worst_triple,
        )
    )

    # positivity iff chronology
    pos_wrong = (tau > 0.0) & ~chron
    zero_wrong = (tau <= 0.0) & chron
    violations = int(pos_wrong.sum() + zero_wrong.sum())
    bad = None
    resid = 0.0
    if pos_wrong.any():
        i, j = (int(v[0]) for v in np.nonzero(pos_wrong))
        bad = (i, j)
        resid = float(tau[pos_wrong].max())
    elif zero_wrong.any():
        i, j = (int(v[0]) for v in np.nonzero(zero_wrong))
        bad = (i, j)
        resid = float(violations)
    checks.append(
        CheckResult(
            "positivity-iff-chronology",
            "fail" if violations else "pass",
            resid,
            bad,
        )
    )

    # vanishing off the causal relation
    off = np.abs(tau) * ~causal
    resid = float(off.max()) if off.size else 0.0
    bad = None
    if resid > 0.0:
        i, j = (int(v[0]) for v in np.nonzero(off == resid))
        bad = (i, j)
    checks.append(
        CheckResult(
            "vanishing-on-unrelated",
            "pass" if resid == 0.0 else "fail",
            resid,
            bad,
        )
    )
    return AxiomReport(tuple(checks), tol)


def int64_check_pushup(space):
    """x <= y << z or x << y <= z must imply x << z, on every triple."""
    _require_small(len(space))
    chron = space.chron.astype(np.int64)
    causal = space.causal.astype(np.int64)
    implied = ((causal @ chron) > 0) | ((chron @ causal) > 0)
    viol = implied & ~space.chron
    if not viol.any():
        return CheckResult("push-up", "pass", 0.0, None)
    i, k = (int(v[0]) for v in np.nonzero(viol))
    j = _first_link(space.causal, space.chron, i, k)
    if j is None:
        j = _first_link(space.chron, space.causal, i, k)
    return CheckResult("push-up", "fail", float(viol.sum()), (i, j, k))


def synthetic_space(causal, tau):
    """A space of given causal relation and separations; chron is its strict part."""
    n = len(causal)
    eye = np.eye(n, dtype=bool)
    causal = np.asarray(causal, dtype=bool) | eye
    pts = [P(float(i), 0.0) for i in range(n)]
    return DiscreteCausalSpace(pts, causal & ~eye, causal, np.asarray(tau, dtype=float))


def tie_across_middles():
    # chain 0 <= 1 <= 2 <= 3 with additive tau(i, j) = j - i, then tau(0, 2) and
    # tau(1, 3) lowered by 1: residual 1 at (0, 1, 2) and at (1, 2, 3) only
    idx = np.arange(4)
    causal = idx[:, None] <= idx[None, :]
    tau = np.where(causal, idx[None, :] - idx[:, None], 0.0)
    tau[0, 2] -= 1.0
    tau[1, 3] -= 1.0
    return synthetic_space(causal, tau), (0, 1, 2)


def tie_at_one_middle():
    # 0 and 1 below 2, 3 and 4 above it, no other middle point: residual 1 at
    # (0, 2, 4) and at (1, 2, 3) after lowering their outer separations
    causal = np.zeros((5, 5), dtype=bool)
    for x in (0, 1):
        causal[x, 2:] = True
    causal[2, 3:] = True
    tau = np.where(causal, 1.0, 0.0)
    for x in (0, 1):
        tau[x, 3:] = 2.0
    tau[0, 4] = tau[1, 3] = 1.0
    return synthetic_space(causal, tau), (0, 2, 4)


def catalog_space(name):
    n = 60 if name == "warpb" else 200
    return sample_space(get_profile(name), REGIONS[name], n, seed=8)


def chain_at_the_cap():
    # MAX_POINTS points in one chain: the link counts reach MAX_POINTS
    pts = [P(i / MAX_POINTS, 0.0) for i in range(MAX_POINTS)]
    return space_from_points(get_profile("minkowski"), pts), None


def chain_at_the_cap_one_entry_cleared():
    space = copy_space(chain_at_the_cap()[0])
    space.causal[0, MAX_POINTS - 1] = False
    return space, None


GATE_SPACES = {
    **{name: lambda name=name: catalog_space(name) for name in CATALOG_NAMES},
    **{f.__name__: lambda f=f: f()[0] for f in (
        zeroed_chron_tau, lowered_triangle, tau_on_unrelated, cleared_chron,
        symmetric_causal, tie_across_middles, tie_at_one_middle, chain_at_the_cap,
        chain_at_the_cap_one_entry_cleared)},
}


def fields(check):
    # repr tells every float apart, signed zeros and nan included
    return check.name, check.status, repr(check.residual), check.witness


@pytest.mark.parametrize("case", sorted(GATE_SPACES))
def test_checkers_match_masked_full_matrix_form(case):
    space = GATE_SPACES[case]()
    got, want = check_axioms(space), masked_check_axioms(space)
    assert [fields(c) for c in got.checks] == [fields(c) for c in want.checks]
    assert fields(check_pushup(space)) == fields(int64_check_pushup(space))


@pytest.mark.parametrize("build", [tie_across_middles, tie_at_one_middle])
def test_reverse_triangle_tie_keeps_first_triple(build):
    # the first middle point wins a tie across middle points, and row-major
    # order a tie within one
    space, first = build()
    check = check_axioms(space)["reverse-triangle"]
    assert (check.status, check.residual, check.witness) == ("fail", 1.0, first)
