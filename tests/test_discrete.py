import numpy as np
import pytest

from lorlab import (
    CATALOG_NAMES,
    RegionOutsideDomain,
    SpacetimePoint,
    TooLarge,
    check_axioms,
    check_causality,
    check_pushup,
    get_profile,
    lorentzian_distance,
    sample_space,
    space_from_points,
)
from lorlab.causality import BLOCK_PANELS

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


@pytest.mark.parametrize("name", ["minkowski", "strip01", "exp2t", "c1power"])
def test_unit_b_taumat_equals_scalar_distance(name):
    # the batched matrix repeats the scalar reduction route's arithmetic
    prof = get_profile(name)
    space = sample_space(prof, REGIONS[name], 25, seed=4)
    for i, p in enumerate(space.points):
        for j, q in enumerate(space.points):
            want = lorentzian_distance(prof, p, q, with_path=False).value
            assert space.taumat[i, j] == want


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


def test_axioms_catch_zeroed_tau_on_chronological_pair():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=2)
    i, j = np.argwhere(space.chron)[0]
    broken = copy_space(space)
    broken.taumat[i, j] = 0.0
    report = check_axioms(broken, tol=1e-7)
    check = report["positivity-iff-chronology"]
    assert check.status == "fail"
    assert check.witness == (i, j)


def test_axioms_catch_reverse_triangle_violation():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=2)
    # find a strict triple x << y << z and lower tau(x, z)
    chron = space.chron
    found = None
    for x in range(len(space)):
        for y in np.nonzero(chron[x])[0]:
            zs = np.nonzero(chron[y])[0]
            if len(zs):
                found = (x, int(y), int(zs[0]))
                break
        if found:
            break
    x, y, z = found
    broken = copy_space(space)
    broken.taumat[x, z] = 0.5 * (broken.taumat[x, y] + broken.taumat[y, z])
    report = check_axioms(broken, tol=1e-7)
    check = report["reverse-triangle"]
    assert check.status == "fail"
    assert check.residual > 1e-7
    bx, by, bz = check.witness
    assert broken.taumat[bx, by] + broken.taumat[by, bz] - broken.taumat[bx, bz] \
        == pytest.approx(check.residual)


def test_axioms_catch_tau_on_unrelated_pair():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=2)
    pairs = np.argwhere(~space.causal)
    i, j = pairs[0]
    broken = copy_space(space)
    broken.taumat[i, j] = 0.3
    report = check_axioms(broken, tol=1e-7)
    assert report["vanishing-on-unrelated"].status == "fail"
    # the same entry also breaks positivity-iff-chronology
    assert report["positivity-iff-chronology"].status == "fail"


def test_pushup_catches_cleared_chron():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 40, seed=4)
    chron = space.chron
    found = None
    for x in range(len(space)):
        for y in np.nonzero(chron[x])[0]:
            zs = np.nonzero(chron[int(y)])[0]
            if len(zs):
                found = (x, int(y), int(zs[0]))
                break
        if found:
            break
    x, y, z = found
    broken = copy_space(space)
    broken.chron[x, z] = False
    broken.taumat[x, z] = 0.0
    result = check_pushup(broken)
    assert result.status == "fail"
    wx, wy, wz = result.witness
    assert (wx, wz) == (x, z) or broken.chron[wx, wz] == False  # noqa: E712


def test_pushup_vacuous_on_unrelated_points():
    space = space_from_points(get_profile("minkowski"), [P(0, 0), P(0, 5), P(0, 9)])
    assert not space.chron.any()
    assert check_pushup(space).status == "pass"


def test_causality_catches_injected_symmetric_pair():
    space = sample_space(get_profile("minkowski"), (0, 1, 0, 1), 20, seed=6)
    broken = copy_space(space)
    broken.causal[3, 5] = True
    broken.causal[5, 3] = True
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
