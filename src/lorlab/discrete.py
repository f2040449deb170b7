"""Finite causal spaces sampled from a profile, with exhaustive axiom checks.

A sampled space stores the chronological and causal relation matrices and
the time separation matrix.  The checkers are exhaustive, so point counts
are capped at 500.  The reverse triangle check scans, for each middle point,
its causal past x its causal future.  The relation algebra and push-up
checks count links with 0/1 matrix products in float32: every count is an
integer of at most 500 < 2^24, exact in any summation order, so the verdicts
do not depend on the BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .causality import _separations
from .errors import RegionOutsideDomain, TooLarge
from .profiles import EPS_NULL, MetricProfile, SpacetimePoint, check_eps_null
from .quadrature import _cone_map

MAX_POINTS = 500


@dataclass
class DiscreteCausalSpace:
    """Points with their relation and separation matrices; dmat is computed on first read."""

    points: list[SpacetimePoint]
    chron: np.ndarray   # boolean matrix of <<
    causal: np.ndarray  # boolean matrix of <=
    taumat: np.ndarray  # time separations (0 off the causal relation)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def dmat(self) -> np.ndarray:
        ts = np.array([p.t for p in self.points])
        xs = np.array([p.x for p in self.points])
        return np.hypot(ts[None, :] - ts[:, None], xs[None, :] - xs[:, None])


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str            # "pass" | "fail" | "skipped"
    residual: float
    witness: tuple | None  # worst-violating index pair/triple

    @property
    def failed(self) -> bool:
        return self.status == "fail"


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[CheckResult, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return not any(c.failed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def space_from_points(
    profile: MetricProfile, points, eps_null: float = EPS_NULL
) -> DiscreteCausalSpace:
    """Build the relation and time-separation matrices for points.

    Entries of taumat come from the same distance computation (and the same
    cumulative integrals) as the scalar operations, in one batch: each equals
    lorentzian_distance(...).value bit for bit, so a discrete space is
    consistent with the continuum values it samples.
    """
    check_eps_null(eps_null)
    pts = [p if isinstance(p, SpacetimePoint) else SpacetimePoint(*p) for p in points]
    if len(pts) < 2:
        raise ValueError("a discrete space needs at least 2 points")
    for p in pts:
        profile.require_inside(p.t)
    ts = np.array([p.t for p in pts])
    xs = np.array([p.x for p in pts])

    cone = _cone_map(profile).many(ts)
    taumat, chron, causal = _separations(profile, ts[:, None], xs[:, None], ts[None, :],
                                         xs[None, :], cone[None, :] - cone[:, None], eps_null)
    return DiscreteCausalSpace(pts, chron, causal, taumat)


def sample_space(
    profile: MetricProfile,
    region,
    n: int,
    seed: int,
    eps_null: float = EPS_NULL,
) -> DiscreteCausalSpace:
    """n uniform points in the rectangle region = (t0, t1, x0, x1), per seed."""
    check_eps_null(eps_null)
    t0, t1, x0, x1 = (float(v) for v in region)
    if not (t0 < t1 and x0 < x1):
        raise RegionOutsideDomain("region rectangle is empty")
    if not (profile.contains(t0) and profile.contains(t1)):
        raise RegionOutsideDomain(
            f"t range ({t0!r}, {t1!r}) not inside domain "
            f"({profile.t_min!r}, {profile.t_max!r})"
        )
    if n < 2:
        raise ValueError("need n >= 2 sample points")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(t0, t1, n)
    xs = rng.uniform(x0, x1, n)
    pts = [SpacetimePoint(float(t), float(x)) for t, x in zip(ts, xs)]
    return space_from_points(profile, pts, eps_null=eps_null)


def _require_small(n: int) -> None:
    """Raise TooLarge when n points exceed the exhaustive-check budget."""
    if n > MAX_POINTS:
        raise TooLarge(f"{n} points exceed the exhaustive-check budget {MAX_POINTS}")


def _first_link(relation_a, relation_b, i, k):
    js = np.nonzero(relation_a[i, :] & relation_b[:, k])[0]
    return int(js[0]) if len(js) else None


def check_axioms(space: DiscreteCausalSpace, tol: float = 1e-7) -> AxiomReport:
    """Exhaustive verification of the relation algebra and the time separation.

    Lower semicontinuity is vacuous on finite point sets and is reported as
    skipped rather than passed.  A NaN, negative or infinite tol is rejected.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
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
    for rel in (causal, chron):
        implied = (rel.astype(np.float32) @ rel.astype(np.float32)) > 0
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
            bad = tuple(int(v[0]) for v in np.nonzero(mixed))
    checks.append(
        CheckResult(
            "relation-algebra",
            "fail" if violations else "pass",
            float(violations),
            bad,
        )
    )

    # reverse triangle inequality over causal triples x <= y <= z: each middle
    # point y scans its causal past x its future only; ascending indices keep
    # argmax on the first worst triple in row-major order, and the strict > on
    # the first middle point
    worst = -np.inf
    worst_triple = None
    for y in range(n):
        i = causal[:, y].nonzero()[0]
        k = causal[y].nonzero()[0]
        if not (len(i) and len(k)):
            continue
        resid = tau[i, y, None] + tau[y, k] - tau[i[:, None], k]
        a, b = divmod(int(resid.argmax()), len(k))
        if resid[a, b] > worst:
            worst = float(resid[a, b])
            worst_triple = (int(i[a]), y, int(k[b]))
    worst = max(worst, 0.0)
    checks.append(
        CheckResult(
            "reverse-triangle",
            "pass" if worst <= tol else "fail",
            worst,
            worst_triple,
        )
    )

    # positivity iff chronology, negated so that a NaN separation breaks it
    pos_wrong = ~(tau <= 0.0) & ~chron
    zero_wrong = ~(tau > 0.0) & chron
    violations = int(pos_wrong.sum() + zero_wrong.sum())
    bad = None
    resid = 0.0
    if pos_wrong.any():
        bad = tuple(int(v[0]) for v in np.nonzero(pos_wrong))
        resid = float(tau[pos_wrong].max())
    elif zero_wrong.any():
        bad = tuple(int(v[0]) for v in np.nonzero(zero_wrong))
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
    off = np.where(causal, 0.0, np.abs(tau))
    resid = float(off.max()) if off.size else 0.0
    bad = None
    if resid > 0.0:
        bad = tuple(int(v[0]) for v in np.nonzero(off == resid))
    checks.append(
        CheckResult(
            "vanishing-on-unrelated",
            "pass" if resid == 0.0 else "fail",
            resid,
            bad,
        )
    )
    return AxiomReport(tuple(checks), tol)


def check_pushup(space: DiscreteCausalSpace) -> CheckResult:
    """x <= y << z or x << y <= z must imply x << z, on every triple."""
    _require_small(len(space))
    chron = space.chron.astype(np.float32)
    causal = space.causal.astype(np.float32)
    implied = ((causal @ chron) > 0) | ((chron @ causal) > 0)
    viol = implied & ~space.chron
    if not viol.any():
        return CheckResult("push-up", "pass", 0.0, None)
    i, k = (int(v[0]) for v in np.nonzero(viol))
    j = _first_link(space.causal, space.chron, i, k)
    if j is None:
        j = _first_link(space.chron, space.causal, i, k)
    return CheckResult("push-up", "fail", float(viol.sum()), (i, j, k))


def check_causality(space: DiscreteCausalSpace) -> CheckResult:
    """Antisymmetry: x <= y and y <= x forces x == y."""
    sym = space.causal & space.causal.T & ~np.eye(len(space), dtype=bool)
    if not sym.any():
        return CheckResult("causality", "pass", 0.0, None)
    return CheckResult("causality", "fail", float(sym.sum()) / 2.0,
                       tuple(int(v[0]) for v in np.nonzero(sym)))
