"""Composite Gauss-Legendre panels with measured refinement, and cumulative maps.

Panels are laid out around declared breakpoints with geometric grading so
kinked integrands (|u|^p terms with non-even p) converge like smooth ones.
Each panel is halved until its own integral stops changing.  The rule is a
correctly rounded table and every sum is exact (math.fsum), so an integral
depends only on its integrand and interval: not on the BLAS or LAPACK build,
and not on the other intervals integrated in the same batch.

ClosedFormMap and AnchoredMap are the only cumulative maps.  A value of
either depends only on the map and its argument, never on earlier queries
or on the batch it is asked in.  Every AnchoredMap lays its knots on the
same grid.  _cone_map and _flat_map pick one of them for a profile and
share it through the profile.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import QuadratureError
from .profiles import MetricProfile, constant_value

QUAD_TOL = 1e-10

# 16-point Gauss-Legendre rule on [-1, 1], correctly rounded.  A table rather
# than numpy's leggauss, whose eigenvalue solve leaves the weights tens of
# ulps off and differs between LAPACK builds.  The rule is symmetric, so the
# positive nodes and their weights are listed.
_POS_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499,
])
_POS_WEIGHTS = np.array([
    0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
    0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
    0.062253523938647894, 0.027152459411754096,
])
_NODES = np.concatenate([-_POS_NODES[::-1], _POS_NODES])
_WEIGHTS = np.concatenate([_POS_WEIGHTS[::-1], _POS_WEIGHTS])
_UNIT_NODES = 0.5 * (_NODES + 1.0)  # the nodes mapped onto [0, 1]
_GRADE_LEVELS = 36

MAX_LEVELS = 14         # halvings of a panel before refinement stalls
ROOT_MAX_ITER = 300     # false-position steps of bracketed_root
MEMO_SIZE = 4096        # values an anchored map remembers
EXPM1_BELOW = 0.5       # exponential closed forms switch to expm1 below this


def _panel_edges(lo: float, hi: float, breaks) -> list[float]:
    relevant = [b for b in breaks if lo <= b <= hi]
    if not relevant:
        return [lo, hi]
    span = hi - lo
    pts = {lo, hi}
    for b in relevant:
        if lo < b < hi:
            pts.add(b)
        for j in range(1, _GRADE_LEVELS):
            d = span * 2.0 ** (-j)
            for e in (b - d, b + d):
                if lo < e < hi:
                    pts.add(e)
    edges = sorted(pts)
    out = [edges[0]]
    for e in edges[1:]:
        if e - out[-1] > span * 1e-15:
            out.append(e)
    out[-1] = hi
    return out


def _fsum(values) -> float:
    """Correctly rounded sum; inf - inf gives nan and overflow gives inf."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


@lru_cache(maxsize=None)
def _split_rule(m: int):
    """Nodes on [0, 1] and weights of the rule on m equal panels of [0, 1]."""
    frac = ((np.arange(m, dtype=float)[:, None] + _UNIT_NODES) / m).ravel()
    return frac, np.tile(_WEIGHTS, m)


def _rule_values(f, lo: np.ndarray, width: np.ndarray, ms) -> list[np.ndarray]:
    """The rule's value on each panel at each refinement m of ms, from one
    call of f; the products are summed exactly."""
    rules = [_split_rule(m) for m in ms]
    frac = np.concatenate([fr for fr, _ in rules])
    vals = np.asarray(f((lo[:, None] + width[:, None] * frac).ravel()), dtype=float)
    cols = np.split(vals.reshape(len(lo), -1), np.cumsum([len(w) for _, w in rules[:-1]]), axis=1)
    return [(0.5 / m) * width * np.array([_fsum(row) for row in (v * w).tolist()])
            for m, (_, w), v in zip(ms, rules, cols)]


def _refine(f, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Integral of f over each panel [lo[k], hi[k]], halved until stable.

    Every panel is split into m = 1, 2, 4, ... equal parts until its own
    value moves by at most tol[k] (with a floating-point floor); m = 1 and
    m = 2 come from one call of f, as no panel can stop at m = 1 unless its
    value is not finite.  The rule's products are summed exactly, so a
    panel's value depends only on f and its edges, not on the other panels
    integrated alongside it.
    """
    out = np.empty(len(lo))
    idx = np.arange(len(lo))
    width = hi - lo
    m = 2
    # overflow to inf is a legitimate sentinel for the marching logic
    with np.errstate(over="ignore", invalid="ignore"):
        prev, cur = _rule_values(f, lo, width, (1, 2))
        # a panel whose m = 1 value is not finite ends there
        cur = np.where(np.isfinite(prev), cur, prev)
        while True:
            change = np.abs(cur - prev)
            done = ~np.isfinite(cur) | (change <= np.maximum(tol, 16e-16 * np.abs(cur)))
            if done.all():
                out[idx] = cur
                return out
            if done.any():
                out[idx[done]] = cur[done]
                keep = ~done
                idx, lo, width, tol = idx[keep], lo[keep], width[keep], tol[keep]
                cur, change = cur[keep], change[keep]
            if m >= 2 ** (MAX_LEVELS - 1):
                break
            prev = cur
            m *= 2
            cur, = _rule_values(f, lo, width, (m,))
    raise QuadratureError(
        f"panel refinement stalled on [{float(lo[0])!r}, {float(hi[idx[0]])!r}]: "
        f"last change {float(change[0])!r}"
    )


def panel_integrals(f, los, his, breaks=()) -> np.ndarray:
    """Integrals of the vectorized callable f over each [los[i], his[i]].

    Panels are graded toward the breakpoints in each interval; each is
    halved until its own value is stable, with QUAD_TOL shared out in
    proportion to panel length.  The rule's products and the panel values
    are summed exactly (math.fsum), so an entry depends only on f, its
    interval and breaks: not on BLAS summation order, and not on the other
    intervals integrated together.  Raises QuadratureError if refinement
    stalls.
    """
    rows, lo, hi, ptol = [], [], [], []
    for a, b in zip(los, his):
        a, b, sgn = float(a), float(b), 1.0
        if b < a:
            a, b, sgn = b, a, -1.0
        start = len(ptol)
        if a != b:
            edges = _panel_edges(a, b, breaks)
            share = QUAD_TOL / (b - a)
            lo.extend(edges[:-1])
            hi.extend(edges[1:])
            ptol.extend(share * (e1 - e0) for e0, e1 in zip(edges, edges[1:]))
        rows.append((sgn, start, len(ptol)))
    vals = []
    if ptol:
        vals = _refine(f, np.array(lo), np.array(hi), np.array(ptol)).tolist()
    return np.array([sgn * _fsum(vals[i:j]) for sgn, i, j in rows])


def _rule_nodes(edges, m: int):
    """Nodes and weights of the composite rule at refinement m on the panels
    between consecutive edges; a stack of layouts (..., panels + 1) gives
    one row of nodes per layout."""
    edges = np.asarray(edges, dtype=float)
    width = (edges[..., 1:] - edges[..., :-1])[..., None]
    frac, w = _split_rule(m)
    shape = edges.shape[:-1] + (-1,)
    return ((edges[..., :-1, None] + width * frac).reshape(shape),
            ((0.5 / m) * width * w).reshape(shape))


class ClosedFormMap:
    """Closed form of t -> int_anchor^t k exp(r u) du, evaluated in floats.

    k (t - anchor) when r == 0.  Otherwise (k / r) (exp(r t) - exp(r anchor)),
    except where |r (t - anchor)| < EXPM1_BELOW: there that difference would
    cancel, and the equal (k / r) exp(r anchor) expm1(r (t - anchor)) is used.
    Elsewhere the difference loses at most about 1.4 bits (its condition
    number is below 1 / (1 - exp(-EXPM1_BELOW)) < 2.6).  Where an
    exponential overflows the value is +-inf, the sign of k (t - anchor).
    The batch path evaluates the same scalar expressions, so both agree bit
    for bit.
    """

    def __init__(self, k: float, r: float, anchor: float):
        self.k = float(k)
        self.r = float(r)
        self.anchor = float(anchor)

    def __call__(self, t: float) -> float:
        if self.r == 0.0:
            return self.k * (float(t) - self.anchor)
        k, r, anchor = self.k, self.r, self.anchor
        x = r * (t - anchor)
        try:
            if abs(x) < EXPM1_BELOW:
                return k / r * (math.exp(r * anchor) * math.expm1(x))
            return k / r * (math.exp(r * t) - math.exp(r * anchor))
        except OverflowError:
            return math.copysign(math.inf, k * (t - anchor))

    def many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.r == 0.0:
            return self.k * (ts - self.anchor)
        return np.array([self(t) for t in ts.ravel().tolist()]).reshape(ts.shape)

    def integrand(self, ts) -> np.ndarray:
        """The map's derivative k exp(r t) at every entry of ts; inf where
        the exponential overflows."""
        with np.errstate(over="ignore"):
            return self.k * np.exp(self.r * np.asarray(ts, dtype=float))


class _Side:
    """Knots of an anchored map on one side of its anchor, listed outward."""

    def __init__(self, sgn: float, anchor: float, end: float, breaks):
        self.sgn = sgn
        self.anchor = anchor
        self.end = end                     # domain end on this side
        self.kinks = frozenset(breaks)
        self.breaks = sorted(              # breakpoints on this side, outward
            (b for b in self.kinks if sgn * anchor < sgn * b < sgn * end),
            key=lambda b: sgn * b,
        )
        self.knots = [anchor]
        self.cells = []                    # integral from knot k to knot k + 1
        self.cum = {0: 0.0}                # fsum of the cells before knot k
        self.closed = False                # no knot left before the domain end
        self._grid = 0                     # next grid knot
        self._brk = 0                      # next breakpoint

    def extend_to(self, t: float):
        """Add knots until one lies at or beyond t or the domain ends."""
        sgn = self.sgn
        while not self.closed and sgn * self.knots[-1] < sgn * t:
            # grid knot k lies 2^k from the anchor, at inf past the float range
            k = self._grid
            knot = self.anchor + sgn * (math.ldexp(1.0, k) if k < 1024 else math.inf)
            if self._brk < len(self.breaks) and sgn * self.breaks[self._brk] <= sgn * knot:
                if self.breaks[self._brk] == knot:
                    self._grid += 1
                knot = self.breaks[self._brk]
                self._brk += 1
            else:
                self._grid += 1
            if not sgn * knot < sgn * self.end:
                self.closed = True
            elif sgn * knot > sgn * self.knots[-1]:
                self.knots.append(knot)

    def value_at(self, k: int) -> float:
        v = self.cum.get(k)
        if v is None:
            v = self.cum[k] = _fsum(self.cells[:k])
        return v

    def start_for(self, t: float) -> int:
        """Knot a partial panel to t starts from: the inner end of t's cell,
        or the outer end when the inner one is a breakpoint."""
        sgn = self.sgn
        i = bisect_right(self.knots, sgn * t, key=lambda k: sgn * k) - 1
        if self.knots[i] == t or i + 1 == len(self.knots):
            return i
        inner, outer = self.knots[i], self.knots[i + 1]
        return i + 1 if inner in self.kinks and outer not in self.kinks else i


class AnchoredMap:
    """Cumulative integral t -> int_anchor^t f whose value depends only on t.

    Knots lie at anchor +- 2^k for k >= 0, and the breakpoints are knots
    too, so a march from the anchor by doubling steps lands on knots.
    Each cell between knots is integrated whole, and a knot's value is the
    math.fsum of the cells between it and the anchor.  A value adds one
    partial panel from the inner knot of t's cell, or from the outer knot
    when the inner one is a breakpoint (a panel starting there would be
    graded toward the kink on every query).  So a value depends only on
    (f, anchor, breaks, domain, t), never on earlier queries or on the
    batch it is asked in.  At most MEMO_SIZE values are remembered; the
    knots grow with the queried range only.
    """

    def __init__(self, f, anchor: float, breaks=(), domain=(-math.inf, math.inf)):
        self._f = f
        self._breaks = tuple(breaks)
        self.anchor = float(anchor)
        t_min, t_max = domain
        self._sides = {sgn: _Side(sgn, self.anchor, end, self._breaks)
                       for sgn, end in ((1.0, t_max), (-1.0, t_min))}
        self._memo: dict[float, float] = {}

    def __call__(self, t: float) -> float:
        t = float(t)
        got = self._memo.get(t)
        if got is not None:
            return got
        return float(self.many((t,))[0])

    def many(self, ts) -> np.ndarray:
        """Values at every entry of ts, equal to the scalar calls bit for bit."""
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel().tolist()
        memo = self._memo
        out = [memo.get(t) for t in flat]
        todo = sorted({t for t, v in zip(flat, out) if v is None})
        if todo:
            found = self._compute(todo)
            for t, v in zip(todo, found):
                if len(memo) >= MEMO_SIZE:
                    memo.pop(next(iter(memo)))
                memo[t] = v
            lookup = dict(zip(todo, found))
            out = [lookup[t] if v is None else v for t, v in zip(flat, out)]
        return np.array(out, dtype=float).reshape(ts.shape)

    def _compute(self, todo):
        anchor = self.anchor
        if todo[-1] > anchor:
            self._sides[1.0].extend_to(todo[-1])
        if todo[0] < anchor:
            self._sides[-1.0].extend_to(todo[0])
        # the start knot of each t: its value plus one partial panel to t
        at = [self._sides[1.0 if t > anchor else -1.0] for t in todo]
        at = [(side, side.start_for(t)) for side, t in zip(at, todo)]
        # the cells before the start knots not integrated yet and the partial
        # panels, in one batch
        new = [(side, k) for side in self._sides.values()
               for k in range(len(side.cells), max((j for s, j in at if s is side), default=0))]
        parts = [(i, side.knots[k], t)
                 for i, (t, (side, k)) in enumerate(zip(todo, at)) if side.knots[k] != t]
        found = panel_integrals(
            self._f,
            [side.knots[k] for side, k in new] + [lo for _, lo, _ in parts],
            [side.knots[k + 1] for side, k in new] + [hi for _, _, hi in parts],
            breaks=self._breaks,
        ).tolist()
        for (side, _), c in zip(new, found):
            side.cells.append(c)
        values = [side.value_at(k) for side, k in at]
        for (i, _, _), v in zip(parts, found[len(new):]):
            values[i] += v
        return values


def _exp_form(terms):
    """(c, lam) when a coefficient is c * exp(lam t) (lam = 0 for constants)."""
    c = constant_value(terms)
    if c is not None:
        return c, 0.0
    if len(terms) == 1 and terms[0].kind == "exp":
        return terms[0].c, terms[0].lam
    return None


def _store_map(profile: MetricProfile, key: str, form, g):
    """Closed form of the integrand k exp(r t), form = (k, r); else g(a, b)
    anchored.  An anchored map refers to its profile weakly (using it after
    the profile is gone raises ReferenceError): the profile holds its maps,
    and a cycle would keep a dead profile's grid until a full collection."""
    anchor = profile.anchor_time()
    if form is not None:
        m = ClosedFormMap(*form, anchor)
    else:
        owner = weakref.proxy(profile)

        def f(u):
            a, b, _, _ = owner.eval_many(u)
            return g(a, b)

        m = AnchoredMap(f, anchor, breaks=profile.breakpoints,
                        domain=(profile.t_min, profile.t_max))
    return profile._maps.setdefault(key, m)


def _cone_map(profile: MetricProfile):
    """The profile's shared map t -> int sqrt(a / b) from its anchor."""
    m = profile._maps.get("cone")
    if m is None and profile.has_unit_b:
        # b is exactly 1.0, so sqrt(a / b) is sqrt(a) bit for bit
        m = profile._maps.setdefault("cone", _flat_map(profile))
    if m is None:
        ea, eb = _exp_form(profile.terms_a), _exp_form(profile.terms_b)
        form = None
        if ea is not None and eb is not None:
            # sqrt(ca e^(la t) / (cb e^(lb t))) = sqrt(ca / cb) e^((la - lb) t / 2)
            form = (math.sqrt(ea[0] / eb[0]), 0.5 * (ea[1] - eb[1]))
        m = _store_map(profile, "cone", form, lambda a, b: np.sqrt(a / b))
    return m


def _flat_map(profile: MetricProfile):
    """The profile's shared map t -> int sqrt(a) from its anchor."""
    m = profile._maps.get("flat")
    if m is None:
        ea = _exp_form(profile.terms_a)
        form = None if ea is None else (math.sqrt(ea[0]), 0.5 * ea[1])
        m = _store_map(profile, "flat", form, lambda a, b: np.sqrt(a))
    return m


def toward_end(start: float, end: float, step: float = 1.0):
    """March from start toward the domain end `end`.

    A finite end gives end - (end - start) 2^-k for k = 1, 2, ...; an
    infinite end gives start + step 2^k for k = 0, 1, ....  A point that
    floats cannot move past the previous one is skipped, and the march stops
    once floats reach a finite end or overflow, so the points strictly
    increase and stay below the end.  Callers take as many as they need.
    """
    last = start
    if math.isfinite(end):
        gap = end - start
        while True:
            gap *= 0.5
            t = end - gap
            if t >= end:
                return
            if t > last:
                last = t
                yield t
    gap = step
    while True:
        t = start + gap
        if not math.isfinite(t):
            return
        if t > last:
            last = t
            yield t
        gap *= 2.0


def in_blocks(f, points, cap: int = 8):
    """Yield (point, f's result) one point at a time, calling the batch
    function f (a list of points to one result each) on blocks of 1, 1, 2,
    4, ... points, at most cap.  A block is computed when its first point is
    asked for, so a march that stops early computes no block past its stop;
    a block of 8 is too small to raise peak memory, as one of 75 did."""
    points, done = iter(points), 0
    while block := list(islice(points, min(max(done, 1), cap))):
        yield from zip(block, f(block))
        done += len(block)


def bracketed_root(g, lo, hi, glo, ghi, xtol: float = 1e-12) -> np.ndarray:
    """Root of g in each row's [lo, hi] by Illinois false position with a
    bisection floor.

    lo, hi, glo = g(lo) and ghi = g(hi) are 1-d arrays with a sign change in
    every row; xtol is relative to max(1, |lo|, |hi|).  g maps one point per
    row to its value; a finished row is given its last point again and keeps
    its state, so its root does not depend on the other rows.  A row whose
    bracket is still wider than xtol after ROOT_MAX_ITER steps raises
    QuadratureError naming that bracket.
    """
    lo, hi, glo, ghi = (np.array(v, dtype=float) for v in (lo, hi, glo, ghi))
    x = np.where(glo == 0.0, lo, hi)  # each row's last point, or its exact root
    exact = (glo == 0.0) | (ghi == 0.0)
    live = ~exact
    with np.errstate(all="ignore"):
        for _ in range(200):
            # bisect an overflowed upper end back into the finite region
            over = live & ~np.isfinite(ghi)
            if not over.any():
                break
            x = np.where(over, 0.5 * (lo + hi), x)
            gm = g(x)
            to_lo = over & np.isfinite(gm) & ((gm > 0.0) == (glo > 0.0))
            to_hi = over & ~to_lo
            lo, glo = np.where(to_lo, x, lo), np.where(to_lo, gm, glo)
            hi, ghi = np.where(to_hi, x, hi), np.where(to_hi, gm, ghi)
        bad = np.flatnonzero(live & ((glo > 0.0) == (ghi > 0.0)))
        if len(bad):
            raise QuadratureError(
                f"root not bracketed on [{lo.item(bad[0])!r}, {hi.item(bad[0])!r}]")
        side = np.zeros(len(x))  # 1 after a step that moved hi, -1 after one that moved lo
        for it in range(ROOT_MAX_ITER + 1):
            live &= ~(hi - lo <= xtol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
            if not live.any():
                break
            if it == ROOT_MAX_ITER:
                i = np.flatnonzero(live)[0]
                raise QuadratureError(
                    f"root on [{lo.item(i)!r}, {hi.item(i)!r}] did not converge in "
                    f"{ROOT_MAX_ITER} steps")
            denom = ghi - glo
            mid = np.where(denom != 0.0, hi - ghi * (hi - lo) / denom, 0.5 * (lo + hi))
            x = np.where(live, np.where((lo < mid) & (mid < hi), mid, 0.5 * (lo + hi)), x)
            gm = g(x)
            exact |= live & (gm == 0.0)
            live &= gm != 0.0
            # Illinois: the value at an end kept twice in a row is halved
            to_hi = live & ((gm > 0.0) == (ghi > 0.0))
            to_lo = live & ~to_hi
            glo = np.where(to_hi & (side == 1.0), 0.5 * glo, glo)
            ghi = np.where(to_lo & (side == -1.0), 0.5 * ghi, ghi)
            lo, glo = np.where(to_lo, x, lo), np.where(to_lo, gm, glo)
            hi, ghi = np.where(to_hi, x, hi), np.where(to_hi, gm, ghi)
            side = np.where(to_hi, 1.0, np.where(to_lo, -1.0, side))
        return np.where(exact, x, 0.5 * (lo + hi))
