"""Composite Gauss-Legendre panels with measured refinement, and cumulative maps.

Panels are laid out around declared breakpoints with geometric grading so
kinked integrands (|u|^p terms with non-even p) converge like smooth ones.
Each panel is halved until its own integral stops changing and the 16-node
interpolants of the level before reproduce the rule on its parts, so the
dense output of the level kept is stable too.  The rule is a correctly
rounded table and every integral is an exact sum (math.fsum) of the rule's
products, so it depends only on its integrand and interval: not on the BLAS
or LAPACK build, and not on the other intervals integrated in the same
batch.

ClosedFormMap and AnchoredMap are the only cumulative maps.  An AnchoredMap
is two rays run upward: f from the anchor, and u -> f(-u) from -anchor for
the values below it, negated.  A ray integrates every cell between its knots
whole and keeps f at the nodes its refinement accepted; a value inside a
cell is dense output: the lower knot's value, the rule's sums over the parts
before t, and the integral of t's part's interpolant up to t.  That
arithmetic is elementwise or summed along each row's own entries (never a
BLAS call), so a value of either map depends only on the map and its
argument, never on earlier queries or on the batch it is asked in.  Every
AnchoredMap lays its knots on the same grid.  _cone_map and _flat_map pick
one of them for a profile and share it through the profile.

solve is the one batched root solver: the probes' level crossings take its
Illinois steps, two points per row per call of g, and kappa shooting and
the inversion s -> T of an AnchoredMap or of a saturating closed form (r <
0) its Newton steps.  A growing closed form (r >= 0) is inverted exactly,
by ClosedFormMap.inverse.  A saturating one keeps Newton: near the supremum
of s its t is ill-conditioned in s, and the exact inverse of a rounded s
can lie far from the t that the map, as rounded, brackets.
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import OrderedDict
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import DomainExceeded, QuadratureError
from .profiles import MetricProfile, constant_value

QUAD_TOL = 1e-10   # absolute tolerance of an integral, shared out over its panels
DENSE_TOL = 1e-13  # the same for the interpolants that give values inside a cell

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
# barycentric weights of the nodes, (-1)^j sqrt((1 - x_j^2) w_j) up to a
# common factor (Wang and Xiang 2012)
_BARY = np.where(np.arange(16) % 2, -1.0, 1.0) * np.sqrt((1.0 - _NODES * _NODES) * _WEIGHTS)
_GRADE_LEVELS = 36

MAX_LEVELS = 14         # halvings of a panel before refinement stalls
ROOT_MAX_ITER = 300     # steps of solve before a row still moving raises
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


@lru_cache(maxsize=None)
def _rule_layout(ms: tuple[int, ...]):
    """The nodes on [0, 1] of the rules at each m of ms, side by side, and
    each rule's (m, weights, first column, end column) among them."""
    rules = [_split_rule(m) for m in ms]
    frac = rules[0][0] if len(rules) == 1 else np.concatenate([fr for fr, _ in rules])
    cols, start = [], 0
    for m, (_, w) in zip(ms, rules):
        cols.append((m, w, start, start + len(w)))
        start += len(w)
    return frac, cols


def _node_values(f, lo: np.ndarray, width: np.ndarray, ms) -> list[np.ndarray]:
    """f at the rule's nodes on each panel at each refinement m of the tuple
    ms, as one (panels, m, 16) array per m, from one call of f on the cached
    node layout of ms."""
    frac, cols = _rule_layout(ms)
    vals = np.asarray(f((lo[:, None] + width[:, None] * frac).ravel()), dtype=float)
    vals = vals.reshape(len(lo), -1)
    return [vals[:, s:e].reshape(len(lo), m, 16) for m, _, s, e in cols]


def _rule_sums(vals: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The rule's value on each panel from its node values (panels, m, 16);
    the products are summed exactly."""
    m = vals.shape[1]
    prods = (vals * _WEIGHTS).reshape(len(vals), -1).tolist()
    return (0.5 / m) * width * np.array([_fsum(row) for row in prods])


def _lagrange(s: np.ndarray) -> np.ndarray:
    """The 16 Lagrange basis polynomials of the rule's nodes at every entry
    of s, along a new last axis, by the barycentric formula.  At a node the
    basis is exactly a unit vector."""
    d = s[..., None] - _NODES
    exact = d == 0.0
    if exact.any():
        q = _BARY / np.where(exact, 1.0, d)
        return np.where(exact.any(-1, keepdims=True), exact, q / q.sum(-1, keepdims=True))
    q = _BARY / d
    return q / q.sum(-1, keepdims=True)


@lru_cache(maxsize=None)
def _dense_tables():
    """(M, H) for a part's interpolant p through its node values F.

    The mean of p over [-1, -1 + 2 theta] is a degree-15 polynomial in
    2 theta - 1, whose values at the nodes are M @ F.  H @ F is the integral
    of p over the left half of the part in the rule's units of that half
    (the whole half is sum w_j F_j there); reversed H gives the right half.
    Both come from the rule mapped onto the subinterval, exact for p."""
    means = _lagrange(np.outer(_UNIT_NODES, 2.0 * _UNIT_NODES) - 1.0)
    return (0.5 * (means * _WEIGHTS[:, None]).sum(1),
            (_lagrange(_UNIT_NODES - 1.0) * _WEIGHTS[:, None]).sum(0))


def _head(F: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Integral of each row's interpolant over the first fraction theta of
    its part, in the rule's units (the whole part is sum w_j F_j).

    It is 2 theta times the interpolant's mean over that fraction (M of
    _dense_tables), so it keeps full relative accuracy as theta goes to 0.
    Every step is elementwise or a sum over a row's own entries, so a row's
    value does not depend on the other rows.
    """
    return 2.0 * theta * np.einsum("ni,ij,nj->n", _lagrange(2.0 * theta - 1.0),
                                   _dense_tables()[0], F)


def _dense_gap(prev: np.ndarray, cur: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Worst gap on each panel between the rule on the parts of the current
    level (cur, m parts) and the previous level's interpolants (prev, m / 2
    parts) integrated over the same parts.  Each gap is summed along its own
    row; it only decides when refinement stops."""
    n, m, _ = cur.shape
    h = _dense_tables()[1]
    # part 2q is the left half of previous part q, part 2q + 1 its right half
    halves = np.stack([prev * h, prev * h[::-1]], axis=2).reshape(n, m, 16)
    gap = np.abs((cur * _WEIGHTS - halves).sum(-1)).max(axis=1)
    return (0.5 / m) * width * gap


def _refine(f, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray):
    """Integral of f over each panel [lo[k], hi[k]], halved until stable,
    and f at its nodes on the level it stopped at.

    tol[k] is the panel's share of QUAD_TOL.  Every panel is split into
    m = 1, 2, 4, ... equal parts until, at m, its value moved by at most
    tol[k] from m / 2, and the interpolants of level m / 2 reproduce the
    rule's sums over the m parts within the same share of DENSE_TOL; each
    bound has a floating-point floor.  So the dense output of the level
    kept is at least as stable as its value.  m = 1 and m = 2 come from one
    call of f, as no panel can stop at m = 1 unless its value is not
    finite.  The rule's products are summed exactly, so a panel's value
    depends only on f and its edges, not on the other panels integrated
    alongside it.  Returns the values and each panel's (m, 16) node values.
    """
    out = np.empty(len(lo))
    nodes = [None] * len(lo)
    idx = np.arange(len(lo))
    width = hi - lo
    m = 2
    # overflow to inf is a legitimate sentinel for the marching logic
    with np.errstate(over="ignore", invalid="ignore"):
        fprev, fcur = _node_values(f, lo, width, (1, 2))
        prev, cur = _rule_sums(fprev, width), _rule_sums(fcur, width)
        # a panel whose m = 1 value is not finite ends there
        keep = np.isfinite(prev)
        if not keep.all():
            for k in np.flatnonzero(~keep).tolist():
                out[k], nodes[k] = prev[k], fprev[k]
            idx, width, tol = idx[keep], width[keep], tol[keep]
            fprev, fcur, prev, cur = fprev[keep], fcur[keep], prev[keep], cur[keep]
        while len(idx):
            change = np.abs(cur - prev)
            floor = 16e-16 * np.abs(cur)
            done = ~np.isfinite(cur) | (change <= np.maximum(tol, floor))
            check = np.flatnonzero(done & np.isfinite(cur))
            if len(check):
                gap = _dense_gap(fprev[check], fcur[check], width[check])
                done[check] = gap <= np.maximum(DENSE_TOL / QUAD_TOL * tol[check], floor[check])
                change[check] = np.maximum(change[check], gap)
            for k in np.flatnonzero(done).tolist():
                out[idx[k]], nodes[idx[k]] = cur[k], fcur[k]
            if done.all():
                break
            keep = ~done
            idx, width, tol = idx[keep], width[keep], tol[keep]
            fcur, cur, change = fcur[keep], cur[keep], change[keep]
            if m >= 2 ** (MAX_LEVELS - 1):
                raise QuadratureError(
                    f"panel refinement stalled on [{float(lo[idx[0]])!r}, {float(hi[idx[0]])!r}]: "
                    f"last change {float(change[0])!r}"
                )
            fprev, prev = fcur, cur
            m *= 2
            fcur, = _node_values(f, lo[idx], width, (m,))
            cur = _rule_sums(fcur, width)
    return out, nodes


class _Cell:
    """An interval [lo, hi] integrated whole, with dense output inside.

    Its panels are graded toward the breakpoints in it (_panel_edges), and
    each keeps f at its nodes on the level its refinement accepted.  total
    is the math.fsum of the panel values.  The integral from lo to a t
    inside needs no f (parts, _evaluate).
    """

    __slots__ = ("lo", "hi", "edges", "nodes", "total", "halves", "_parts")

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi
        self.halves = self._parts = None

    def parts(self):
        """The rows (left edges, widths, sums before) and the node values of
        the m equal parts of every panel, listed from lo.  The sums before
        are the rule's sums over the parts between lo and each part, added
        in order."""
        if self._parts is None:
            left, h = [], []
            for e0, e1, vals in zip(self.edges, self.edges[1:], self.nodes):
                m, w = len(vals), e1 - e0
                left += [e0 + w * i / m for i in range(m)]
                h += [w / m] * m
            # the third row is a placeholder for the sums before
            rows, F = np.array([left, h, h]), np.concatenate(self.nodes)
            with np.errstate(over="ignore", invalid="ignore"):
                before = np.cumsum((F * _WEIGHTS).sum(-1) * 0.5 * rows[1])
            rows[2, 0], rows[2, 1:] = 0.0, before[:-1]
            self._parts = (rows, F)
        return self._parts


def _evaluate(table, F, t) -> np.ndarray:
    """The value before each t's part plus the integral of the part's
    interpolant from its left edge to t, for parts listed as _Cell.parts
    lists them: table holds the rows (left edges, ascending; widths; values
    before), and every t lies past the first edge."""
    k = table[0].searchsorted(t, "right") - 1
    key, h, before = table[:, k]
    return before + 0.5 * h * _head(F[k], (t - key) / h)


def _integrate(f, cells, breaks) -> None:
    """Integrate every cell in one refinement batch, with QUAD_TOL shared
    out over each cell's panels in proportion to their length."""
    lo, hi, tol, spans = [], [], [], []
    for cell in cells:
        cell.edges = edges = _panel_edges(cell.lo, cell.hi, breaks) if cell.lo != cell.hi else []
        share = QUAD_TOL / (cell.hi - cell.lo) if edges else 0.0
        spans.append((len(lo), len(lo) + max(len(edges) - 1, 0)))
        lo.extend(edges[:-1])
        hi.extend(edges[1:])
        tol.extend(share * (e1 - e0) for e0, e1 in zip(edges, edges[1:]))
    if not lo:
        values, nodes = [], []
    else:
        values, nodes = _refine(f, np.array(lo), np.array(hi), np.array(tol))
        values = values.tolist()
    for cell, (i, j) in zip(cells, spans):
        cell.nodes = nodes[i:j]
        cell.total = _fsum(values[i:j])


def _leaf(f, cell: _Cell, t: float, breaks):
    """The cell whose parts answer t, or None, and the sum of the totals
    between the given cell's lo and that cell's.

    A cell whose total is not finite answers from its halves, bisected at
    the midpoint while floats can split it, so a value before an overflow
    or a NaN stays finite.  Once the totals before t are not finite, they
    are the answer (None).  The halves are integrated when first needed."""
    outside = 0.0
    while not math.isfinite(cell.total):
        mid = 0.5 * (cell.lo + cell.hi)
        if not cell.lo < mid < cell.hi:
            break
        if cell.halves is None:
            cell.halves = (_Cell(cell.lo, mid), _Cell(mid, cell.hi))
            _integrate(f, cell.halves, breaks)
        near, far = cell.halves
        if t > mid:
            outside = _fsum([outside, near.total])
            if not math.isfinite(outside):
                return None, outside
        cell = near if t <= mid else far
    return cell, outside


class ClosedFormMap:
    """Closed form of t -> int_anchor^t k exp(r u) du, evaluated in floats.

    k (t - anchor) when r == 0.  Otherwise (k / r) (exp(r t) - exp(r anchor)),
    except where |r (t - anchor)| < EXPM1_BELOW: there that difference would
    cancel, and the equal (k / r) exp(r anchor) expm1(r (t - anchor)) is used.
    Elsewhere the difference loses at most about 1.4 bits (its condition
    number is below 1 / (1 - exp(-EXPM1_BELOW)) < 2.6).  Where an
    exponential overflows the value is +-inf, the sign of k (t - anchor).
    The batch path evaluates the same scalar expressions, so both agree bit
    for bit, as do inverse's.
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

    def _inverse(self, s: float) -> float:
        k, r, anchor = self.k, self.r, self.anchor
        z = r * s / (k * math.exp(r * anchor))
        if z < math.inf:
            return anchor + math.log1p(z) / r
        # r s / k overflows: z = e^w with w in logs, and log1p(e^w) =
        # max(w, 0) + log1p(e^-|w|)
        w = math.log(r) + math.log(s) - math.log(k) - r * anchor
        return anchor + (max(w, 0.0) + math.log1p(math.exp(-abs(w)))) / r

    def inverse(self, ss) -> np.ndarray:
        """The t with self(t) = s at every entry s >= 0 of ss, s in the map's
        range, k > 0 and r >= 0: anchor + s / k when r == 0, else anchor +
        log1p(z) / r with z = r s / (k exp(r anchor)), formed in logs where
        r s / k overflows in floats.  t is well conditioned in s there:
        dt/ds = 1 / (k exp(r t)) shrinks as s grows."""
        ss = np.asarray(ss, dtype=float)
        if self.r == 0.0:
            return self.anchor + ss / self.k
        return np.array([self._inverse(s) for s in ss.ravel().tolist()]).reshape(ss.shape)

    def integrand(self, ts) -> np.ndarray:
        """The map's derivative k exp(r t) at every entry of ts; inf where
        the exponential overflows."""
        with np.errstate(over="ignore"):
            return self.k * np.exp(self.r * np.asarray(ts, dtype=float))


class _Ray:
    """One side of an anchored map run upward, t -> int_anchor^t f on
    [anchor, end]: its knots, listed upward, and the cells between them."""

    def __init__(self, f, anchor: float, end: float, breaks):
        self.f, self.anchor, self.end, self.all_breaks = f, anchor, end, breaks
        self.breaks = sorted(b for b in breaks if anchor < b < end)
        self.knots = [anchor]
        self.cells = []                    # _Cell from knot k to knot k + 1
        self.cum = {0: 0.0}                # fsum of the cells before knot k
        self.closed = False                # no knot left before the domain end
        self._grid = self._brk = 0         # next grid knot, next breakpoint
        self._gap = None                   # distance to a finite end, once past the grid
        self._keys = None                  # the knots, as an array
        self._pieces = []                  # each cell's parts, from its knot's value
        self._table = None                 # the pieces joined

    def _next_knot(self) -> float:
        """The next knot up: the next grid knot, the next breakpoint if it
        comes first, and past the grid the end itself, approached by halving
        the gap to a finite end until that gap is below 2^-40 of the end's
        scale, or the largest float toward an infinite end."""
        end = self.end
        # grid knot k lies 2^k above the anchor, at inf past the float range
        k = self._grid
        knot = self.anchor + (math.ldexp(1.0, k) if k < 1024 else math.inf)
        past = not knot < end
        if past and not math.isfinite(end):
            knot = sys.float_info.max
        elif past:
            if self._gap is None:
                self._gap = end - self.knots[-1]
            self._gap *= 0.5
            near = abs(self._gap) <= 2.0 ** -40 * max(abs(end), abs(end - self.anchor))
            knot = end if near else end - self._gap
        if self._brk < len(self.breaks) and self.breaks[self._brk] <= knot:
            if self.breaks[self._brk] == knot and not past:
                self._grid += 1
            knot = self.breaks[self._brk]
            self._brk += 1
            self._gap = None
        elif not past:
            self._grid += 1
        return knot

    def extend_to(self, t: float):
        """Add knots until one lies at or beyond t or the last one is laid:
        a finite end, or the largest float toward an infinite one."""
        while not self.closed and self.knots[-1] < t:
            knot = self._next_knot()
            if knot > self.knots[-1]:
                self.knots.append(knot)
            self.closed = knot in (self.end, sys.float_info.max)

    def value_at(self, k: int) -> float:
        v = self.cum.get(k)
        if v is None:
            v = self.cum[k] = _fsum([c.total for c in self.cells[:k]])
        return v

    def many(self, t: np.ndarray) -> np.ndarray:
        """Values at every entry of t, each above the anchor and at most the
        end: a t on a knot or past the last one takes the knot's value, one
        inside a cell its dense output.  New cells are integrated in one batch."""
        far = float(t.max())
        self.extend_to(far)
        if self._keys is None or len(self._keys) != len(self.knots):
            self._keys = np.array(self.knots)
        keys = self._keys
        k = keys.searchsorted(t, "right") - 1
        inside = keys[k] != t
        if self.closed:
            inside &= k + 1 < len(keys)
        upto = min(int(keys.searchsorted(far)), len(keys) - 1)
        if len(self.cells) < upto:
            new = [_Cell(*self.knots[j:j + 2]) for j in range(len(self.cells), upto)]
            _integrate(self.f, new, self.all_breaks)
            self.cells += new
        if inside.all():
            return self.inside(t, k, upto)
        out = np.array([self.value_at(j) for j in k.tolist()])
        if inside.any():
            out[inside] = self.inside(t[inside], k[inside], upto)
        return out

    def inside(self, t: np.ndarray, k: np.ndarray, upto: int) -> np.ndarray:
        """Values at the t lying inside the cells k, all before cell upto:
        the dense output of the parts of the cells before upto, joined into
        one table from the anchor up.  A t in a cell whose total is not
        finite is answered by _leaf."""
        for j in range(len(self._pieces), upto):
            rows, F = self.cells[j].parts()
            if self.value_at(j):
                rows = rows + np.array([[0.0], [0.0], [self.value_at(j)]])
            self._pieces.append((rows, F))
            self._table = None
        if self._table is None:
            rows, F = zip(*self._pieces)
            self._table = (rows[0], F[0]) if len(rows) == 1 else (
                np.concatenate(rows, axis=1), np.concatenate(F))
        with np.errstate(over="ignore", invalid="ignore"):
            out = _evaluate(*self._table, t)
            if np.isfinite(out).all():
                return out
            for i in np.flatnonzero(~np.isfinite(out)).tolist():
                j = int(k[i])
                # past a cell that is not finite, the knot's value answers
                if not math.isfinite(self.value_at(j)):
                    out[i] = self.value_at(j)
                elif not math.isfinite(self.cells[j].total):
                    leaf, outside = _leaf(self.f, self.cells[j], float(t[i]), self.all_breaks)
                    if leaf is not None:
                        outside = _fsum([outside, _evaluate(*leaf.parts(), t[i:i + 1])[0]])
                    out[i] = self.value_at(j) + outside
        return out


class AnchoredMap:
    """Cumulative integral t -> int_anchor^t f whose value depends only on t.

    Two rays run upward (_Ray): one integrates f from the anchor up to the
    upper domain end, the other the reflected integrand u -> f(-u) from
    -anchor up to minus the lower end, with the breakpoints negated; a value
    below the anchor is minus that ray's value at -t.  A ray's knots lie at
    its anchor + 2^k for k >= 0 and at its breakpoints, so a march from the
    anchor by doubling steps lands on knots.  Toward a finite end the knots
    go on halving the distance to it, and the end itself is the last knot;
    toward an infinite end the last knot is the largest float, whose value
    +-inf takes.  Each cell between knots is integrated whole, a knot's
    value is the math.fsum of the cells below it, and a value inside a cell
    is the lower knot's value plus the cell's dense output (_Cell), so once
    a cell exists a query evaluates no f.  A cell whose integral is not
    finite is bisected toward t (_leaf).  So a value depends only on (f,
    anchor, breaks, domain, t), never on earlier queries or on the batch it
    is asked in.  At most MEMO_SIZE values are remembered, the oldest
    forgotten first; the knots and cells grow with the queried range only.
    A t outside the closed domain raises DomainExceeded.
    """

    def __init__(self, f, anchor: float, breaks=(), domain=(-math.inf, math.inf)):
        self.anchor = float(anchor)
        self._domain = t_min, t_max = domain
        breaks = tuple(breaks)
        self._up = _Ray(f, self.anchor, t_max, breaks)
        self._down = _Ray(lambda u: f(-u), -self.anchor, -t_min, tuple(-b for b in breaks))
        self._memo: OrderedDict[float, float] = OrderedDict()  # oldest first

    def __call__(self, t: float) -> float:
        t = float(t)
        got = self._memo.get(t)
        if got is not None:
            return got
        return float(self.many((t,))[0])

    def many(self, ts) -> np.ndarray:
        """Values at every entry of ts, equal to the scalar calls bit for bit.

        Remembered values are looked up one by one; the rest are computed
        together, in the order asked and repeats included.  When those all
        lie on one side of the anchor, strictly inside cells already joined
        into that ray's dense table, that takes one search of the knots and
        one evaluation of the table.
        """
        ts = np.asarray(ts, dtype=float)
        flat = ts.ravel().tolist()
        memo = self._memo
        out = [memo.get(t) for t in flat]
        miss = [i for i, v in enumerate(out) if v is None]
        if miss:
            todo = [flat[i] for i in miss]
            found = self._compute(np.array(todo)).tolist()
            for i, t, v in zip(miss, todo, found):
                if len(memo) >= MEMO_SIZE:
                    memo.popitem(last=False)
                memo[t] = out[i] = v
        return np.array(out, dtype=float).reshape(ts.shape)

    def _compute(self, t: np.ndarray) -> np.ndarray:
        t_min, t_max = self._domain
        lo, hi = float(t.min()), float(t.max())
        if not t_min <= lo <= hi <= t_max:  # a nan fails too
            bad = t[~((t_min <= t) & (t <= t_max))]
            raise DomainExceeded(
                f"t={float(bad.min())!r} outside the domain [{t_min!r}, {t_max!r}] "
                "of an anchored map")
        if lo > self.anchor:
            return self._up.many(t)
        if hi < self.anchor:
            return -self._down.many(-t)
        values = np.zeros(len(t))  # t == anchor stays 0
        up, down = t > self.anchor, t < self.anchor
        if up.any():
            values[up] = self._up.many(t[up])
        if down.any():
            values[down] = -self._down.many(-t[down])
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
            a, b = owner.coefficients_many(u)
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


def in_blocks(f, points, cap: int = 8, first: int = 1):
    """Yield (point, f's result) one point at a time, calling the batch
    function f (a list of points to one result each) on blocks of first
    points, then as many as were computed before, at most cap: 1, 1, 2, 4,
    8, 8, ... by default, and cap, cap, ... with first = cap.  A block is
    computed when its first point is asked for, so a march that stops early
    computes no block past its stop; a block of 8 is too small to raise peak
    memory, as one of 75 did."""
    points, done = iter(points), 0
    while block := list(islice(points, min(max(done, first), cap))):
        yield from zip(block, f(block))
        done += len(block)


def _false_position(lo, hi, glo, ghi) -> np.ndarray:
    """The secant point of each bracket, or its midpoint where that point
    is not strictly inside; glo and ghi differ in sign."""
    x = hi - ghi * (hi - lo) / (ghi - glo)
    return np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))


def solve(g, lo, hi, glo, ghi, xtol, error, x=None) -> np.ndarray:
    """Root of g in each row's bracket [lo, hi], lo <= hi: Newton steps from
    the start x, or Illinois false position where x is None.

    glo = g(lo) and ghi = g(hi) have opposite signs, or a zero at an end,
    which is that row's root; Newton's g rises through the root.  g(x, rows)
    is asked only at the live rows, rows their indices into the batch (a new
    array whenever one finishes), and returns their values, or for Newton
    (values, slopes).  An Illinois step asks each row twice in one call, at
    x - h and x + h: x is the false-position point, moved to lie at least 2h
    inside the bracket, and h a quarter of the row's tol, so a row whose
    root lies within h of x closes its bracket on [x - h, x + h] in that
    call.  A row's arithmetic is its own, so its root does not depend on the
    batch; g runs in the caller's numpy error state.  An overflowed upper
    end is first bisected back, and a row whose ends then share a sign
    raises QuadratureError naming its bracket.

    A row stops once its bracket is at most tol = xtol max(1, |lo|, |hi|)
    wide, before any step too (after a Newton step tol is xtol max(1, |x|),
    x the end just evaluated): at the secant point of a bracket its last
    step closed, else at the midpoint.  Illinois also stops on an exact
    zero; Newton at x - step once |step| <= tol with a finite slope.
    Newton's start may sit on the closed bracket, so a root an ulp from an
    end converges from it in one step; a later iterate not strictly inside
    is bisected, since it may repeat an end Newton has evaluated.  A row
    still live after ROOT_MAX_ITER steps raises error(i, lo, hi,
    ROOT_MAX_ITER), from its index and bracket.
    """
    lo, hi, glo, ghi = [np.array(v, dtype=float) for v in (lo, hi, glo, ghi)]
    out = np.where(glo == 0.0, lo, hi)  # each row's root where an end hits it
    rows = ((glo != 0.0) & (ghi != 0.0)).nonzero()[0]
    if not rows.size:
        return out
    if rows.size < lo.size:
        lo, hi, glo, ghi = lo[rows], hi[rows], glo[rows], ghi[rows]
    newton = x is not None
    for _ in range(200):
        # bisect an overflowed upper end back into the finite region
        over = (~np.isfinite(ghi)).nonzero()[0]
        if not over.size:
            break
        mid = 0.5 * (lo[over] + hi[over])
        gm = g(mid, rows[over])
        gm = gm[0] if newton else gm
        to_lo = np.isfinite(gm) & ((gm > 0.0) == (glo[over] > 0.0))
        lo[over[to_lo]], glo[over[to_lo]] = mid[to_lo], gm[to_lo]
        to_hi = over[~to_lo]
        hi[to_hi], ghi[to_hi] = mid[~to_lo], gm[~to_lo]
    up = ghi > 0.0
    bad = ((up == (glo > 0.0)) | (~up if newton else False)).nonzero()[0]
    if bad.size:
        raise QuadratureError(
            f"root not bracketed on [{lo.item(bad[0])!r}, {hi.item(bad[0])!r}]")
    # max(-lo, hi) is max(|lo|, |hi|) on lo <= hi; a stopped row's root is in x
    stop, half = hi - lo <= xtol * np.maximum(1.0, np.maximum(-lo, hi)), 0.5 * (lo + hi)
    if newton:
        x = np.asarray(x, dtype=float)[rows]
        x = np.where(stop | ~((lo <= x) & (x <= hi)), half, x)
    else:
        x = np.where(stop, half, _false_position(lo, hi, glo, ghi))
        last = up  # the rows whose last step moved hi alone
    for it in range(ROOT_MAX_ITER + 1):
        done = stop.nonzero()[0]
        if done.size:
            out[rows[done]] = x[done]
            if done.size == rows.size:
                return out
            keep = ~stop
            rows, x, lo, hi = rows[keep], x[keep], lo[keep], hi[keep]
            if not newton:
                glo, ghi, up, last = glo[keep], ghi[keep], up[keep], last[keep]
        if it == ROOT_MAX_ITER:
            raise error(rows.item(0), lo.item(0), hi.item(0), ROOT_MAX_ITER)
        if newton:
            v, slope = g(x, rows)
            step = v / slope
            right = v > 0.0  # x lies right of the root
            np.copyto(hi, x, where=right)
            np.copyto(lo, x, where=~right)
            tol = xtol * np.maximum(1.0, np.abs(x))
            stop = (np.abs(step) <= tol) & np.isfinite(slope)
            x = x - step
            # one strictly inside is over |step| > tol from the far end, so
            # only one bisected back from outside may stop on a narrow bracket
            inside = stop | ((lo < x) & (x < hi))
            if inside.nonzero()[0].size < x.size:
                x = np.where(inside, x, 0.5 * (lo + hi))
                stop |= hi - lo <= tol
            continue
        h = 0.25 * xtol * np.maximum(1.0, np.maximum(-lo, hi))
        x = np.minimum(np.maximum(x, lo + 2.0 * h), hi - 2.0 * h)
        a, b = x - h, x + h
        v = g(np.concatenate((a, b)), np.concatenate((rows, rows)))
        va, vb = v[:x.size], v[x.size:]
        # ra, rb: g has hi's sign at a, at b.  Where it has at a, hi moves to
        # a; else lo moves to b where it has not at b, and where it has the
        # bracket closes on [a, b]
        ra, rb = (va > 0.0) == up, (vb > 0.0) == up
        move_lo, move_hi = ~ra, ra | rb
        if it:  # Illinois: the value at an end kept twice in a row is halved
            np.copyto(glo, 0.5 * glo, where=ra & last)
            np.copyto(ghi, 0.5 * ghi, where=~rb & ~last)
        np.copyto(glo, np.where(rb, va, vb), where=move_lo)
        np.copyto(lo, np.where(rb, a, b), where=move_lo)
        np.copyto(ghi, np.where(ra, va, vb), where=move_hi)
        np.copyto(hi, np.where(ra, a, b), where=move_hi)
        closed = move_lo & move_hi
        narrow = hi - lo <= xtol * np.maximum(1.0, np.maximum(-lo, hi))
        x = np.where(narrow & ~closed, 0.5 * (lo + hi), _false_position(lo, hi, glo, ghi))
        x = np.where(va == 0.0, a, np.where(vb == 0.0, b, x))  # an exact zero is the root
        stop, last = (va == 0.0) | (vb == 0.0) | closed | narrow, ra
