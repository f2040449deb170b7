import math
from itertools import islice

import numpy as np
import pytest

from lorlab import quadrature
from lorlab.causality import cone_time, flat_time
from lorlab.errors import DomainExceeded, QuadratureError
from lorlab.profiles import MetricProfile, get_profile
from lorlab.quadrature import (
    MEMO_SIZE,
    AnchoredMap,
    ClosedFormMap,
    _Cell,
    _integrate,
    _node_values,
    _panel_edges,
    _rule_sums,
    in_blocks,
    solve,
    toward_end,
)

from oracles import mp_cumulative, mp_exp_map_inverse, simpson_integral
from test_geodesics import MIXED


def cell_integrals(f, los, his, breaks=()):
    """int_lo^hi f for each (lo, hi), from cells integrated whole in one batch."""
    cells = [_Cell(min(lo, hi), max(lo, hi)) for lo, hi in zip(los, his)]
    _integrate(f, cells, breaks)
    return [c.total if lo <= hi else -c.total for c, lo, hi in zip(cells, los, his)]


def test_panel_integral_exponential():
    got = cell_integrals(np.exp, [0.0], [1.0])[0]
    assert got == pytest.approx(math.e - 1.0, abs=1e-12)


def test_panel_integral_orientation():
    # a map anchored at 1 reads the cell [0, 1] backward
    got = AnchoredMap(np.exp, 1.0)(0.0)
    assert got == pytest.approx(-(math.e - 1.0), abs=1e-12)


def test_panel_integral_kink_at_endpoint():
    got = cell_integrals(lambda u: np.abs(u) ** 1.5, [0.0], [1.0], breaks=(0.0,))[0]
    assert got == pytest.approx(0.4, abs=1e-11)


def test_panel_integral_interior_kink():
    got = cell_integrals(lambda u: np.abs(u) ** 1.5, [-1.0], [1.0], breaks=(0.0,))[0]
    assert got == pytest.approx(0.8, abs=1e-11)


def test_panel_integral_against_simpson():
    f = lambda u: np.sqrt(1.0 + np.abs(u) ** 1.5)
    got = cell_integrals(f, [-0.5], [2.0], breaks=(0.0,))[0]
    want = simpson_integral(f, -0.5, 2.0)
    assert got == pytest.approx(want, abs=5e-11)


def test_panel_integral_exact_for_constants():
    one = lambda u: np.ones_like(u)
    assert cell_integrals(one, [0.25], [0.3])[0] == 0.3 - 0.25
    assert cell_integrals(one, [0.7], [0.1])[0] == -(0.7 - 0.1)
    assert cell_integrals(one, [-1.0], [2.0])[0] == 3.0


def test_panel_integrals_match_scalar_calls():
    f = lambda u: np.sqrt(1.0 + np.abs(u) ** 1.5)
    rng = np.random.default_rng(3)
    los = rng.uniform(-1.0, 1.0, 40)
    his = los + rng.uniform(-0.5, 0.5, 40)
    los, his = los.tolist(), his.tolist()
    got = cell_integrals(f, los, his, breaks=(0.0,))
    want = [cell_integrals(f, [lo], [hi], breaks=(0.0,))[0] for lo, hi in zip(los, his)]
    assert got == want


def test_panel_rule_weights_sum_to_length():
    edges = np.array(_panel_edges(0.0, 3.0, (1.0,)))
    seen = []

    def one(xs):
        seen.append(xs)
        return np.ones_like(xs)

    vals, = _node_values(one, edges[:-1], np.diff(edges), (2,))
    w = _rule_sums(vals, np.diff(edges))
    xs, = seen
    assert w.sum() == pytest.approx(3.0, abs=1e-12)
    assert ((xs > 0.0) & (xs < 3.0)).all()


def test_closed_form_map_overflows_to_signed_inf():
    grow = ClosedFormMap(1.0, 1.0, 0.0)     # e^t - 1
    decay = ClosedFormMap(2.0, -1.0, 0.0)   # 2 (1 - e^-t)
    assert grow(700.0) == pytest.approx(math.expm1(700.0), rel=1e-15)
    assert grow(710.0) == math.inf
    assert grow(1e6) == math.inf
    assert decay(-710.0) == -math.inf
    assert decay(710.0) == pytest.approx(2.0, rel=1e-15)
    ts = [-1e6, -710.0, 0.25, 700.0, 710.0, 1e6]
    for m in (grow, decay):
        assert m.many(ts).tolist() == [m(t) for t in ts]
    exp2t = get_profile("exp2t")  # flat time e^t - 1 in closed form
    assert flat_time(exp2t, 710.0) == math.inf
    assert cone_time(exp2t, 710.0) == math.inf


@pytest.mark.parametrize("k, r, anchor", [
    (1.0, 0.0, 0.3),                       # k (t - anchor)
    (2.5, 0.0, -7.0),
    (1.0, 1.0, 0.0),                       # e^t - 1
    (0.37, 2.0, 0.4),
    (1e100 * math.exp(-300.0), 1.0, 300.0),  # r s / k overflows for s > 2e277
    (3.0, 1e-9, 5.0),                      # r (t - anchor) tiny
    (1.0, 1.0, -800.0),                    # k e^(r anchor) underflows to 0
    (1.0, 2.0, -360.0),                    # e^(r anchor) is subnormal
    (1e5, 1.0, -720.0),                    # ... and k e^(r anchor) is not
])
def test_closed_form_inverse_against_mpmath(k, r, anchor):
    pytest.importorskip("mpmath")
    m = ClosedFormMap(k, r, anchor)
    rng = np.random.default_rng(3)
    ss = [0.0, 5e-324, 1e-300, *rng.uniform(0.0, 10.0, 8).tolist(),
          *(10.0 ** rng.uniform(-20.0, 308.0, 12)).tolist(), 1.7e308]
    got = m.inverse(ss)
    # a batch is its scalar calls bit for bit
    assert got.tobytes() == np.concatenate([m.inverse([s]) for s in ss]).tobytes()
    for s, t in zip(ss, got.tolist()):
        want = mp_exp_map_inverse(k, r, anchor, s)
        assert abs(t - want) <= 2.0 * math.ulp(max(abs(anchor), abs(want))), (s, t, want)


def test_anchored_map_values():
    am = AnchoredMap(np.exp, 0.0)
    for t in (1.0, 0.5, -1.0, 7.3, -20.0, 1e-7):
        assert am(t) == pytest.approx(math.expm1(t), rel=1e-13, abs=1e-15)
    strip = AnchoredMap(lambda u: 1.0 / (1.0 + u * u), 0.5, domain=(0.0, 1.0))
    for t in (1e-9, 0.2, 0.5, 0.93, 1.0 - 1e-9):
        assert strip(t) == pytest.approx(math.atan(t) - math.atan(0.5), abs=1e-13)


def test_sparse_anchored_map():
    # one knot per unit and per octave: the knots lie 2^k from the anchor
    am = AnchoredMap(np.exp, 0.0)
    for t in (1.0, 0.5, -1.0, 7.3, -20.0, 1e-7):
        assert am(t) == pytest.approx(math.expm1(t), rel=1e-13, abs=1e-15)
    assert am._up.knots[:5] == [0.0, 1.0, 2.0, 4.0, 8.0]
    assert am._down.knots[:5] == [-0.0, 1.0, 2.0, 4.0, 8.0]
    # a value integrates only its own cell and the cells before it
    fresh = AnchoredMap(np.exp, 0.0)
    assert fresh(0.5) == am(0.5)
    assert len(fresh._up.cells) == 1 and fresh._down.cells == []
    f = lambda u: np.sqrt(1.0 + np.abs(u - 0.3) ** 1.5)
    make = lambda: AnchoredMap(f, 0.0, breaks=(0.3,))
    ts = np.random.default_rng(5).uniform(-9.0, 9.0, 32)
    ts[:3] = (0.3, 4.0, -2.0)  # a breakpoint and two knots
    assert make().many(ts).tolist() == [make()(t) for t in ts]


def assert_later_batches_match_fresh_maps(make, shared, batches):
    """Each batch, asked of shared with nothing remembered, equals by repr
    the values of maps that saw nothing else."""
    for batch in batches:
        shared._memo.clear()
        assert list(map(repr, shared.many(batch).tolist())) == [repr(make()(t)) for t in batch]


def test_anchored_map_independent_of_history_and_batch():
    f = lambda u: np.sqrt(1.0 + np.abs(u - 0.3) ** 1.5)
    make = lambda: AnchoredMap(f, 0.0, breaks=(0.3,))
    ts = np.random.default_rng(4).uniform(-3.0, 3.0, 48)
    ts[:3] = (0.3, 0.3 + 1e-6, 2.0)  # a breakpoint, beside it, a grid knot
    want = [make()(t) for t in ts]  # each from a map that saw nothing else
    assert make().many(ts).tolist() == want
    shared = make()
    assert [shared(t) for t in ts[::-1]] == want[::-1]
    assert shared.many(ts).tolist() == want
    # later batches once the dense tables exist, with nothing remembered:
    # new points inside the tabled cells, part edges (each cell's first is
    # its knot), every knot and both floats beside the breakpoint
    inner = np.random.default_rng(5).uniform(-3.0, 3.0, 16).tolist()
    edges = [sgn * e for sgn, ray in ((1.0, shared._up), (-1.0, shared._down))
             for e in ray._table[0][0].tolist()]
    knots = [sgn * t for sgn, ray in ((1.0, shared._up), (-1.0, shared._down)) for t in ray.knots]
    beside = [math.nextafter(0.3, 0.0), math.nextafter(0.3, 1.0)]
    assert_later_batches_match_fresh_maps(
        make, shared, (inner, edges[::3], knots + beside, inner + edges[1::3] + beside))


def test_anchored_map_value_before_an_overflowing_cell():
    # the cell [512, 1024] overflows, so the value at 700 comes from its
    # halves bisected toward 700; past the overflow the value is inf
    am = AnchoredMap(np.exp, 0.0)
    assert am(700.0) == pytest.approx(math.expm1(700.0), rel=1e-13)
    assert am(1000.0) == math.inf
    assert am(-1e308) == -1.0
    fresh = AnchoredMap(np.exp, 0.0)
    assert fresh.many([1000.0, 700.0, -1e308]).tolist() == [math.inf, am(700.0), -1.0]
    # the same below the anchor, where the reflected ray runs up from -0
    down = AnchoredMap(lambda u: np.exp(-u), 0.0)
    assert down(-700.0) == pytest.approx(-math.expm1(700.0), rel=1e-13)
    assert down(-1000.0) == -math.inf
    # later batches once the tables exist, with nothing remembered: inside
    # the overflowing cell (on the edges of its halves too), on its knots,
    # past the overflow in it and past it, and on part edges before it
    near = [600.0, 640.0, 700.5, 709.0, 709.78, 768.0, 512.0, 1024.0, 709.8, 900.0, 1500.0,
            1e6]
    for sgn, shared, f in ((1.0, am, np.exp), (-1.0, down, lambda u: np.exp(-u))):
        ts = [sgn * t for t in near]
        ray = shared._up if sgn > 0.0 else shared._down
        edges = np.random.default_rng(6).choice(sgn * ray._table[0][0], 8)
        assert_later_batches_match_fresh_maps(
            lambda: AnchoredMap(f, 0.0), shared, (ts, edges.tolist(), ts[::2] + edges[::2].tolist()))


def test_anchored_map_knots_reach_a_finite_end():
    # past the grid the knots halve the gap to the end, as toward_end does,
    # and the end itself is the last knot: every t up to it lies in a cell
    strip = AnchoredMap(lambda u: 1.0 / (1.0 + u * u), 0.5, domain=(0.0, 1.0))
    assert strip(1.0) == pytest.approx(math.atan(1.0) - math.atan(0.5), abs=1e-15)
    assert strip(0.0) == pytest.approx(-math.atan(0.5), abs=1e-15)
    for sgn, end, ray in ((1.0, 1.0, strip._up), (-1.0, 0.0, strip._down)):
        assert ray.closed and sgn * ray.knots[-1] == end
        inner = [sgn * t for t in ray.knots[1:-1]]
        assert inner == [sgn * t for t in islice(toward_end(sgn * 0.5, sgn * end), len(inner))]
        assert abs(end - inner[-1]) <= 2.0 ** -39  # the next halving would reach 2^-40
    for t in (1.0 + 1e-12, -1e-300, math.nan):
        with pytest.raises(DomainExceeded):
            strip(t)


def test_anchored_map_below_its_anchor_is_the_reflected_map():
    # below the anchor a map is minus the map of u -> f(-u) anchored at -a,
    # with the breakpoints and the domain reflected, at -t, bit for bit
    kinked = lambda u: np.sqrt(1.0 + np.abs(u + 0.7) ** 1.5)
    rng = np.random.default_rng(11)
    cases = [
        # a kink below the anchor, declared as a breakpoint
        (kinked, 0.5, (-0.7, 2.0), (-math.inf, math.inf),
         [-0.7, math.nextafter(-0.7, 0.0), -1.5, -8.0, -1e6] + rng.uniform(-9.0, 0.5, 24).tolist()),
        # a finite end, reached by halving knots
        (lambda u: 1.0 / (1.0 + u * u), 0.5, (), (0.0, 1.0),
         [0.0, 1e-300, 1e-12, 0.25, 0.375] + rng.uniform(0.0, 0.5, 16).tolist()),
        # the cells [-1024, -512] and past overflow
        (lambda u: np.exp(-u), 0.0, (), (-math.inf, math.inf),
         [-600.0, -700.0, -709.78, -709.8, -768.0, -1000.0, -1e6, -1.5, -1e308]),
    ]
    for f, a, breaks, (lo, hi), ts in cases:
        mirror = lambda u, f=f: f(-u)
        make = lambda: AnchoredMap(f, a, breaks, (lo, hi))
        reflected = lambda: AnchoredMap(mirror, -a, [-b for b in breaks], (-hi, -lo))
        want = [repr(-reflected()(-t)) for t in ts]
        assert [repr(make()(t)) for t in ts] == want
        assert list(map(repr, make().many(ts).tolist())) == want
        assert list(map(repr, (-reflected().many([-t for t in ts])).tolist())) == want


def test_undeclared_kink_still_converges():
    # the dense-output check must not demand more than refinement can give
    # where a kink is not declared as a breakpoint
    got = cell_integrals(lambda u: np.abs(u - 0.3) ** 1.5, [0.0], [1.0])[0]
    assert got == pytest.approx((0.3 ** 2.5 + 0.7 ** 2.5) / 2.5, abs=1e-10)


def test_dense_output_matches_an_mpmath_reference():
    pytest.importorskip("mpmath")
    c1power = get_profile("c1power")
    # next to the kink at 0: the parent read 1.2e-11 and 9.8e-14 off here
    for t in (1.6e-4, -0.0313):
        want = mp_cumulative(c1power, "cone", t)
        assert abs(cone_time(c1power, t) - want) <= 1e-13 * max(1.0, abs(want))
    rng = np.random.default_rng(18)
    cases = [(c1power, "flat", 3.0), (c1power, "cone", 3.0),
             (get_profile("warpb"), "cone", 3.0), (MIXED, "cone", 1.999), (MIXED, "flat", 1.999)]
    for prof, kind, reach in cases:
        prof = MetricProfile(prof.name, prof.terms_a, prof.terms_b, prof.t_min, prof.t_max,
                             prof.alpha)  # fresh maps
        near = 10.0 ** rng.uniform(-9.0, 0.0, 8)
        ts = np.concatenate([rng.uniform(-reach, reach, 16), near, -near, 0.2 + near / 10])
        got = (flat_time if kind == "flat" else cone_time)
        for t in ts.tolist():
            want = mp_cumulative(prof, kind, t)
            assert abs(got(prof, t) - want) <= 1e-13 * max(1.0, abs(want)), (prof.name, kind, t)


def test_anchored_map_memo_is_bounded():
    am = AnchoredMap(np.exp, 0.0)
    ts = np.linspace(-1.0, 1.0, MEMO_SIZE + 100)
    first = am.many(ts)
    assert len(am._memo) <= MEMO_SIZE
    assert am.many(ts).tolist() == first.tolist()


def test_anchored_map_memo_forgets_its_oldest_values_first():
    am = AnchoredMap(np.exp, 0.0)
    ts = np.linspace(-1.0, 1.0, MEMO_SIZE + 100)
    first = np.concatenate([am.many(chunk) for chunk in np.array_split(ts, 9)])
    assert len(am._memo) == MEMO_SIZE
    assert list(am._memo) == ts[100:].tolist()  # the first 100 went, in order
    am.many(ts[100:200])  # a hit changes nothing
    assert list(am._memo) == ts[100:].tolist()
    again = am.many(ts[:100])  # recomputed, each evicting the oldest
    assert again.tobytes() == first[:100].tobytes()
    assert len(am._memo) == MEMO_SIZE
    assert list(am._memo) == ts[200:].tolist() + ts[:100].tolist()


def stuck(i, lo, hi, steps):
    return QuadratureError(f"root on [{lo!r}, {hi!r}] did not converge in {steps} steps")


def by_row(fs, seen=None):
    """A g for solve that applies fs[i] to row i of the batch, and records in
    seen the rows of every call."""
    def g(x, rows):
        if seen is not None:
            seen.append(rows.tolist())
        return np.array([fs[i](v) for i, v in zip(rows.tolist(), x.tolist())])
    return g


def newton_by_row(fs, dfs, seen=None):
    """The same for Newton rows: (values, slopes)."""
    value, slope = by_row(fs, seen), by_row(dfs)
    return lambda x, rows: (value(x, rows), slope(x, rows))


def one_row(f, lo, hi):
    """Arguments of solve's Illinois route for the single row f on [lo, hi]."""
    return by_row([f]), [lo], [hi], [f(lo)], [f(hi)], 1e-12, stuck


def test_bracketed_root_monotone():
    root = solve(*one_row(lambda t: math.exp(t) - 1.5, 0.0, 2.0))
    assert root[0] == pytest.approx(math.log(1.5), abs=1e-12)


def test_bracketed_root_requires_sign_change():
    with pytest.raises(QuadratureError):
        solve(*one_row(lambda t: 1.0 + t * t, -1.0, 1.0))


def test_bracketed_root_cubic():
    root = solve(*one_row(lambda t: t ** 3 - 2.0, 0.0, 4.0))
    assert root[0] == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


def cube(t):
    return t ** 3 - 2.0 if t < 3.0 else math.inf


ROOT_ROWS = [
    (lambda t: t - 1.0, 1.0, 3.0),                     # zero at the lower end
    (lambda t: t - 0.5, 0.0, 1.0),                     # false position lands on the root
    (cube, 0.0, 4.0),                                  # overflowed upper end
    (lambda t: math.exp(t) - 1.5, 0.0, 2.0),
    (lambda t: t ** 3 - 2.0, 0.0, 4.0),
    (lambda t: math.atan(50.0 * (t - 0.3)), -1.0, 1.0),  # steep: many iterations
]

# Newton rows: value, slope, bracket and start
NEWTON_ROWS = [
    (lambda t: t - 1.0, lambda t: 1.0, 1.0, 3.0, 2.0),  # zero at the lower end
    (cube, lambda t: 3.0 * t * t, 0.0, 4.0, 1.0),        # overflowed upper end
    (lambda t: math.exp(t) - 1.5, math.exp, 0.0, 2.0, 2.0),  # start on an end
    # the first step from -1 lands at 132, outside the bracket, and is bisected
    (lambda t: math.atan(50.0 * (t - 0.3)), lambda t: 50.0 / (1.0 + 2500.0 * (t - 0.3) ** 2),
     -1.0, 1.0, -1.0),
    (lambda t: t ** 3 - 2.0, lambda t: 3.0 * t * t, 0.0, 4.0, 0.5),
]


def solve_rows(fs, dfs, lo, hi, start, seen):
    """solve on the rows fs (Newton where dfs holds their slopes), with the
    rows of every call of g recorded in seen."""
    g = by_row(fs, seen) if dfs is None else newton_by_row(fs, dfs, seen)
    return solve(g, lo, hi, [f(a) for f, a in zip(fs, lo)], [f(b) for f, b in zip(fs, hi)],
                 1e-12, stuck, start)


def test_bracketed_root_rows_equal_their_batch_of_one():
    fs, lo, hi = zip(*ROOT_ROWS)
    nfs, ndfs, nlo, nhi, nstart = zip(*NEWTON_ROWS)
    for fs, dfs, lo, hi, start in ((fs, None, lo, hi, None), (nfs, ndfs, nlo, nhi, nstart)):
        seen = []
        got = solve_rows(fs, dfs, lo, hi, start, seen).tolist()
        # an Illinois step asks each live row twice in one call, as the same
        # sorted rows listed twice; Newton and the bisection back once
        once = [rows for rows in seen if rows == sorted(set(rows))]
        twice = [rows for rows in seen if rows not in once]
        assert seen and all(rows for rows in seen)
        assert all(rows[:len(rows) // 2] * 2 == rows for rows in twice)
        assert bool(twice) == (dfs is None)
        evals = []
        for i, root in enumerate(got):
            alone = []
            one = slice(i, i + 1)
            assert repr(solve_rows(fs[one], dfs and dfs[one], lo[one], hi[one],
                                   start and start[one], alone).tolist()) == repr([root])
            assert fs[i](root) == pytest.approx(0.0, abs=1e-9)
            # each call sees only live rows: row i is asked for as often as alone
            assert sum(i in rows for rows in seen) == len(alone)
            evals.append(len(alone))
        assert got[0] == 1.0 and evals[0] == 0  # a zero at the lower end is never asked for
        # false position on a linear row closes its bracket in one call, at the root
        assert dfs or (got[1] == 0.5 and evals[1] == 1)
        assert len(set(evals)) > 2  # rows finish at different iterations


def test_false_position_closes_linear_rows_in_one_call():
    # on a line the false-position point is the root up to rounding, so the
    # two points around it close every row's bracket in the first call
    rng = np.random.default_rng(3)
    roots, slopes = rng.uniform(-50.0, 50.0, 40), rng.uniform(-8.0, 8.0, 40)
    lo, hi = roots - rng.uniform(0.1, 30.0, 40), roots + rng.uniform(0.1, 30.0, 40)
    seen = []
    fs = [lambda t, r=r, c=c: c * (t - r) for r, c in zip(roots.tolist(), slopes.tolist())]
    got = solve(by_row(fs, seen), lo, hi, slopes * (lo - roots), slopes * (hi - roots), 1e-10,
                stuck)
    assert seen == [list(range(40)) * 2]
    assert (np.abs(got - roots) <= 1e-13 * np.maximum(1.0, np.abs(roots))).all()


def test_false_position_divides_first_only_where_the_product_overflows():
    # g(hi) (hi - lo) = 1e310 in the first row; the second keeps the plain form
    lo, hi = np.array([0.0, 0.0]), np.array([1e300, 3.0])
    glo, ghi = np.array([-1e10, -0.4]), np.array([1e10, 0.7])
    x = quadrature._false_position(lo, hi, glo, ghi)
    assert x.tolist() == [1e300 - 1e10 * (1e300 / 2e10), 3.0 - 0.7 * 3.0 / 1.1]
    assert x[1] != 3.0 - 0.7 * (3.0 / 1.1)


def test_solve_without_live_rows_returns_at_once():
    def g(x, rows):
        raise AssertionError("g called")

    for newton in (False, True):
        empty = solve(g, [], [], [], [], 1e-12, stuck, [] if newton else None)
        assert empty.dtype == float and empty.shape == (0,)
        # every row has a zero at an end: the lower end where both are zero
        ends = solve(g, [1.0, 0.0, -2.0], [2.0, 0.5, -1.0], [0.0, -1.0, 0.0], [0.0, 0.0, 3.0],
                     1e-12, stuck, [1.5, 0.25, -1.5] if newton else None)
        assert ends.tolist() == [1.0, 0.5, -2.0]
        # a bracket already within xtol stops at its midpoint
        narrow = solve(g, [2.0], [2.0 + 1e-12], [-1.0], [1.0], 1e-12, stuck,
                       [2.0] if newton else None)
        assert narrow.tolist() == [0.5 * (2.0 + (2.0 + 1e-12))]


def test_bracketed_root_out_of_steps_raises(monkeypatch):
    f = ROOT_ROWS[-1][0]  # steep: many iterations
    assert f(solve(*one_row(f, -1.0, 1.0))[0]) == pytest.approx(0.0, abs=1e-9)
    monkeypatch.setattr(quadrature, "ROOT_MAX_ITER", 1)
    with pytest.raises(QuadratureError,
                       match=r"^root on \[0\.004254927059633573, 1\.0\] did not converge in 1 "
                             r"steps$"):
        solve(*one_row(f, -1.0, 1.0))


def test_bracketed_root_names_the_unbracketed_row():
    g = by_row([lambda t: t - 0.5, lambda t: 1.0 + t * t])
    with pytest.raises(QuadratureError, match=r"^root not bracketed on \[-1\.0, 2\.5\]$"):
        solve(g, [0.0, -1.0], [1.0, 2.5], [-0.5, 2.0], [0.5, 7.25], 1e-12, stuck)


@pytest.mark.parametrize("start, end", [(0.2, 1.0), (-3.0, 5.5), (0.999, 1.0)])
def test_toward_end_halves_the_gap_to_a_finite_end(start, end):
    pts = list(islice(toward_end(start, end), 40))
    assert pts == [end - (end - start) * 2.0 ** -k for k in range(1, 41)]
    rest = list(toward_end(start, end))
    assert rest[:40] == pts
    assert all(a < b for a, b in zip(rest, rest[1:]))
    assert start < rest[0] and rest[-1] < end


@pytest.mark.parametrize("start, step", [(0.5, 1.0), (-2.0, 0.05), (1e17, 1.0)])
def test_toward_end_doubles_the_stride_to_an_infinite_end(start, step):
    want = [start + step * 2.0 ** k for k in range(80)]
    want = [t for i, t in enumerate(want) if t > max([start] + want[:i])]
    assert list(islice(toward_end(start, math.inf, step), len(want))) == want
    rest = list(toward_end(start, math.inf, step))
    assert all(a < b for a, b in zip(rest, rest[1:]))
    assert math.isfinite(rest[-1])


def test_toward_end_is_empty_without_room():
    assert list(toward_end(1.0, 1.0)) == []
    assert list(toward_end(1.0, math.nextafter(1.0, 2.0))) == []


def test_in_blocks_computes_no_block_past_the_stop():
    seen = []

    def f(block):
        seen.append(list(block))
        return [2.0 * x for x in block]

    march = in_blocks(f, range(100))
    assert [next(march) for _ in range(3)] == [(0, 0.0), (1, 2.0), (2, 4.0)]
    assert seen == [[0], [1], [2, 3]]
    assert next(march) == (3, 6.0)  # already computed with the third point
    assert seen == [[0], [1], [2, 3]]


def test_in_blocks_caps_its_blocks_at_eight_points():
    # one 75-point map call raised peak RSS by 3.1 MB
    sizes = []
    got = list(in_blocks(lambda block: sizes.append(len(block)) or block, range(30)))
    assert got == [(k, k) for k in range(30)]
    assert sizes == [1, 1, 2, 4, 8, 8, 6]


@pytest.mark.parametrize("cap, first, want", [(8, 8, [8, 8, 8, 6]), (1, 1, [1] * 30),
                                              (8, 2, [2, 2, 4, 8, 8, 6])])
def test_in_blocks_starts_with_its_first_block(cap, first, want):
    sizes = []
    got = list(in_blocks(lambda block: sizes.append(len(block)) or block, range(30), cap, first))
    assert got == [(k, k) for k in range(30)]
    assert sizes == want
