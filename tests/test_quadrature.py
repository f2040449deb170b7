import math
from itertools import islice

import numpy as np
import pytest

from lorlab.causality import cone_time, flat_time
from lorlab.profiles import get_profile
from lorlab.quadrature import (
    MEMO_SIZE,
    AnchoredMap,
    ClosedFormMap,
    _panel_edges,
    _rule_nodes,
    bracketed_root,
    in_blocks,
    panel_integrals,
    toward_end,
)

from oracles import simpson_integral


def test_panel_integral_exponential():
    got = panel_integrals(np.exp, [0.0], [1.0])[0]
    assert got == pytest.approx(math.e - 1.0, abs=1e-12)


def test_panel_integral_orientation():
    got = panel_integrals(np.exp, [1.0], [0.0])[0]
    assert got == pytest.approx(-(math.e - 1.0), abs=1e-12)


def test_panel_integral_kink_at_endpoint():
    got = panel_integrals(lambda u: np.abs(u) ** 1.5, [0.0], [1.0], breaks=(0.0,))[0]
    assert got == pytest.approx(0.4, abs=1e-11)


def test_panel_integral_interior_kink():
    got = panel_integrals(lambda u: np.abs(u) ** 1.5, [-1.0], [1.0], breaks=(0.0,))[0]
    assert got == pytest.approx(0.8, abs=1e-11)


def test_panel_integral_against_simpson():
    f = lambda u: np.sqrt(1.0 + np.abs(u) ** 1.5)
    got = panel_integrals(f, [-0.5], [2.0], breaks=(0.0,))[0]
    want = simpson_integral(f, -0.5, 2.0)
    assert got == pytest.approx(want, abs=5e-11)


def test_panel_integral_exact_for_constants():
    one = lambda u: np.ones_like(u)
    assert panel_integrals(one, [0.25], [0.3])[0] == 0.3 - 0.25
    assert panel_integrals(one, [0.7], [0.1])[0] == -(0.7 - 0.1)
    assert panel_integrals(one, [-1.0], [2.0])[0] == 3.0


def test_panel_integrals_match_scalar_calls():
    f = lambda u: np.sqrt(1.0 + np.abs(u) ** 1.5)
    rng = np.random.default_rng(3)
    los = rng.uniform(-1.0, 1.0, 40)
    his = los + rng.uniform(-0.5, 0.5, 40)
    got = panel_integrals(f, los, his, breaks=(0.0,))
    want = [panel_integrals(f, [lo], [hi], breaks=(0.0,))[0] for lo, hi in zip(los, his)]
    assert got.tolist() == want


def test_panel_rule_weights_sum_to_length():
    xs, w = _rule_nodes(_panel_edges(0.0, 3.0, (1.0,)), 2)
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
    assert am._sides[1.0].knots[:5] == [0.0, 1.0, 2.0, 4.0, 8.0]
    # a value integrates only the cells before the knot it starts from
    fresh = AnchoredMap(np.exp, 0.0)
    assert fresh(0.5) == am(0.5)
    assert fresh._sides[1.0].cells == []
    f = lambda u: np.sqrt(1.0 + np.abs(u - 0.3) ** 1.5)
    make = lambda: AnchoredMap(f, 0.0, breaks=(0.3,))
    ts = np.random.default_rng(5).uniform(-9.0, 9.0, 32)
    ts[:3] = (0.3, 4.0, -2.0)  # a breakpoint and two knots
    assert make().many(ts).tolist() == [make()(t) for t in ts]


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


def test_anchored_map_memo_is_bounded():
    am = AnchoredMap(np.exp, 0.0)
    ts = np.linspace(-1.0, 1.0, MEMO_SIZE + 100)
    first = am.many(ts)
    assert len(am._memo) <= MEMO_SIZE
    assert am.many(ts).tolist() == first.tolist()


def by_row(fs):
    """A g for bracketed_root that applies fs[i] to row i."""
    return lambda x: np.array([f(v) for f, v in zip(fs, x.tolist())])


def one_row(f, lo, hi):
    """Arguments of bracketed_root for the single row f on [lo, hi]."""
    return by_row([f]), [lo], [hi], [f(lo)], [f(hi)]


def test_bracketed_root_monotone():
    root = bracketed_root(*one_row(lambda t: math.exp(t) - 1.5, 0.0, 2.0))
    assert root[0] == pytest.approx(math.log(1.5), abs=1e-12)


def test_bracketed_root_requires_sign_change():
    from lorlab.errors import QuadratureError

    with pytest.raises(QuadratureError):
        bracketed_root(*one_row(lambda t: 1.0 + t * t, -1.0, 1.0))


def test_bracketed_root_cubic():
    root = bracketed_root(*one_row(lambda t: t ** 3 - 2.0, 0.0, 4.0))
    assert root[0] == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)


ROOT_ROWS = [
    (lambda t: t - 1.0, 1.0, 3.0),                     # zero at the lower end
    (lambda t: t - 0.5, 0.0, 1.0),                     # false position lands on g == 0
    (lambda t: t ** 3 - 2.0 if t < 3.0 else math.inf, 0.0, 4.0),  # overflowed upper end
    (lambda t: math.exp(t) - 1.5, 0.0, 2.0),
    (lambda t: t ** 3 - 2.0, 0.0, 4.0),
    (lambda t: math.atan(50.0 * (t - 0.3)), -1.0, 1.0),  # steep: many iterations
]


def test_bracketed_root_rows_equal_their_batch_of_one():
    fs, lo, hi = zip(*ROOT_ROWS)
    calls = []

    def g(x):
        calls.append(len(x))
        return by_row(fs)(x)

    got = bracketed_root(g, lo, hi, [f(a) for f, a, _ in ROOT_ROWS],
                         [f(b) for f, _, b in ROOT_ROWS])
    assert set(calls) == {len(ROOT_ROWS)}  # every call evaluates every row
    evals = []
    for (f, a, b), root in zip(ROOT_ROWS, got.tolist()):
        g1, *ends = one_row(f, a, b)
        evals.append(0)

        def counted(x):
            evals[-1] += 1
            return g1(x)

        assert bracketed_root(counted, *ends).tolist() == [root]
        assert f(root) == pytest.approx(0.0, abs=1e-9)
    assert got[:2].tolist() == [1.0, 0.5]  # both exact
    assert len(set(evals)) > 2  # rows finish at different iterations


def test_bracketed_root_out_of_steps_raises(monkeypatch):
    from lorlab import quadrature
    from lorlab.errors import QuadratureError

    f = ROOT_ROWS[-1][0]  # steep: many iterations
    assert f(bracketed_root(*one_row(f, -1.0, 1.0))[0]) == pytest.approx(0.0, abs=1e-9)
    monkeypatch.setattr(quadrature, "ROOT_MAX_ITER", 1)
    with pytest.raises(QuadratureError,
                       match=r"^root on \[0\.004254927059383573, 1\.0\] did not converge in 1 "
                             r"steps$"):
        bracketed_root(*one_row(f, -1.0, 1.0))


def test_bracketed_root_names_the_unbracketed_row():
    from lorlab.errors import QuadratureError

    g = by_row([lambda t: t - 0.5, lambda t: 1.0 + t * t])
    with pytest.raises(QuadratureError, match=r"^root not bracketed on \[-1\.0, 2\.5\]$"):
        bracketed_root(g, [0.0, -1.0], [1.0, 2.5], [-0.5, 2.0], [0.5, 7.25])


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
