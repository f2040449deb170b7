"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own quadrature and
solvers: Simpson refinement for integrals, exhaustive partition
enumeration for chain lengths, a causal-lattice longest-path dynamic
program for the Lorentzian distance, and the time-mirrored profile built
term by term.
"""

import math
from itertools import combinations

import numpy as np

from lorlab import MetricProfile, Term


def simpson_integral(f, a, b, tol=1e-11, max_rounds=22, n0=32):
    """Composite Simpson with interval doubling until stable."""
    n = n0
    prev = None
    for _ in range(max_rounds):
        xs = np.linspace(a, b, n + 1)
        ys = np.asarray(f(xs), dtype=float)
        h = (b - a) / n
        total = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
        if prev is not None and abs(total - prev) < tol:
            return total
        prev = total
        n *= 2
    return prev


def enumerate_tau_length(tau, chain):
    """Infimum over all sub-partitions of the chain containing both ends."""
    interior = list(range(1, len(chain) - 1))
    best = math.inf
    for r in range(len(interior) + 1):
        for subset in combinations(interior, r):
            picks = [chain[0]] + [chain[i] for i in subset] + [chain[-1]]
            total = 0.0
            for i, j in zip(picks[:-1], picks[1:]):
                total += tau[i, j]
            best = min(best, total)
    return best


def lattice_distance(profile, p, q, nt=400, nx=400, width=None):
    """Longest causal path on a dense (t, x) lattice from p to q.

    Edges join consecutive time rows within the light cone; the edge weight
    is the midpoint-rule g-length of the straight segment.  The result is a
    lower bound for T(p, q) converging as the lattice refines.
    """
    t0, t1 = p.t, q.t
    if width is None:
        width = abs(q.x - p.x) + (t1 - t0)
    x_lo = min(p.x, q.x) - 0.5 * width
    x_hi = max(p.x, q.x) + 0.5 * width
    ts = np.linspace(t0, t1, nt + 1)
    xs = np.linspace(x_lo, x_hi, nx + 1)
    dt = ts[1] - ts[0]
    dx_grid = xs[1] - xs[0]

    # start column: p snapped to the lattice
    j_p = int(round((p.x - x_lo) / dx_grid))
    j_q = int(round((q.x - x_lo) / dx_grid))
    best = np.full(nx + 1, -np.inf)
    best[j_p] = 0.0

    for i in range(nt):
        tm = 0.5 * (ts[i] + ts[i + 1])
        a_m, b_m, _, _ = profile.eval_many(np.array([tm]))
        a_m, b_m = float(a_m[0]), float(b_m[0])
        cone = math.sqrt(a_m / b_m) * dt
        k_max = int(math.floor(cone / dx_grid))
        nxt = np.full(nx + 1, -np.inf)
        for k in range(-k_max, k_max + 1):
            dx = k * dx_grid
            rad = a_m - b_m * (dx / dt) ** 2
            if rad <= 0.0:
                continue
            wgt = math.sqrt(rad) * dt
            if k >= 0:
                shifted = np.concatenate([np.full(k, -np.inf), best[: nx + 1 - k]])
            else:
                shifted = np.concatenate([best[-k:], np.full(-k, -np.inf)])
            nxt = np.maximum(nxt, shifted + wgt)
        best = nxt
    return float(best[j_q])


def mp_coefficient(terms, u):
    """A coefficient of a profile at the mpmath number u."""
    import mpmath

    total = mpmath.mpf(0)
    for term in terms:
        if term.kind == "const":
            total += term.c
        elif term.kind == "linear":
            total += term.c * u
        elif term.kind == "power":
            total += term.c * abs(u - term.t0) ** term.p
        else:
            total += term.c * mpmath.exp(term.lam * u)
    return total


def mp_integral(f, lo, hi, breaks=(), dps=30):
    """int_lo^hi f in mpmath at dps digits, split at the breakpoints in
    between; mpmath is imported here, so a caller can skip when it is
    missing."""
    import mpmath

    mpmath.mp.dps = dps
    a, b = sorted((lo, hi))
    pts = [a] + [c for c in breaks if a < c < b] + [b]
    total = sum(mpmath.quad(f, [x, y]) for x, y in zip(pts, pts[1:]))
    return float(total if hi >= lo else -total)


def mp_cumulative(profile, kind, t):
    """int from the profile's anchor to t of sqrt(a) (kind 'flat') or
    sqrt(a / b) (kind 'cone'), by mp_integral."""
    import mpmath

    def f(u):
        a = mp_coefficient(profile.terms_a, u)
        return mpmath.sqrt(a if kind == "flat" else a / mp_coefficient(profile.terms_b, u))

    return mp_integral(f, profile.anchor_time(), t, profile.breakpoints)


def mp_shooting(profile, p, q, kappa0, dps=30):
    """T(p, q) by shooting in mpmath at dps digits: the kappa, found from
    kappa0 by the secant method, whose unit-speed geodesic from p reaches
    q.x at q.t, and that geodesic's g-length int sqrt(a b) / sqrt(kappa^2 +
    b) dt.  Each integral is split at the breakpoints in between; mpmath is
    imported here, so a caller can skip when it is missing."""
    import mpmath

    mpmath.mp.dps = dps
    pts = [p.t] + [c for c in profile.breakpoints if p.t < c < q.t] + [q.t]

    def integral(f):
        return sum(mpmath.quad(f, [x, y]) for x, y in zip(pts, pts[1:]))

    def coefficients(u):
        return mp_coefficient(profile.terms_a, u), mp_coefficient(profile.terms_b, u)

    def reach(k):
        def f(u):
            a, b = coefficients(u)
            return mpmath.sqrt(a / b) * k / mpmath.sqrt(k * k + b)
        return integral(f) - (mpmath.mpf(q.x) - mpmath.mpf(p.x))

    kappa = mpmath.findroot(reach, mpmath.mpf(kappa0))

    def length(u):
        a, b = coefficients(u)
        return mpmath.sqrt(a * b) / mpmath.sqrt(kappa * kappa + b)

    return float(integral(length))


def mp_exp_map_inverse(k, r, anchor, s, dps=40):
    """The t with int_anchor^t k exp(r u) du = s, for the float parameters of
    a closed-form map, in mpmath at dps digits and rounded to a float;
    mpmath is imported here, so a caller can skip when it is missing."""
    import mpmath

    with mpmath.workdps(dps):
        k, r, anchor, s = (mpmath.mpf(v) for v in (k, r, anchor, s))
        if r == 0:
            return float(anchor + s / k)
        return float(anchor + mpmath.log1p(r * s / (k * mpmath.exp(r * anchor))) / r)


def mirrored(profile):
    """The profile with a~(t) = a(-t) and b~(t) = b(-t), built from flipped
    terms: the domain and the floor window flip, a linear term's c, a power
    center and an exponential rate change sign."""

    def flip(term):
        if term.kind == "linear":
            return Term("linear", -term.c)
        if term.kind == "power":
            return Term("power", term.c, t0=-term.t0, p=term.p)
        if term.kind == "exp":
            return Term("exp", term.c, lam=-term.lam)
        return term

    window = profile.check_window
    return MetricProfile(
        profile.name + "~",
        tuple(map(flip, profile.terms_a)),
        tuple(map(flip, profile.terms_b)),
        t_min=-profile.t_max,
        t_max=-profile.t_min,
        alpha=profile.alpha,
        check_window=None if window is None else (-window[1], -window[0]),
    )
