"""Warped-product metric profiles g = -a(t) dt^2 + b(t) dx^2.

The coefficients a and b are finite sums of four analytic term kinds
(constant, linear, shifted power |t - t0|^p with p > 1, exponential), so
every derivative is evaluated exactly and a, b stay C^1 even at power
centers.  A profile carries its open time domain and a declared positivity
floor alpha, which is verified on a dense grid at construction rather than
inferred.

The non-trivial Christoffel symbols of this metric family are

    G^0_00 = a'/(2a),   G^0_11 = b'/(2a),   G^1_01 = G^1_10 = b'/(2b),

and the causal character of a tangent vector (tau0, xi0) at time t is the
sign of g(v, v) = -a(t) tau0^2 + b(t) xi0^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainExceeded, InvalidProfile, StepTooLarge

EPS_NULL = 1e-12        # half-width of the null classification band
GRID_POINTS = 10_000    # positivity-floor verification grid
DEFAULT_WINDOW = 20.0   # floor-check window half-width on unbounded domains

_TERM_KINDS = ("const", "linear", "power", "exp")


@dataclass(frozen=True)
class Term:
    """One additive term of a coefficient function.

    kind "const":  c
    kind "linear": c * t
    kind "power":  c * |t - t0|^p   (requires p > 1 so the sum stays C^1)
    kind "exp":    c * exp(lam * t)
    """

    kind: str
    c: float
    t0: float = 0.0
    p: float = 0.0
    lam: float = 0.0

    def value_and_deriv(self, t: float) -> tuple[float, float]:
        k = self.kind
        if k == "const":
            return self.c, 0.0
        if k == "linear":
            return self.c * t, self.c
        if k == "power":
            u = t - self.t0
            au = abs(u)
            if au == 0.0:
                return 0.0, 0.0
            val = self.c * au ** self.p
            der = self.c * self.p * au ** (self.p - 1.0)
            return val, der if u > 0.0 else -der
        e = math.exp(self.lam * t)
        return self.c * e, self.c * self.lam * e

    # the batch forms return scalars for t-independent parts, which keeps
    # allocations down; _sum_many broadcasts the accumulated sums

    def value_many(self, t: np.ndarray):
        k = self.kind
        if k == "const":
            return self.c
        if k == "linear":
            return self.c * t
        if k == "power":
            return self.c * np.abs(t - self.t0) ** self.p
        return self.c * np.exp(self.lam * t)

    def deriv_many(self, t: np.ndarray):
        k = self.kind
        if k == "const":
            return 0.0
        if k == "linear":
            return self.c
        if k == "power":
            u = t - self.t0
            return self.c * self.p * np.abs(u) ** (self.p - 1.0) * np.sign(u)
        return self.c * self.lam * np.exp(self.lam * t)

    def is_smooth(self) -> bool:
        """True when the term is analytic everywhere (no kink at t0)."""
        if self.kind != "power":
            return True
        return self.p == round(self.p) and round(self.p) % 2 == 0


def constant_value(terms) -> float | None:
    """Value of a coefficient whose terms are all constant, else None.

    The terms are summed in order, as MetricProfile.eval sums them.
    """
    total = 0.0
    for term in terms:
        if term.kind != "const":
            return None
        total += term.c
    return total


def _sum_many(terms, part, t: np.ndarray) -> np.ndarray:
    """Sum of part(term, t) over the terms, in order from 0.0, filled out to
    t's shape where every part is t-independent."""
    total = 0.0
    for term in terms:
        total = total + part(term, t)
    total = np.asarray(total, dtype=float)
    return total if total.shape == t.shape else np.full(t.shape, total)


def _outside(t, t_min, t_max, name) -> DomainExceeded:
    return DomainExceeded(
        f"t={t!r} outside open domain ({t_min!r}, {t_max!r}) of profile {name!r}"
    )


def _coefficient_source(name: str, terms, env: dict, t: str) -> list[str]:
    """Lines setting name and d<name> to a coefficient and its derivative at
    the time named t.

    Each term is Term.value_and_deriv written out for its kind and the terms
    are summed in order from 0.0, so the result is MetricProfile.eval's bit
    for bit; products of two constants are taken once, in the same order.
    The constants enter through env.  An all-constant coefficient is its sum.
    """
    total = constant_value(terms)
    if total is not None:
        env[name + "_sum"] = total
        return [f"{name} = {name}_sum", f"d{name} = 0.0"]
    lines = [f"{name} = d{name} = 0.0"]
    for i, term in enumerate(terms):
        k = f"{name}{i}_"
        env[k + "c"] = term.c
        if term.kind == "const":
            lines.append(f"{name} += {k}c; d{name} += 0.0")
        elif term.kind == "linear":
            lines.append(f"{name} += {k}c * {t}; d{name} += {k}c")
        elif term.kind == "power":
            env.update({k + "t0": term.t0, k + "p": term.p,
                        k + "cp": term.c * term.p, k + "pm1": term.p - 1.0})
            lines += [
                f"u = {t} - {k}t0",
                "au = abs(u)",
                "if au == 0.0:",
                f"    {name} += 0.0; d{name} += 0.0",
                "else:",
                f"    {name} += {k}c * au ** {k}p",
                f"    d = {k}cp * au ** {k}pm1",
                f"    d{name} += d if u > 0.0 else -d",
            ]
        else:
            env.update({k + "lam": term.lam, k + "cl": term.c * term.lam})
            lines += [f"e = exp({k}lam * {t})", f"{name} += {k}c * e; d{name} += {k}cl * e"]
    return lines


@lru_cache(maxsize=32)
def _compiled(src: str):
    """The code object of generated source.  Profiles with the same term
    kinds generate the same source and share it; each binds its own
    constants when the code runs."""
    return compile(src, "<generated geodesic kernels>", "exec")


def _geodesic_kernels(profile: "MetricProfile"):
    """(geodesic_rhs, rk4_run, rk4_step) of the profile, from generated source.

    geodesic_rhs(t, td, xd) -> (d2t/ds2, d2x/ds2, a, b) is the evaluator
    MetricProfile.geodesic_rhs documents.  rk4_step(t, x, td, xd, h) is one
    classical RK4 step of h: its four stages unrolled on plain floats, each
    with the evaluator's code inlined, in the arithmetic of four ode_rhs
    stages, operation for operation.  A stage or an end that leaves the
    domain raises DomainExceeded.  rk4_run is the fixed-step loop of
    geodesics.integrate_geodesic:

        rk4_run(extend, s, t, x, td, xd, s_max, end, step,
                kappa0, eps0, hard_limit, worst) -> (worst, left)

    From the state (t, x, td, xd) at s it evaluates the state, checks its
    conserved-quantity drift (StepTooLarge past hard_limit * (1 + s)), and,
    while s < end, steps by min(step, s_max - s) and passes each new row
    (s, t, x, td, xd) to extend; that evaluation is the next step's first
    stage, so a step costs four.  worst is the largest drift seen.  left is
    None, or (s, t, x, td, xd) where a step left the domain.  Only the
    constants of the profile differ between profiles of the same term kinds,
    and they enter through the exec environment; a constant a or b also fixes
    its factors 2a, -a'/(2a) and -2 b'/(2b), which are then taken once, in
    the same order as at run time.
    """
    # the functions hold no reference to the profile, which caches them
    env = {"exp": math.exp, "outside": _outside, "StepTooLarge": StepTooLarge,
           "t_min": profile.t_min, "t_max": profile.t_max, "name": profile.name}
    a_sum, b_sum = constant_value(profile.terms_a), constant_value(profile.terms_b)
    if a_sum is not None:
        env["a2"] = 2.0 * a_sum
        env["ng000"] = -(0.0 / env["a2"])
        acc_t = "ng000 * {td} * {td} - db / a2 * {xd} * {xd}"
    else:
        acc_t = "-(da / (2.0 * a)) * {td} * {td} - db / (2.0 * a) * {xd} * {xd}"
    if b_sum is not None:
        env["m101"] = -2.0 * (0.0 / (2.0 * b_sum))
        acc_x = "m101 * {td} * {xd}"
    else:
        acc_x = "-2.0 * (db / (2.0 * b)) * {td} * {xd}"

    def evaluate(t, td, xd, k):
        """a, b and the accelerations at{k}, ax{k} at (t, td, xd)."""
        return [
            *_coefficient_source("a", profile.terms_a, env, t),
            *_coefficient_source("b", profile.terms_b, env, t),
            f"at{k} = {acc_t.format(td=td, xd=xd)}",
            f"ax{k} = {acc_x.format(td=td, xd=xd)}",
        ]

    def inside(t, leave):
        return [f"if not t_min < {t} < t_max:", "    " + leave.format(t=t)]

    def stages(leave):
        """Stages 2-4 from (t, x, td, xd) with k1 = (at1, ax1), and the new t
        as tn; leave runs where a stage time or tn, as {t}, is outside the
        domain."""
        return [
            "hh = 0.5 * h",
            "td2 = td + hh * at1", "xd2 = xd + hh * ax1",
            "tc = t + hh * td", *inside("tc", leave), *evaluate("tc", "td2", "xd2", 2),
            "td3 = td + hh * at2", "xd3 = xd + hh * ax2",
            "tc = t + hh * td2", *inside("tc", leave), *evaluate("tc", "td3", "xd3", 3),
            "td4 = td + h * at3", "xd4 = xd + h * ax3",
            "tc = t + h * td3", *inside("tc", leave), *evaluate("tc", "td4", "xd4", 4),
            "h6 = h / 6.0",
            "tn = t + h6 * (td + 2.0 * td2 + 2.0 * td3 + td4)", *inside("tn", leave),
        ]

    update = ("tn, x + h6 * (xd + 2.0 * xd2 + 2.0 * xd3 + xd4), "
              "td + h6 * (at1 + 2.0 * at2 + 2.0 * at3 + at4), "
              "xd + h6 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)")
    leave = "raise outside({t}, t_min, t_max, name)"
    rhs = ["def geodesic_rhs(t, td, xd):",
           *inside("t", leave),
           *evaluate("t", "td", "xd", ""),
           "return at, ax, a, b"]
    step = ["def rk4_step(t, x, td, xd, h):",
            *evaluate("t", "td", "xd", 1),
            *stages(leave),
            f"return {update}"]
    run = ["def rk4_run(extend, s, t, x, td, xd, s_max, end, step,",
           "        kappa0, eps0, hard_limit, worst):",
           "while True:",
           *("    " + line for line in [
               *evaluate("t", "td", "xd", 1),
               "dk = abs(b * xd - kappa0)",
               "de = abs(-a * td * td + b * xd * xd - eps0)",
               "budget = hard_limit * (1.0 + s)",
               "if dk > budget or de > budget:",
               '    raise StepTooLarge(f"conserved-quantity drift exceeded {budget!r} '
               'at s={s!r}; reduce the step")',
               "if dk > worst:",
               "    worst = dk",
               "if de > worst:",
               "    worst = de",
               "if not s < end:",
               "    return worst, None",
               "h = s_max - s",
               "if not h < step:",
               "    h = step",
               *stages("return worst, (s, t, x, td, xd)"),
               f"t, x, td, xd = {update}",
               "s += h",
               "extend((s, t, x, td, xd))",
           ])]
    src = "\n".join("\n    ".join(fn) for fn in (rhs, step, run)) + "\n"
    exec(_compiled(src), env)
    return env["geodesic_rhs"], env["rk4_run"], env["rk4_step"]


def const(c: float) -> Term:
    return Term("const", float(c))


def linear(c: float) -> Term:
    return Term("linear", float(c))


def power(c: float, t0: float, p: float) -> Term:
    return Term("power", float(c), t0=float(t0), p=float(p))


def exponential(c: float, lam: float) -> Term:
    return Term("exp", float(c), lam=float(lam))


@dataclass(frozen=True)
class SpacetimePoint:
    """A point (t, x) in the global chart."""

    t: float
    x: float


@dataclass(frozen=True)
class TangentVector:
    """Initial velocity (dt/ds, dx/ds) with respect to an affine parameter."""

    tau0: float
    xi0: float


@dataclass(frozen=True)
class CausalCharacter:
    """Causal class of a tangent vector together with its squared norm."""

    kind: str       # "timelike" | "null" | "spacelike" | "zero"
    norm_sq: float

    @property
    def is_causal(self) -> bool:
        return self.kind in ("timelike", "null")


@dataclass(frozen=True)
class MetricProfile:
    """Coefficient pair (a, b), open time domain, and declared floor alpha.

    The floor is a hypothesis stated by the profile author; construction
    verifies it on a dense grid over ``check_window`` (the domain clipped
    to +-DEFAULT_WINDOW when unbounded) and rejects the profile otherwise.
    """

    name: str
    terms_a: tuple[Term, ...]
    terms_b: tuple[Term, ...]
    t_min: float = -math.inf
    t_max: float = math.inf
    alpha: float = 1.0
    check_window: tuple[float, float] | None = None
    _maps: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "terms_a", tuple(self.terms_a))
        object.__setattr__(self, "terms_b", tuple(self.terms_b))
        if not self.terms_a or not self.terms_b:
            raise InvalidProfile(f"{self.name}: empty term list")
        for term in self.terms_a + self.terms_b:
            if term.kind not in _TERM_KINDS:
                raise InvalidProfile(f"{self.name}: unknown term kind {term.kind!r}")
            if term.kind == "power" and not term.p > 1.0:
                raise InvalidProfile(
                    f"{self.name}: power term exponent {term.p} must exceed 1"
                )
        if not self.t_min < self.t_max:
            raise InvalidProfile(f"{self.name}: empty domain")
        if not self.alpha > 0.0:
            raise InvalidProfile(f"{self.name}: positivity floor must be positive")
        self._verify_floor()

    def _verify_floor(self):
        lo, hi = self.check_window or (
            max(self.t_min, -DEFAULT_WINDOW),
            min(self.t_max, DEFAULT_WINDOW),
        )
        lo = max(lo, self.t_min)
        hi = min(hi, self.t_max)
        if not lo < hi:
            raise InvalidProfile(f"{self.name}: empty floor-check window")
        inset = 1e-9 * (hi - lo)
        grid = np.linspace(lo + inset, hi - inset, GRID_POINTS)
        a, b = self.coefficients_many(grid)
        if a.min() < self.alpha or b.min() < self.alpha:
            worst = float(min(a.min(), b.min()))
            raise InvalidProfile(
                f"{self.name}: declared floor alpha={self.alpha} violated on grid "
                f"(min coefficient {worst})"
            )

    # -- domain -----------------------------------------------------------

    def contains(self, t: float) -> bool:
        return self.t_min < t < self.t_max

    def require_inside(self, t: float):
        if not self.contains(t):
            raise _outside(t, self.t_min, self.t_max, self.name)

    def anchor_time(self) -> float:
        """Reference time for cumulative integrals (0 when the domain allows)."""
        if self.contains(0.0):
            return 0.0
        if math.isfinite(self.t_min) and math.isfinite(self.t_max):
            return 0.5 * (self.t_min + self.t_max)
        if math.isfinite(self.t_min):
            return self.t_min + 1.0
        return self.t_max - 1.0

    # -- evaluation --------------------------------------------------------

    def eval(self, t: float) -> tuple[float, float, float, float]:
        """(a, b, a', b') at a single time, domain-checked."""
        self.require_inside(t)
        a = da = 0.0
        for term in self.terms_a:
            v, d = term.value_and_deriv(t)
            a += v
            da += d
        b = db = 0.0
        for term in self.terms_b:
            v, d = term.value_and_deriv(t)
            b += v
            db += d
        return a, b, da, db

    @cached_property
    def _kernels(self):
        """(geodesic_rhs, rk4_run, rk4_step), generated for this profile's
        term kinds (_geodesic_kernels)."""
        return _geodesic_kernels(self)

    @property
    def geodesic_rhs(self):
        """Scalar evaluator (t, dt/ds, dx/ds) -> (d2t/ds2, d2x/ds2, a, b).

        The accelerations are those of geodesics.ode_rhs at the state, and
        every value is bitwise that of eval followed by ode_rhs, with the same
        domain check.  It is generated, with the RK4 step and loop that inline
        its code, on first use for this profile's term kinds; an all-constant
        coefficient is its sum.
        """
        return self._kernels[0]

    def coefficients_many(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (a, b); every entry must lie inside the domain (a NaN
        does not).  The terms are summed in order, so a and b are those of
        eval_many bit for bit; integrands call this, as they need no
        derivatives."""
        t = np.asarray(t, dtype=float)
        if t.size and not ((t > self.t_min).all() and (t < self.t_max).all()):
            raise DomainExceeded(
                f"grid leaves open domain ({self.t_min!r}, {self.t_max!r}) "
                f"of profile {self.name!r}"
            )
        return (_sum_many(self.terms_a, Term.value_many, t),
                _sum_many(self.terms_b, Term.value_many, t))

    def eval_many(self, t: np.ndarray) -> tuple[np.ndarray, ...]:
        """Vectorized (a, b, a', b'): coefficients_many, then the derivative
        sums in the same term order."""
        a, b = self.coefficients_many(t)
        t = np.asarray(t, dtype=float)
        return (a, b, _sum_many(self.terms_a, Term.deriv_many, t),
                _sum_many(self.terms_b, Term.deriv_many, t))

    # -- structure ---------------------------------------------------------

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Power-term centers where some derivative of a or b has a kink."""
        pts = sorted(
            {term.t0 for term in self.terms_a + self.terms_b if not term.is_smooth()}
        )
        return tuple(pts)

    @property
    def has_unit_b(self) -> bool:
        """True when b is structurally the constant function 1."""
        return constant_value(self.terms_b) == 1.0


# -- operations -------------------------------------------------------------


def check_eps_null(eps_null: float) -> None:
    """Raise ValueError unless eps_null, a null band half-width, is finite and
    non-negative.  Every null test compares a value with the band, so a NaN
    band would put every vector and pair outside it (a timelike pair would
    read 'unrelated'), and an infinite one inside it."""
    if not 0.0 <= eps_null < math.inf:
        raise ValueError(f"eps_null must be finite and non-negative, got {eps_null!r}")


def classify_vector(
    profile: MetricProfile, p: SpacetimePoint, v: TangentVector
) -> CausalCharacter:
    """Causal class of v at p by the sign of g(v, v) = -a tau0^2 + b xi0^2.

    The band |g(v, v)| <= EPS_NULL counts as null; the exact zero vector is
    its own class.
    """
    a, b, _, _ = profile.eval(p.t)
    if v.tau0 == 0.0 and v.xi0 == 0.0:
        return CausalCharacter("zero", 0.0)
    q = -a * v.tau0 * v.tau0 + b * v.xi0 * v.xi0
    if abs(q) <= EPS_NULL:
        return CausalCharacter("null", q)
    return CausalCharacter("timelike" if q < 0.0 else "spacelike", q)


# -- built-in catalog ---------------------------------------------------------

_BUILTIN_FACTORIES = {
    "minkowski": lambda: MetricProfile("minkowski", (const(1.0),), (const(1.0),)),
    "strip01": lambda: MetricProfile(
        "strip01", (const(1.0),), (const(1.0),), t_min=0.0, t_max=1.0
    ),
    "exp2t": lambda: MetricProfile(
        "exp2t",
        (exponential(1.0, 2.0),),
        (const(1.0),),
        alpha=1e-18,
        check_window=(-DEFAULT_WINDOW, DEFAULT_WINDOW),
    ),
    "c1power": lambda: MetricProfile(
        "c1power", (const(1.0), power(1.0, 0.0, 1.5)), (const(1.0),)
    ),
    "warpb": lambda: MetricProfile(
        "warpb", (const(1.0),), (const(1.0), power(1.0, 0.0, 2.0))
    ),
}

CATALOG_NAMES = tuple(_BUILTIN_FACTORIES)

_catalog_cache: dict[str, MetricProfile] = {}


def get_profile(name: str) -> MetricProfile:
    """Shared instance of a built-in profile (cumulative caches stay warm)."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise InvalidProfile(
            f"unknown profile {name!r}; built-ins: {', '.join(CATALOG_NAMES)}"
        ) from None
    if name not in _catalog_cache:
        _catalog_cache[name] = factory()
    return _catalog_cache[name]


# -- plain-text profile records ----------------------------------------------
#
# One record per profile; one key per line, term lists nested by indentation:
#
#   name: strip01
#   domain: 0 1
#   alpha: 1.0
#   terms_a:
#     const 1.0
#   terms_b:
#     const 1.0


def _format_term(term: Term) -> str:
    if term.kind == "const":
        return f"const {term.c!r}"
    if term.kind == "linear":
        return f"linear {term.c!r}"
    if term.kind == "power":
        return f"power {term.c!r} {term.t0!r} {term.p!r}"
    return f"exp {term.c!r} {term.lam!r}"


def _parse_term(line: str) -> Term:
    parts = line.split()
    kind, args = parts[0], [float(s) for s in parts[1:]]
    if kind == "const" and len(args) == 1:
        return const(args[0])
    if kind == "linear" and len(args) == 1:
        return linear(args[0])
    if kind == "power" and len(args) == 3:
        return power(args[0], args[1], args[2])
    if kind == "exp" and len(args) == 2:
        return exponential(args[0], args[1])
    raise InvalidProfile(f"malformed term line: {line!r}")


def format_profile(profile: MetricProfile) -> str:
    lines = [
        f"name: {profile.name}",
        f"domain: {profile.t_min!r} {profile.t_max!r}",
        f"alpha: {profile.alpha!r}",
    ]
    if profile.check_window is not None:
        lines.append(f"window: {profile.check_window[0]!r} {profile.check_window[1]!r}")
    lines.append("terms_a:")
    lines.extend(f"  {_format_term(t)}" for t in profile.terms_a)
    lines.append("terms_b:")
    lines.extend(f"  {_format_term(t)}" for t in profile.terms_b)
    return "\n".join(lines) + "\n"


def parse_profiles(text: str) -> dict[str, MetricProfile]:
    """Parse one or more profile records from plain structured text."""
    records: list[dict] = []
    current: dict | None = None
    term_key: str | None = None
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indented = raw[0] in " \t"
        line = raw.strip()
        if indented:
            if current is None or term_key is None:
                raise InvalidProfile(f"stray indented line: {raw!r}")
            current[term_key].append(_parse_term(line))
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise InvalidProfile(f"expected 'key: value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key == "name":
            current = {"name": value, "terms_a": [], "terms_b": []}
            records.append(current)
            term_key = None
            continue
        if current is None:
            raise InvalidProfile("profile record must start with a 'name:' line")
        if key in ("terms_a", "terms_b"):
            term_key = key
        elif key == "domain":
            lo, hi = (float(s) for s in value.split())
            current["t_min"], current["t_max"] = lo, hi
            term_key = None
        elif key == "alpha":
            current["alpha"] = float(value)
            term_key = None
        elif key == "window":
            lo, hi = (float(s) for s in value.split())
            current["check_window"] = (lo, hi)
            term_key = None
        else:
            raise InvalidProfile(f"unknown profile key {key!r}")
    out = {}
    for rec in records:
        prof = MetricProfile(**rec)
        out[prof.name] = prof
    return out


def load_profiles(path) -> dict[str, MetricProfile]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profiles(fh.read())
