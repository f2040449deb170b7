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

import numpy as np

from .errors import DomainExceeded, InvalidProfile

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

    def value_and_deriv_many(self, t: np.ndarray):
        # scalar returns for t-independent parts keep allocations down; the
        # caller broadcasts the accumulated sums
        k = self.kind
        if k == "const":
            return self.c, 0.0
        if k == "linear":
            return self.c * t, self.c
        if k == "power":
            u = t - self.t0
            au = np.abs(u)
            val = self.c * au ** self.p
            der = self.c * self.p * au ** (self.p - 1.0) * np.sign(u)
            return val, der
        e = np.exp(self.lam * t)
        return self.c * e, self.c * self.lam * e

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
class ChristoffelTriple:
    """The three non-vanishing Christoffel symbols of the warped metric."""

    g000: float  # G^0_00 = a'/(2a)
    g011: float  # G^0_11 = b'/(2a)
    g101: float  # G^1_01 = G^1_10 = b'/(2b)


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
        a, b, _, _ = self.eval_many(grid)
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
            raise DomainExceeded(
                f"t={t!r} outside open domain ({self.t_min!r}, {self.t_max!r}) "
                f"of profile {self.name!r}"
            )

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

    def eval_many(self, t: np.ndarray) -> tuple[np.ndarray, ...]:
        """Vectorized (a, b, a', b'); every entry must lie inside the domain."""
        t = np.asarray(t, dtype=float)
        if t.size and not ((t > self.t_min).all() and (t < self.t_max).all()):
            raise DomainExceeded(
                f"grid leaves open domain ({self.t_min!r}, {self.t_max!r}) "
                f"of profile {self.name!r}"
            )
        a = da = 0.0
        for term in self.terms_a:
            v, d = term.value_and_deriv_many(t)
            a = a + v
            da = da + d
        b = db = 0.0
        for term in self.terms_b:
            v, d = term.value_and_deriv_many(t)
            b = b + v
            db = db + d
        # t-independent sums are still scalars here; fill them out to t's shape
        out = []
        for arr in (a, b, da, db):
            arr = np.asarray(arr, dtype=float)
            out.append(arr if arr.shape == t.shape else np.full(t.shape, arr))
        return tuple(out)

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

    def reflected(self) -> "MetricProfile":
        """Time-reflected profile with a~(t) = a(-t), b~(t) = b(-t)."""

        def flip(term: Term) -> Term:
            if term.kind == "const":
                return term
            if term.kind == "linear":
                return linear(-term.c)
            if term.kind == "power":
                return power(term.c, -term.t0, term.p)
            return exponential(term.c, -term.lam)

        window = None
        if self.check_window is not None:
            window = (-self.check_window[1], -self.check_window[0])
        return MetricProfile(
            name=self.name + "~",
            terms_a=tuple(flip(t) for t in self.terms_a),
            terms_b=tuple(flip(t) for t in self.terms_b),
            t_min=-self.t_max,
            t_max=-self.t_min,
            alpha=self.alpha,
            check_window=window,
        )


# -- operations -------------------------------------------------------------


def eval_profile(profile: MetricProfile, t: float) -> tuple[float, float, float, float]:
    """Evaluate (a, b, a', b') with exact term-wise derivatives."""
    return profile.eval(t)


def christoffel(profile: MetricProfile, t: float) -> ChristoffelTriple:
    """G^0_00 = a'/(2a), G^0_11 = b'/(2a), G^1_01 = b'/(2b)."""
    a, b, da, db = profile.eval(t)
    return ChristoffelTriple(da / (2.0 * a), db / (2.0 * a), db / (2.0 * b))


def classify_vector(
    profile: MetricProfile,
    p: SpacetimePoint,
    v: TangentVector,
    eps_null: float = EPS_NULL,
) -> CausalCharacter:
    """Causal class of v at p by the sign of g(v, v) = -a tau0^2 + b xi0^2.

    A band |g(v, v)| <= eps_null counts as null; the exact zero vector is
    its own class.
    """
    a, b, _, _ = profile.eval(p.t)
    if v.tau0 == 0.0 and v.xi0 == 0.0:
        return CausalCharacter("zero", 0.0)
    q = -a * v.tau0 * v.tau0 + b * v.xi0 * v.xi0
    if abs(q) <= eps_null:
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
