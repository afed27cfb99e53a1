"""Fixed-precision p-adic integers, polynomial flows, and the projective line.

Arithmetic is exact modulo p^K, so ultrametric inequalities can be tested
with zero tolerance: a valuation is either known exactly (below K) or the
value is flagged as below working precision.  The spherical metric on the
projective line extends the p-adic norm; a rational map is 1-Lipschitz for
it when it has good reduction, which ``rational_flow`` decides exactly from
the resultant of its forms mod p.

A ring (p prime, K >= 1) is validated once, when a value is built from
outside input (``PadicInt(...)``, ``from_int``, ``from_digits``).  Arithmetic
on values of that ring, polynomial evaluation and the rational-map step work
on the plain int residues and reduce mod p^K; they build one value per
result and only check that their operands share a ring.  A flow's
``block`` builds no value per point: it walks the plain int map with
``flows.walk_block`` and returns a ``ResidueBlock`` of residue arrays.
Its ``reduce`` steps the same orbit mod p^level, which has at most
p^level states, for an observable that reads no more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .flows import Flow, cycle_walk, parse_pair, walk_block

DEFAULT_PRECISION = 32


def _valuation(n: int, p: int, precision: int) -> int:
    """Index of the first nonzero base-p digit of ``n``; ``precision`` when n == 0."""
    if n == 0:
        return precision
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class PadicNorm:
    """|x|_p as an exact power of p, or the below-precision marker for 0 mod p^K."""

    p: int
    valuation: int
    below_precision: bool

    @property
    def value(self) -> float:
        return float(self.p) ** (-self.valuation)

    def as_fraction(self) -> Fraction:
        return Fraction(1, self.p**self.valuation)

    def __str__(self) -> str:
        if self.below_precision:
            return f"below precision (<= {self.p}^-{self.valuation})"
        return f"{self.p}^-{self.valuation}"


@dataclass(frozen=True)
class PadicInt:
    """A p-adic integer known exactly modulo p^precision."""

    p: int
    precision: int
    residue: int  # canonical representative in [0, p^precision)

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.p**self.precision)

    @classmethod
    def from_int(cls, n: int, p: int, precision: int = DEFAULT_PRECISION) -> "PadicInt":
        return cls(p, precision, n)

    @classmethod
    def from_digits(cls, digits, p: int) -> "PadicInt":
        """Least-significant-first base-p digits."""
        digits = [int(d) for d in digits]
        if not digits:
            raise ValueError("need at least one digit")
        if any(not 0 <= d < p for d in digits):
            raise ValueError("digits must lie in [0, p)")
        value = 0
        for d in reversed(digits):
            value = value * p + d
        return cls(p, len(digits), value)

    @property
    def digits(self) -> tuple[int, ...]:
        """Base-p digits, least significant first, exactly ``precision`` of them."""
        out = []
        n = self.residue
        for _ in range(self.precision):
            n, r = divmod(n, self.p)
            out.append(r)
        return tuple(out)

    def _like(self, residue: int) -> "PadicInt":
        """``residue`` reduced into this ring, which passed its checks when built."""
        out = object.__new__(PadicInt)
        # frozen, so fill the fields the way __init__ would, minus __post_init__
        out.__dict__.update(
            p=self.p, precision=self.precision, residue=residue % self.p**self.precision
        )
        return out

    def _check_compatible(self, other: "PadicInt") -> None:
        if self.p != other.p or self.precision != other.precision:
            raise ValueError("mixed p-adic rings")

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return self._like(self.residue + other.residue)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return self._like(self.residue - other.residue)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        return self._like(self.residue * other.residue)

    def __neg__(self) -> "PadicInt":
        return self._like(-self.residue)

    def valuation(self) -> int:
        """Index of the first nonzero digit; ``precision`` when 0 mod p^K."""
        return _valuation(self.residue, self.p, self.precision)

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def unit_inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise ZeroDivisionError("not a unit in Z_p")
        return self._like(pow(self.residue, -1, self.p**self.precision))

    def shift_down(self, k: int) -> "PadicInt":
        """Exact division by p^k (requires valuation >= k)."""
        if self.residue % self.p**k != 0:
            raise ValueError("value not divisible by p^k")
        return self._like(self.residue // self.p**k)

    def norm(self) -> PadicNorm:
        """|x|_p = p^(-v) with v the index of the first nonzero digit."""
        v = self.valuation()
        return PadicNorm(self.p, v, below_precision=v >= self.precision)

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.p}^{self.precision})"


def padic_dist(x: PadicInt, y: PadicInt) -> float:
    return (x - y).norm().value


@dataclass(frozen=True, eq=False)
class ResidueBlock:
    """Orbit points of one ring, stacked as residue arrays (``Flow.block``).

    ``x`` holds the residues of points of Z_p, or the first coordinates of
    points [x : y] of the projective line, whose second coordinates are in
    ``y``.  The arrays are int64 when p^precision fits, Python ints otherwise.
    """

    p: int
    precision: int
    x: np.ndarray
    y: np.ndarray | None = None

    def __iter__(self):
        """The points in turn: ``PadicInt``s, or ``ProjPoint``s when ``y`` is set."""
        like = PadicInt(self.p, self.precision, 0)._like
        if self.y is None:
            return map(like, self.x.tolist())
        return map(lambda x, y: ProjPoint(like(x), like(y)), self.x.tolist(), self.y.tolist())


def _residue_dtype(modulus: int):
    return np.int64 if modulus <= 2**62 else object


# ----------------------------------------------------------------------
# polynomials and flows on Z_p

@dataclass(frozen=True)
class PadicPoly:
    """Polynomial with Z_p coefficients, evaluated exactly mod p^precision."""

    coefficients: tuple[PadicInt, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("need at least one coefficient")
        p = self.coefficients[0].p
        prec = self.coefficients[0].precision
        for c in self.coefficients:
            if c.p != p or c.precision != prec:
                raise ValueError("mixed p-adic rings in coefficients")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        # coefficient residues from the top degree down, for _horner
        object.__setattr__(self, "_top_down", [c.residue for c in reversed(self.coefficients)])

    @classmethod
    def from_ints(cls, coeffs, p: int, precision: int = DEFAULT_PRECISION) -> "PadicPoly":
        return cls(tuple(PadicInt.from_int(int(c), p, precision) for c in coeffs))

    @property
    def p(self) -> int:
        return self.coefficients[0].p

    @property
    def precision(self) -> int:
        return self.coefficients[0].precision

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: PadicInt) -> PadicInt:
        self.coefficients[0]._check_compatible(x)
        return x._like(_horner(self._top_down, x.residue, x.p**x.precision))

    def __str__(self) -> str:
        return " + ".join(
            f"{c.residue}*x^{k}" for k, c in enumerate(self.coefficients) if c.residue
        ) or "0"


def _horner(top_down: list[int], r: int, modulus: int) -> int:
    """P(r) mod ``modulus`` from P's coefficient residues, top degree first."""
    acc = 0
    for c in top_down:
        acc = acc * r + c
    return acc % modulus


def random_padic_int(rng: np.random.Generator, p: int, precision: int) -> PadicInt:
    digits = rng.integers(0, p, size=precision)
    return PadicInt.from_digits([int(d) for d in digits], p)


def poly_flow(poly: PadicPoly) -> Flow:
    """The flow x -> P(x) on Z_p with metric |x - y|_p; ``step`` is ``poly``.

    Integral polynomials are automatically 1-Lipschitz for the p-adic
    metric, hence equicontinuous.  A start point is a decimal integer or
    base-p digits, least significant first ("1,0,1" is 5 for p = 2).
    """
    p, precision = poly.p, poly.precision
    modulus = p**precision
    ring = poly.coefficients[0]
    top_down, dtype = poly._top_down, _residue_dtype(modulus)

    def block(x: PadicInt, n_steps: int):
        ring._check_compatible(x)
        residues = walk_block(lambda r: _horner(top_down, r, modulus), x.residue, n_steps, dtype)
        last = int(residues[-1]) if n_steps else x.residue
        return ResidueBlock(p, precision, residues), x._like(last)

    def reduce(x: PadicInt, level: int):
        ring._check_compatible(x)
        if level >= precision:
            return flow, x
        low = PadicPoly.from_ints([c.residue for c in poly.coefficients], p, level)
        return poly_flow(low), PadicInt(p, level, x.residue)

    def sample(rng):
        return random_padic_int(rng, p, precision)

    def parse(raw: str) -> PadicInt:
        if "," in raw:
            digits = [int(part) for part in raw.split(",")]
            if len(digits) > precision:
                raise ValueError(
                    f"start has {len(digits)} digits but the flow's precision "
                    f"is {precision}"
                )
            return PadicInt.from_digits(digits + [0] * (precision - len(digits)), p)
        return PadicInt.from_int(int(raw), p, precision)

    flow = Flow(
        name=f"padic_poly(p={p}, {poly})",
        step=poly,
        dist=padic_dist,
        sample=sample,
        parse=parse,
        block=block,
        reduce=reduce,
    )
    return flow


def adding_machine(p: int, precision: int = DEFAULT_PRECISION) -> Flow:
    """x -> x + 1 on Z_p: a minimal isometry (the odometer).

    ``block`` is the closed form (x + k) mod p^precision.
    """
    poly = PadicPoly.from_ints([1, 1], p, precision)
    modulus = p**precision
    dtype = _residue_dtype(modulus)

    def block(x: PadicInt, n_steps: int):
        poly.coefficients[0]._check_compatible(x)
        residues = (np.arange(1, n_steps + 1).astype(dtype) + x.residue) % modulus
        return ResidueBlock(p, precision, residues), x._like(x.residue + n_steps)

    # poly_flow's reduce would step by Horner; the closed form needs no reduction
    return replace(poly_flow(poly), name=f"adding_machine(p={p})", block=block, reduce=None)


# ----------------------------------------------------------------------
# projective line

@dataclass(frozen=True)
class ProjPoint:
    """[x : y] on the projective line, normalized so max(|x|_p, |y|_p) = 1."""

    x: PadicInt
    y: PadicInt

    def __post_init__(self) -> None:
        self.x._check_compatible(self.y)
        if min(self.x.valuation(), self.y.valuation()) != 0:
            raise ValueError("point must be normalized: one coordinate must be a unit")

    @classmethod
    def make(cls, x: PadicInt, y: PadicInt) -> "ProjPoint":
        """Normalize [x : y] by dividing out the common power of p."""
        x._check_compatible(y)
        shift = min(x.valuation(), y.valuation())
        if shift >= x.precision:
            raise ValueError("zero pair (both coordinates below precision)")
        return cls(x.shift_down(shift), y.shift_down(shift))

    @classmethod
    def from_ints(cls, x: int, y: int, p: int, precision: int = DEFAULT_PRECISION) -> "ProjPoint":
        return cls.make(PadicInt.from_int(x, p, precision), PadicInt.from_int(y, p, precision))

    @classmethod
    def infinity(cls, p: int, precision: int = DEFAULT_PRECISION) -> "ProjPoint":
        return cls.from_ints(1, 0, p, precision)

    def cross(self, other: "ProjPoint") -> PadicInt:
        return self.x * other.y - self.y * other.x

    def projectively_equal(self, other: "ProjPoint") -> bool:
        """Equality as projective points, up to working precision."""
        return self.cross(other).norm().below_precision

    def __str__(self) -> str:
        return f"[{self.x.residue} : {self.y.residue}]"


def spherical_dist(u: ProjPoint, v: ProjPoint) -> PadicNorm:
    """|x1 y2 - x2 y1|_p over the (unit) coordinate norms of normalized points."""
    return u.cross(v).norm()


def spherical_dist_value(u: ProjPoint, v: ProjPoint) -> float:
    return spherical_dist(u, v).value


# ----------------------------------------------------------------------
# rational flows with good reduction

def _homogenize(num: PadicPoly, den: PadicPoly) -> tuple[list[int], list[int], int]:
    """Coefficient residues of both polynomials, zero-padded to the common
    degree, with their common power of p divided out."""
    deg = max(num.degree, den.degree)
    shift = min(c.valuation() for c in num.coefficients + den.coefficients)
    if shift >= num.precision:
        raise ValueError(f"numerator and denominator are both 0 mod {num.p}^{num.precision}")
    scale = num.p**shift
    nc = [c.residue // scale for c in num.coefficients] + [0] * (deg - num.degree)
    dc = [c.residue // scale for c in den.coefficients] + [0] * (deg - den.degree)
    return nc, dc, deg


def _eval_homogeneous(coeffs: list[int], x: int, y: int, deg: int) -> int:
    """sum coeffs[i] x^i y^(deg - i) over the integers (homogeneous Horner)."""
    acc = coeffs[deg]
    yp = 1
    for i in range(deg - 1, -1, -1):
        yp *= y
        acc = acc * x + coeffs[i] * yp
    return acc


def _resultant_mod_p(f: list[int], g: list[int], p: int) -> int:
    """Res(F, G) mod p of two forms of one degree d, coefficients lowest first.

    The determinant of the 2d x 2d Sylvester matrix, by elimination over F_p.
    """
    d = len(f) - 1
    rows = [
        [0] * i + [c % p for c in reversed(coeffs)] + [0] * (d - 1 - i)
        for coeffs in (f, g)
        for i in range(d)
    ]
    det = 1
    for col in range(2 * d):
        pivot = next((r for r in range(col, 2 * d) if rows[r][col]), None)
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        det = det * rows[col][col] * (1 if pivot == col else -1) % p
        inv = pow(rows[col][col], -1, p)
        for r in range(col + 1, 2 * d):
            factor = rows[r][col] * inv % p
            rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[col])]
    return det


def rational_flow(num: PadicPoly, den: PadicPoly) -> Flow:
    """Flow of [x : y] -> [N(x, y) : D(x, y)], the forms of ``_homogenize``.

    The map must have good reduction, Res(N, D) a unit, or this raises
    ``ValueError``.  Then it is 1-Lipschitz for the spherical metric, and the
    image of a normalized point has a unit coordinate, so a step is two
    homogeneous Horner evaluations mod p^K.  A start point is "x,y", the
    integers of [x : y].
    """
    if num.p != den.p or num.precision != den.precision:
        raise ValueError("numerator and denominator live in different rings")
    p, precision = num.p, num.precision
    modulus = p**precision
    ring = num.coefficients[0]
    nc, dc, deg = _homogenize(num, den)
    name = f"padic_rational(p={p}, ({num})/({den}))"
    if _resultant_mod_p(nc, dc, p) == 0:
        raise ValueError(f"{name} has bad reduction: its resultant is 0 mod {p}")
    dtype = _residue_dtype(modulus)

    def image(xy: list[int]) -> list[int]:
        """Residues of the image of [x : y], normalized by good reduction."""
        x, y = xy
        return [
            _eval_homogeneous(nc, x, y, deg) % modulus,
            _eval_homogeneous(dc, x, y, deg) % modulus,
        ]

    def step(point: ProjPoint) -> ProjPoint:
        ring._check_compatible(point.x)
        fx, fy = image([point.x.residue, point.y.residue])
        return ProjPoint(ring._like(fx), ring._like(fy))

    def block(point: ProjPoint, n_steps: int):
        ring._check_compatible(point.x)
        start = [point.x.residue, point.y.residue]
        points = walk_block(image, start, n_steps, dtype)
        x, y = (int(r) for r in points[-1]) if n_steps else start
        return ResidueBlock(p, precision, *points.T), ProjPoint(ring._like(x), ring._like(y))

    def reduce(point: ProjPoint, level: int):
        ring._check_compatible(point.x)
        if level >= precision:
            return flow, point
        # the forms, whose common power of p is divided out: rebuilt from num
        # and den at level L, forms whose coefficients all share p^L would
        # read as 0 mod p^L and raise
        low = rational_flow(PadicPoly.from_ints(nc, p, level), PadicPoly.from_ints(dc, p, level))
        return low, ProjPoint.from_ints(point.x.residue, point.y.residue, p, level)

    def sample(rng) -> ProjPoint:
        a = random_padic_int(rng, p, precision)
        if rng.random() < 0.5:
            return ProjPoint.make(a, PadicInt.from_int(1, p, precision))
        b = random_padic_int(rng, p, precision)
        return ProjPoint.make(PadicInt.from_int(1, p, precision), a * b)

    def parse(raw: str) -> ProjPoint:
        x, y = parse_pair(raw, int)
        return ProjPoint.from_ints(x, y, p, precision)

    flow = Flow(
        name=name,
        step=step,
        dist=spherical_dist_value,
        sample=sample,
        parse=parse,
        block=block,
        reduce=reduce,
    )
    return flow


# ----------------------------------------------------------------------
# empirical minimality probe

@dataclass(frozen=True)
class MinimalityProbe:
    """Visit counts of an orbit at resolution p^level, versus the reduced cycle."""

    level: int
    histogram: dict[int, int]
    reduced_cycle: frozenset[int]
    covers_component: bool


def empirical_minimality(
    flow: Flow | PadicPoly, start: PadicInt, n_steps: int, level: int
) -> MinimalityProbe:
    """Count orbit residues mod p^level and compare with the reduced dynamics.

    ``flow`` is a polynomial, or a flow whose step is one (``poly_flow``).
    Polynomial evaluation commutes with reduction mod p^level, so the exact
    finite system x -> P(x) mod p^level is a faithful oracle: the probe
    reports whether the orbit visited every residue of the cycle that the
    reduced system eventually enters.  The reduced orbit is walked only up
    to its first repeat (``flows.cycle_walk``); the visit counts of its
    ``n_steps + 1`` states follow from the tail and the cycle.
    """
    poly = flow.step if isinstance(flow, Flow) else flow
    if not isinstance(poly, PadicPoly):
        raise TypeError("empirical_minimality needs a polynomial flow")
    poly.coefficients[0]._check_compatible(start)
    if not 1 <= level <= start.precision:
        raise ValueError(f"level must lie in 1..{start.precision}, the working precision")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    modulus = poly.p**level
    top_down = poly._top_down
    states = [start.residue % modulus]
    # at most p^level states, so Brent's check meets a repeat within 3 p^level steps
    period = cycle_walk(
        lambda r: _horner(top_down, r, modulus), states[0], 3 * modulus, states.append
    )
    tail = next(i for i in range(len(states)) if states[i] == states[i + period])
    trail = states[: tail + period]  # the tail, then the cycle, each state once
    # states 0..n_steps: the tail once each, then laps of the cycle and a remainder
    laps, rem = divmod(n_steps + 1 - tail, period)
    histogram = {
        s: 1 if i < tail else laps + (i - tail < rem) for i, s in enumerate(trail[: n_steps + 1])
    }
    cycle = frozenset(trail[tail:])
    covers = cycle.issubset(histogram)
    return MinimalityProbe(level, histogram, cycle, covers)
