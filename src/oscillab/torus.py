"""Affine and automorphism flows on the 2-torus.

Entropy classification of integer matrices, the equicontinuity bound for
diagonalizable zero-entropy automorphisms, and the constructive normal form
P^-1 M P = +/- [[1,t],[0,1]] for the non-diagonalizable ones.  All matrix
work is exact integer arithmetic.  ``torus_affine_flow`` is the one
implementation of x -> A x + b; the paper's counterexample (a unipotent
skew product whose quadratic-phase weighted average is constantly one)
runs on it through the registry, and ``counterexample_prefix_means`` is its
closed-form reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .flows import Flow, compact_walk, parse_pair, walk_block
from .sequences import rational_phases


@dataclass(frozen=True)
class ModularMatrix:
    """2x2 integer matrix with determinant +1 or -1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int):
                raise TypeError("entries must be integers")
        if self.det not in (1, -1):
            raise ValueError(f"determinant must be +/-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    @classmethod
    def identity(cls) -> "ModularMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def shear(cls, t: int) -> "ModularMatrix":
        """The standard unipotent shear [[1, t], [0, 1]]."""
        return cls(1, t, 0, 1)

    @classmethod
    def from_string(cls, text: str) -> "ModularMatrix":
        """Parse 'a,b;c,d'."""
        try:
            rows = [part.split(",") for part in text.split(";")]
            (a, b), (c, d) = rows
            return cls(int(a), int(b), int(c), int(d))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse matrix from {text!r}") from exc

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "ModularMatrix":
        return ModularMatrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "ModularMatrix":
        det = self.det
        return ModularMatrix(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.int64)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


# ----------------------------------------------------------------------
# torus metric

def torus_reduce(xy) -> np.ndarray:
    return np.mod(np.asarray(xy, dtype=float), 1.0)


def torus_dist(u, v) -> float:
    """Quotient Euclidean distance: the quotient norm of the reduced difference."""
    return float(torus_norm_batch(torus_reduce(u) - torus_reduce(v)))


def torus_norm_batch(points: np.ndarray) -> np.ndarray:
    """Quotient norms of a (2, ...) array of coordinates in [-1, 1].

    Each axis contributes the nearer of |x| and 1 - |x|, which is exact
    whenever it is the nearer (Sterbenz), so each norm equals the minimum
    over the 9 nearest integer translates bit for bit.
    """
    a = np.abs(points)
    d = np.minimum(a, 1.0 - a)
    return np.sqrt(d[0] * d[0] + d[1] * d[1])


# ----------------------------------------------------------------------
# entropy classification and the diagonalizable bound

@dataclass(frozen=True)
class EntropyClass:
    kind: str  # 'zero' | 'positive'
    value: float | None = None  # log of spectral radius when positive


def classify_entropy(matrix: ModularMatrix) -> EntropyClass:
    """Zero entropy iff both eigenvalues sit on the unit circle.

    For det=+1 that means |trace| <= 2; for det=-1 it means trace = 0.
    Otherwise the entropy is the log of the spectral radius.
    """
    tr, det = matrix.trace, matrix.det
    if (det == 1 and abs(tr) <= 2) or (det == -1 and tr == 0):
        return EntropyClass("zero")
    disc = tr * tr - 4 * det
    radius = (abs(tr) + math.sqrt(disc)) / 2.0
    return EntropyClass("positive", math.log(radius))


def eigenvalues(matrix: ModularMatrix) -> tuple[complex, complex]:
    """Exact quadratic-formula eigenvalues."""
    tr, det = matrix.trace, matrix.det
    disc = cmath.sqrt(complex(tr * tr - 4 * det))
    return ((tr + disc) / 2.0, (tr - disc) / 2.0)


def diag_bound(matrix: ModularMatrix) -> float:
    """Constant C with ||A^n x|| <= C ||x|| on the torus, via an eigenbasis.

    Requires zero entropy and diagonalizability over C; C is the spectral
    condition number of the eigenvector matrix.
    """
    if classify_entropy(matrix).kind != "zero":
        raise ValueError("matrix has positive entropy")
    tr, det = matrix.trace, matrix.det
    if det == 1 and abs(tr) == 2:
        if matrix in (ModularMatrix.identity(), -ModularMatrix.identity()):
            return 1.0
        raise ValueError("matrix with a double eigenvalue is not diagonalizable")
    lam1, lam2 = eigenvalues(matrix)
    a, b, c, d = matrix.a, matrix.b, matrix.c, matrix.d
    if b != 0:
        v1 = (b, lam1 - a)
        v2 = (b, lam2 - a)
    elif c != 0:
        v1 = (lam1 - d, c)
        v2 = (lam2 - d, c)
    else:
        return 1.0  # diagonal with unit-modulus integer entries
    basis = np.array([[v1[0], v2[0]], [v1[1], v2[1]]], dtype=complex)
    return float(np.linalg.cond(basis, 2))


# ----------------------------------------------------------------------
# normal form for the non-diagonalizable case

@dataclass(frozen=True)
class NormalForm:
    """Exact conjugation P^-1 M P = sign * [[1, t], [0, 1]]."""

    basis: ModularMatrix
    t: int
    sign: int

    def verify(self, matrix: ModularMatrix) -> bool:
        lhs = self.basis.inverse() @ matrix @ self.basis
        target = ModularMatrix.shear(self.t)
        if self.sign == -1:
            target = -target
        return lhs == target


def normal_form(matrix: ModularMatrix) -> NormalForm:
    """Constructive conjugation of a double-eigenvalue modular matrix to a shear.

    Follows the eigenvector/generalized-eigenvector construction: for
    M = [[a, b], [c, 2-a]] with b, c nonzero, set g = gcd(a-1, b); the
    shear parameter is t = g^2 / b (an integer), the eigenvector column is
    (b/g, -(a-1)/g), and the second column is fixed by one modular inverse:
    determinant one makes its top entry the inverse of (a-1)/g modulo |b/g|,
    taken in [0, |b/g|).
    """
    if matrix.det != 1:
        raise ValueError("normal form requires determinant +1")
    if matrix.trace == 2:
        sign = 1
        work = matrix
    elif matrix.trace == -2:
        sign = -1
        work = -matrix
    else:
        raise ValueError("matrix must have a double eigenvalue +/-1 (trace +/-2)")
    a, b, c = work.a, work.b, work.c
    if b == 0 and c == 0:
        result = NormalForm(ModularMatrix.identity(), 0, sign)
    elif b == 0:
        result = NormalForm(ModularMatrix(0, 1, -1, 0), -c, sign)
    elif c == 0:
        result = NormalForm(ModularMatrix.identity(), b, sign)
    else:
        g = math.gcd(a - 1, b)
        if (g * g) % b != 0:
            raise ArithmeticError("gcd^2 not divisible by b; input is not unipotent")
        t = (g * g) // b
        x1, x2 = b // g, -(a - 1) // g
        y1 = pow(-x2, -1, abs(x1))
        y2 = (1 + x2 * y1) // x1
        result = NormalForm(ModularMatrix(x1, y1, x2, y2), t, sign)
    if not result.verify(matrix):
        raise AssertionError("normal form failed exact verification")
    return result


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def conjugacy_equivalent(t: int, t_other: int) -> bool:
    """True iff t / t_other is the square of an integer (exact rational test).

    Zero pairs only with zero.
    """
    if t == 0 or t_other == 0:
        return t == t_other
    ratio = Fraction(t, t_other)
    return ratio.denominator == 1 and _is_perfect_square(ratio.numerator)


# ----------------------------------------------------------------------
# flows

def torus_affine_flow(matrix: ModularMatrix, shift=(0.0, 0.0)) -> Flow:
    """x -> A x + b on [0,1)^2 with the quotient metric.

    A point is a float array (x, y); ``step`` and ``walk`` run one map on
    a list of two Python floats, and ``walk`` walks it with
    ``flows.compact_walk``.
    """
    if np.shape(shift) != (2,):
        raise ValueError(f"cannot use shift {np.ravel(shift).tolist()}: expected the form x,y")
    if not np.all(np.isfinite(shift)):
        raise ValueError(f"cannot use shift {list(map(float, shift))}: coordinates must be finite")
    shift = torus_reduce(shift)
    a, b, c, d = matrix.a, matrix.b, matrix.c, matrix.d
    sx, sy = float(shift[0]), float(shift[1])

    def affine(xy: list[float]) -> list[float]:
        x, y = xy
        return [(a * x + b * y + sx) % 1.0, (c * x + d * y + sy) % 1.0]

    def step(xy):
        return np.array(affine([float(xy[0]), float(xy[1])]))

    def walk(xy, n_steps: int):
        start = [float(xy[0]), float(xy[1])]
        orbit = compact_walk(affine, start, n_steps, float)
        return orbit, np.array(orbit.last(start))

    def sample(rng):
        return rng.random(2)

    return Flow(
        name=f"torus_affine({matrix}, b=({shift[0]:g},{shift[1]:g}))",
        step=step,
        dist=torus_dist,
        sample=sample,
        parse=lambda raw: np.array(parse_pair(raw, float)),
        block=walk_block(walk),
        walk=walk,
    )


# ----------------------------------------------------------------------
# the exact counterexample

def counterexample_prefix_means(alpha: float, checkpoints) -> np.ndarray:
    """Averages (1/N) sum exp(-pi i n^2 alpha) exp(2 pi i y_n) at each checkpoint.

    The observable reads the second coordinate of the orbit of (alpha/2, 0)
    under the skew product (x, y) -> (x + alpha, x + y), evaluated from its
    closed formula y_n = y_0 + n x_0 + n(n-1)/2 alpha with exact ``Fraction``
    coefficients.  Every prefix mean equals one up to rounding; it is the
    exact reference for the registered pair (``torus_affine`` with matrix
    1,0;1,1 against ``quadratic_phase``).
    """
    checkpoints = sorted(int(n) for n in checkpoints)
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    n = np.arange(1, checkpoints[-1] + 1)
    alpha = Fraction(alpha)
    x0, y0 = alpha / 2, Fraction(0)
    weight_phase = rational_phases([0, 0, alpha / 2], n)
    orbit_y = rational_phases([y0, x0 - alpha / 2, alpha / 2], n)
    terms = np.exp(-2j * np.pi * weight_phase) * np.exp(2j * np.pi * orbit_y)
    partial = np.cumsum(terms)
    return np.array([partial[k - 1] / k for k in checkpoints])
