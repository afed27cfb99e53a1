import cmath
import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from oscillab import analysis, registry
from oscillab.flows import Flow
from oscillab.torus import ModularMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_modular(rng, n_factors=6, max_shear=3):
    """Random determinant-one integer matrix as a product of elementary shears."""
    result = ModularMatrix.identity()
    for _ in range(n_factors):
        k = int(rng.integers(-max_shear, max_shear + 1))
        if rng.random() < 0.5:
            result = result @ ModularMatrix(1, k, 0, 1)
        else:
            result = result @ ModularMatrix(1, 0, k, 1)
    return result


def counterexample_report(alpha, checkpoints):
    """The counterexample pair as a config builds it, through the registry.

    Quadratic phases e(-n^2 alpha/2) against the unipotent skew product
    (x, y) -> (x + alpha, x + y) from (alpha/2, 0), observed by e(y).
    """
    flow = registry.build_flow(
        "torus_affine", {"matrix": "1,0;1,1", "shift": f"{alpha!r},0"}
    )
    weights = registry.build_sequence(
        "quadratic_phase", {"alpha": repr(-alpha / 2)}, max(checkpoints)
    )
    observable = registry.build_observable("torus_fourier", {"k1": "0", "k2": "1"})
    start = registry.parse_start("torus_affine", f"{alpha / 2!r},0", flow)
    return analysis.weighted_birkhoff(
        weights, flow, observable, start, checkpoints=checkpoints
    )


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the cyclotomic polynomial of ``order``.

    Computed by exact division: x^n - 1 divided by the product of the
    cyclotomic polynomials of all proper divisors of n.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return (-1, 1)
    num = [0] * (order + 1)
    num[0] = -1
    num[order] = 1
    for d in range(1, order):
        if order % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; raises if a remainder is left."""
    num = list(num)
    while den and den[-1] == 0:
        den.pop()
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        coeff = num[i]
        if coeff == 0:
            continue
        q, r = divmod(coeff, lead)
        if r != 0:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dn] = q
        for j, c in enumerate(den):
            num[i - dn + j] -= q * c
    if any(num):
        raise ArithmeticError("non-zero remainder in exact polynomial division")
    return out


def reference_mobius(n_max: int) -> np.ndarray:
    """mu(1)..mu(n_max), int64, by one multiplicative sieve over all of 0..n_max.

    The primes up to sqrt(n_max) flip mu, multiply a product of small primes
    and zero mu at their squares; a squarefree n whose small primes
    multiply to less than n has one more, larger prime factor.
    """
    mu = np.ones(n_max + 1, dtype=np.int64)
    small = np.ones(n_max + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n_max) + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            mu[p::p] *= -1
            small[p::p] *= p
            mu[p * p :: p * p] = 0
    mu[small < np.arange(n_max + 1)] *= -1
    return mu[1:]


def reference_liouville(n_max: int) -> np.ndarray:
    """(-1)^Omega(n) for n = 1..n_max as mu convolved with the squares."""
    lam = reference_mobius(n_max)
    mu = lam[: n_max // 4].copy()
    for d in range(2, math.isqrt(n_max) + 1):
        lam[d * d - 1 :: d * d] += mu[: n_max // (d * d)]
    return lam


def reference_growth_bound(values, growth_exponent):
    """The prefix-supremum growth bound as one cumsum over all values."""
    mags = np.abs(values) ** growth_exponent
    prefix = np.cumsum(mags) / np.arange(1, len(values) + 1)
    return float(np.max(prefix) ** (1.0 / growth_exponent))


def progression_mean(weights, modulus: int, residue: int, freq, n_terms: int) -> complex:
    """(1/N) sum over n <= N with n = residue (mod modulus) of c_n e^{-2 pi i n freq}.

    One term per n, its phase n freq reduced mod 1 in Python ints from the
    fraction that ``freq`` denotes, and the terms added with ``math.fsum``.
    """
    freq = Fraction(freq)
    r, s = freq.numerator, freq.denominator
    terms = [
        complex(weights.values[n - 1]) * cmath.exp(-2j * math.pi * (n * r % s / s))
        for n in range(residue, n_terms + 1, modulus)
    ]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)) / n_terms


def autocorrelation_toeplitz(gamma: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix: conj(gamma[i - j]) for i >= j, gamma[j - i] above."""
    i, j = np.indices((len(gamma), len(gamma)))
    return np.where(i >= j, np.conj(gamma)[i - j], np.asarray(gamma)[j - i])


def toeplitz_min_eigenvalue(gamma: np.ndarray) -> float:
    """Smallest eigenvalue of the autocorrelation Toeplitz matrix."""
    return float(np.linalg.eigvalsh(autocorrelation_toeplitz(gamma))[0])


def rotation_trig_autocorrelation(coeffs: dict[int, complex], angle: float, lags) -> np.ndarray:
    """Closed-form gamma(k) = sum |a_m|^2 e^{2 pi i m angle k} for trig observables."""
    return np.array(
        [
            sum(abs(a) ** 2 * cmath.exp(2j * math.pi * m * angle * k) for m, a in coeffs.items())
            for k in np.atleast_1d(lags)
        ]
    )


def check_metric_axioms(flow: Flow, rng: np.random.Generator, n_triples: int = 1000):
    """Sample triples and measure worst symmetry / triangle-inequality defect."""
    if flow.sample is None:
        raise ValueError(f"flow {flow.name} has no sampler")
    if n_triples < 1:
        raise ValueError(f"n_triples must be >= 1, got {n_triples}")
    sym = 0.0
    tri = 0.0
    for _ in range(n_triples):
        x, y, z = flow.sample(rng), flow.sample(rng), flow.sample(rng)
        dxy, dyx = flow.dist(x, y), flow.dist(y, x)
        sym = max(sym, abs(dxy - dyx))
        tri = max(tri, flow.dist(x, z) - (dxy + flow.dist(y, z)))
    return sym, tri


def sup_defect(map_a, map_b) -> float:
    """Sup-norm distance between two maps on a uniform grid of 1024 points.

    Each map is called once, on the whole grid, so both must evaluate arrays.
    """
    xs = np.linspace(-1.0, 1.0, 1024)
    return float(np.max(np.abs(map_a(xs) - map_b(xs))))
