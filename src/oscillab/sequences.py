"""Weight sequences and their averaged Fourier spectra.

Generators for the arithmetic and phase sequences used throughout the
package (Mobius, Liouville, quadratic, n log n and polynomial phases,
random subnormal weights; one plain function each, which the registry
holds directly), together with the Cesaro-mean machinery that locates
where a sequence's averaged Fourier mass survives.  ``_mobius_segments``
is the one sieve of mu and lambda, run a segment at a time: ``mobius``
and ``liouville`` take 1..N as one segment, and streamed weights' chunks
come from segments of about 16 sqrt(N) terms.  Polynomial phases
P(n) mod 1 are kept as exact integer residues over the common denominator
D of P's coefficients until a float is needed: ``rational_phases`` rounds
each once (``circle.rotation_flow`` does the same for its short blocks, in
Python ints), and a phase sequence computes one period of D terms; when
D < N it holds that period plus a chunk, not N terms.  A Cesaro mean at a
rational frequency r/s with s <= N is exact in its phases too: the terms
are folded by n mod a multiple of s (``residue_fold``, one column sum in
order of n), so each phase n r/s is an integer residue.  Weights are built
_BLOCK terms at a time, so a build holds its result plus a few small
chunks; arithmetic weights longer than one segment build nothing until read.
Every sequence yields its weights in those chunks, and every reader, the
weighted averages of ``analysis`` and the Cesaro means and scans alike,
reads only the chunks.  The Cesaro folds carry each column's running sum
from one block of rows into the next, so every sum keeps the bits of the
one column sum over all the values, and a scan of streamed arithmetic
weights holds O(sqrt(N) + _BLOCK) of them, not N.  A sequence's growth
bound is a property of the sequence, not of a read: 1 for streamed
arithmetic weights, and for any other sequence computed chunk by chunk
when a reader first asks for it.
Quadratic-phase sequences with rational parameter get their spectrum in
closed form: which Gauss sums vanish is a parity rule on integers, and
each amplitude is a root of unity at an integer residue times one base
sum; everything else is measured numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import numpy.fft
import numpy.random


# terms per chunk: a complex chunk is 64 KiB, and a fold's staging rows
# hold fewer than 2 _BLOCK values when they fit, so both stay below glibc's
# 128 KiB mmap threshold and are reused from the heap, not faulted in
_BLOCK = 1 << 12


def _blocks(n_terms: int):
    """(start, stop) of each chunk of _BLOCK indices in 0..n_terms."""
    return ((start, min(start + _BLOCK, n_terms)) for start in range(0, n_terms, _BLOCK))


def _fill_exp_phases(out: np.ndarray, phases_of) -> np.ndarray:
    """out[k] = exp(2 pi i phases_of(start, stop)[k - start]), chunk by chunk."""
    for start, stop in _blocks(len(out)):
        chunk = out[start:stop]
        np.multiply(2j * np.pi, phases_of(start, stop), out=chunk)
        np.exp(chunk, out=chunk)
    return out


class KahanSum:
    """Compensated complex accumulator (Kahan-Babuska)."""

    __slots__ = ("_total", "_comp")

    def __init__(self) -> None:
        self._total = 0j
        self._comp = 0j

    def add(self, value: complex) -> None:
        y = value - self._comp
        t = self._total + y
        self._comp = (t - self._total) - y
        self._total = t

    @property
    def value(self) -> complex:
        return self._total


def _chunks(values: np.ndarray):
    """Slices of ``values`` at ``_blocks(len(values))``."""
    # a slice stops at the array's end, so the last one is the short chunk
    return (values[start : start + _BLOCK] for start in range(0, len(values), _BLOCK))


def _check_finite(values: np.ndarray) -> None:
    if not all(np.isfinite(chunk).all() for chunk in _chunks(values)):
        raise ValueError("weight values must be finite")


def prefix_growth_bound(chunks, growth_exponent: float) -> float:
    """sup over prefixes N of ((1/N) sum_{n<=N} |c_n|^exponent)^(1/exponent).

    ``chunks`` are consecutive chunks of the values c_1, c_2, ...  Raises
    ``ValueError`` at a non-finite value.  The running sum enters each
    chunk's cumsum as its first addend, so every prefix sum is the one a
    single cumsum over all values adds, however the values are cut.
    """
    total = best = 0.0
    start = 0
    for chunk in chunks:
        prefix = np.abs(chunk) ** growth_exponent
        prefix[0] += total
        np.cumsum(prefix, out=prefix)
        total = prefix[-1]
        # a non-finite value makes the running sum inf or nan; an overflow
        # of finite ones makes it inf too, hence the exact check
        if not math.isfinite(total) and not np.isfinite(chunk).all():
            raise ValueError("weight values must be finite")
        prefix /= np.arange(start + 1, start + len(chunk) + 1)
        best = max(best, prefix.max())
        start += len(chunk)
    return float(best ** (1.0 / growth_exponent))


class WeightSequence:
    """Complex weights c_1..c_N plus their averaged-growth metadata.

    Readers take the weights one ``_blocks`` chunk at a time, from
    ``chunks``.  Built from an array, the sequence holds it as ``values``:
    the chunks are slices of it, and construction refuses non-finite
    values one chunk at a time.  Two kinds hold less and build ``values``
    only when it is first read, which no reader in the package does: Mobius
    or Liouville weights longer than one segment, whose chunks come from
    the segmented sieve on every read, and phase weights whose period D is
    below N, which hold one period plus a chunk and serve every chunk as a
    view of that.  ``growth_bound`` is the exact prefix supremum for
    ``growth_exponent``.  Streamed arithmetic weights know theirs, 1; any
    other sequence computes it from its chunks on first access and keeps
    it, so a sequence whose bound nothing reads never pays for it.
    """

    def __init__(self, name: str, values, growth_exponent: float) -> None:
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("values must be a non-empty 1-d array")
        if not growth_exponent > 1.0:
            raise ValueError("growth_exponent must be > 1")
        _check_finite(values)
        self.name, self.values, self.growth_exponent = name, values, growth_exponent

    def chunks(self):
        """c_1..c_N as complex arrays, one per ``_blocks(len(self))`` chunk."""
        return _chunks(self.values)

    @functools.cached_property
    def growth_bound(self) -> float:
        """``prefix_growth_bound`` of the chunks, computed on first access."""
        return prefix_growth_bound(self.chunks(), self.growth_exponent)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"WeightSequence({self.name}, n={len(self)})"


def _prefix_chunks(weights: WeightSequence, n_terms: int):
    """c_1..c_{n_terms} as the weights' own chunks, the last one cut at n_terms.

    A streamed sequence produces no chunk past the one holding c_{n_terms}.
    """
    for (start, stop), chunk in zip(_blocks(n_terms), weights.chunks()):
        yield chunk[: stop - start]


def _mobius_span(n_terms: int) -> int:
    """Terms per segment of the arithmetic weights: a whole number of chunks.

    8 chunks up to N = 2^22 (one segment covers N <= 32768), then about 16
    sqrt(N) terms, at most 64 chunks: with 4-chunk segments the numpy calls
    per prime up to sqrt(N) made a weighted average of N = 2^16 to 2^20
    streamed weights a tenth slower than one of held weights; with 8, not.
    """
    return _BLOCK * min(64, max(8, -(-16 * math.isqrt(n_terms) // _BLOCK)))


class _MobiusWeights(WeightSequence):
    """mu(1)..mu(N), or lambda's, as complex weights, streamed from ``_mobius_segments``."""

    # |c_n| <= 1 = c_1, so the N = 1 prefix is the supremum; in floats each
    # prefix sum of |c_n|^2 is an integer k <= N, and k/N rounds to <= 1.0
    growth_bound = 1.0

    def __init__(self, n_terms: int, liouville: bool) -> None:
        self.name, self.growth_exponent = ("liouville" if liouville else "mobius"), 2.0
        self._n_terms, self._liouville = n_terms, liouville

    def chunks(self):
        span = _mobius_span(self._n_terms)
        for segment in _mobius_segments(self._n_terms, span, self._liouville):
            for chunk in _chunks(segment):
                yield chunk.astype(np.complex128)

    @functools.cached_property
    def values(self) -> np.ndarray:
        return (liouville if self._liouville else mobius)(self._n_terms).astype(np.complex128)

    def __len__(self) -> int:
        return self._n_terms


@dataclass(frozen=True)
class SpectrumReport:
    """Cesaro means over a frequency grid."""

    grid: np.ndarray
    sigma: np.ndarray
    n_terms: int
    max_abs: float


# ----------------------------------------------------------------------
# arithmetic sequences

def _prime_sieve(n_max: int) -> np.ndarray:
    sieve = np.ones(n_max + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n_max) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def _mobius_segments(n_max: int, span: int, liouville: bool = False):
    """mu(n), or lambda(n) with ``liouville``, int64, for n up to n_max in ``span``-term segments.

    One sieve for both (Deleglise and Rivat, *Experimental Math.* 5, 1996),
    over the primes p <= sqrt(n_max).  ``small`` holds +-(the product of
    the sieved prime powers dividing n): each p multiplies its multiples by
    -p, and then mu zeroes the multiples of p^2, while lambda multiplies
    the multiples of each p^k <= n_max by -p again.  Where |small| < n, n
    has one more prime factor, above sqrt(n_max), so the value is
    sign(small) negated.  The arrays are int64: an int8 or int32 sieve runs
    numpy loops that nothing else runs, whose code pages add to the
    resident set of every process that sieves.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    primes = _prime_sieve(math.isqrt(n_max)).tolist()
    for lo in range(1, n_max + 1, span):
        hi = min(lo + span, n_max + 1)
        small = np.ones(hi - lo, dtype=np.int64)
        for p in primes:
            small[-lo % p :: p] *= -p
            power = p * p
            if not liouville:
                small[-lo % power :: power] = 0
            while liouville and power < hi:
                small[-lo % power :: power] *= -p
                power *= p
        values = np.sign(small)
        # small becomes -1 where |small| < n, else 1 (twice as fast as a masked write)
        np.less(np.abs(small, out=small), np.arange(lo, hi), out=small)
        small *= -2
        small += 1
        values *= small
        yield values


def mobius(n_max: int) -> np.ndarray:
    """Mobius function mu(1)..mu(n_max), int64: one segment of ``_mobius_segments``."""
    return next(_mobius_segments(n_max, n_max))


def liouville(n_max: int) -> np.ndarray:
    """Liouville function (-1)^Omega(n) for n = 1..n_max, int64: one segment of the same sieve."""
    return next(_mobius_segments(n_max, n_max, liouville=True))


def _sieved_sequence(n_terms: int, liouville: bool) -> WeightSequence:
    _check_n_terms(n_terms)
    streamed = _MobiusWeights(n_terms, liouville)
    if n_terms <= _mobius_span(n_terms):
        return WeightSequence(streamed.name, streamed.values, 2.0)
    return streamed


def mobius_sequence(n_terms: int) -> WeightSequence:
    """mu(n) as weights: held when one segment covers them, else sieved on every read."""
    return _sieved_sequence(n_terms, liouville=False)


def liouville_sequence(n_terms: int) -> WeightSequence:
    """lambda(n) as weights: held when one segment covers them, else sieved on every read."""
    return _sieved_sequence(n_terms, liouville=True)


# ----------------------------------------------------------------------
# phase sequences

def _phase_numerators(coeffs) -> tuple[list, int]:
    """P's coefficients as numerators over their common denominator D.

    Each coefficient is read as a ``Fraction`` (exact for a float m/2^e).
    When D divides 2^64 the numerators are uint64, reduced mod 2^64;
    otherwise they are Python ints.  A non-finite float coefficient raises
    ``ValueError``.
    """
    for c in coeffs:
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError(f"phase coefficient {c} is not finite")
    fracs = [Fraction(c) for c in coeffs]
    denom = math.lcm(*(f.denominator for f in fracs))
    numers = [f.numerator * (denom // f.denominator) for f in fracs]
    if (1 << 64) % denom == 0:
        numers = [np.uint64(c % (1 << 64)) for c in numers]
    return numers, denom


def _phase_residues(numers: list, denom: int, n) -> np.ndarray:
    """D P(n) mod D for an integer array ``n``, from ``_phase_numerators``.

    When D divides 2^64, Horner runs in wrapping uint64, which also wraps
    negative n exactly, and the residues are uint64; otherwise it runs in
    Python ints and the residues are Python ints.
    """
    n = np.asarray(n, dtype=np.int64)
    dyadic = (1 << 64) % denom == 0
    x = n.view(np.uint64) if dyadic else n.astype(object)
    acc = np.zeros(x.shape, dtype=x.dtype)
    for c in reversed(numers):
        acc *= x
        if c:
            acc += c
    if dyadic:
        acc &= np.uint64(denom - 1)
    else:
        acc %= denom
    return acc


def _round_phases(residues: np.ndarray, denom: int) -> np.ndarray:
    """residues / denom in [0, 1), each rounded once."""
    if residues.dtype == object:
        values = (residues / denom).astype(np.float64)
    else:
        values = residues.astype(np.float64)
        values /= float(denom)
    # a residue within half an ulp of D rounds up to 1.0, which is 0 mod 1
    values[values == 1.0] = 0.0
    return values


def rational_phases(coeffs, n) -> np.ndarray:
    """frac(sum_k coeffs[k] n^k) in [0, 1) for an integer array ``n``.

    Exact for every rational (and every float) coefficient: the sum is
    reduced as an integer residue over the common denominator D and
    rounded once, on any platform and for any n in int64.
    """
    numers, denom = _phase_numerators(coeffs)
    return _round_phases(_phase_residues(numers, denom, n), denom)


def _repeat(period: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with copies of ``period``, the copied prefix doubling each time."""
    filled = min(len(period), len(out))
    out[:filled] = period[:filled]
    # the filled prefix is a whole number of periods
    while filled < len(out):
        size = min(filled, len(out) - filled)
        out[filled : filled + size] = out[:size]
        filled += size
    return out


class _PeriodicWeights(WeightSequence):
    """c_1..c_N with period D < N, held as one period plus a chunk.

    ``_tiles`` is c_1..c_min(N, D + _BLOCK), so the chunk at ``start`` is
    the view of it at start mod D, and the N-term ``values`` is built by
    copies only when first read.
    """

    def __init__(self, name: str, period: np.ndarray, n_terms: int) -> None:
        _check_finite(period)
        self.name, self.growth_exponent, self._n_terms = name, 2.0, n_terms
        self._period = len(period)
        tiles = np.empty(min(n_terms, len(period) + _BLOCK), dtype=np.complex128)
        self._tiles = _repeat(period, tiles)

    def chunks(self):
        for start, stop in _blocks(self._n_terms):
            at = start % self._period
            yield self._tiles[at : at + stop - start]

    @functools.cached_property
    def values(self) -> np.ndarray:
        return _repeat(self._tiles[: self._period], np.empty(self._n_terms, dtype=np.complex128))

    def __len__(self) -> int:
        return self._n_terms


def _phase_weights(name: str, coeffs, n_terms: int) -> WeightSequence:
    """exp(2 pi i P(n)) for n = 1..n_terms, P's coefficients ascending.

    D P(n) mod D has period D in n for P's common denominator D, since
    each (n + D)^k - n^k is a multiple of D.  So only one period, n =
    1..min(D, n_terms), is computed, chunk by chunk, each weight exp of its
    phase rounded as ``rational_phases`` rounds it.  When D < N the
    sequence holds that period (``_PeriodicWeights``); otherwise it holds
    the N values.
    """
    numers, denom = _phase_numerators(coeffs)

    def phases(start, stop):
        residues = _phase_residues(numers, denom, np.arange(start + 1, stop + 1))
        return _round_phases(residues, denom)

    period = _fill_exp_phases(np.empty(min(denom, n_terms), dtype=np.complex128), phases)
    if denom < n_terms:
        return _PeriodicWeights(name, period, n_terms)
    return WeightSequence(name, period, 2.0)


def _check_n_terms(n_terms: int) -> None:
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")


def quadratic_phase_sequence(n_terms: int, alpha) -> WeightSequence:
    """exp(2 pi i n^2 alpha), with n^2 alpha reduced mod 1 exactly."""
    _check_n_terms(n_terms)
    return _phase_weights(f"quadratic(alpha={alpha})", [0, 0, alpha], n_terms)


def nlogn_phase_sequence(n_terms: int, c: float) -> WeightSequence:
    """exp(2 pi i c n log n)."""
    _check_n_terms(n_terms)
    c = float(c)

    def phases(start, stop):
        n = np.arange(start + 1, stop + 1, dtype=np.float64)
        return np.mod(c * n * np.log(n), 1.0)

    values = _fill_exp_phases(np.empty(n_terms, dtype=np.complex128), phases)
    return WeightSequence(f"n_log_n(c={c:g})", values, 2.0)


def polynomial_phase_sequence(n_terms: int, coeffs) -> WeightSequence:
    """exp(2 pi i P(n)) for the coefficients of P in ascending order."""
    _check_n_terms(n_terms)
    coeffs = list(coeffs)
    return _phase_weights(f"polynomial({coeffs})", coeffs, n_terms)


def subnormal_sequence(tau: float, n_terms: int, seed: int) -> WeightSequence:
    """Random weights n^tau * xi_n with fair-coin signs xi_n from ``seed``."""
    _check_n_terms(n_terms)
    if not 0.0 < tau < 0.5:
        raise ValueError("tau must lie in (0, 1/2)")
    rng = np.random.default_rng(seed)
    values = np.empty(n_terms, dtype=np.complex128)
    for start, stop in _blocks(n_terms):
        # chunked draws continue one stream: the same coins as one draw of N
        coins = rng.integers(0, 2, size=stop - start)
        n = np.arange(start + 1, stop + 1, dtype=np.float64)
        values[start:stop] = n**tau * (coins * 2 - 1)
    return WeightSequence(f"subnormal(tau={tau:g}, seed={seed})", values, 2.0)


# ----------------------------------------------------------------------
# Cesaro means and spectra

def cesaro_mean(
    weights: WeightSequence, freq: float | Fraction, n_terms: int | None = None
) -> complex:
    """(1/N) sum_{n<=N} c_n exp(-2 pi i n freq).

    ``freq`` is a float or a ``Fraction``, read exactly as the fraction
    r/s it denotes; a non-finite float raises ``ValueError``.  When s <= N,
    the phases n r/s are exact integer residues: the terms are folded by n
    mod a multiple of s (``residue_fold``, one column sum in order of n),
    the folds of each class k mod s are added, and the s sums meet the s
    roots exp(-2 pi i (r k mod s)/s).  A larger s (a float irrational, or
    1/3 as a float, whose denominator is 2^54) reads ``float(freq)``; its
    phases n freq are reduced mod 1 exactly (``rational_phases``) and
    summed _BLOCK terms at a time with compensation.  Both read the
    sequence's chunks up to c_N, so no N-term array is built for weights
    that do not hold one.
    """
    n_total = len(weights)
    if n_terms is None:
        n_terms = n_total
    if not 1 <= n_terms <= n_total:
        raise ValueError(f"n_terms must be in 1..{n_total}")
    if not isinstance(freq, Fraction) and not math.isfinite(freq):
        raise ValueError(f"frequency {freq} is not finite")
    exact = freq if isinstance(freq, Fraction) else Fraction(float(freq))
    s = exact.denominator
    if s <= n_terms:
        # fold by n mod a multiple of s, so each fold and each class's sum
        # of folds adds about sqrt(N/s) terms: the rounding grows like
        # sqrt(N), not N, while every phase stays an integer residue
        width = s * math.isqrt(n_terms // s)
        (folds,) = _weight_folds(weights, n_terms, (width,))
        folds = folds.reshape(-1, s).sum(axis=0)
        residues = (exact.numerator % s) * np.arange(s) % s
        return complex(folds @ np.exp(-2j * np.pi * (residues / s))) / n_terms
    coeffs = [0, float(freq)]
    acc = KahanSum()
    start = 0
    for chunk in _prefix_chunks(weights, n_terms):
        phases = rational_phases(coeffs, np.arange(start + 1, start + len(chunk) + 1))
        acc.add(complex((chunk * np.exp(-2j * np.pi * phases)).sum()))
        start += len(chunk)
    return acc.value / n_terms


# lcm(1..8): every r/s with s <= 8 is k/840 for an integer k
_LOW_MODULUS = 840


def _carry(rows: np.ndarray, sums: np.ndarray) -> None:
    """sums += rows[1], rows[2], ... in turn, as one column sum goes on (rows[0] is scratch)."""
    # a column sum starts at +0.0, so carried sums are never -0.0, and
    # adding them to that identity first changes no bit
    rows[0] = sums
    np.add.reduce(rows, axis=0, out=sums)


class _CarriedFold:
    """``residue_fold`` by m >= 2 of values fed one block at a time.

    The values are copied into staging rows, R = max(1, 2 _BLOCK // m - 2)
    at a time, under a row 0 that holds the column sums so far; one column
    sum of the R + 1 rows then carries each column's running sum on by R
    terms in order of n.  So every fold adds the values of its class in
    the order one column sum over all of them adds them, and has its bits.
    Besides the m sums the rows hold (R + 1) m values: fewer than 2 _BLOCK
    when m < _BLOCK, so they stay under glibc's mmap threshold as a chunk
    does, and 2m when m is larger.
    """

    def __init__(self, m: int) -> None:
        self.m = m
        self._sums = np.zeros(m, dtype=np.complex128)
        self._rows = np.empty((max(1, 2 * _BLOCK // m - 2) + 1, m), dtype=np.complex128)
        self._flat = self._rows.reshape(-1)
        self._staged = m  # _flat[m:_staged] holds values not yet summed

    def add(self, block: np.ndarray) -> None:
        while len(block):
            take = min(len(block), len(self._flat) - self._staged)
            self._flat[self._staged : self._staged + take] = block[:take]
            self._staged += take
            block = block[take:]
            if self._staged == len(self._flat):
                _carry(self._rows, self._sums)
                self._staged = self.m

    def result(self) -> np.ndarray:
        rows, rest = divmod(self._staged - self.m, self.m)
        _carry(self._rows[: rows + 1], self._sums)
        self._sums[:rest] += self._flat[(rows + 1) * self.m : self._staged]
        return np.roll(self._sums, 1)


def _weight_folds(weights: WeightSequence, n_terms: int, moduli) -> list[np.ndarray]:
    """``residue_fold`` of c_1..c_{n_terms} by each m, from one read of the chunks.

    Each chunk up to c_{n_terms} feeds a ``_CarriedFold`` per modulus, so
    the folds have the bits of ``residue_fold`` over the values as one
    array, a streamed sequence sieves each segment it reads once, and
    periodic weights fold views of their one period.  At m = 1 numpy sums
    the one column pairwise, so there the chunks are joined into one array.
    """
    blocks = _prefix_chunks(weights, n_terms)
    if 1 in moduli:
        values = np.concatenate(list(blocks))
        return [residue_fold(values, m) for m in moduli]
    folds = [_CarriedFold(m) for m in moduli]
    for block in blocks:
        for fold in folds:
            fold.add(block)
    return [fold.result() for fold in folds]


def residue_fold(values: np.ndarray, m: int) -> np.ndarray:
    """F_k = sum of c_n over n = 1..N with n = k (mod m), k = 0..m-1.

    The phase exp(-2 pi i n j/m) of every term in fold k is exp(-2 pi i
    k j/m), an exact integer residue, so a sum of the c_n against any
    frequency j/m is a sum over the m folds: ``cesaro_mean`` at r/s takes
    one dot product with s roots, and ``zero_set_scan`` one FFT for every
    j/m at once.  The folds are one column sum of the (N // m, m) view of
    ``values`` in order of n, plus the last N % m values; column j holds
    n = j + 1 (mod m), so the sums are rolled by one, and for contiguous
    values nothing longer than m is allocated.  The result is complex.
    The Cesaro readers fold a sequence's chunks (``_weight_folds``), which
    adds in the same order and so gives these bits.
    """
    if m < 1:
        raise ValueError(f"fold modulus m must be >= 1, got {m}")
    rows = len(values) // m
    folds = values[: rows * m].reshape(rows, m).sum(axis=0, dtype=np.complex128)
    folds[: len(values) - rows * m] += values[rows * m :]
    return np.roll(folds, 1)


def zero_set_scan(
    weights: WeightSequence,
    grid_size: int = 512,
    n_terms: int | None = None,
) -> SpectrumReport:
    """Evaluate the Cesaro mean over a frequency grid and record the peak.

    The uniform grid j/grid_size is augmented with all rationals of
    denominator <= 8, since surviving spectra sit at low-denominator
    rationals.  Every grid point is k/grid_size or k/840, so the means come
    from two residue folds of c_n, by n mod grid_size and n mod 840 (each
    one column sum in order of n), each followed by one FFT: the phases
    n k/m are exact integer residues, and the whole scan costs
    O(N + G log G) for N terms and grid size G.  One read of the chunks up
    to c_N feeds both folds, so a scan of streamed mu or lambda sieves
    each segment once and holds O(sqrt(N) + G + _BLOCK) values.  The keys
    come from one sort of the lattice j/G and the low rationals that are
    off it.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    n_total = len(weights)
    if n_terms is None:
        n_terms = n_total
    if not 1 <= n_terms <= n_total:
        raise ValueError(f"n_terms must be in 1..{n_total}")
    lattice, low_folds = _weight_folds(weights, n_terms, (grid_size, _LOW_MODULUS))
    # numerators over the common denominator keep the union exact
    common = math.lcm(grid_size, _LOW_MODULUS)
    g_step, low_step = common // grid_size, common // _LOW_MODULUS
    low = {r * (common // s) for s in range(2, 9) for r in range(1, s)}
    off_lattice = np.fromiter((k for k in low if k % g_step), dtype=np.int64)
    keys = np.sort(np.concatenate((np.arange(grid_size) * g_step, off_lattice)))
    grid = keys / common
    # a point that is also some j/grid_size takes its value from that fold
    sigma = np.where(
        keys % g_step == 0,
        np.fft.fft(lattice)[keys // g_step],
        np.fft.fft(low_folds)[keys // low_step],
    ) / n_terms
    return SpectrumReport(
        grid=grid,
        sigma=sigma,
        n_terms=n_terms,
        max_abs=float(np.max(np.abs(sigma))),
    )


def quadratic_rational_spectrum(numer: int, denom: int) -> dict[Fraction, complex]:
    """Exact surviving spectrum of the phases exp(2 pi i n^2 numer/denom).

    Candidates are the frequencies b/q, b = 0..q-1 (every reduced r/s with
    s | q), with p = numer and q = denom; the limit of the Cesaro mean at
    b/q is the Gauss sum A_b = (1/q) sum_k e((p k^2 + b k)/q).  Since
    k -> k + c permutes Z/q, completing the square settles every A_b on
    integers (Berndt, Evans and Williams, *Gauss and Jacobi Sums*, Wiley
    1998, ch. 1).  With h = 1 when q = 2 mod 4 and h = 0 otherwise, and
    Q(x) = p x^2 + h x:

    - q odd: every b survives, c = b (2p)^-1 mod q;
    - q = 0 mod 4: odd b vanish (k -> k + q/2 flips the sign of every
      term), and b = 2b' survives with c = b' p^-1 mod q;
    - q = 2 mod 4: even b vanish (by CRT the sum has the factor 1 - 1
      mod 2), and b = 1 + 2b' survives with c = b' p^-1 mod q;

    and then A_b = e(-Q(c)/q) A_h.  The base sum A_h is valued from one
    count of the residues Q(k) mod q, so every phase is an integer residue
    and no sum is tested for zero in floating point.  Returns the
    surviving frequencies with their limit amplitudes.
    """
    if denom < 1:
        raise ValueError("denominator must be >= 1")
    if not (0 <= numer < denom or (numer, denom) == (0, 1)):
        raise ValueError("require 0 <= numer < denom")
    if math.gcd(numer, denom) != 1:
        raise ValueError("numer and denom must be coprime")
    if denom * denom + denom >= 2**63:
        raise ValueError("denominator too large for int64 residues")
    h = int(denom % 4 == 2)

    def square(x):  # Q(x) mod q, every intermediate below q^2 + q
        return (x * x % denom * numer + h * x) % denom

    k = np.arange(denom, dtype=np.int64)
    roots = np.exp(2j * np.pi * k / denom)
    base = np.bincount(square(k), minlength=denom) @ roots / denom
    if denom % 2:
        b = k
        c = k * pow(2 * numer, -1, denom) % denom
    else:
        b = h + 2 * k[: denom // 2]
        c = k[: denom // 2] * pow(numer, -1, denom) % denom
    amplitudes = roots[-square(c) % denom] * base
    return dict(zip([Fraction(r, denom) for r in b.tolist()], amplitudes.tolist()))


def quadratic_rational_cesaro(
    numer: int, denom: int, freq: float | Fraction, n_terms: int
) -> complex:
    """Direct average of exp(2 pi i (n^2 numer/denom - n freq)), exact phases.

    Brute-force companion to ``quadratic_rational_spectrum``: phases are
    reduced with integer arithmetic so the only float work is the final
    root-of-unity sum.  ``freq`` is a float or a ``Fraction``, read exactly
    as the fraction it denotes; its denominator must divide denom.  The
    residue n^2 numer - n freq denom mod denom has period denom in n, so
    N = L denom + r terms are L copies of the residue counts of n =
    1..denom plus the counts of n = 1..r: the work is O(min(N, denom)).
    Raises if denom is so large that n^2 numer, with n up to min(N, denom),
    would overflow int64.
    """
    _check_n_terms(n_terms)
    freq = freq if isinstance(freq, Fraction) else Fraction(float(freq))
    if freq.denominator > denom or denom % freq.denominator != 0:
        raise ValueError("freq must have denominator dividing denom")
    numer %= denom
    shift = freq.numerator * (denom // freq.denominator) % denom
    n_max = min(n_terms, denom)
    if n_max * n_max * numer + n_max * shift >= 1 << 63:
        raise ValueError("denominator too large for int64 residues")
    n = np.arange(1, n_max + 1, dtype=np.int64)
    residues = (n * n * numer - n * shift) % denom
    periods, rest = divmod(n_terms, denom)
    counts = np.bincount(residues, minlength=denom) * periods
    counts += np.bincount(residues[:rest], minlength=denom)
    roots = np.exp(2j * np.pi * np.arange(denom) / denom)
    return complex(counts @ roots) / n_terms


# ----------------------------------------------------------------------
# export

def spectrum_csv(report: SpectrumReport) -> str:
    """CSV text with columns t, re_sigma, im_sigma, abs_sigma, N."""
    lines = ["t,re_sigma,im_sigma,abs_sigma,N"]
    for t, s in zip(report.grid, report.sigma):
        lines.append(
            f"{t:.17g},{s.real:.17g},{s.imag:.17g},{abs(s):.17g},{report.n_terms}"
        )
    return "\n".join(lines) + "\n"
