"""Exact integer arithmetic in cyclotomic fields.

Sums of roots of unity are represented by integer exponent-count vectors:
``counts[m]`` copies of ``exp(2*pi*1j*m/order)``.  Such a sum vanishes
exactly when ``C(x) = sum counts[m] x^m`` is divisible by the cyclotomic
polynomial Phi_q (q = order), decided as x^q - 1 | C * Psi_q in one
circulant product, where Psi_q = (x^q - 1)/Phi_q, entirely over the
integers.  No floating-point zero test is involved.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


@functools.lru_cache(maxsize=None)
def cyclotomic_cofactor(order: int) -> tuple[int, ...]:
    """Coefficients (ascending, Python ints) of Psi = (x^order - 1)/Phi_order.

    Psi is the product of (x^d - 1)^(-mu(order/d)) over the proper divisors
    d of order, i.e. over d = order/P for each nonempty product P of
    distinct primes of order, taken with exponent +1 for an odd number of
    primes and -1 for an even one.  Multiplying by x^d - 1 is a shift and
    subtract; dividing by it exactly is -cumsum over the coefficients laid
    out in rows of d.  All multiplications come first, so each division is
    exact.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    primes = [
        p for p in range(2, order + 1)
        if order % p == 0 and all(p % f for f in range(2, math.isqrt(p) + 1))
    ]
    subsets = [
        s for size in range(1, len(primes) + 1) for s in itertools.combinations(primes, size)
    ]
    psi = np.array([1], dtype=object)
    for subset in sorted(subsets, key=lambda s: len(s) % 2 == 0):
        d = order // math.prod(subset)
        zeros = np.zeros(d, dtype=object)
        if len(subset) % 2:
            psi = np.concatenate([zeros, psi]) - np.concatenate([psi, zeros])
        else:
            rows = np.concatenate([psi, zeros[: -len(psi) % d]]).reshape(-1, d)
            psi = -np.cumsum(rows, axis=0).ravel()[: len(psi) - d]
    return tuple(int(c) for c in psi)


def root_sum_is_zero(counts, order: int):
    """Exact test, row by row: does ``sum counts[..., m] exp(2 pi i m / order)`` vanish?

    Entry j of ``counts @ circulant`` with ``circulant[m, j] = Psi[(j - m) mod
    order]`` is the x^j coefficient of C * Psi mod x^order - 1, so a row is
    zero exactly when Phi_order divides its C.  The product runs in float64
    only when every term and partial sum is an integer below 2^53
    (order * max|count| * max|Psi|), so any summation order is exact;
    otherwise on Python ints.
    """
    counts = np.asarray(counts)
    if counts.shape[-1:] != (order,) or counts.dtype.kind not in "biuO":
        raise ValueError("counts must be integers, one slot per residue")
    cofactor = cyclotomic_cofactor(order)
    largest = max(int(counts.max(initial=0)), -int(counts.min(initial=0)))
    dtype = np.float64 if order * largest * max(map(abs, cofactor)) < 2**53 else object
    psi = np.zeros(order, dtype=dtype)
    psi[: len(cofactor)] = cofactor
    step = np.arange(order)
    product = counts.astype(dtype) @ psi[(step - step[:, None]) % order]
    return ~(product != 0).any(axis=-1)


def root_sum_value(counts, order: int):
    """Floating-point value of each row's root-of-unity sum (for reporting only)."""
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    return np.asarray(counts, dtype=np.float64) @ roots
