"""Exact integer arithmetic in cyclotomic fields.

Sums of roots of unity are represented by integer exponent-count vectors:
``counts[m]`` copies of ``exp(2*pi*1j*m/order)``.  Whether such a sum is
exactly zero is decided by reducing the polynomial ``sum counts[m] x^m``
modulo the cyclotomic polynomial of the given order, entirely over the
integers.  No floating-point zero test is involved.
"""

from __future__ import annotations

import functools

import numpy as np


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


def reduction_matrix(order: int) -> np.ndarray:
    """Rows: the coefficients (ascending) of x^m mod phi_order, m < order.

    Row m + 1 is row m times x, its x^deg term replaced by -(phi - x^deg).
    """
    phi = cyclotomic_polynomial(order)
    row = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(order):
        rows.append(row)
        top = row[-1]
        row = [c - top * p for c, p in zip([0] + row[:-1], phi)]
    return np.array(rows)


def reduce_root_counts(counts, order: int) -> np.ndarray:
    """Remainders of ``sum counts[..., m] x^m`` modulo the order-th cyclotomic polynomial.

    ``counts @ reduction_matrix(order)``, exact for any integer counts: the
    product runs in float64 only when every term and partial sum is an
    integer below 2^53 (row L1 norm <= order * max|count|, times the matrix
    height), so any summation order is exact; otherwise on Python ints.
    """
    counts = np.asarray(counts)
    if counts.shape[-1:] != (order,) or counts.dtype.kind not in "biuO":
        raise ValueError("counts must be integers, one slot per residue")
    matrix = reduction_matrix(order)
    largest = max(int(counts.max(initial=0)), -int(counts.min(initial=0)))
    if order * largest * int(np.abs(matrix).max()) < 2**53:
        return (counts.astype(np.float64) @ matrix).astype(np.int64)
    return counts.astype(object) @ matrix.astype(object)


def root_sum_is_zero(counts, order: int):
    """Exact test, row by row: does ``sum counts[..., m] exp(2 pi i m / order)`` vanish?"""
    return ~(reduce_root_counts(counts, order) != 0).any(axis=-1)


def root_sum_value(counts, order: int):
    """Floating-point value of each row's root-of-unity sum (for reporting only)."""
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    return np.asarray(counts, dtype=np.float64) @ roots
