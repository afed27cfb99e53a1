"""Reference values that do not share oscillab's accumulation or phase code.

Weighted averages are recomputed with a plain ``math.fsum`` per checkpoint.
Weights come from an independent sieve or from exact integer phases: a
float coefficient is exactly m / 2^e, so n^k * m mod 2^e is exact in
wrapping uint64 arithmetic whenever e <= 64.  Orbits are stepped with the
program's own ``Flow.step``: what is checked here is the accumulation, the
weights and the observable, not the map.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np

# Largest |reference - program| accepted for a checkpoint average.  The
# program's longdouble quadratic phases are off by up to ~1e-9 at the
# sizes used here (see sequences.quadratic_phase.max_phase_err), which
# moves an average by at most 2*pi times that; every other difference is
# rounding of order 1e-15.
CHECKPOINT_TOL = 1e-8
SPECTRUM_TOL = 1e-9


def dyadic_phases(coeffs, n: np.ndarray) -> np.ndarray:
    """Fractional parts of sum_k coeffs[k] n^k, exact before the final rounding."""
    fracs = [Fraction(float(c)) for c in coeffs]
    exps = [f.denominator.bit_length() - 1 for f in fracs]
    top = max(exps)
    if top > 64:
        raise ValueError("coefficient needs more than 64 binary digits")
    n = np.asarray(n, dtype=np.uint64)
    acc = np.zeros(len(n), dtype=np.uint64)
    power = np.ones(len(n), dtype=np.uint64)
    for frac, e in zip(fracs, exps):
        scaled = (frac.numerator << (top - e)) % (1 << 64)
        acc += power * np.uint64(scaled)
        power *= n
    if top == 0:
        return np.zeros(len(n))
    if top < 64:
        acc &= np.uint64((1 << top) - 1)
    return acc.astype(np.float64) / 2.0**top


def _prime_factor_counts(n_max: int):
    """(distinct prime factors, prime factors with multiplicity, squarefree)."""
    omega = np.zeros(n_max + 1, dtype=np.int64)
    big_omega = np.zeros(n_max + 1, dtype=np.int64)
    squarefree = np.ones(n_max + 1, dtype=bool)
    composite = np.zeros(n_max + 1, dtype=bool)
    for p in range(2, n_max + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = True
        omega[p::p] += 1
        power = p
        while power <= n_max:
            big_omega[power::power] += 1
            power *= p
        if p * p <= n_max:
            squarefree[p * p :: p * p] = False
    return omega[1:], big_omega[1:], squarefree[1:]


def weights(name: str, params: dict, n_terms: int, seed) -> np.ndarray:
    n = np.arange(1, n_terms + 1, dtype=np.uint64)
    if name == "mobius":
        omega, _, squarefree = _prime_factor_counts(n_terms)
        return np.where(squarefree, (-1.0) ** omega, 0.0).astype(complex)
    if name == "liouville":
        _, big_omega, _ = _prime_factor_counts(n_terms)
        return ((-1.0) ** big_omega).astype(complex)
    if name == "quadratic_phase":
        return np.exp(2j * np.pi * dyadic_phases([0, 0, params["alpha"]], n))
    if name == "polynomial_phase":
        return np.exp(2j * np.pi * dyadic_phases(params["coeffs"].split(","), n))
    if name == "nlogn_phase":
        getcontext().prec = 40
        c = Decimal(float(params["c"]))
        phases = [float((c * k * Decimal(k).ln()) % 1) for k in range(1, n_terms + 1)]
        return np.exp(2j * np.pi * np.array(phases))
    if name == "subnormal":
        # the sequence is defined by this generator's draws
        signs = np.random.default_rng(seed).integers(0, 2, size=n_terms) * 2 - 1
        return (np.arange(1, n_terms + 1, dtype=float) ** float(params["tau"]) * signs).astype(complex)
    raise KeyError(name)


def observable(name: str, params: dict, points: list) -> np.ndarray:
    if name == "fourier":
        return np.exp(2j * np.pi * int(params["k"]) * np.array(points, dtype=float))
    if name == "coordinate":
        return np.array(points, dtype=float).astype(complex)
    if name == "torus_fourier":
        xy = np.array(points, dtype=float)
        return np.exp(2j * np.pi * (int(params["k1"]) * xy[:, 0] + int(params["k2"]) * xy[:, 1]))
    level = int(params["level"])
    if name == "padic_phase":
        return np.array([cmath.exp(2j * math.pi * (x.residue % x.p**level) / x.p**level) for x in points])
    if name == "projective_phase":
        out = []
        for point in points:
            modulus = point.x.p**level
            a, b = point.x.residue % modulus, point.y.residue % modulus
            if point.y.residue % point.x.p:
                out.append(cmath.exp(2j * math.pi * (a * pow(b, -1, modulus) % modulus) / modulus))
            else:
                out.append(-cmath.exp(2j * math.pi * (b * pow(a, -1, modulus) % modulus) / modulus))
        return np.array(out)
    raise KeyError(name)


def birkhoff_reference(spec: dict) -> list[list[float]]:
    """[[N, re, im], ...] at the spec's checkpoints, by fsum over exact terms."""
    checkpoints = spec["checkpoints"]
    n_max = checkpoints[-1]
    points = _orbit(spec["flow"], json.dumps(spec["flow_params"]), spec["start"], n_max)
    terms = _weights(spec["seq"], json.dumps(spec["seq_params"]), spec["n"], spec["seed"])[:n_max]
    terms = terms * observable(spec["obs"], spec["obs_params"], points)
    return [
        [n, math.fsum(terms.real[:n]) / n, math.fsum(terms.imag[:n]) / n] for n in checkpoints
    ]


@functools.lru_cache(maxsize=None)
def _orbit(flow_name: str, params_json: str, start_text: str, n_steps: int) -> list:
    from oscillab import registry

    flow = registry.build_flow(flow_name, json.loads(params_json))
    x = registry.parse_start(flow_name, start_text, flow)
    points = []
    for _ in range(n_steps):
        x = flow.step(x)
        points.append(x)
    return points


@functools.lru_cache(maxsize=None)
def _weights(name: str, params_json: str, n_terms: int, seed) -> np.ndarray:
    return weights(name, json.loads(params_json), n_terms, seed)


def cesaro_reference(spec: dict, freqs: list[float]) -> list[list[float]]:
    """[[t, re, im], ...]: (1/N) sum c_n e(-n t) with exact phases n t mod 1."""
    n_terms = spec["n"]
    n = np.arange(1, n_terms + 1, dtype=np.uint64)
    c = _weights(spec["seq"], json.dumps(spec["seq_params"]), n_terms, spec["seed"])
    out = []
    for t in freqs:
        terms = c * np.exp(-2j * np.pi * dyadic_phases([0, t], n))
        out.append([t, math.fsum(terms.real) / n_terms, math.fsum(terms.imag) / n_terms])
    return out


def compare(record: list, reference: list, tol: float) -> str | None:
    """None when every value agrees with the reference within ``tol``."""
    for (key, re, im), (ref_key, ref_re, ref_im) in zip(record, reference):
        if key != ref_key:
            return f"checkpoint {key} has no reference"
        err = abs(complex(re, im) - complex(ref_re, ref_im))
        if not err <= tol:
            return f"at {key}: |program - reference| = {err:.3g} > {tol:g}"
    if len(record) != len(reference):
        return "checkpoint count differs from the reference"
    return None
