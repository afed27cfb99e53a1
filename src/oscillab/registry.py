"""Name-indexed factories for sequences, flows, and observables.

The experiment runner instantiates everything through this registry, so
config files refer to generators by name and the CLI can enumerate what is
available together with each entry's parameter schema.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import circle, interval, padic, torus
from .flows import Flow, Observable
from .sequences import (
    WeightSequence,
    liouville_sequence,
    mobius_sequence,
    nlogn_phase_sequence,
    polynomial_phase_sequence,
    quadratic_phase_sequence,
    rational_phases,
    subnormal_sequence,
)


class RegistryError(KeyError):
    """Unknown registry name or bad parameter set."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


@dataclass(frozen=True)
class RegistryEntry:
    factory: Callable
    params: dict[str, str]  # name -> type tag ('int', 'float', 'str', 'floats', 'ints')
    needs_seed: bool = False
    description: str = ""


def _parse_value(tag: str, raw: str):
    if tag == "int":
        return int(raw)
    if tag == "float":
        return float(raw)
    if tag == "str":
        return raw
    if tag == "ints":
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    if tag == "floats":
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    raise RegistryError(f"unknown parameter type tag {tag!r}")


# ----------------------------------------------------------------------
# sequences

SEQUENCES: dict[str, RegistryEntry] = {
    "mobius": RegistryEntry(mobius_sequence, {}, description="Mobius function mu(n)"),
    "liouville": RegistryEntry(
        liouville_sequence, {}, description="Liouville function (-1)^Omega(n)"
    ),
    "quadratic_phase": RegistryEntry(
        quadratic_phase_sequence,
        {"alpha": "float"},
        description="exp(2 pi i n^2 alpha)",
    ),
    "nlogn_phase": RegistryEntry(
        nlogn_phase_sequence, {"c": "float"}, description="exp(2 pi i c n log n)"
    ),
    "polynomial_phase": RegistryEntry(
        polynomial_phase_sequence,
        {"coeffs": "floats"},
        description="exp(2 pi i P(n)), coefficients ascending",
    ),
    "subnormal": RegistryEntry(
        subnormal_sequence,
        {"tau": "float"},
        needs_seed=True,
        description="n^tau times random signs (seeded)",
    ),
}


# ----------------------------------------------------------------------
# flows

def _flow_denjoy(rho: float, trunc: int) -> Flow:
    return circle.build_denjoy(rho, trunc).as_flow()


def _flow_torus_affine(matrix: str, shift) -> Flow:
    return torus.torus_affine_flow(torus.ModularMatrix.from_string(matrix), tuple(shift))


def _flow_torus_auto(matrix: str) -> Flow:
    return torus.torus_affine_flow(torus.ModularMatrix.from_string(matrix))


def _flow_padic_poly(p: int, precision: int, coeffs) -> Flow:
    return padic.poly_flow(padic.PadicPoly.from_ints(coeffs, p, precision))


def _flow_padic_rational(p: int, precision: int, num, den) -> Flow:
    return padic.rational_flow(
        padic.PadicPoly.from_ints(num, p, precision),
        padic.PadicPoly.from_ints(den, p, precision),
    )


def _flow_shear_fiber(t: int, y: float) -> Flow:
    """The shear (x, y) -> (x + t y, y) on its invariant fiber: rotation by t y."""
    if not math.isfinite(y):
        raise ValueError(f"shear_fiber parameter y = {y} is not finite")
    # t y as one exact constant term, so any integer t is reduced exactly
    (angle,) = rational_phases([t * Fraction(y)], [0])
    return replace(circle.rotation_flow(float(angle)), name=f"shear_fiber(t={t}, y={y:g})")


FLOWS: dict[str, RegistryEntry] = {
    "rotation": RegistryEntry(
        circle.rotation_flow, {"rho": "float"}, description="rigid circle rotation"
    ),
    "denjoy": RegistryEntry(
        _flow_denjoy,
        {"rho": "float", "trunc": "int"},
        description="Denjoy counter-example (truncated gap table)",
    ),
    "torus_affine": RegistryEntry(
        _flow_torus_affine,
        {"matrix": "str", "shift": "floats"},
        description="x -> Ax + b on the 2-torus; matrix as 'a,b;c,d'",
    ),
    "torus_auto": RegistryEntry(
        _flow_torus_auto,
        {"matrix": "str"},
        description="automorphism x -> Ax on the 2-torus",
    ),
    "padic_poly": RegistryEntry(
        _flow_padic_poly,
        {"p": "int", "precision": "int", "coeffs": "ints"},
        description="polynomial flow on the p-adic integers",
    ),
    "padic_rational": RegistryEntry(
        _flow_padic_rational,
        {"p": "int", "precision": "int", "num": "ints", "den": "ints"},
        description="good-reduction rational flow on the projective line",
    ),
    "quadratic_family": RegistryEntry(
        interval.quadratic_flow,
        {"t": "float"},
        description="t - (1+t)x^2 on [-1, 1]",
    ),
    "adding_machine": RegistryEntry(
        padic.adding_machine,
        {"p": "int", "precision": "int"},
        description="x -> x + 1 on the p-adic integers",
    ),
    "shear_fiber": RegistryEntry(
        _flow_shear_fiber,
        {"t": "int", "y": "float"},
        description="torus shear restricted to one circle fiber",
    ),
}


# ----------------------------------------------------------------------
# observables
#
# Each ``eval_block`` computes what ``eval`` computes per point, in the same
# floating-point operations, so a block's values equal the per-point ones.

def _obs_fourier(k: int) -> Observable:
    def evaluate(x):
        return cmath.exp(2j * math.pi * k * float(x))

    def evaluate_block(points):
        return np.exp(2j * math.pi * k * np.asarray(points, dtype=float))

    return Observable(f"fourier({k})", evaluate, evaluate_block)


def _obs_torus_fourier(k1: int, k2: int) -> Observable:
    def evaluate(xy):
        return cmath.exp(2j * math.pi * (k1 * float(xy[0]) + k2 * float(xy[1])))

    def evaluate_block(points):
        xy = np.asarray(points, dtype=float)
        return np.exp(2j * math.pi * (k1 * xy[:, 0] + k2 * xy[:, 1]))

    return Observable(f"torus_fourier({k1},{k2})", evaluate, evaluate_block)


def _obs_coordinate() -> Observable:
    return Observable(
        "coordinate",
        lambda x: complex(float(x)),
        lambda points: np.asarray(points, dtype=float).astype(complex),
    )


def _check_level(level: int) -> None:
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")


def _check_resolution(precision: int, level: int) -> None:
    # digits past the working precision are unknown, so the phase would be too
    if precision < level:
        raise ValueError(
            f"resolution exceeds working precision (level {level} > precision {precision})"
        )


def _check_block(points, projective: bool, name: str) -> None:
    if not isinstance(points, padic.ResidueBlock) or (points.y is not None) != projective:
        space = "the projective line" if projective else "Z_p"
        raise TypeError(f"{name} evaluates points of {space}")


def _unit_phases(residues: np.ndarray, modulus: int) -> np.ndarray:
    """exp(2 pi i r / modulus) per residue r, rounded as cmath.exp(2j*pi*r/modulus)."""
    # the imaginary part of 2j*pi*r/modulus is (2*pi*r)/modulus, its real part 0
    return np.exp(1j * np.asarray(2 * math.pi * residues / modulus, dtype=float))


def _obs_padic_phase(level: int) -> Observable:
    _check_level(level)
    name = f"padic_phase({level})"

    def evaluate(x: padic.PadicInt):
        _check_resolution(x.precision, level)
        modulus = x.p**level
        return cmath.exp(2j * math.pi * (x.residue % modulus) / modulus)

    def evaluate_block(points: padic.ResidueBlock):
        _check_block(points, False, name)
        _check_resolution(points.precision, level)
        modulus = points.p**level
        return _unit_phases(points.x % modulus, modulus)

    return Observable(name, evaluate, evaluate_block, level=level)


def _obs_projective_phase(level: int) -> Observable:
    """Locally constant phase on the projective line (clopen charts)."""
    _check_level(level)
    name = f"projective_phase({level})"

    def evaluate(point: padic.ProjPoint):
        _check_resolution(point.x.precision, level)
        p = point.x.p
        modulus = p**level
        x, y = point.x.residue, point.y.residue
        # the inverse mod p^level is the inverse mod p^precision reduced
        if y % p:
            chart = x * pow(y, -1, modulus) % modulus
            return cmath.exp(2j * math.pi * chart / modulus)
        chart = y * pow(x, -1, modulus) % modulus
        return -cmath.exp(2j * math.pi * chart / modulus)

    def evaluate_block(points: padic.ResidueBlock):
        _check_block(points, True, name)
        _check_resolution(points.precision, level)
        p = points.p
        modulus = p**level
        # products of two residues mod p^level must not overflow int64
        dtype = np.int64 if modulus * modulus < 2**63 else object
        x = (points.x % modulus).astype(dtype)
        y = (points.y % modulus).astype(dtype)
        finite = y % p != 0
        # the chart divides by the unit coordinate: invert each distinct one once
        units, where = np.unique(np.where(finite, y, x), return_inverse=True)
        inverses = np.array([pow(int(u), -1, modulus) for u in units], dtype=dtype)
        phases = _unit_phases(np.where(finite, x, y) * inverses[where] % modulus, modulus)
        return np.where(finite, phases, -phases)

    return Observable(name, evaluate, evaluate_block, level=level)


OBSERVABLES: dict[str, RegistryEntry] = {
    "fourier": RegistryEntry(
        _obs_fourier, {"k": "int"}, description="exp(2 pi i k x) for scalar states"
    ),
    "torus_fourier": RegistryEntry(
        _obs_torus_fourier,
        {"k1": "int", "k2": "int"},
        description="exp(2 pi i (k1 x + k2 y)) on the torus",
    ),
    "coordinate": RegistryEntry(
        _obs_coordinate, {}, description="the scalar state itself"
    ),
    "padic_phase": RegistryEntry(
        _obs_padic_phase,
        {"level": "int"},
        description="phase of the residue mod p^level",
    ),
    "projective_phase": RegistryEntry(
        _obs_projective_phase,
        {"level": "int"},
        description="chartwise phase on the projective line",
    ),
}


# ----------------------------------------------------------------------
# builders

def _build(group: dict[str, RegistryEntry], kind: str, name: str, params: dict[str, str], **extra):
    if name not in group:
        raise RegistryError(
            f"unknown {kind} {name!r}; known: {', '.join(sorted(group))}"
        )
    entry = group[name]
    unknown = set(params) - set(entry.params)
    if unknown:
        raise RegistryError(f"{kind} {name!r} got unknown parameters {sorted(unknown)}")
    missing = set(entry.params) - set(params)
    if missing:
        raise RegistryError(f"{kind} {name!r} missing parameters {sorted(missing)}")
    parsed = {key: _parse_value(tag, params[key]) for key, tag in entry.params.items()}
    return entry.factory(**parsed, **extra)


def build_sequence(name: str, params: dict[str, str], n_terms: int, seed=None) -> WeightSequence:
    """Build a registered sequence; ``seed`` reaches only the seeded entries."""
    entry = SEQUENCES.get(name)
    if entry is None or not entry.needs_seed:
        return _build(SEQUENCES, "sequence", name, params, n_terms=n_terms)
    if seed is None:
        raise RegistryError(f"sequence {name!r} requires a seed")
    return _build(SEQUENCES, "sequence", name, params, n_terms=n_terms, seed=seed)


def build_flow(name: str, params: dict[str, str]) -> Flow:
    return _build(FLOWS, "flow", name, params)


def build_observable(name: str, params: dict[str, str]) -> Observable:
    return _build(OBSERVABLES, "observable", name, params)


def parse_start(flow_name: str, raw: str, flow: Flow):
    """Parse a start point with the parser of the flow's state space."""
    if flow.parse is None:
        raise RegistryError(f"no start-point parser for flow {flow_name!r}")
    return flow.parse(raw.strip())


def registry_table() -> str:
    """Stable, human-readable listing of every registered name and schema."""
    lines = []
    for title, group in (
        ("sequences", SEQUENCES),
        ("flows", FLOWS),
        ("observables", OBSERVABLES),
    ):
        lines.append(f"{title}:")
        for name in sorted(group):
            entry = group[name]
            schema = ", ".join(f"{k}:{v}" for k, v in sorted(entry.params.items()))
            seed_note = " (seeded)" if entry.needs_seed else ""
            lines.append(f"  {name:18s} [{schema}]{seed_note}  {entry.description}")
    return "\n".join(lines) + "\n"
