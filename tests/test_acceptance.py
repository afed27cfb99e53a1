"""Acceptance suite: one test per criterion, tolerances pinned up front.

Each test prints a PASS line with its runtime; run with ``pytest -v -s``
to see them.  Budgets are asserted because they are part of the criteria.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import (
    counterexample_report,
    random_modular,
    rotation_trig_autocorrelation,
    toeplitz_min_eigenvalue,
)
from oscillab import analysis, circle, interval, padic, sequences, torus
from oscillab.flows import Observable

ALPHA = math.sqrt(2.0) - 1.0


class _Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.started
        return False


def _report(index, label, watch):
    print(f"ACCEPTANCE {index}: PASS - {label} ({watch.elapsed:.2f}s)")
    assert watch.elapsed < watch.budget, f"runtime budget exceeded: {watch.elapsed:.1f}s"


def test_01_exact_counterexample():
    checkpoints = [1, 10, 100, 1000, 3162, 10**4]
    with _Stopwatch(1.0) as watch:
        closed = torus.counterexample_prefix_means(ALPHA, checkpoints)
        assert np.max(np.abs(closed - 1.0)) < 1e-9
        report = counterexample_report(ALPHA, checkpoints)
        shipped = np.array([value for _, value in report.checkpoints])
        assert np.max(np.abs(closed - shipped)) < 1e-6
    _report(1, "affine counterexample averages to 1 within 1e-9", watch)


def test_02_quadratic_phase_spectra():
    expected = {
        2: {Fraction(1, 2)},
        3: {Fraction(0), Fraction(1, 3), Fraction(2, 3)},
        4: {Fraction(0), Fraction(1, 2)},
    }
    with _Stopwatch(30.0) as watch:
        for denom, spectrum in expected.items():
            atoms = sequences.quadratic_rational_spectrum(1, denom)
            assert set(atoms) == spectrum
            n_terms = 10**6 * denom
            for s in range(1, denom + 1):
                if denom % s:
                    continue
                for r in range(s):
                    if math.gcd(r, s) != 1:
                        continue
                    freq = Fraction(r, s)
                    brute = sequences.quadratic_rational_cesaro(1, denom, freq, n_terms)
                    exact = atoms.get(freq, 0j)
                    # N covers whole periods, so the mean is the atom itself
                    assert abs(brute - exact) <= 1e-12, (denom, freq)
    _report(2, "exact Gauss-sum spectra for q=2,3,4 match brute force", watch)


def test_03_modular_normal_form(rng):
    with _Stopwatch(1.0) as watch:
        worked = torus.ModularMatrix(-5, 6, -6, 7)
        result = torus.normal_form(worked)
        assert result.t == 6 and result.verify(worked)
        for _ in range(1000):
            t = int(rng.integers(-50, 51))
            sign = 1 if rng.random() < 0.5 else -1
            base = torus.ModularMatrix.shear(t)
            if sign == -1:
                base = -base
            conjugator = random_modular(rng)
            matrix = conjugator @ base @ conjugator.inverse()
            recovered = torus.normal_form(matrix)
            assert recovered.verify(matrix)
            assert (
                torus.conjugacy_equivalent(t, recovered.t)
                or t == recovered.t == 0
            )
    _report(3, "normal form exact on the worked example and 1000 conjugates", watch)


def test_04_diagonalizable_bound(rng):
    finite_order = [
        torus.ModularMatrix(0, 1, -1, -1),  # trace -1
        torus.ModularMatrix(0, 1, -1, 0),  # trace 0
        torus.ModularMatrix(0, 1, -1, 1),  # trace +1
    ]
    with _Stopwatch(5.0) as watch:
        for matrix in finite_order:
            bound = torus.diag_bound(matrix)
            points = rng.random((2, 1000))
            norms0 = torus.torus_norm_batch(points)
            arr = matrix.as_array()
            current = points.copy()
            for _ in range(1000):
                current = np.mod(arr @ current, 1.0)
                norms = torus.torus_norm_batch(current)
                assert np.all(norms <= bound * norms0 * (1 + 1e-9) + 1e-12)
    _report(4, "orbit norms bounded by C = cond(eigenbasis) for elliptic matrices", watch)


def test_05_padic_lipschitz(rng):
    with _Stopwatch(5.0) as watch:
        precision = 32
        for _ in range(10**4):
            p = int(rng.choice([2, 3, 5]))
            degree = int(rng.integers(0, 6))
            coeffs = [int(rng.integers(-100, 101)) for _ in range(degree + 1)]
            poly = padic.PadicPoly.from_ints(coeffs, p, precision)
            x = padic.random_padic_int(rng, p, precision)
            y = padic.random_padic_int(rng, p, precision)
            assert (poly(x) - poly(y)).valuation() >= (x - y).valuation()
        for _ in range(10**3):
            p = int(rng.choice([2, 3, 5]))
            x = padic.random_padic_int(rng, p, precision)
            y = padic.random_padic_int(rng, p, precision)
            one = padic.PadicInt.from_int(1, p, precision)
            spherical = padic.spherical_dist(
                padic.ProjPoint.make(x, one), padic.ProjPoint.make(y, one)
            )
            assert spherical.as_fraction() == (x - y).norm().as_fraction()
    _report(5, "1-Lipschitz exact on 10^4 random polynomial pairs; metrics agree", watch)


def test_06_cascade_and_coding():
    with _Stopwatch(60.0) as watch:
        assert interval.CASCADE_ORIGIN == -0.5
        result = interval.cascade(8)
        params = result.parameters
        assert abs(params[0] - 0.5) < 1e-9
        ratios = result.ratios()
        for n in (4, 5, 6, 7):
            assert abs(ratios[n - 1] / 4.669 - 1.0) < 0.05
        for depth in range(1, 7):
            t = params[depth - 1] + 0.5 * (params[depth] - params[depth - 1])
            report = interval.attractor_coding(t, depth)
            assert report.is_adding_machine, depth
    _report(6, "cascade ratios near 4.669 and odometer coding to depth 6", watch)


def test_07_denjoy():
    with _Stopwatch(60.0) as watch:
        denjoy = circle.build_denjoy(ALPHA, 13000)
        estimate = circle.rotation_number(denjoy.step, 0.3, 10**5)
        assert abs(estimate - ALPHA) < 1e-3
        for j in range(1, 21):
            a, b, k, separation = circle.non_equicontinuity_witness(denjoy, 2.0**-j)
            assert separation >= denjoy.gap_length(0) / 2.0
        horizon = 10**4
        for eps in (0.1, 0.05, 0.02):
            pairs = circle.close_endpoint_pairs(denjoy, eps, 100, horizon, seed=17)
            assert len(pairs) == 100
            for first, second in pairs:
                density = circle.mls_density_on_lambda(denjoy, first, second, eps, horizon)
                assert density < eps, (eps, first, second, density)
    _report(7, "Denjoy rotation number, witnesses, and symbolic MLS densities", watch)


def test_08_disjointness_suite():
    with _Stopwatch(120.0) as watch:
        n_terms = 10**5
        rotation = circle.rotation_flow(ALPHA)
        trig = Observable(
            "fourier(1)", lambda x: complex(np.exp(2j * np.pi * x))
        )
        mobius_report = analysis.weighted_birkhoff(
            sequences.mobius_sequence(n_terms), rotation, trig, 0.0
        )
        assert mobius_report.verdict == "decaying"
        assert abs(mobius_report.final_value()) < 0.05
        quad_report = analysis.weighted_birkhoff(
            sequences.quadratic_phase_sequence(n_terms, ALPHA),
            rotation,
            trig,
            0.0,
        )
        assert quad_report.verdict == "decaying"
        assert abs(quad_report.final_value()) < 0.05
        n = np.arange(1, n_terms + 1)
        resonant = sequences.WeightSequence(
            "first_order_mode", np.exp(2j * np.pi * ALPHA * n), 2.0
        )
        conj_mode = Observable(
            "fourier(-1)", lambda x: complex(np.exp(-2j * np.pi * x))
        )
        resonant_report = analysis.weighted_birkhoff(
            resonant, rotation, conj_mode, 0.0
        )
        assert resonant_report.verdict == "stagnant"
        assert abs(resonant_report.limit_estimate - 1.0) < 0.01
    _report(8, "Mobius and quadratic phases decay; resonant pair stagnates at 1", watch)


def test_09_spectral_autocorrelation():
    coeffs = {-3: 0.1, -1: 0.25, 0: 0.5, 1: 0.25, 3: 0.1}

    def trig(x):
        return sum(a * np.exp(2j * np.pi * m * x) for m, a in coeffs.items())

    with _Stopwatch(30.0) as watch:
        n_terms = 10**6
        rotation = circle.rotation_flow(ALPHA)
        gamma = analysis.autocorrelation_spectrum(
            rotation, Observable("trig", trig), 0.0, 32, n_terms
        )
        expected = rotation_trig_autocorrelation(coeffs, ALPHA, np.arange(33))
        assert np.max(np.abs(gamma - expected)) < 2.0 / math.sqrt(n_terms)
        assert toeplitz_min_eigenvalue(gamma) >= -1e-6
    _report(9, "autocorrelations match the spectral atoms; Toeplitz PSD holds", watch)


def test_10_holder_inequality(rng):
    weights = sequences.mobius_sequence(512)
    scalar_mode = Observable(
        "fourier(1)", lambda x: complex(np.exp(2j * np.pi * float(x)))
    )
    torus_mode = Observable(
        "torus_fourier(1,1)",
        lambda xy: complex(np.exp(2j * np.pi * (float(xy[0]) + float(xy[1])))),
    )
    denjoy = circle.build_denjoy(ALPHA, 2000)
    adding = padic.adding_machine(2, 32)
    padic_mode = Observable(
        "padic_phase(5)",
        lambda x: complex(np.exp(2j * np.pi * (x.residue % 32) / 32.0)),
    )
    families = [
        (circle.rotation_flow(ALPHA), scalar_mode, lambda: (rng.random(), rng.random())),
        (
            torus.torus_affine_flow(torus.ModularMatrix(0, 1, -1, 0)),
            torus_mode,
            lambda: (rng.random(2), rng.random(2)),
        ),
        (
            interval.quadratic_flow(0.7),
            scalar_mode,
            lambda: tuple(rng.uniform(-1.0, 1.0, 2)),
        ),
        (denjoy.as_flow(), scalar_mode, lambda: (rng.random(), rng.random())),
        (
            adding,
            padic_mode,
            lambda: (
                padic.random_padic_int(rng, 2, 32),
                padic.random_padic_int(rng, 2, 32),
            ),
        ),
    ]
    with _Stopwatch(120.0) as watch:
        for flow, observable, sampler in families:
            worst = -np.inf
            for _ in range(1000):
                x, y = sampler()
                worst = max(
                    worst, analysis.holder_defect(weights, flow, observable, x, y, 256)
                )
            assert worst <= 1e-10, flow.name
    _report(10, "averaged Holder bound holds on 1000 pairs per flow family", watch)
