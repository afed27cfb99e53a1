import math

import numpy as np
import pytest

from conftest import counterexample_report, random_modular
from oscillab import registry, sequences, torus
from oscillab.flows import isometry_defect, orbit

ALPHA = math.sqrt(2.0) - 1.0


def nine_translate_dist(u, v) -> float:
    """Reference: the quotient distance as a minimum over 9 integer translates."""
    delta = torus.torus_reduce(u) - torus.torus_reduce(v)
    best = math.inf
    for nx in (-1.0, 0.0, 1.0):
        for ny in (-1.0, 0.0, 1.0):
            dx = delta[0] - nx
            dy = delta[1] - ny
            best = min(best, dx * dx + dy * dy)
    return math.sqrt(best)


class TestModularMatrix:
    def test_determinant_validation(self):
        with pytest.raises(ValueError):
            torus.ModularMatrix(2, 0, 0, 2)

    def test_inverse_exact(self, rng):
        for _ in range(200):
            m = random_modular(rng)
            assert m @ m.inverse() == torus.ModularMatrix.identity()

    def test_parse_round_trip(self):
        m = torus.ModularMatrix.from_string("-5,6;-6,7")
        assert (m.a, m.b, m.c, m.d) == (-5, 6, -6, 7)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            torus.ModularMatrix.from_string("1,2,3;4")


class TestTorusMetric:
    def test_wraparound(self):
        assert torus.torus_dist((0.95, 0.0), (0.05, 0.0)) == pytest.approx(0.1)

    def test_norm_batch_matches_scalar(self, rng):
        pts = rng.random((2, 50))
        batch = torus.torus_norm_batch(pts)
        for i in range(50):
            assert batch[i] == pytest.approx(torus.torus_dist(pts[:, i], (0.0, 0.0)))

    def test_dist_equals_nine_translate_minimum(self, rng):
        # random, scaled and near-seam pairs, compared bit for bit
        seam = rng.random((2, 500)) * 1e-9
        pairs = [
            *zip(rng.random((1000, 2)), rng.random((1000, 2))),
            *zip(rng.normal(0.0, 10.0, (1000, 2)), rng.normal(0.0, 10.0, (1000, 2))),
            *zip((1.0 - seam).T, (seam * rng.choice([-1.0, 1.0], seam.shape)).T),
            ((0.25, 0.75), (0.75, 0.25)),
        ]
        for u, v in pairs:
            assert torus.torus_dist(u, v) == nine_translate_dist(u, v)

    def test_norm_batch_equals_nine_translate_minimum(self, rng):
        pts = np.concatenate(
            [rng.random((2, 2000)), 1.0 - rng.random((2, 200)) * 1e-10, np.full((2, 1), 0.5)],
            axis=1,
        )
        want = [nine_translate_dist(pts[:, i], (0.0, 0.0)) for i in range(pts.shape[1])]
        assert np.array_equal(torus.torus_norm_batch(pts), want)


class TestEntropyClassification:
    def test_unipotent_shear_zero(self):
        assert torus.classify_entropy(torus.ModularMatrix(1, 6, 0, 1)).kind == "zero"

    def test_hyperbolic_positive(self):
        result = torus.classify_entropy(torus.ModularMatrix(2, 1, 1, 1))
        assert result.kind == "positive"
        assert result.value == pytest.approx(math.log((3 + math.sqrt(5)) / 2))

    def test_rotation_matrix_zero(self):
        assert torus.classify_entropy(torus.ModularMatrix(0, 1, -1, 0)).kind == "zero"

    def test_det_minus_one_cases(self):
        assert torus.classify_entropy(torus.ModularMatrix(0, 1, 1, 0)).kind == "zero"
        result = torus.classify_entropy(torus.ModularMatrix(1, 1, 1, 0))
        assert result.kind == "positive"
        assert result.value == pytest.approx(math.log((1 + math.sqrt(5)) / 2))


class TestDiagBound:
    def test_identity(self):
        assert torus.diag_bound(torus.ModularMatrix.identity()) == 1.0

    def test_quarter_turn_is_unitary(self):
        assert torus.diag_bound(torus.ModularMatrix(0, 1, -1, 0)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_rejects_shear(self):
        with pytest.raises(ValueError):
            torus.diag_bound(torus.ModularMatrix(1, 3, 0, 1))

    def test_rejects_hyperbolic(self):
        with pytest.raises(ValueError):
            torus.diag_bound(torus.ModularMatrix(2, 1, 1, 1))

    @pytest.mark.parametrize(
        "matrix",
        [
            torus.ModularMatrix(0, 1, -1, -1),  # order 3
            torus.ModularMatrix(0, 1, -1, 0),  # order 4
            torus.ModularMatrix(0, 1, -1, 1),  # order 6
            torus.ModularMatrix(0, 1, 1, 0),  # det -1 involution
            torus.ModularMatrix(1, 0, 1, -1),  # b = 0: eigenvectors from c
            torus.ModularMatrix(-1, 0, 3, 1),
            torus.ModularMatrix(1, 0, 0, -1),  # diagonal
        ],
    )
    def test_orbit_certificate(self, matrix, rng):
        bound = torus.diag_bound(matrix)
        points = rng.random((2, 200))
        norms0 = torus.torus_norm_batch(points)
        arr = matrix.as_array()
        current = points.copy()
        for _ in range(100):
            current = np.mod(arr @ current, 1.0)
            assert np.all(
                torus.torus_norm_batch(current) <= bound * norms0 * (1 + 1e-9) + 1e-12
            )


class TestNormalForm:
    def test_worked_example_exact(self):
        m = torus.ModularMatrix(-5, 6, -6, 7)
        result = torus.normal_form(m)
        assert result.t == 6
        assert result.sign == 1
        assert result.basis == torus.ModularMatrix(1, 0, 1, 1)
        assert result.verify(m)

    @pytest.mark.parametrize("c", [-7, -1, 1, 4])
    def test_lower_triangular(self, c):
        result = torus.normal_form(torus.ModularMatrix(1, 0, c, 1))
        assert result.t == -c
        assert result.basis == torus.ModularMatrix(0, 1, -1, 0)

    def test_identity(self):
        result = torus.normal_form(torus.ModularMatrix.identity())
        assert result.t == 0
        assert result.basis == torus.ModularMatrix.identity()

    def test_negated_identity(self):
        result = torus.normal_form(-torus.ModularMatrix.identity())
        assert result.t == 0
        assert result.sign == -1

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            torus.normal_form(torus.ModularMatrix(0, 1, -1, 0))

    def test_canonical_basis_for_every_small_shear(self):
        # every det-1, trace-2 matrix with |a - 1| <= 12 and b, c != 0 has bc = -(a-1)^2
        for k in range(-12, 13):
            for b in range(-k * k, k * k + 1):
                if b == 0 or (k * k) % b:
                    continue
                m = torus.ModularMatrix(1 + k, b, -(k * k) // b, 1 - k)
                g = math.gcd(k, b)
                for matrix in (m, -m):
                    result = torus.normal_form(matrix)
                    assert 0 <= result.basis.b < abs(result.basis.a)
                    assert result.verify(matrix)
                    assert result.t == g * g // b

    def test_round_trip_random_conjugates(self, rng):
        for _ in range(1000):
            t = int(rng.integers(-50, 51))
            sign = 1 if rng.random() < 0.5 else -1
            base = torus.ModularMatrix.shear(t)
            if sign == -1:
                base = -base
            q = random_modular(rng)
            m = q @ base @ q.inverse()
            result = torus.normal_form(m)
            assert result.verify(m)
            assert result.sign == sign
            assert torus.conjugacy_equivalent(t, result.t) or t == result.t == 0


class TestConjugacyEquivalence:
    def test_equal_parameters(self):
        assert torus.conjugacy_equivalent(6, 6)

    def test_known_non_conjugate_pair(self):
        assert not torus.conjugacy_equivalent(2, 1)

    def test_square_ratio(self):
        assert torus.conjugacy_equivalent(8, 2)
        assert not torus.conjugacy_equivalent(2, 8)  # 1/4 is not an integer square
        assert not torus.conjugacy_equivalent(-4, 1)  # a negative ratio is no square
        assert torus.conjugacy_equivalent(-8, -2)
        assert not torus.conjugacy_equivalent(8, -2)

    def test_zero_pairs_only_with_zero(self):
        assert torus.conjugacy_equivalent(0, 0)
        assert not torus.conjugacy_equivalent(0, 3)
        assert not torus.conjugacy_equivalent(3, 0)

    def test_intertwiner_exists_for_square_ratio(self):
        # integer P with T_8 P = P T_2 exists even though no modular one does
        t8 = torus.ModularMatrix.shear(8).as_array()
        t2 = torus.ModularMatrix.shear(2).as_array()
        found = None
        for x in range(-4, 5):
            for y in range(-4, 5):
                for u in range(-4, 5):
                    for v in range(-4, 5):
                        p = np.array([[x, y], [u, v]])
                        if np.any(p) and np.array_equal(t8 @ p, p @ t2):
                            if np.linalg.det(p) != 0:
                                found = p
        assert found is not None


def shear_fiber(t, y):
    return registry.build_flow("shear_fiber", {"t": str(t), "y": str(y)})


class TestShearFiber:
    def test_trivial_fiber(self):
        flow = shear_fiber(1, 0.0)
        assert flow.step(0.3) == 0.3

    def test_tiny_negative_height_is_the_trivial_fiber(self):
        # (1 * -1e-20) % 1.0 rounds to 1.0, the same circle point as 0
        flow = shear_fiber(1, -1e-20)
        assert flow.name == "shear_fiber(t=1, y=-1e-20)"
        assert flow.step(0.3) == 0.3

    def test_named_after_the_shear(self):
        assert shear_fiber(1, ALPHA).name == "shear_fiber(t=1, y=0.414214)"

    @pytest.mark.parametrize("y", ["inf", "-inf", "nan"])
    def test_non_finite_height_rejected(self, y):
        with pytest.raises(ValueError, match=f"parameter y = {y} is not finite"):
            shear_fiber(1, y)

    def test_period_two_fiber(self):
        flow = shear_fiber(2, 0.25)
        x = flow.step(flow.step(0.1))
        assert x == pytest.approx(0.1, abs=1e-15)

    def test_fiber_isometric(self, rng):
        flow = shear_fiber(1, ALPHA)
        assert isometry_defect(flow, rng) <= 1e-12

    def test_irrational_fiber_equidistributes(self):
        flow = shear_fiber(1, ALPHA)
        pts = np.sort([p for p in orbit(flow, 0.0, 10**4)[1:]])
        n = len(pts)
        ranks = np.arange(1, n + 1) / n
        discrepancy = max(
            np.max(np.abs(ranks - pts)), np.max(np.abs(pts - (np.arange(n) / n)))
        )
        assert discrepancy < 0.02


class TestCounterexample:
    def test_identity_at_all_checkpoints(self):
        values = torus.counterexample_prefix_means(ALPHA, [1, 10, 100, 1000, 10**4])
        assert np.max(np.abs(values - 1.0)) < 1e-9

    def test_single_term_exact(self):
        assert abs(torus.counterexample_prefix_means(0.77, [1])[0] - 1.0) < 1e-14

    def test_iterated_agrees_with_closed(self):
        (closed,) = torus.counterexample_prefix_means(ALPHA, [10**4])
        shipped = counterexample_report(ALPHA, [10**4]).checkpoints[0][1]
        assert abs(closed - shipped) < 1e-6

    def test_weights_match_phase_definition(self):
        w = sequences.quadratic_phase_sequence(100, -ALPHA / 2.0)
        n = np.arange(1, 101, dtype=np.longdouble)
        expected = np.exp(-1j * np.pi * (n * n * np.longdouble(ALPHA) % 2.0).astype(float))
        assert np.max(np.abs(w.values - expected)) < 1e-9


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: torus.ModularMatrix(1.0, 0, 0, 1), TypeError, "integers"),
        (lambda: torus.normal_form(torus.ModularMatrix(0, 1, 1, 0)), ValueError, "determinant \\+1"),
        (lambda: torus.counterexample_prefix_means(ALPHA, [0, 5]), ValueError, ">= 1"),
    ],
    ids=["float_entry", "normal_form_of_a_flip", "checkpoint_zero"],
)
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
