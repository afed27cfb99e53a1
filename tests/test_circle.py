import math
from fractions import Fraction

import numpy as np
import pytest

from oscillab import circle
from oscillab.flows import circle_distance, isometry_defect, orbit
from oscillab.sequences import rational_phases

RHO = math.sqrt(2.0) - 1.0


def star_discrepancy(points):
    pts = np.sort(np.asarray(points))
    n = len(pts)
    up = np.max(np.abs(np.arange(1, n + 1) / n - pts))
    down = np.max(np.abs(pts - np.arange(n) / n))
    return max(up, down)


@pytest.fixture(scope="module")
def denjoy():
    return circle.build_denjoy(RHO, 4000)


class TestRotationFlow:
    def test_zero_angle_identity(self):
        flow = circle.rotation_flow(0.0)
        assert flow.step(0.42) == 0.42

    def test_period_three(self):
        flow = circle.rotation_flow(1.0 / 3.0)
        x = 0.1
        for _ in range(3):
            x = flow.step(x)
        assert circle_distance(x, 0.1) < 1e-12

    def test_equidistribution(self):
        flow = circle.rotation_flow(RHO)
        points = orbit(flow, 0.0, 10**5)[1:]
        assert star_discrepancy(points) < 0.01

    def test_isometry(self, rng):
        assert isometry_defect(circle.rotation_flow(RHO), rng) <= 1e-12

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            circle.rotation_flow(1.5)

    @pytest.mark.parametrize("rho", [RHO, 0.5, 1.0 - 2.0**-53, 2.0**-70])
    def test_few_point_block_is_the_closed_form(self, rho, rng):
        # up to 8 points the block reduces in Python ints; rational_phases is the reference
        flow = circle.rotation_flow(rho)
        starts = [*rng.random(50).tolist(), 0.0, -0.3, 3.7, 1e-30, -1e-300, 5e-324, 1.0 - 2.0**-53]
        for x in starts:
            phases = rational_phases([x, rho], np.arange(10))
            for n in range(10):
                points, last = flow.block(x, n)
                assert points.tobytes() == phases[1 : n + 1].tobytes(), (x, n)
                assert type(last) is float and np.float64(last).tobytes() == phases[n].tobytes()
        with pytest.raises(ValueError, match="not finite"):
            flow.block(math.inf, 1)


class TestDenjoyConstruction:
    def test_truncated_mass_plus_tail_is_one(self, denjoy):
        raw_total = math.fsum(
            denjoy.raw_length(n)
            for n in range(-denjoy.truncation, denjoy.truncation + 1)
        )
        assert raw_total + denjoy.tail_mass == pytest.approx(1.0, abs=1e-14)

    def test_tail_bound_dominates_tail_mass(self, denjoy):
        assert 0.0 < denjoy.tail_mass <= denjoy.tail_bound

    def test_realized_gaps_tile_the_circle(self, denjoy):
        total = math.fsum(
            denjoy.gap_length(n)
            for n in range(-denjoy.truncation, denjoy.truncation + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_gaps_disjoint(self, denjoy):
        lefts = np.sort(
            [denjoy.gap_left(n) for n in range(-denjoy.truncation, denjoy.truncation + 1)]
        )
        # flush tiling: consecutive left endpoints differ by a full gap length
        assert np.min(np.diff(lefts)) > 0.0

    def test_first_gap_position(self, denjoy):
        # gap 1 sits at the cumulative mass of all gaps preceding x_1 = rho
        expected = math.fsum(
            denjoy.gap_length(n)
            for n in range(-denjoy.truncation, denjoy.truncation + 1)
            if denjoy.orbit_point(n) < denjoy.orbit_point(1)
        )
        assert denjoy.gap_left(1) == pytest.approx(expected, abs=1e-12)

    def test_orbit_points_exact(self, denjoy):
        rho = Fraction(denjoy.rotation)
        for n in range(-denjoy.truncation, denjoy.truncation + 1):
            assert denjoy.orbit_point(n) == float(n * rho % 1)

    def test_trunc_too_small_rejected(self):
        with pytest.raises(ValueError):
            circle.build_denjoy(RHO, 100)

    @pytest.mark.parametrize("rho", [0.5, 0.25, 0.1])
    def test_rational_rotation_rejected(self, rho):
        # n * rho mod 1 repeats within the stored range (0.1: 1355 of 2001 distinct)
        with pytest.raises(ValueError, match="repeats orbit points"):
            circle.build_denjoy(rho, 1000)


class TestDenjoyStep:
    def test_left_endpoint_maps_to_left_endpoint(self, denjoy):
        assert denjoy.step(denjoy.endpoint(0, "left")) == pytest.approx(
            denjoy.endpoint(1, "left"), abs=1e-12
        )

    def test_gap_lengths_decay_forward(self, denjoy):
        lengths = [denjoy.gap_length(n) for n in range(0, denjoy.truncation + 1)]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] < denjoy.tail_bound

    def test_semiconjugacy_identity_random_points(self, denjoy, rng):
        worst = 0.0
        for _ in range(1000):
            x = float(rng.random())
            defect = circle_distance(
                denjoy.semiconjugacy(denjoy.step(x)),
                (denjoy.semiconjugacy(x) + RHO) % 1.0,
            )
            worst = max(worst, defect)
        assert worst <= 2.0 * denjoy.tail_bound

    def test_monotone_on_cyclic_triples(self, denjoy, rng):
        for _ in range(10**4):
            a, b, c = rng.random(3)
            if len({round(v, 12) for v in (a, b, c)}) < 3:
                continue
            before = circle._cyclic_order(a, b, c)
            after = circle._cyclic_order(
                denjoy.step(a), denjoy.step(b), denjoy.step(c)
            )
            assert before == after


class TestSemiConjugacy:
    def test_collapses_gaps_to_orbit_points(self, denjoy):
        h = denjoy.semiconjugacy
        left = denjoy.endpoint(3, "left")
        interior = left + 0.5 * denjoy.gap_length(3)
        assert h(left) == h(interior) == denjoy.orbit_point(3)

    def test_defect_within_tail(self, denjoy, rng):
        # |h(T x) - R_rho(h x)| on the circle
        h = denjoy.semiconjugacy
        sup_defect = max(
            circle_distance(h(denjoy.step(x)), (h(x) + denjoy.rotation) % 1.0)
            for x in rng.random(1000)
        )
        assert sup_defect <= 2.0 * denjoy.tail_bound


class TestSymbolicOrbit:
    def test_index_shift(self, denjoy):
        assert circle.symbolic_lambda_orbit(denjoy, (0, "left"), 5) == (5, "left")

    def test_out_of_truncation_rejected(self, denjoy):
        with pytest.raises(circle.TruncationError):
            circle.symbolic_lambda_orbit(denjoy, (0, "left"), denjoy.truncation + 1)

    def test_matches_float_iteration(self, denjoy):
        for start, side in [(-3, "left"), (0, "right"), (7, "left")]:
            x = denjoy.endpoint(start, side)
            for k in range(1, 21):
                x = denjoy.step(x)
                n_sym, side_sym = circle.symbolic_lambda_orbit(denjoy, (start, side), k)
                assert circle_distance(x, denjoy.endpoint(n_sym, side_sym)) <= denjoy.tail_bound

    def test_deep_gap_endpoints_spread(self, denjoy):
        # endpoints of gap -k are carried onto gap 0 after k steps
        for k in (50, 500, 2000):
            spread = circle.endpoint_orbit_distance(
                denjoy, (-k, "left"), (-k, "right"), np.array([k])
            )[0]
            assert spread >= denjoy.gap_length(0) - 1e-12


class TestNonEquicontinuity:
    def test_witnesses_at_dyadic_scales(self, denjoy):
        for j in range(1, 21):
            a, b, k, separation = circle.non_equicontinuity_witness(denjoy, 2.0**-j)
            assert circle_distance(
                denjoy.endpoint(*a), denjoy.endpoint(*b)
            ) < 2.0**-j
            assert separation >= denjoy.gap_length(0) / 2.0


class TestMlsDensity:
    def test_same_endpoint_zero(self, denjoy):
        assert circle.mls_density_on_lambda(denjoy, (0, "left"), (0, "left"), 0.1, 100) == 0.0

    def test_rotation_close_pair_has_no_bad_times(self):
        flow = circle.rotation_flow(RHO)
        x, y = 0.2, 0.2 + 0.01
        bad = 0
        u, v = x, y
        for _ in range(1000):
            u, v = flow.step(u), flow.step(v)
            if circle_distance(u, v) >= 0.05:
                bad += 1
        assert bad == 0

    def test_recipe_pairs_meet_density_target(self, denjoy):
        for eps in (0.1, 0.05, 0.02):
            pairs = circle.close_endpoint_pairs(denjoy, eps, 25, horizon=1500, seed=3)
            for a, b in pairs:
                density = circle.mls_density_on_lambda(denjoy, a, b, eps, 1500)
                assert density < eps

    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.05, 0.02, 0.005, 0.001])
    def test_recipe_range_cut_is_smallest_below_eps(self, denjoy, eps):
        range_cut, gap = circle.mls_recipe(denjoy, eps)

        def mass_outside(cut):
            return math.fsum(
                denjoy.gap_length(n)
                for n in range(-denjoy.truncation, denjoy.truncation + 1)
                if abs(n) > cut
            )

        assert range_cut >= 1
        assert mass_outside(range_cut) < eps
        assert not mass_outside(range_cut - 1) < eps
        assert gap == eps / (2 * range_cut + 1)

    def test_horizon_past_truncation_rejected(self, denjoy):
        with pytest.raises(circle.TruncationError):
            circle.mls_density_on_lambda(
                denjoy, (0, "left"), (5, "left"), 0.1, denjoy.truncation + 10
            )


class TestRotationNumber:
    def test_rigid_rotation_recovers_angle(self):
        flow = circle.rotation_flow(RHO)
        estimate = circle.rotation_number(flow.step, 0.0, 2000)
        assert abs(estimate - RHO) < 1e-9

    def test_denjoy_recovers_angle(self, denjoy):
        estimate = circle.rotation_number(denjoy.step, 0.3, 10**5)
        assert abs(estimate - RHO) < 1e-3

    def test_smooth_conjugate_recovers_angle(self):
        # g(x) = x + sin(2 pi x)/10 is an increasing circle diffeomorphism
        def g(x):
            return (x + math.sin(2 * math.pi * x) / 10.0) % 1.0

        def g_inverse(y):
            x = y
            for _ in range(60):
                residual = (g(x) - y + 0.5) % 1.0 - 0.5
                x = x - residual / (1.0 + 0.2 * math.pi * math.cos(2 * math.pi * x))
            return x % 1.0

        def conjugated(x):
            return g_inverse((g(x) + RHO) % 1.0)

        estimate = circle.rotation_number(conjugated, 0.1, 10**4)
        assert abs(estimate - RHO) < 1e-3

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            circle.rotation_number(lambda x: (2.0 * x) % 1.0, 0.1, 100)


class TestPersistence:
    def test_save_load_round_trip(self, denjoy, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(circle.gap_table_csv(denjoy))
        loaded = circle.load_denjoy(path)
        assert loaded.rotation == denjoy.rotation
        assert loaded.truncation == denjoy.truncation
        for n in (-100, -1, 0, 1, 99):
            assert loaded.gap_left(n) == denjoy.gap_left(n)
            assert loaded.gap_length(n) == denjoy.gap_length(n)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("n,x\n0,0.5\n")
        with pytest.raises(ValueError):
            circle.load_denjoy(path)


DENJOY_1000 = circle.build_denjoy(RHO, 1000)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: circle.DenjoyMap(rotation=1.5, truncation=1000), ValueError, r"in \(0, 1\)"),
        (lambda: DENJOY_1000.endpoint(0, "middle"), ValueError, "'left' or 'right'"),
        (
            lambda: circle.symbolic_lambda_orbit(DENJOY_1000, (0, "middle"), 5),
            ValueError,
            "'left' or 'right'",
        ),
        (
            lambda: circle.close_endpoint_pairs(DENJOY_1000, 0.05, 1, horizon=1000),
            circle.TruncationError,
            "horizon exceeds",
        ),
        (
            lambda: circle.non_equicontinuity_witness(DENJOY_1000, 1e-30),
            circle.TruncationError,
            "no stored gap shorter",
        ),
        (lambda: circle.rotation_number(lambda x: x + RHO, 0.1, 0), ValueError, "n_steps"),
    ],
    ids=[
        "rotation_outside_unit_interval",
        "endpoint_side",
        "symbolic_orbit_side",
        "horizon_at_truncation",
        "delta_below_every_gap",
        "rotation_number_no_steps",
    ],
)
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
