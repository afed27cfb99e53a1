import math

import numpy as np
import pytest

from conftest import sup_defect
from oscillab import interval

SQRT6 = math.sqrt(6.0)


class TestQuadraticMap:
    def test_endpoints_map_to_minus_one(self):
        for t in (-0.5, 0.0, 0.3, 0.78, 1.0):
            tmap = interval.QuadraticMap(t)
            assert tmap(-1.0) == pytest.approx(-1.0, abs=1e-15)
            assert tmap(1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_parabolic_origin(self):
        tmap = interval.QuadraticMap(-0.5)
        minus_one, interior = tmap.fixed_points()
        assert interior == pytest.approx(-1.0)
        assert tmap.deriv(-1.0) == pytest.approx(1.0)

    def test_superattracting_fixed_point(self):
        tmap = interval.QuadraticMap(0.0)
        assert tmap.fixed_points()[1] == 0.0
        assert tmap.deriv(0.0) == 0.0

    def test_flip_threshold_fixed_point(self):
        tmap = interval.QuadraticMap(0.5)
        assert tmap.fixed_points()[1] == pytest.approx(1.0 / 3.0)
        assert tmap.deriv(1.0 / 3.0) == pytest.approx(-1.0)

    def test_multiplier_formula(self):
        # T'(p_t) = -2t for the interior fixed point
        for t in (-0.45, -0.2, 0.1, 0.4):
            tmap = interval.QuadraticMap(t)
            assert tmap.deriv(tmap.fixed_points()[1]) == pytest.approx(-2.0 * t)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            interval.QuadraticMap(-0.6)


class TestFindCycle:
    def test_fixed_point_at_zero(self):
        cycle = interval.find_cycle(0.0, 1)
        assert cycle.points == pytest.approx([0.0])
        assert cycle.multiplier == pytest.approx(0.0)

    def test_two_cycle_at_point_seven(self):
        cycle = interval.find_cycle(0.7, 2)
        assert cycle.period == 2
        assert abs(cycle.multiplier) < 1.0
        tmap = interval.QuadraticMap(0.7)
        a, b = cycle.points
        assert tmap(a) == pytest.approx(b, abs=1e-9)
        assert tmap(b) == pytest.approx(a, abs=1e-9)

    def test_two_cycle_matches_direct_iteration(self):
        tmap = interval.QuadraticMap(0.7)
        x = 0.3
        for _ in range(10000):
            x = tmap(x)
        cycle = interval.find_cycle(0.7, 2)
        assert min(abs(x - p) for p in cycle.points) < 1e-8

    def test_attracting_fixed_point_multiplier(self):
        cycle = interval.find_cycle(-0.45, 1)
        assert cycle.multiplier == pytest.approx(0.9, abs=1e-6)

    def test_wrong_period_rejected(self):
        with pytest.raises(interval.CycleNotFound):
            interval.find_cycle(0.2, 4)  # only a fixed point attracts here

    def test_period_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            interval.find_cycle(0.7, 3)

    def test_multiplier_consistent_across_cycle_points(self):
        cycle = interval.find_cycle(0.76, 4)
        tmap = interval.QuadraticMap(0.76)
        multipliers = []
        for point in cycle.points:
            _, mult = interval._return_value_and_deriv(tmap, point, cycle.period)
            multipliers.append(mult)
        assert max(multipliers) - min(multipliers) < 1e-6

    def test_walks_the_cycle_once(self, monkeypatch):
        # checking the return map at each of P points by its own walk makes P^2 calls
        calls = []
        step = interval.QuadraticMap.__call__

        def counted(tmap, x):
            calls.append(x)
            return step(tmap, x)

        monkeypatch.setattr(interval.QuadraticMap, "__call__", counted)
        period = 256
        cycle = interval.find_cycle(0.7849692986055946, period)  # inside the 256 window
        assert cycle.period == period and abs(cycle.multiplier) < 1.0
        assert len(calls) < 100 * period


class TestPolyMapValidation:
    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            interval.PolyMap(np.array([0.5, 0.0, -1.0]))  # T(1) != -1

    def test_rejects_multiple_critical_points(self):
        # a quartic with two interior critical points and valid endpoints
        with pytest.raises(ValueError):
            interval.PolyMap(np.array([-0.1, 0.0, -2.7, 0.0, 1.8]))

    def test_accepts_quadratic_family_coefficients(self):
        pm = interval.PolyMap(interval.QuadraticMap(0.7).coefficients)
        assert pm.degree == interval.QuadraticMap(0.7).degree == 2
        assert pm(0.0) == pytest.approx(0.7)


class TestCascade:
    def test_first_flip_analytic(self):
        params = interval.cascade(3).parameters
        assert params[0] == pytest.approx(0.5, abs=1e-9)

    def test_second_flip_analytic(self):
        # the 2-cycle multiplier formula gives t_2 = (-1 + sqrt(6)) / 2 exactly
        params = interval.cascade(3).parameters
        assert params[1] == pytest.approx((-1.0 + SQRT6) / 2.0, abs=1e-9)

    def test_strictly_increasing(self):
        params = interval.cascade(6).parameters
        assert np.all(np.diff(params) > 0)

    def test_multiplier_at_flip(self):
        params = interval.cascade(4).parameters
        full = np.concatenate([[interval.CASCADE_ORIGIN], params])
        for level in range(1, 5):
            period = 2 ** (level - 1)
            t_seed = full[level - 1] + 0.6 * (full[level] - full[level - 1])
            point, _ = interval._attracting_cycle_from_critical(
                interval.QuadraticMap(t_seed), period
            )
            for t_step in np.linspace(t_seed, full[level], 8)[1:]:
                point, mult = interval._tracked_cycle(float(t_step), point, period)
            assert mult == pytest.approx(-1.0, abs=1e-7)

    def test_ratios_approach_universal_constant(self):
        ratios = interval.cascade(8).ratios()
        for n in (4, 5, 6, 7):
            assert ratios[n - 1] == pytest.approx(4.669, rel=0.05)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            interval.cascade(0)

    def test_reaches_its_deepest_accepted_level(self):
        # the halves of the genuine 2048-cycle are only ~2e-8 apart
        result = interval.cascade(12)
        assert len(result) == 12
        assert np.all(np.diff(result.parameters) > 0)
        assert result.ratios()[-1] == pytest.approx(4.6692016, abs=1e-4)


def _independent_flip_c(period, c_start, c_floor):
    """Flip parameter of z^2 + c found without the package's cycle machinery.

    Bracketed root-finding (brentq) locates the cycle of the return map and
    a centered finite difference measures its multiplier; bisection finds
    the crossing of -1.  Affine conjugacy maps the quadratic family onto
    z^2 + c via c = -t(1+t), so the flips must agree exactly.
    """
    from scipy.optimize import brentq

    def ret(x, c):
        for _ in range(period):
            x = x * x + c
        return x

    def cycle_root(c, guess):
        g = lambda x: ret(x, c) - x
        for radius in (1e-3, 0.02, 0.08):
            a, b = guess - radius, guess + radius
            if g(a) * g(b) < 0:
                return brentq(g, a, b, xtol=1e-14)
        raise RuntimeError("no bracket around the tracked cycle root")

    def fd_multiplier(c, root, h=2e-6):
        return (ret(root + h, c) - ret(root - h, c)) / (2 * h)

    z = 0.0
    for _ in range(100000):
        z = z * z + c_start
    root = cycle_root(c_start, z)
    c = c_start
    step = (c_start - c_floor) / 40
    while True:
        c_next = c - step
        root_next = cycle_root(c_next, root)
        if fd_multiplier(c_next, root_next) <= -1.0:
            break
        c, root = c_next, root_next
    lo, hi = c_next, c
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        root = cycle_root(mid, root)
        if fd_multiplier(mid, root) <= -1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCascadeCrossValidation:
    def test_flips_match_independent_c_space_oracle(self):
        params = interval.cascade(4).parameters
        mapped = [-t * (1.0 + t) for t in params]
        # analytic flips of z^2 + c: fixed point at -3/4, 2-cycle at -5/4
        assert mapped[0] == pytest.approx(-0.75, abs=1e-9)
        assert mapped[1] == pytest.approx(-1.25, abs=1e-9)
        live = _independent_flip_c(4, c_start=-1.31, c_floor=-1.38)
        assert mapped[2] == pytest.approx(live, abs=1e-9)
        # frozen output of _independent_flip_c(8, -1.3905, -1.3945)
        assert mapped[3] == pytest.approx(-1.3940461566, abs=1e-9)


class TestFeigenbaumParameter:
    def test_bracketed_by_cascade_and_one(self):
        estimate = interval.feigenbaum_parameter(6)
        assert estimate.cascade_parameters[-1] < estimate.value < 1.0

    def test_self_consistent_extrapolations(self):
        estimate = interval.feigenbaum_parameter(8)
        deeper = interval.feigenbaum_parameter(7)
        assert abs(estimate.value - deeper.value) < 10 * deeper.error_bar

    def test_error_bar_small_at_depth_eight(self):
        assert interval.feigenbaum_parameter(8).error_bar < 1e-6

    def test_requires_depth(self):
        with pytest.raises(ValueError):
            interval.feigenbaum_parameter(3)


class TestSchwarzian:
    def test_quadratic_formula(self):
        tmap = interval.QuadraticMap(0.7)
        for x in (0.1, -0.4, 0.9):
            expected = -1.5 * (tmap.deriv(0.0) * 0 + (-2 * 1.7) / tmap.deriv(x)) ** 2
            assert interval.schwarzian(tmap, x) == pytest.approx(expected)
            assert interval.schwarzian(tmap, x) < 0

    def test_affine_is_zero(self):
        assert interval.schwarzian([0.25, 1.0], 0.3) == 0.0

    def test_critical_point_rejected(self):
        with pytest.raises(ValueError):
            interval.schwarzian(interval.QuadraticMap(0.5), 0.0)

    def test_renormalized_iterate_stays_negative(self, rng):
        renormalized = interval.renormalize(interval.QuadraticMap(0.75))
        assert renormalized.degree == 4
        for x in rng.uniform(-1.0, 1.0, size=100):
            try:
                value = interval.schwarzian(renormalized, float(x))
            except ValueError:
                continue
            assert value < 0.0


class TestRenormalize:
    def test_positive_fixed_point_matches_formula(self):
        for t in (0.6, 0.7):
            beta = interval.positive_fixed_point(interval.QuadraticMap(t))
            assert beta == pytest.approx(t / (1.0 + t), abs=1e-15)

    def test_fixed_point_brackets_sign_change_within_one_ulp(self):
        renorm = interval.renormalize(interval.QuadraticMap(0.78))
        assert isinstance(renorm, interval.PolyMap)
        beta = interval.positive_fixed_point(renorm)
        f = lambda x: renorm(x) - x
        below, above = np.nextafter(beta, 0.0), np.nextafter(beta, 1.0)
        assert f(below) > 0.0 >= f(beta) or f(beta) > 0.0 >= f(above)

    def test_fixed_point_bracketed_by_the_scan(self):
        # T(0) < 0, so f <= 0 at the left end and the bracket comes from the grid scan
        tmap = interval.PolyMap([-1 - (0.055 - 0.9692), 1.6952, 0.055, -1.6952, -0.9692])
        f = lambda x: tmap(x) - x
        assert f(1e-12) < 0.0
        beta = interval.positive_fixed_point(tmap)
        assert beta == pytest.approx(0.50302139346519, abs=1e-14)
        below, above = np.nextafter(beta, 0.0), np.nextafter(beta, 1.0)
        assert f(below) > 0.0 >= f(beta) or f(beta) > 0.0 >= f(above)

    def test_renormalized_has_attracting_fixed_point(self):
        # between the first two flips the renormalized map has an
        # attracting fixed point q_t
        for t in (0.6, 0.7):
            renorm = interval.renormalize(interval.QuadraticMap(t))
            q = 0.2
            for _ in range(5000):
                q = renorm(q)
            assert abs(renorm(q) - q) < 1e-10
            assert abs(q - (-1.0)) > 0.1

    def test_two_cycle_from_renormalized_fixed_point(self):
        for t in (0.6, 0.65, 0.7):
            tmap = interval.QuadraticMap(t)
            beta = interval.positive_fixed_point(tmap)
            renorm = interval.renormalize(tmap)
            q = 0.2
            for _ in range(5000):
                q = renorm(q)
            cycle_point = -beta * q
            assert tmap(tmap(cycle_point)) == pytest.approx(cycle_point, abs=1e-8)
            assert abs(tmap(cycle_point) - cycle_point) > 1e-3
            located = interval.find_cycle(t, 2)
            assert min(abs(cycle_point - p) for p in located.points) < 1e-8

    def test_degree_growth_and_sampling_fallback(self):
        base = interval.QuadraticMap(0.78)
        first = interval.renormalize(base)
        assert isinstance(first, interval.PolyMap) and first.degree == 4
        second = interval.renormalize(first)
        assert isinstance(second, interval.PolyMap) and second.degree == 16
        third = interval.renormalize(second)
        assert isinstance(third, interval.RenormalizedMap)
        beta = interval.positive_fixed_point(second)
        xs = np.linspace(-1.0, 1.0, 1025)
        assert np.array_equal(third(xs), -second(second(-beta * xs)) / beta)
        fourth = interval.renormalize(third)
        assert isinstance(fourth, interval.RenormalizedMap) and fourth.base is third
        assert fourth(-1.0) == pytest.approx(-1.0, abs=1e-12)
        assert fourth(1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_sup_defect_matches_a_per_point_loop(self):
        base = interval.QuadraticMap(0.78)
        first = interval.renormalize(base)
        third = interval.renormalize(interval.renormalize(first))
        assert isinstance(third, interval.RenormalizedMap)
        xs = np.linspace(-1.0, 1.0, 1024)
        for map_a, map_b in ((first, base), (third, first)):
            loop = max(abs(map_a(x) - map_b(x)) for x in xs)
            assert sup_defect(map_a, map_b) == loop

    def test_defect_decreases_toward_fixed_point(self):
        t_inf = interval.feigenbaum_parameter(8).value
        current = interval.QuadraticMap(t_inf)
        defects = []
        for _ in range(3):
            renormalized = interval.renormalize(current)
            defects.append(sup_defect(renormalized, current))
            current = renormalized
        assert defects[0] > defects[1] > defects[2]

    def test_no_positive_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            interval.renormalize(interval.QuadraticMap(-0.3))


class TestAttractorCoding:
    def _window_parameter(self, depth):
        params = interval.cascade(depth + 1).parameters
        return params[depth - 1] + 0.5 * (params[depth] - params[depth - 1])

    def test_depth_one_swaps(self):
        report = interval.attractor_coding(self._window_parameter(1), 1)
        assert report.word_map == {(0,): (1,), (1,): (0,)}
        assert report.is_adding_machine

    def test_depth_two_is_plus_one_mod_four(self):
        report = interval.attractor_coding(self._window_parameter(2), 2)
        assert report.is_adding_machine
        assert report.word_map[(1, 1)] == (0, 0)

    @pytest.mark.parametrize("depth", [3, 4, 5, 6])
    def test_deep_codings(self, depth):
        report = interval.attractor_coding(self._window_parameter(depth), depth)
        assert report.is_adding_machine

    def test_depth_eleven_coding(self):
        # the period-2048 window, seeded by the cascade's last level
        report = interval.attractor_coding(self._window_parameter(11), 11)
        assert report.is_adding_machine

    def test_stable_under_halved_tolerance(self):
        t = self._window_parameter(4)
        first = interval.attractor_coding(t, 4)
        second = interval.attractor_coding(t, 4, nesting_tol=interval.NESTING_TOL / 2)
        assert first.words == second.words

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            interval.attractor_coding(0.3, 2)


def basin_traces_loop(t, x, n_steps, cycle):
    """Per-step reference for ``basin_probe``: the mean distance at each phase."""
    tmap = interval.QuadraticMap(t)
    period = len(cycle)
    traces = np.zeros(period)
    u = x
    for n in range(1, n_steps + 1):
        u = tmap(u)
        for phase in range(period):
            traces[phase] += abs(u - cycle[(phase + n) % period])
    return traces / n_steps


class TestBasinProbe:
    def test_right_endpoint_hits_minus_one(self):
        probe = interval.basin_probe(0.3, 1.0, 500)
        assert probe.period == 1
        assert probe.cycle[0] == pytest.approx(-1.0)

    def test_superattracting_zero(self):
        probe = interval.basin_probe(0.0, 0.5, 1000)
        assert probe.period == 1
        assert abs(probe.cycle[0]) < 1e-12
        assert probe.cesaro_trace < 1e-3

    def test_two_cycle_basin(self):
        probe = interval.basin_probe(0.7, 0.3, 10**4)
        assert probe.period == 2
        assert probe.cesaro_trace < 1e-3

    @pytest.mark.parametrize(
        "t,x,n_steps", [(0.3, 1.0, 500), (0.0, 0.5, 1000), (0.7, 0.3, 10**4), (0.78, 0.1, 10**4)]
    )
    def test_cesaro_trace_matches_per_step_loop(self, t, x, n_steps):
        probe = interval.basin_probe(t, x, n_steps)
        traces = basin_traces_loop(t, x, n_steps, probe.cycle)
        assert abs(probe.cesaro_trace - traces[probe.phase]) <= 1e-12
        assert traces[probe.phase] <= traces.min() + 1e-12


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: interval.attractor_coding(0.7, 0), ValueError, "depth must be >= 1"),
    ],
    ids=["coding_depth_zero"],
)
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
