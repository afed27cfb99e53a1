from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oscillab import cli, padic, registry
from oscillab.flows import isometry_defect, lipschitz_one_defect, orbit, orbit_distance_trace

primes = st.sampled_from([2, 3, 5])
small_ints = st.integers(min_value=-10**6, max_value=10**6)


class TestPadicInt:
    def test_digits_round_trip(self):
        x = padic.PadicInt.from_int(12, 2, 8)
        assert x.digits == (0, 0, 1, 1, 0, 0, 0, 0)
        assert padic.PadicInt.from_digits(x.digits, 2) == x

    def test_negative_wraps(self):
        x = padic.PadicInt.from_int(-1, 3, 4)
        assert x.residue == 3**4 - 1
        assert x.digits == (2, 2, 2, 2)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            padic.PadicInt.from_int(1, 6, 4)

    def test_mixed_rings_rejected(self):
        a = padic.PadicInt.from_int(1, 2, 8)
        b = padic.PadicInt.from_int(1, 3, 8)
        with pytest.raises(ValueError):
            a + b

    @given(primes, small_ints, small_ints)
    @settings(max_examples=100, deadline=None)
    def test_ring_arithmetic_matches_integers(self, p, m, n):
        precision = 16
        modulus = p**precision
        a = padic.PadicInt.from_int(m, p, precision)
        b = padic.PadicInt.from_int(n, p, precision)
        assert (a + b).residue == (m + n) % modulus
        assert (a - b).residue == (m - n) % modulus
        assert (a * b).residue == (m * n) % modulus


class TestNorm:
    def test_twelve_base_two(self):
        assert padic.PadicInt.from_int(12, 2, 8).norm().value == 0.25

    def test_unit_base_three(self):
        norm = padic.PadicInt.from_int(1, 3, 8).norm()
        assert norm.value == 1.0
        assert not norm.below_precision

    def test_zero_below_precision(self):
        norm = padic.PadicInt.from_int(0, 5, 8).norm()
        assert norm.below_precision
        assert str(norm) == "below precision (<= 5^-8)"
        assert norm.as_fraction() == Fraction(1, 5**8)

    def test_ultrametric_on_samples(self, rng):
        for _ in range(500):
            p = int(rng.choice([2, 3, 5]))
            x = padic.random_padic_int(rng, p, 16)
            y = padic.random_padic_int(rng, p, 16)
            z = padic.random_padic_int(rng, p, 16)
            assert (x - z).valuation() >= min((x - y).valuation(), (y - z).valuation())


class TestPolyFlow:
    def test_adding_machine_full_cycle(self):
        flow = padic.adding_machine(2, 6)
        orb = orbit(flow, padic.PadicInt.from_int(0, 2, 6), 2**6)
        residues = [pt.residue for pt in orb]
        assert sorted(residues[:-1]) == list(range(64))
        assert residues[-1] == residues[0]

    def test_square_fixes_zero(self):
        poly = padic.PadicPoly.from_ints([0, 0, 1], 2, 16)
        flow = padic.poly_flow(poly)
        zero = padic.PadicInt.from_int(0, 2, 16)
        assert flow.step(zero) == zero

    @given(
        primes,
        st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**40),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_lipschitz_exactly(self, p, coeffs, xv, yv):
        precision = 32
        poly = padic.PadicPoly.from_ints(coeffs, p, precision)
        x = padic.PadicInt.from_int(xv, p, precision)
        y = padic.PadicInt.from_int(yv, p, precision)
        assert (poly(x) - poly(y)).valuation() >= (x - y).valuation()

    def test_adding_machine_isometric(self, rng):
        assert isometry_defect(padic.adding_machine(3, 16), rng, n_pairs=50) == 0.0

    def test_flow_flags(self, rng):
        flow = padic.poly_flow(padic.PadicPoly.from_ints([1, 2, 3], 5, 16))
        assert lipschitz_one_defect(flow, rng, n_pairs=200) <= 0.0


class TestProjPoint:
    def test_normalization_idempotent(self, rng):
        for _ in range(200):
            p = int(rng.choice([2, 3, 5]))
            x = padic.random_padic_int(rng, p, 12)
            y = padic.random_padic_int(rng, p, 12)
            try:
                point = padic.ProjPoint.make(x, y)
            except ValueError:
                continue
            again = padic.ProjPoint.make(point.x, point.y)
            assert again.x == point.x and again.y == point.y

    def test_scaling_invariance(self, rng):
        p, precision = 3, 12
        base = padic.ProjPoint.from_ints(7, 4, p, precision)
        for scale in (2, 9, 12, -5):
            lam = padic.PadicInt.from_int(scale, p, precision)
            scaled = padic.ProjPoint.make(base.x * lam, base.y * lam)
            assert scaled.projectively_equal(base)

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            padic.ProjPoint.from_ints(0, 0, 3, 8)


class TestSphericalMetric:
    def test_same_point_below_precision(self):
        u = padic.ProjPoint.from_ints(4, 1, 3, 8)
        assert padic.spherical_dist(u, u).below_precision

    def test_distance_to_infinity(self, rng):
        infinity = padic.ProjPoint.infinity(3, 12)
        for z in (0, 1, 3, 7, 12):
            point = padic.ProjPoint.from_ints(z, 1, 3, 12)
            assert padic.spherical_dist(point, infinity).value == 1.0

    def test_explicit_value(self):
        u = padic.ProjPoint.from_ints(0, 1, 3, 8)
        v = padic.ProjPoint.from_ints(3, 1, 3, 8)
        assert padic.spherical_dist(u, v).as_fraction() == Fraction(1, 3)

    def test_restriction_equals_padic_norm(self, rng):
        # on Z_p (embedded [z : 1]) the spherical metric is |x - y|_p
        for _ in range(1000):
            p = int(rng.choice([2, 3, 5]))
            x = padic.random_padic_int(rng, p, 16)
            y = padic.random_padic_int(rng, p, 16)
            one = padic.PadicInt.from_int(1, p, 16)
            u = padic.ProjPoint.make(x, one)
            v = padic.ProjPoint.make(y, one)
            assert padic.spherical_dist(u, v).as_fraction() == (x - y).norm().as_fraction()


class TestRationalFlow:
    def _build(self, num_coeffs, den_coeffs, p=3, precision=16):
        return padic.rational_flow(
            padic.PadicPoly.from_ints(num_coeffs, p, precision),
            padic.PadicPoly.from_ints(den_coeffs, p, precision),
        )

    def test_translation_isometric_on_samples(self, rng):
        flow = self._build([1, 1], [1])
        for _ in range(300):
            u, v = flow.sample(rng), flow.sample(rng)
            before = padic.spherical_dist(u, v)
            after = padic.spherical_dist(flow.step(u), flow.step(v))
            assert after.valuation == before.valuation

    def test_squaring_one_lipschitz(self, rng):
        flow = self._build([0, 0, 1], [1])
        for _ in range(1000):
            u, v = flow.sample(rng), flow.sample(rng)
            assert (
                padic.spherical_dist(flow.step(u), flow.step(v)).valuation
                >= padic.spherical_dist(u, v).valuation
            )

    def test_inversion_swaps_zero_and_infinity(self):
        flow = self._build([1], [0, 1])
        zero = padic.ProjPoint.from_ints(0, 1, 3, 16)
        infinity = padic.ProjPoint.infinity(3, 16)
        assert flow.step(zero).projectively_equal(infinity)
        assert flow.step(infinity).projectively_equal(zero)

    def test_inversion_preserves_distance_on_samples(self, rng):
        flow = self._build([1], [0, 1])
        for _ in range(300):
            u, v = flow.sample(rng), flow.sample(rng)
            assert (
                padic.spherical_dist(flow.step(u), flow.step(v)).valuation
                == padic.spherical_dist(u, v).valuation
            )

    def test_expanding_map_rejected(self):
        # z -> 3z expands the spherical metric near infinity (bad reduction)
        with pytest.raises(ValueError):
            self._build([0, 3], [1])

    def test_distance_trace_is_the_spherical_metric(self, rng):
        # z -> (1 + z^2)/z has good reduction mod 3 and moves points between
        # the chart y = 1 and the chart at infinity
        flow = self._build([1, 0, 1], [0, 1])
        for _ in range(20):
            u, v = flow.sample(rng), flow.sample(rng)
            got = orbit_distance_trace(flow, u, v, 200)
            want = []
            for _ in range(200):
                u, v = flow.step(u), flow.step(v)
                want.append(padic.spherical_dist(u, v).value)
            assert got.tolist() == want
        assert lipschitz_one_defect(flow, rng, n_pairs=500) <= 0.0

    def test_common_power_of_p_divided_out(self):
        # 3z / 3 is the identity once the common 3 is divided out
        flow = self._build([0, 3], [3])
        for x, y in [(0, 1), (1, 0), (5, 1), (1, 6), (3**15 + 7, 1)]:
            point = padic.ProjPoint.from_ints(x, y, 3, 16)
            assert flow.step(point) == point


class TestEmpiricalMinimality:
    def test_adding_machine_covers(self):
        flow = padic.adding_machine(2, 8)
        probe = padic.empirical_minimality(
            flow, padic.PadicInt.from_int(0, 2, 8), 63, 6
        )
        assert probe.covers_component
        assert set(probe.histogram) == set(range(64))
        assert all(count == 1 for count in probe.histogram.values())

    def test_fixed_point_concentrates(self):
        flow = padic.poly_flow(padic.PadicPoly.from_ints([0, 0, 1], 2, 8))
        probe = padic.empirical_minimality(
            flow, padic.PadicInt.from_int(1, 2, 8), 100, 6
        )
        assert probe.histogram == {1: 101}
        assert probe.covers_component

    def test_against_exhaustive_reduction(self):
        # brute-force the reduced orbit of x + x^2 mod 2^6 and compare
        flow = padic.poly_flow(padic.PadicPoly.from_ints([0, 1, 1], 2, 8))
        start = padic.PadicInt.from_int(1, 2, 8)
        probe = padic.empirical_minimality(flow, start, 400, 6)
        seen = []
        r = 1
        while r not in seen:
            seen.append(r)
            r = (r + r * r) % 64
        cycle = set(seen[seen.index(r):])
        assert probe.reduced_cycle == cycle
        assert set(probe.histogram) == set(seen)
        assert probe.covers_component

    def test_resolution_beyond_precision_rejected(self):
        flow = padic.adding_machine(2, 8)
        with pytest.raises(ValueError):
            padic.empirical_minimality(flow, padic.PadicInt.from_int(0, 2, 8), 10, 9)

    @pytest.mark.parametrize("level", [0, -1])
    def test_level_below_one_rejected(self, level):
        flow = padic.adding_machine(2, 8)
        with pytest.raises(ValueError, match="level must lie in 1..8"):
            padic.empirical_minimality(flow, padic.PadicInt.from_int(0, 2, 8), 10, level)

    @pytest.mark.parametrize("p,precision,n_steps", [(3, 8, 10), (2, 6, 10), (2, 8, -1)])
    def test_bad_start_or_length_rejected(self, p, precision, n_steps):
        # a start of another ring, or a negative length, fails loudly
        flow = padic.adding_machine(2, 8)
        with pytest.raises(ValueError):
            padic.empirical_minimality(flow, padic.PadicInt.from_int(5, p, precision), n_steps, 3)


# ----------------------------------------------------------------------
# plain-int references for the residue fast paths


def horner_reference(coeffs, p, precision, r):
    """P(r) mod p^precision, reducing after every Horner step."""
    modulus = p**precision
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % modulus
    return acc


def int_valuation(n, p, precision):
    if n == 0:
        return precision
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_reference(num, den, p, precision, x, y):
    """One step of [x : y] -> [N(x, y) : D(x, y)], or None below precision."""
    modulus = p**precision
    deg = max(len(num), len(den)) - 1
    forms = []
    for coeffs in (num, den):
        coeffs = list(coeffs) + [0] * (deg + 1 - len(coeffs))
        forms.append(
            sum(
                c * pow(x, i, modulus) * pow(y, deg - i, modulus)
                for i, c in enumerate(coeffs)
            )
            % modulus
        )
    fx, fy = forms
    v = min(int_valuation(fx, p, precision), int_valuation(fy, p, precision))
    if v >= precision:
        return None
    return fx // p**v, fy // p**v


def good_reduction_reference(num, den, p):
    """Whether N and D mod p, homogenized to degree d, share no zero on the line.

    They share one when both leading coefficients vanish (the point at
    infinity [1 : 0]) or when the dehomogenized reductions have a
    non-constant gcd over F_p.
    """
    deg = max(len(num), len(den)) - 1
    f = [c % p for c in num] + [0] * (deg + 1 - len(num))
    g = [c % p for c in den] + [0] * (deg + 1 - len(den))
    if deg > 0 and f[deg] == g[deg] == 0:
        return False
    return fp_gcd_degree(f, g, p) == 0


def fp_gcd_degree(a, b, p):
    """Degree of gcd(a, b) over F_p, coefficients lowest first (Euclid)."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            trim(a)
        a, b = b, a
    return len(a) - 1


def bundled_padic_experiments():
    configs = resources.files("oscillab").joinpath("configs")
    return [
        cfg
        for entry in sorted(configs.iterdir(), key=lambda e: e.name)
        if entry.name.endswith(".cfg")
        for cfg in cli.parse_config(str(entry))
        if cfg.flow in ("padic_poly", "adding_machine", "padic_rational")
    ]


class TestResidueFastPaths:
    @pytest.mark.parametrize("ring", [(3, 16), (3, 40)], ids=["int64", "object"])
    def test_block_rows_are_the_stepped_points(self, ring):
        p, precision = ring
        poly = padic.poly_flow(padic.PadicPoly.from_ints([1, 1, 0, 1], p, precision))
        inversion = padic.rational_flow(
            padic.PadicPoly.from_ints([1], p, precision),
            padic.PadicPoly.from_ints([0, 1], p, precision),
        )
        for flow, x in [
            (poly, padic.PadicInt.from_int(5, p, precision)),
            (inversion, padic.ProjPoint.from_ints(3, 1, p, precision)),
        ]:
            want = []
            point = x
            for _ in range(50):
                point = flow.step(point)
                want.append(point)
            assert list(flow.block(x, 50)[0]) == want

    @pytest.mark.parametrize("level", [1, 2, 5])
    def test_projective_phase_block_matches_its_points(self, level):
        # z -> 1/z swaps [3 : 1] and [1 : 3]; the second has y = 0 mod p, so
        # the per-point phase takes its chart at infinity
        flow = padic.rational_flow(
            padic.PadicPoly.from_ints([1], 3, 24), padic.PadicPoly.from_ints([0, 1], 3, 24)
        )
        observable = registry.build_observable("projective_phase", {"level": str(level)})
        start = padic.ProjPoint.from_ints(3, 1, 3, 24)
        points = orbit(flow, start, 16)[1:]
        assert {pt.y.residue % 3 == 0 for pt in points} == {True, False}
        want = [observable.eval(pt) for pt in points]
        assert observable.eval_block(flow.block(start, 16)[0]).tolist() == want

    @pytest.mark.parametrize(
        "cfg", bundled_padic_experiments(), ids=lambda cfg: cfg.name
    )
    def test_bundled_orbit_matches_int_reference(self, cfg):
        flow = registry.build_flow(cfg.flow, cfg.flow_params)
        point = registry.parse_start(cfg.flow, cfg.start, flow)
        p = int(cfg.flow_params["p"])
        precision = int(cfg.flow_params["precision"])
        n_steps = 20_000
        if cfg.flow == "padic_rational":
            num = [int(c) for c in cfg.flow_params["num"].split(",")]
            den = [int(c) for c in cfg.flow_params["den"].split(",")]
            want = (point.x.residue, point.y.residue)
            for _ in range(n_steps):
                point = flow.step(point)
                want = rational_reference(num, den, p, precision, *want)
                assert (point.x.residue, point.y.residue) == want
            return
        coeffs = [int(c) for c in cfg.flow_params.get("coeffs", "1,1").split(",")]
        want = point.residue
        for _ in range(n_steps):
            point = flow.step(point)
            want = horner_reference(coeffs, p, precision, want)
            assert point.residue == want
            assert (point.p, point.precision) == (p, precision)

    @given(
        primes,
        st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=4),
        st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=4),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=-(2**40), max_value=2**40),
    )
    @settings(max_examples=200, deadline=None)
    def test_rational_step_matches_int_reference(self, p, num, den, x, y):
        precision = 12
        modulus = p**precision
        polys = [padic.PadicPoly.from_ints(c, p, precision) for c in (num, den)]
        residues = [c % modulus for c in num + den]
        if not any(residues):
            with pytest.raises(ValueError):
                padic.rational_flow(*polys)
            return
        scale = p ** min(int_valuation(r, p, precision) for r in residues)
        num = [c % modulus // scale for c in num]
        den = [c % modulus // scale for c in den]
        if not good_reduction_reference(num, den, p):
            with pytest.raises(ValueError, match="bad reduction"):
                padic.rational_flow(*polys)
            return
        flow = padic.rational_flow(*polys)
        try:
            point = padic.ProjPoint.from_ints(x, y, p, precision)
        except ValueError:
            assume(False)
        want = rational_reference(num, den, p, precision, point.x.residue, point.y.residue)
        image = flow.step(point)
        assert (image.x.residue, image.y.residue) == want
        assert (image.x.p, image.x.precision) == (p, precision)

    def test_rational_image_below_precision_raises(self):
        # x^2 / (x y) would send [0 : 1] below working precision, and
        # (x^2 + 1) / (x^2 + 3x + 1) reduces to the constant 1 mod 3: both
        # have bad reduction and are refused before any step
        for num, den in [([0, 0, 1], [0, 1]), ([1, 0, 1], [1, 3, 1])]:
            with pytest.raises(ValueError, match="bad reduction"):
                padic.rational_flow(
                    padic.PadicPoly.from_ints(num, 3, 16),
                    padic.PadicPoly.from_ints(den, 3, 16),
                )

    @pytest.mark.parametrize("ring", [(2, 8), (3, 9)], ids=["other_prime", "other_precision"])
    def test_points_from_another_ring_rejected(self, ring):
        poly = padic.PadicPoly.from_ints([1, 1, 0, 1], 3, 8)
        with pytest.raises(ValueError, match="mixed p-adic rings"):
            poly(padic.PadicInt.from_int(5, *ring))
        flow = padic.rational_flow(poly, padic.PadicPoly.from_ints([1], 3, 8))
        with pytest.raises(ValueError, match="mixed p-adic rings"):
            flow.step(padic.ProjPoint.from_ints(2, 1, *ring))

    @pytest.mark.parametrize("p,precision", [(4, 8), (1, 8), (9, 4), (3, 0), (3, -2)])
    def test_constructor_still_validates(self, p, precision):
        with pytest.raises(ValueError):
            padic.PadicInt(p, precision, 1)

    @given(primes, small_ints, small_ints, st.integers(min_value=0, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_results_stay_reduced(self, p, m, n, k):
        precision = 6
        modulus = p**precision
        a = padic.PadicInt.from_int(m, p, precision)
        b = padic.PadicInt.from_int(n, p, precision)
        poly = padic.PadicPoly.from_ints([m, -n, m * n, 7], p, precision)
        results = [a + b, a - b, a * b, -a, poly(a)]
        if a.is_unit():
            results.append(a.unit_inverse())
        scaled = a * padic.PadicInt.from_int(p**k, p, precision)
        results.append(scaled.shift_down(k))
        for r in results:
            assert 0 <= r.residue < modulus
            assert r == padic.PadicInt(p, precision, r.residue)
        assert poly(a).residue == horner_reference([m, -n, m * n, 7], p, precision, a.residue)


def square_map(p=3, precision=8):
    """x^2 as a rational map on the projective line."""
    return padic.rational_flow(
        padic.PadicPoly.from_ints([0, 0, 1], p, precision), padic.PadicPoly.from_ints([1], p, precision)
    )


@pytest.mark.parametrize(
    "call, error, match",
    [
        (
            lambda: padic.PadicPoly((padic.PadicInt(3, 8, 1), padic.PadicInt(3, 9, 1))),
            ValueError,
            "mixed p-adic rings",
        ),
        (
            lambda: padic.rational_flow(
                padic.PadicPoly.from_ints([0, 0, 1], 3, 8), padic.PadicPoly.from_ints([1], 5, 8)
            ),
            ValueError,
            "different rings",
        ),
        (
            lambda: padic.ProjPoint(padic.PadicInt(3, 8, 3), padic.PadicInt(3, 8, 6)),
            ValueError,
            "must be normalized",
        ),
        (
            lambda: padic.empirical_minimality(square_map(), padic.PadicInt(3, 8, 1), 10, 2),
            TypeError,
            "needs a polynomial flow",
        ),
        (lambda: padic.PadicInt.from_digits([], 3), ValueError, "at least one digit"),
        (lambda: padic.PadicInt.from_digits([0, 3], 3), ValueError, r"must lie in \[0, p\)"),
        (lambda: padic.PadicInt.from_int(3, 3).unit_inverse(), ZeroDivisionError, "not a unit"),
        (lambda: padic.PadicInt.from_int(4, 2).shift_down(3), ValueError, "not divisible by p"),
    ],
    ids=[
        "poly_mixed_rings",
        "rational_flow_mixed_rings",
        "projpoint_not_normalized",
        "minimality_needs_polynomial",
        "no_digits",
        "digit_out_of_range",
        "inverse_of_non_unit",
        "shift_past_valuation",
    ],
)
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
