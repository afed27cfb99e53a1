import numpy as np
import pytest

from conftest import check_metric_axioms
from oscillab import flows
from oscillab.circle import rotation_flow
from oscillab.interval import quadratic_flow


def identity_flow():
    return flows.Flow(
        name="identity",
        step=lambda x: x,
        dist=lambda a, b: abs(a - b),
        sample=lambda rng: float(rng.random()),
    )


class TestOrbit:
    def test_identity_orbit_constant(self):
        orb = flows.orbit(identity_flow(), 0.37, 5)
        assert orb == [0.37] * 6

    def test_rational_rotation_period(self):
        flow = rotation_flow(0.25)
        orb = flows.orbit(flow, 0.0, 4)
        assert orb[4] == pytest.approx(0.0, abs=1e-15)
        assert orb[2] == pytest.approx(0.5)

    def test_orbit_length_contract(self):
        orb = flows.orbit(identity_flow(), 1.0, 17)
        assert len(orb) == 18

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            flows.orbit(identity_flow(), 0.0, -1)


class TestDistanceTrace:
    def test_equal_points_zero(self):
        trace = flows.orbit_distance_trace(rotation_flow(0.3), 0.2, 0.2, 50)
        assert np.all(trace == 0.0)

    def test_isometry_constant_trace(self):
        flow = rotation_flow(np.sqrt(2) - 1)
        trace = flows.orbit_distance_trace(flow, 0.1, 0.35, 200)
        assert np.max(np.abs(trace - flow.dist(0.1, 0.35))) < 1e-12

    def test_superattracting_fixed_point(self):
        flow = quadratic_flow(0.0)
        trace = flows.orbit_distance_trace(flow, 0.5, 0.0, 1000)
        assert trace[-1] < 1e-300
        assert np.mean(trace) < 1e-3


class TestMetricChecks:
    def test_circle_metric_axioms(self, rng):
        sym, tri = check_metric_axioms(rotation_flow(0.1), rng)
        assert sym <= 1e-12
        assert tri <= 1e-12

    def test_metric_axioms_across_families(self, rng):
        from oscillab.padic import adding_machine
        from oscillab.torus import ModularMatrix, torus_affine_flow

        for flow in (
            torus_affine_flow(ModularMatrix(0, 1, -1, 0)),
            adding_machine(3, 12),
            quadratic_flow(0.5),
        ):
            sym, tri = check_metric_axioms(flow, rng, n_triples=300)
            assert sym <= 1e-12, flow.name
            assert tri <= 1e-12, flow.name

    def test_rotation_isometry(self, rng):
        defect = flows.isometry_defect(rotation_flow(np.sqrt(2) - 1), rng)
        assert defect <= 1e-12

    def test_registered_isometries_at_full_sample_size(self, rng):
        # 1000 pairs followed for 1000 steps for each isometric family
        from oscillab.padic import adding_machine
        from oscillab.registry import build_flow

        flow = rotation_flow(np.sqrt(2) - 1)
        assert flows.isometry_defect(flow, rng, n_pairs=1000, n_steps=1000) <= 1e-12
        fiber = build_flow("shear_fiber", {"t": "1", "y": str(np.sqrt(2) - 1)})
        assert flows.isometry_defect(fiber, rng, n_pairs=1000, n_steps=1000) <= 1e-12
        odometer = adding_machine(2, 16)
        assert flows.isometry_defect(odometer, rng, n_pairs=200, n_steps=1000) == 0.0

    def test_quadratic_is_not_isometric(self, rng):
        defect = flows.isometry_defect(quadratic_flow(0.7), rng, n_pairs=20, n_steps=20)
        assert defect > 0.01

    def test_circle_distance_basics(self):
        assert flows.circle_distance(0.1, 0.9) == pytest.approx(0.2)
        assert flows.circle_distance(0.25, 0.75) == pytest.approx(0.5)
        assert flows.circle_distance(0.4, 0.4) == 0.0


class TestObservableBoundedness:
    def test_finite_sup_over_long_orbits(self):
        from oscillab.registry import build_flow, build_observable

        cases = [
            ("rotation", {"rho": "0.41421356237309503"}, "fourier", {"k": "3"}, "0.2"),
            ("quadratic_family", {"t": "0.7"}, "coordinate", {}, "0.3"),
            (
                "adding_machine",
                {"p": "2", "precision": "16"},
                "padic_phase",
                {"level": "4"},
                "1",
            ),
        ]
        from oscillab.registry import parse_start

        for flow_name, flow_params, obs_name, obs_params, start_raw in cases:
            flow = build_flow(flow_name, flow_params)
            observable = build_observable(obs_name, obs_params)
            x = parse_start(flow_name, start_raw, flow)
            sup = 0.0
            for _ in range(10**5):
                x = flow.step(x)
                sup = max(sup, abs(observable.eval(x)))
            assert np.isfinite(sup) and sup <= 1.0 + 1e-12


PADIC_POLY = {"p": "3", "precision": "8", "coeffs": "1,1"}
PADIC_RATIONAL = {"p": "3", "precision": "8", "num": "0,0,1", "den": "1"}


def registered(flow, observable, start):
    """The registry's flow, observable and parsed start for (name, params) pairs."""
    from oscillab import registry

    (flow_name, flow_params), (obs_name, obs_params) = flow, observable
    built = registry.build_flow(flow_name, flow_params)
    return (
        built,
        registry.build_observable(obs_name, obs_params),
        registry.parse_start(flow_name, start, built),
    )


def stepped(flow, x, n_steps):
    """Reference for ``flow.block``: the points of n_steps ``step`` calls, and the last."""
    points = []
    for _ in range(n_steps):
        x = flow.step(x)
        points.append(x)
    return points, x


class TestBlocksMatchSteps:
    """``block(x, m)`` returns what m ``step`` calls return."""

    @pytest.mark.parametrize(
        "matrix,shift",
        [
            ("1,3;0,1", (0.0, 0.0)),  # unipotent
            ("0,1;-1,0", (0.0, 0.0)),  # finite order
            ("2,1;1,1", (0.0, 0.0)),  # positive entropy
            ("1,0;1,1", (0.41421356237309503, 0.0)),  # the counterexample's skew product
            ("2,1;1,1", (0.41421356237309503, 0.3)),  # every term of both coordinates
            ("1,0;0,1", (0.0, 0.0)),  # every point fixed: the first repeats the start
        ],
    )
    def test_torus_bit_identical(self, matrix, shift):
        from oscillab.torus import ModularMatrix, torus_affine_flow

        flow = torus_affine_flow(ModularMatrix.from_string(matrix), shift)
        start = np.array([0.2137, 0.718])
        points, last = flow.block(start, 3000)
        want, want_last = stepped(flow, start, 3000)
        assert points.shape == (3000, 2)
        assert np.array_equal(points, np.array(want))
        assert np.array_equal(last, want_last)

    def test_quadratic_family_bit_identical(self):
        flow = quadratic_flow(0.7)
        points, last = flow.block(0.3, 5000)  # repeats from step 237, period 4
        want, want_last = stepped(flow, 0.3, 5000)
        assert np.array_equal(points, np.array(want))
        assert last == want_last

    @pytest.mark.parametrize(
        "t,start",
        [
            (0.5, 0.3),  # the first flip: no state repeats, so nothing is tiled
            (0.7, -1.0),  # the fixed point -1: the first point repeats the start
        ],
        ids=["no_repeat", "fixed_start"],
    )
    def test_quadratic_family_tiles_exact_repeats_only(self, t, start):
        flow = quadratic_flow(t)
        points, last = flow.block(start, 5000)
        want, want_last = stepped(flow, start, 5000)
        assert np.array_equal(points, np.array(want))
        assert last == want_last

    def test_padic_poly_bit_identical(self):
        from oscillab import padic

        flow = padic.poly_flow(padic.PadicPoly.from_ints([1, 1, 0, 1], 3, 32))
        start = padic.PadicInt.from_int(5, 3, 32)
        points, last = flow.block(start, 2000)
        want, want_last = stepped(flow, start, 2000)
        assert (points.p, points.precision, points.y) == (3, 32, None)
        assert points.x.tolist() == [x.residue for x in want]
        assert last == want_last

    @pytest.mark.parametrize(
        "coeffs,p,precision,start",
        [
            ([0, 0, 1], 2, 8, 1),  # x^2 fixes 1: the first point repeats the start
            ([1, 1, 0, 1], 3, 4, 5),  # mod 81: the orbit repeats within 24 steps
        ],
        ids=["fixed_start", "mod_81"],
    )
    def test_padic_poly_tiles_bit_identical(self, coeffs, p, precision, start):
        from oscillab import padic

        flow = padic.poly_flow(padic.PadicPoly.from_ints(coeffs, p, precision))
        start = padic.PadicInt.from_int(start, p, precision)
        points, last = flow.block(start, 2000)
        want, want_last = stepped(flow, start, 2000)
        assert points.x.tolist() == [x.residue for x in want]
        assert last == want_last

    def test_adding_machine_wraps_past_modulus(self):
        from oscillab import padic

        flow = padic.adding_machine(3, 4)
        start = padic.PadicInt.from_int(75, 3, 4)
        points, last = flow.block(start, 200)  # passes 3^4 = 81 twice
        want, want_last = stepped(flow, start, 200)
        assert points.x.tolist() == [x.residue for x in want]
        assert 0 in points.x.tolist()
        assert last == want_last

    def test_padic_rational_bit_identical(self):
        from oscillab import padic

        flow = padic.rational_flow(
            padic.PadicPoly.from_ints([0, 0, 1], 3, 24), padic.PadicPoly.from_ints([1], 3, 24)
        )
        start = padic.ProjPoint.from_ints(2, 1, 3, 24)
        points, last = flow.block(start, 1000)
        want, want_last = stepped(flow, start, 1000)
        assert points.x.tolist() == [pt.x.residue for pt in want]
        assert points.y.tolist() == [pt.y.residue for pt in want]
        assert last == want_last

    @pytest.mark.parametrize(
        "precision,start",
        [
            (3, (2, 1)),  # mod 27: the orbit repeats
            (24, (1, 1)),  # [x^2 : y^2] fixes [1 : 1]: the first point repeats the start
        ],
        ids=["mod_27", "fixed_start"],
    )
    def test_padic_rational_tiles_bit_identical(self, precision, start):
        from oscillab import padic

        flow = padic.rational_flow(
            padic.PadicPoly.from_ints([0, 0, 1], 3, precision),
            padic.PadicPoly.from_ints([1], 3, precision),
        )
        start = padic.ProjPoint.from_ints(*start, 3, precision)
        points, last = flow.block(start, 1000)
        want, want_last = stepped(flow, start, 1000)
        assert points.x.tolist() == [pt.x.residue for pt in want]
        assert points.y.tolist() == [pt.y.residue for pt in want]
        assert last == want_last

    def test_padic_rational_below_precision_raises(self):
        from oscillab import padic

        # x^2 / (x y) would send [0 : 1] below working precision; its bad
        # reduction is refused at build time, naming p and the map
        with pytest.raises(ValueError, match=r"p=3, \(1\*x\^2\)/\(1\*x\^1\)\) has bad reduction"):
            padic.rational_flow(
                padic.PadicPoly.from_ints([0, 0, 1], 3, 16),
                padic.PadicPoly.from_ints([0, 1], 3, 16),
            )

    @pytest.mark.parametrize("start", [0.3, 1e-30, 0.9999999999999999])
    def test_rotation_within_1e12(self, start):
        flow = rotation_flow(np.sqrt(2) - 1)
        points, last = flow.block(start, 5000)
        want, want_last = stepped(flow, start, 5000)
        assert np.all((points >= 0.0) & (points < 1.0))
        gaps = [flows.circle_distance(a, b) for a, b in zip(points, want)]
        assert max(gaps) <= 1e-12
        assert flows.circle_distance(last, want_last) <= 1e-12

    def test_denjoy_across_table_exits_within_1e12(self):
        from oscillab.circle import build_denjoy

        denjoy = build_denjoy(np.sqrt(2) - 1, 1000)
        flow = denjoy.as_flow()
        start = denjoy.gap_left(990) + 0.3 * denjoy.gap_length(990)
        points, last = flow.block(start, 3000)
        want, want_last = stepped(flow, start, 3000)
        gaps = [flows.circle_distance(a, b) for a, b in zip(points, want)]
        assert max(gaps) <= 1e-12
        assert flows.circle_distance(last, want_last) <= 1e-12
        exits = sum(denjoy.locate(x) == denjoy.truncation for x in want)
        assert exits >= 1

    @pytest.mark.parametrize(
        "flow,observable,start",
        [
            (("quadratic_family", {"t": "0.7"}), ("coordinate", {}), "0.3"),
            # the first flip: this orbit repeats no state, so no block tiles
            (("quadratic_family", {"t": "0.5"}), ("coordinate", {}), "0.3"),
            (
                ("torus_auto", {"matrix": "0,1;-1,0"}),
                ("torus_fourier", {"k1": "1", "k2": "1"}),
                "0.2137,0.718",
            ),
            (
                ("padic_poly", {"p": "3", "precision": "32", "coeffs": "1,1,0,1"}),
                ("padic_phase", {"level": "4"}),
                "5",
            ),
            (
                ("padic_rational", {"p": "3", "precision": "24", "num": "0,0,1", "den": "1"}),
                ("projective_phase", {"level": "3"}),
                "2,1",
            ),
            # one cycle of the 64 residues mod 2^6, from the reduced odometer
            (("adding_machine", {"p": "2", "precision": "32"}), ("padic_phase", {"level": "6"}), "0"),
        ],
        ids=[
            "quadratic_family",
            "quadratic_no_repeat",
            "torus_auto",
            "padic_poly",
            "padic_rational",
            "adding_machine",
        ],
    )
    def test_stream_chains_blocks_exactly(self, flow, observable, start):
        # the p-adic rows step mod p^level in the stream and at full precision here
        flow, observable, x = registered(flow, observable, start)
        n_terms = 2 * flows._BLOCK + 3
        got = np.concatenate(list(flows._observable_stream(flow, observable, x, n_terms)))
        points, _ = stepped(flow, x, n_terms)
        want = np.array([complex(observable.eval(point)) for point in points])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "flow,observable,start,error",
        [
            (("torus_auto", {"matrix": "0,1;-1,0"}), ("fourier", {"k": "1"}), "0.2,0.7", ValueError),
            (("padic_poly", PADIC_POLY), ("projective_phase", {"level": "2"}), "5", TypeError),
            (("padic_poly", PADIC_POLY), ("coordinate", {}), "5", TypeError),
            (("padic_rational", PADIC_RATIONAL), ("padic_phase", {"level": "2"}), "2,1", TypeError),
        ],
        ids=["fourier-on-torus", "projective-on-Zp", "coordinate-on-Zp", "padic-on-projective"],
    )
    def test_mismatched_observable_rejected(self, flow, observable, start, error):
        flow, observable, x = registered(flow, observable, start)
        with pytest.raises(error):
            next(flows._observable_stream(flow, observable, x, 10))

    @pytest.mark.parametrize(
        "flow,observable,start",
        [
            (("padic_poly", PADIC_POLY), ("padic_phase", {"level": "9"}), "5"),
            (("padic_rational", PADIC_RATIONAL), ("projective_phase", {"level": "9"}), "2,1"),
        ],
        ids=["padic_poly", "padic_rational"],
    )
    def test_level_beyond_precision_raises(self, flow, observable, start):
        # no reduction above the working precision: the observable refuses the points
        flow, observable, x = registered(flow, observable, start)
        with pytest.raises(ValueError, match="resolution exceeds working precision"):
            next(flows._observable_stream(flow, observable, x, 10))

    @pytest.mark.parametrize(
        "flow,observable,start",
        [
            (("padic_poly", PADIC_POLY), ("padic_phase", {"level": "2"}), "5"),
            (("padic_rational", PADIC_RATIONAL), ("projective_phase", {"level": "2"}), "2,1"),
        ],
        ids=["padic_poly", "padic_rational"],
    )
    def test_reduction_keeps_the_ring_check(self, flow, observable, start):
        from oscillab import registry

        (name, params), (built, observable, _) = flow, registered(flow, observable, start)
        # the same start text, read in the 2-adic ring
        other = registry.parse_start(name, start, registry.build_flow(name, {**params, "p": "2"}))
        with pytest.raises(ValueError, match="mixed p-adic rings"):
            next(flows._observable_stream(built, observable, other, 10))

    @pytest.mark.parametrize("n_terms", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    @pytest.mark.parametrize("kernel", [True, False], ids=["block", "per_point"])
    def test_stream_yields_the_weight_chunks(self, n_terms, kernel):
        from oscillab import sequences

        flow = rotation_flow(0.3)
        observable = flows.Observable(
            "f",
            lambda x: complex(x),
            eval_block=(lambda xs: xs + 0j) if kernel else None,
        )
        sizes = [len(b) for b in flows._observable_stream(flow, observable, 0.1, n_terms)]
        assert flows._BLOCK is sequences._BLOCK
        assert max(sizes) <= sequences._BLOCK
        assert sizes == [hi - lo for lo, hi in sequences._blocks(n_terms)]


class TestCycleWalk:
    """``flows.cycle_walk`` and the blocks that ``flows.walk_block`` stacks from it."""

    def test_stops_at_first_repeat(self):
        # x -> x^2 mod 11 from 2: the 4-cycle 4, 5, 3, 9, met again at step 8,
        # where the state saved at step 4 repeats
        seen = []
        assert flows.cycle_walk(lambda x: x * x % 11, 2, 100, seen.append) == 4
        assert seen == [4, 5, 3, 9] * 2
        seen = []
        assert flows.cycle_walk(lambda x: x * x % 11, 2, 7, seen.append) == 0
        assert len(seen) == 7
        # states compare by value: each float image is a new object
        assert flows.cycle_walk(lambda x: -x, 0.5, 10, [].append) == 2

    @pytest.mark.parametrize(
        "num,den,start",
        [
            ([1, 1, 0, 1], None, 5),
            ([0, -1], None, 5),  # x -> -x: period 2, so the block tiles
            ([0, 0, 1], [1], (2, 1)),
            ([1], [0, 1], (2, 1)),  # [x : y] -> [y : x]: period 2, so the block tiles
        ],
        ids=["poly", "poly_period_2", "rational", "rational_period_2"],
    )
    def test_padic_beyond_int64_bit_identical(self, num, den, start):
        # 3^40 > 2^62: the residues are Python ints in object arrays
        from oscillab import padic

        num = padic.PadicPoly.from_ints(num, 3, 40)
        if den is None:
            flow, x = padic.poly_flow(num), padic.PadicInt.from_int(start, 3, 40)
        else:
            flow = padic.rational_flow(num, padic.PadicPoly.from_ints(den, 3, 40))
            x = padic.ProjPoint.from_ints(*start, 3, 40)
        points, last = flow.block(x, 500)
        want, want_last = stepped(flow, x, 500)
        assert points.x.dtype == object
        if den is None:
            assert points.x.tolist() == [pt.residue for pt in want]
        else:
            assert points.x.tolist() == [pt.x.residue for pt in want]
            assert points.y.tolist() == [pt.y.residue for pt in want]
        assert last == want_last

    def test_walk_holds_each_state_once(self):
        # x -> x^2 mod 13 from 2: 4, then the 2-cycle 3, 9; Brent's check
        # meets the repeat at step 4, and the walk keeps 4, 3, 9
        walked = flows.compact_walk(lambda x: x * x % 13, 2, 100, np.int64)
        assert (walked.points.tolist(), walked.tail, walked.period) == ([4, 3, 9], 1, 2)
        assert walked.tiled().tolist() == [4] + [3, 9] * 49 + [3]
        assert [flows.compact_walk(lambda x: x * x % 13, 2, n, np.int64).last(2) for n in range(6)] == [
            2, 4, 3, 9, 3, 9
        ]
        # the walk stops at the first repeat: a walk too short for it holds every point
        short = flows.compact_walk(lambda x: x * x % 13, 2, 3, np.int64)
        assert (short.points.tolist(), short.period) == ([4, 3, 9], 0)

    def test_adding_machine_reduces_to_one_cycle(self):
        from oscillab import padic

        flow = padic.adding_machine(2, 32)
        start = padic.PadicInt.from_int(2**31 + 5, 2, 32)
        low, x = flow.reduce(start, 6)
        assert (x.precision, x.residue) == (6, 5)
        walked, last = low.walk(x, 4096)
        assert (walked.tail, walked.period, walked.size) == (0, 64, 64)
        assert walked.points.x.tolist() == [(5 + k) % 64 for k in range(1, 65)]
        assert last == padic.PadicInt.from_int(5 + 4096, 2, 6)
        # at the working precision the flow keeps its own closed form
        assert flow.reduce(start, 32) == (flow, start)

    def test_empty_blocks_end_at_the_start(self):
        from oscillab import padic
        from oscillab.torus import ModularMatrix, torus_affine_flow

        torus = torus_affine_flow(ModularMatrix.from_string("1,0;1,1"), (0.41421356237309503, 0.0))
        points, last = torus.block(np.array([0.2137, 0.718]), 0)
        assert points.shape == (0, 2)
        assert np.array_equal(last, [0.2137, 0.718])

        points, last = quadratic_flow(0.7).block(0.3, 0)
        assert points.shape == (0,)
        assert last == 0.3

        start = padic.PadicInt.from_int(5, 3, 32)
        flow = padic.poly_flow(padic.PadicPoly.from_ints([1, 1, 0, 1], 3, 32))
        points, last = flow.block(start, 0)
        assert (points.x.shape, points.y) == ((0,), None)
        assert last == start

        start = padic.ProjPoint.from_ints(2, 1, 3, 24)
        flow = padic.rational_flow(
            padic.PadicPoly.from_ints([0, 0, 1], 3, 24), padic.PadicPoly.from_ints([1], 3, 24)
        )
        points, last = flow.block(start, 0)
        assert (points.x.shape, points.y.shape) == ((0,), (0,))
        assert last == start
