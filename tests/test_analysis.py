import cmath
import dataclasses
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from conftest import (
    autocorrelation_toeplitz,
    check_metric_axioms,
    counterexample_report,
    rotation_trig_autocorrelation,
    toeplitz_min_eigenvalue,
)
from oscillab import analysis, circle, cli, flows, interval, padic, registry, sequences, torus
from oscillab.flows import Flow, Observable, isometry_defect

ALPHA = math.sqrt(2.0) - 1.0


def identity_flow():
    return Flow(
        name="identity",
        step=lambda x: x,
        dist=lambda a, b: abs(a - b),
        sample=lambda rng: float(rng.random()),
    )


def fourier(k):
    return Observable(f"fourier({k})", lambda x: complex(np.exp(2j * np.pi * k * x)))


CONST_ONE = Observable("one", lambda x: 1.0 + 0j)


class TestWeightedBirkhoff:
    def test_constant_everything_is_stagnant(self):
        w = sequences.WeightSequence("ones", np.ones(5000, dtype=complex), 2.0)
        report = analysis.weighted_birkhoff(w, identity_flow(), CONST_ONE, 0.0)
        assert report.verdict == "stagnant"
        assert report.limit_estimate == pytest.approx(1.0)
        for n, value in report.checkpoints:
            assert value == pytest.approx(1.0)

    def test_counterexample_is_exactly_stagnant(self):
        report = counterexample_report(ALPHA, [10, 100, 1000, 10**4])
        assert report.verdict == "stagnant"
        assert max(abs(s - 1.0) for _, s in report.checkpoints) < 1e-9

    def test_mobius_rotation_decays(self):
        w = sequences.mobius_sequence(10**5)
        report = analysis.weighted_birkhoff(
            w, circle.rotation_flow(ALPHA), fourier(1), 0.0
        )
        assert report.verdict == "decaying"
        assert abs(report.final_value()) < 0.05

    @pytest.mark.parametrize(
        "n_terms, verdict",
        [(200, "decaying"), (500, "inconclusive"), (700, "inconclusive"),
         (1000, "inconclusive"), (1500, "decaying")],
    )
    def test_stagnant_only_at_or_above_the_floor(self, n_terms, verdict):
        # at N = 500..1000 the tail rises, but |S_N| ends at 0.035-0.041,
        # below the floor DECAY_FINAL_LEVEL * growth_bound * sup |f| = 0.05
        w = sequences.mobius_sequence(n_terms)
        report = analysis.weighted_birkhoff(w, circle.rotation_flow(ALPHA), fourier(1), 0.0)
        assert report.verdict == verdict

    def test_checkpoints_match_recomputation(self):
        w = sequences.mobius_sequence(3000)
        flow = circle.rotation_flow(ALPHA)
        report = analysis.weighted_birkhoff(w, flow, fourier(1), 0.1)
        for n, recorded in report.checkpoints:
            direct = analysis.weighted_birkhoff(
                w, flow, fourier(1), 0.1, checkpoints=[n]
            ).final_value()
            assert abs(recorded - direct) < 1e-10

    def test_checkpoints_must_increase(self):
        w = sequences.mobius_sequence(100)
        with pytest.raises(ValueError):
            analysis.weighted_birkhoff(
                w, identity_flow(), CONST_ONE, 0.0, checkpoints=[50, 50]
            )

    def test_empty_checkpoints_rejected(self):
        w = sequences.mobius_sequence(100)
        with pytest.raises(ValueError, match="checkpoints must lie in"):
            analysis.weighted_birkhoff(w, identity_flow(), CONST_ONE, 0.0, checkpoints=[])

    def test_non_integral_checkpoints_rejected(self):
        # refused, not truncated to averages at other N than asked for
        w = sequences.mobius_sequence(100)
        with pytest.raises(ValueError, match="checkpoints must be integers"):
            analysis.weighted_birkhoff(
                w, identity_flow(), CONST_ONE, 0.0, checkpoints=[50.7, 100]
            )

    def test_numpy_integer_checkpoints_accepted(self):
        w = sequences.mobius_sequence(100)
        report = analysis.weighted_birkhoff(
            w, identity_flow(), CONST_ONE, 0.0, checkpoints=[np.int64(50), 100]
        )
        assert [(type(n), n) for n, _ in report.checkpoints] == [(int, 50), (int, 100)]

    def test_diverging_orbit_rejected(self):
        # started outside [-1, 1] the quadratic family runs off to infinity
        w = sequences.mobius_sequence(1000)
        flow = interval.quadratic_flow(0.7)
        coordinate = registry.build_observable("coordinate", {})
        with pytest.raises(ValueError, match="not finite"):
            analysis.weighted_birkhoff(w, flow, coordinate, 5.0)

    def test_linearity_in_weights_and_observable(self, rng):
        n_terms = 500
        u = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
        v = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
        a, b = 1.3 - 0.4j, -0.2 + 2.0j
        flow = circle.rotation_flow(ALPHA)
        def final(weights, obs):
            w = sequences.WeightSequence("w", weights, 2.0)
            return analysis.weighted_birkhoff(
                w, flow, obs, 0.0, checkpoints=[n_terms]
            ).final_value()
        combined = final(a * u + b * v, fourier(1))
        assert abs(combined - (a * final(u, fourier(1)) + b * final(v, fourier(1)))) < 1e-12
        f_sum = Observable("sum", lambda x: fourier(1).eval(x) + fourier(2).eval(x))
        assert abs(
            final(u, f_sum) - (final(u, fourier(1)) + final(u, fourier(2)))
        ) < 1e-12


    def test_report_keeps_the_text_of_its_start(self):
        # a torus start is a list the caller may change after the run
        flow = torus.torus_affine_flow(torus.ModularMatrix(1, 1, 0, 1))
        observable = registry.build_observable("torus_fourier", {"k1": "0", "k2": "1"})
        start = [0.25, 0.5]
        w = sequences.mobius_sequence(1000)
        report = analysis.weighted_birkhoff(w, flow, observable, start)
        start[0] = 0.75
        assert report.start == "[0.25, 0.5]"
        assert report.to_json_dict()["start"] == "[0.25, 0.5]"
        assert hash(report) == hash(dataclasses.replace(report))


class TestStabilityProbes:
    def test_isometric_probe_matches_separation(self, rng):
        flow = circle.rotation_flow(ALPHA)
        pairs = [(x, (x + 0.005) % 1.0) for x in rng.random(10)]
        worst = analysis.mean_equicontinuity_probe(flow, pairs, 500)
        assert worst == pytest.approx(0.005, abs=1e-12)

    def test_shear_response_does_not_collapse(self):
        # pairs straddling different fibers keep a large mean separation
        matrix = torus.ModularMatrix(1, 1, 0, 1)
        flow = torus.torus_affine_flow(matrix)

        def pair_sampler(delta, rng):
            x = rng.random()
            y = rng.random()
            return (np.array([x, y]), np.array([x, (y + delta) % 1.0]))

        curve = analysis.mean_equicontinuity_curve(
            flow,
            pair_sampler,
            deltas=[0.1, 0.01, 0.001],
            n_steps_for=lambda delta: int(50 / delta),
            n_pairs=4,
            seed=11,
        )
        for _, worst in curve:
            assert worst > 0.1

    def test_denjoy_pairs_collapse(self):
        denjoy = circle.build_denjoy(ALPHA, 4000)
        flow = denjoy.as_flow()
        pairs = []
        for a, b in circle.close_endpoint_pairs(denjoy, 0.05, 5, horizon=1000, seed=1):
            pairs.append((denjoy.endpoint(*a), denjoy.endpoint(*b)))
        worst = analysis.mean_equicontinuity_probe(flow, pairs, 1000)
        assert worst < 0.05

    def test_bad_density_identity_flow(self):
        result = analysis.mls_bad_density(identity_flow(), 0.1, 0.15, 0.1, 2000)
        assert result.upper_density == 0.0

    def test_bad_density_rotation(self):
        flow = circle.rotation_flow(ALPHA)
        result = analysis.mls_bad_density(flow, 0.3, 0.32, 0.05, 2000)
        assert result.upper_density == 0.0

    def test_bad_density_denjoy_endpoints(self):
        denjoy = circle.build_denjoy(ALPHA, 4000)
        (a, b) = circle.close_endpoint_pairs(denjoy, 0.05, 1, horizon=2000, seed=9)[0]
        result = analysis.mls_bad_density(
            denjoy.as_flow(), denjoy.endpoint(*a), denjoy.endpoint(*b), 0.05, 2000
        )
        assert result.upper_density < 0.05

    def test_mean_attraction(self):
        assert analysis.mean_attraction_test(identity_flow(), 0.4, 0.4, 100) == 0.0
        flow = interval.quadratic_flow(0.0)
        assert analysis.mean_attraction_test(flow, 0.5, 0.0, 1000) < 1e-3

    def test_shear_fibers_are_not_attracted(self):
        # fibers are invariant, so the vertical separation is a floor on the
        # mean distance; when the shear acts identically on both fibers the
        # trace is exactly the constant fiber distance
        matrix = torus.ModularMatrix(1, 2, 0, 1)
        flow = torus.torus_affine_flow(matrix)
        x = np.array([0.3, 0.2])
        z_aligned = np.array([0.3, 0.7])  # t * dy = 1: same rotation on both fibers
        value = analysis.mean_attraction_test(flow, x, z_aligned, 500)
        assert value == pytest.approx(flow.dist(x, z_aligned), abs=1e-9)
        z_other = np.array([0.3, 0.45])
        drifting = analysis.mean_attraction_test(flow, x, z_other, 500)
        assert drifting >= abs(0.45 - 0.2) - 1e-9


ROTATION = circle.rotation_flow(ALPHA)
MOBIUS_64 = sequences.mobius_sequence(64)
RNG = np.random.default_rng(0)


@pytest.mark.parametrize(
    "call,argument",
    [
        (lambda: analysis.mean_attraction_test(ROTATION, 0.1, 0.2, n_steps=0), "n_steps"),
        (lambda: analysis.mls_bad_density(ROTATION, 0.1, 0.2, 0.05, n_steps=0), "n_steps"),
        (lambda: analysis.holder_defect(MOBIUS_64, ROTATION, fourier(1), 0.1, 0.2, 0), "n_terms"),
        (lambda: analysis.holder_defect(MOBIUS_64, ROTATION, fourier(1), 0.1, 0.2, 65), "n_terms"),
        (
            lambda: analysis.autocorrelation_spectrum(ROTATION, fourier(1), 0.1, -1, 100),
            "n_lags",
        ),
        (lambda: flows.orbit_distance_trace(ROTATION, 0.1, 0.2, n_steps=-1), "n_steps"),
        # no sample is no evidence: a vacuous -inf or 0.0 would read as a pass
        (lambda: flows.lipschitz_one_defect(ROTATION, RNG, 0), "n_pairs"),
        (lambda: flows.isometry_defect(ROTATION, RNG, n_pairs=0), "n_pairs"),
        (lambda: flows.isometry_defect(ROTATION, RNG, n_steps=0), "n_steps"),
        (lambda: check_metric_axioms(ROTATION, RNG, n_triples=0), "n_triples"),
        (lambda: analysis.mean_equicontinuity_probe(ROTATION, [], 500), "pairs"),
        (
            lambda: analysis.mean_equicontinuity_curve(
                ROTATION, lambda d, rng: (0.1, 0.1 + d), [0.01], lambda d: 500, n_pairs=0
            ),
            "pairs",
        ),
    ],
    ids=[
        "mean_attraction_no_steps",
        "mls_no_steps",
        "holder_no_terms",
        "holder_terms_past_weights",
        "autocorrelation_negative_lags",
        "distance_trace_negative_steps",
        "lipschitz_no_pairs",
        "isometry_no_pairs",
        "isometry_no_steps",
        "metric_axioms_no_triples",
        "equicontinuity_no_pairs",
        "equicontinuity_curve_no_pairs",
    ],
)
def test_bad_probe_input_fails_loudly(call, argument):
    with pytest.raises(ValueError, match=argument):
        call()


class TestShadowPeriodic:
    def test_fixed_point_shadows_immediately(self):
        flow = interval.quadratic_flow(0.0)
        result = analysis.shadow_periodic(flow, 0.0, 1e-3, 200)
        assert result == (0, 0)

    def test_two_cycle_shadowing(self):
        flow = interval.quadratic_flow(0.7)
        result = analysis.shadow_periodic(flow, 0.3, 1e-3, 2000)
        assert result is not None
        tau, phase = result
        assert tau < 200

    def test_drift_check_refuses_a_tail_period(self):
        # the tail reads period 4, but the orbit is still eps-far from it too late
        flow = interval.quadratic_flow(0.7)
        assert analysis.shadow_periodic(flow, 0.3, 0.05, 20) is None

    def test_irrational_rotation_has_no_periodic_shadow(self):
        flow = circle.rotation_flow(ALPHA)
        assert analysis.shadow_periodic(flow, 0.3, 1e-3, 10**4) is None


def per_step_autocorrelation(flow, obs, start, n_lags, n_terms):
    values = []
    x = start
    for _ in range(n_terms + n_lags):
        x = flow.step(x)
        values.append(complex(obs.eval(x)))
    values = np.array(values)
    return np.array(
        [
            np.sum(values[k : k + n_terms] * np.conj(values[:n_terms])) / n_terms
            for k in range(n_lags + 1)
        ]
    )


class TestAutocorrelation:
    def test_single_mode_closed_form(self):
        flow = circle.rotation_flow(ALPHA)
        gamma = analysis.autocorrelation_spectrum(flow, fourier(1), 0.1, 8, 10**5)
        expected = np.exp(2j * np.pi * ALPHA * np.arange(9))
        assert np.max(np.abs(gamma - expected)) < 1.0 / 10**5 * 10

    def test_constant_observable(self):
        flow = circle.rotation_flow(ALPHA)
        gamma = analysis.autocorrelation_spectrum(flow, CONST_ONE, 0.0, 5, 2000)
        assert np.max(np.abs(gamma - 1.0)) < 1e-12

    def test_trig_polynomial_mass(self):
        coeffs = {-2: 0.3, 1: 0.5, 3: -0.2}

        def trig(x):
            return sum(a * np.exp(2j * np.pi * m * x) for m, a in coeffs.items())

        flow = circle.rotation_flow(ALPHA)
        n_terms = 10**5
        gamma = analysis.autocorrelation_spectrum(
            flow, Observable("trig", trig), 0.2, 16, n_terms
        )
        expected = rotation_trig_autocorrelation(coeffs, ALPHA, np.arange(17))
        assert np.max(np.abs(gamma - expected)) < 2.0 / math.sqrt(n_terms)

    def test_toeplitz_psd(self):
        flow = circle.rotation_flow(ALPHA)
        gamma = analysis.autocorrelation_spectrum(flow, fourier(1), 0.1, 12, 10**4)
        scale = abs(gamma[0])
        assert toeplitz_min_eigenvalue(gamma) >= -1e-6 * max(scale, 1.0)

    def test_toeplitz_matches_loop_reference(self, rng):
        from scipy.linalg import toeplitz

        gamma = rng.normal(size=9) + 1j * rng.normal(size=9)
        expected = np.array(
            [[np.conj(gamma[i - j]) if i >= j else gamma[j - i] for j in range(9)] for i in range(9)]
        )
        matrix = autocorrelation_toeplitz(gamma)
        assert np.array_equal(matrix, expected)
        assert np.array_equal(matrix, toeplitz(np.conj(gamma), gamma))

    def test_block_boundaries_match_direct(self):
        # a run inside one block; the next test crosses a block join
        flow = circle.rotation_flow(0.3)
        gamma = analysis.autocorrelation_spectrum(flow, fourier(1), 0.0, 7, 500)
        direct = per_step_autocorrelation(flow, fourier(1), 0.0, 7, 500)
        assert np.max(np.abs(gamma - direct)) < 1e-12

    def test_lag_window_carried_across_block_join(self):
        flow = circle.rotation_flow(0.3)
        # at a whole number of blocks the last block serves only the longer lags
        for n_terms in ((1 << 15) + 9, 4096):
            gamma = analysis.autocorrelation_spectrum(flow, fourier(1), 0.1, 12, n_terms)
            direct = per_step_autocorrelation(flow, fourier(1), 0.1, 12, n_terms)
            assert np.max(np.abs(gamma - direct)) < 1e-12


class TestHookedDisjointness:
    def test_resonant_atom_detected(self):
        n = np.arange(1, 20001)
        w = sequences.WeightSequence("mode", np.exp(2j * np.pi * ALPHA * n), 2.0)
        flow = circle.rotation_flow(ALPHA)
        report = analysis.hooked_disjointness(
            w, flow, fourier(-1), 0.0, support_atoms=[ALPHA]
        )
        assert not report.spectral_clear
        assert report.verdict == "resonant"

    def test_mobius_atoms_clear(self):
        w = sequences.mobius_sequence(10**5)
        flow = circle.rotation_flow(ALPHA)
        atoms = [(k * ALPHA) % 1.0 for k in range(-5, 6)]
        report = analysis.hooked_disjointness(w, flow, fourier(1), 0.0, atoms)
        assert report.spectral_clear
        assert report.verdict == "supported"

    def test_resonant_atom_with_decaying_average_is_mixed(self):
        # e(n/4) has its atom at 1/4, but its average along the 0.3-rotation decays
        w = sequences.polynomial_phase_sequence(20000, [0, 0.25])
        flow = circle.rotation_flow(0.3)
        report = analysis.hooked_disjointness(w, flow, fourier(1), 0.0, [0.25])
        assert not report.spectral_clear
        assert report.birkhoff.verdict == "decaying"
        assert report.verdict == "mixed"

    def test_rational_quadratic_resonance(self):
        w = sequences.quadratic_phase_sequence(3 * 10**4, 1.0 / 3.0)
        flow = circle.rotation_flow(1.0 / 3.0)
        report = analysis.hooked_disjointness(
            w, flow, fourier(-1), 0.0, support_atoms=[1.0 / 3.0]
        )
        assert not report.spectral_clear
        assert report.birkhoff.verdict == "stagnant"

    def test_fraction_atom_is_exact(self):
        # e(n^2/3) at 1/3: the mean over each period is (2 + e(2/3))/3
        w = sequences.quadratic_phase_sequence(3 * 10**4, Fraction(1, 3))
        flow = circle.rotation_flow(1.0 / 3.0)
        atom = Fraction(1, 3)
        report = analysis.hooked_disjointness(w, flow, fourier(-1), 0.0, [atom])
        (key,) = report.atom_means
        assert key is atom
        limit = (2 + cmath.exp(4j * math.pi / 3)) / 3
        assert abs(report.atom_means[atom] - limit) < 1e-13


class TestHolderBound:
    @pytest.mark.parametrize(
        "flow,starts",
        [
            (circle.rotation_flow(ALPHA), lambda rng: (rng.random(), rng.random())),
            (interval.quadratic_flow(0.7), lambda rng: tuple(rng.uniform(-1, 1, 2))),
            (
                torus.torus_affine_flow(torus.ModularMatrix(0, 1, -1, 0)),
                lambda rng: (rng.random(2), rng.random(2)),
            ),
        ],
    )
    def test_holder_defect_nonpositive(self, flow, starts, rng):
        w = sequences.mobius_sequence(512)
        obs = (
            fourier(1)
            if "torus" not in flow.name
            else Observable(
                "torus_fourier",
                lambda xy: complex(np.exp(2j * np.pi * (xy[0] + xy[1]))),
            )
        )
        for _ in range(100):
            x, y = starts(rng)
            assert analysis.holder_defect(w, flow, obs, x, y, 512) <= 1e-10


# ----------------------------------------------------------------------
# the orbit streams against plain per-step loops


def per_step_birkhoff(weights, flow, observable, start, checkpoints):
    """Reference: step, complex(eval), KahanSum.add, one term at a time."""
    acc = sequences.KahanSum()
    x = start
    sup = 0.0
    recorded = []
    for n in range(1, checkpoints[-1] + 1):
        x = flow.step(x)
        fx = complex(observable.eval(x))
        sup = max(sup, abs(fx))
        acc.add(weights.values[n - 1] * fx)
        if n in checkpoints:
            recorded.append((n, acc.value / n))
    return recorded, sup


# orbits that reach an exact cycle: (flow, params), (observable, params), start
CYCLIC_ORBITS = {
    "padic_poly": (
        ("padic_poly", {"p": "3", "precision": "32", "coeffs": "1,1,0,1"}),
        ("padic_phase", {"level": "4"}),
        "5",
    ),
    "padic_rational": (
        ("padic_rational", {"p": "3", "precision": "24", "num": "0,0,1", "den": "1"}),
        ("projective_phase", {"level": "3"}),
        "2,1",
    ),
    "adding_machine": (
        ("adding_machine", {"p": "2", "precision": "32"}),
        ("padic_phase", {"level": "6"}),
        "0",
    ),
    "quadratic_family": (("quadratic_family", {"t": "0.7"}), ("coordinate", {}), "0.3"),
    "torus_auto": (
        ("torus_auto", {"matrix": "0,1;-1,0"}),
        ("torus_fourier", {"k1": "1", "k2": "1"}),
        "0.2137,0.718",
    ),
    # the first point to recur is T^4561 x: no walk meets the repeat in the
    # first 4096-term block, and the second block's does
    "quadratic_late_repeat": (("quadratic_family", {"t": "0.7235"}), ("coordinate", {}), "0.3"),
}


def registered(flow, observable, start):
    """The registry's flow, observable and parsed start for (name, params) pairs."""
    (flow_name, flow_params), (obs_name, obs_params) = flow, observable
    built = registry.build_flow(flow_name, flow_params)
    return (
        built,
        registry.build_observable(obs_name, obs_params),
        registry.parse_start(flow_name, start, built),
    )


def observed_state(point, level):
    """What an observable of ``level`` reads of a point: its residues mod p^level, or the point."""
    if isinstance(point, padic.PadicInt):
        return point.residue % point.p**level
    if isinstance(point, padic.ProjPoint):
        modulus = point.x.p**level
        return point.x.residue % modulus, point.y.residue % modulus
    return tuple(np.ravel(point).tolist())


def first_recurrence(flow, observable, x):
    """(tail, period), stepped per point: T^(tail + 1) x is the first point to recur."""
    seen = {}
    for k in range(10**6):
        x = flow.step(x)
        state = observed_state(x, observable.level)
        if state in seen:
            return seen[state], k - seen[state]
        seen[state] = k
    raise AssertionError("no point recurred")


def gauss_weights(rng, n_terms):
    return sequences.WeightSequence(
        "gauss", rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms), 2.0
    )


def per_step_distances(flow, x, z, n_steps):
    u, v = x, z
    out = []
    for _ in range(n_steps):
        u = flow.step(u)
        v = flow.step(v)
        out.append(flow.dist(u, v))
    return out


def block_distances(flow, x, z, n_steps):
    """Reference: ``flow.dist`` over the rows of the two orbits' ``Flow.block``."""
    return [flow.dist(u, v) for u, v in zip(flow.block(x, n_steps)[0], flow.block(z, n_steps)[0])]


def bundled_experiments():
    configs = resources.files("oscillab").joinpath("configs")
    return [
        cfg
        for entry in sorted(configs.iterdir(), key=lambda e: e.name)
        if entry.name.endswith(".cfg")
        for cfg in cli.parse_config(str(entry))
    ]


# verdicts of the bundled configs under the per-step loop
BUNDLED_VERDICTS = {
    "counterexample": "stagnant",
    "resonant-rotation": "stagnant",
    "liouville-adding-machine": "decaying",
    "liouville-shear-fiber": "decaying",
    "mobius-padic-rational": "decaying",
    "mobius-rotation": "decaying",
    "nlogn-torus-auto": "decaying",
    "polynomial-padic-poly": "decaying",
    "quadratic-denjoy": "decaying",
    "subnormal-quadratic-family": "decaying",
}


class TestStreamsMatchPerStepLoops:
    @pytest.mark.parametrize("cfg", bundled_experiments(), ids=lambda cfg: cfg.name)
    def test_bundled_config(self, cfg):
        weights = registry.build_sequence(
            cfg.sequence, cfg.sequence_params, cfg.n_terms, seed=cfg.seed
        )
        flow = registry.build_flow(cfg.flow, cfg.flow_params)
        observable = registry.build_observable(cfg.observable, cfg.observable_params)
        start = registry.parse_start(cfg.flow, cfg.start, flow)
        report = analysis.weighted_birkhoff(
            weights, flow, observable, start, cfg.checkpoints
        )
        checkpoints = list(cfg.checkpoints or analysis.default_checkpoints(cfg.n_terms))
        expected, sup = per_step_birkhoff(weights, flow, observable, start, checkpoints)
        assert report.verdict == BUNDLED_VERDICTS[cfg.name]
        assert [n for n, _ in report.checkpoints] == checkpoints
        for (_, got), (_, want) in zip(report.checkpoints, expected):
            assert abs(got - want) <= 1e-12
        assert report.sup_observed == sup

    @pytest.mark.parametrize(
        "flow,start",
        [
            (circle.rotation_flow(ALPHA), 0.1),
            (interval.quadratic_flow(0.7), 0.3),
        ],
        ids=["rotation", "quadratic_family"],
    )
    def test_checkpoints_straddling_block_boundaries(self, flow, start, rng):
        block = 1 << 15
        n_terms = 2 * block + 1001  # not a multiple of the block size
        weights = sequences.WeightSequence(
            "gauss", rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms), 2.0
        )
        checkpoints = [1, block - 1, block, block + 1, 2 * block, 2 * block + 1, n_terms]
        observable = Observable("f", lambda x: complex(np.exp(2j * np.pi * x)) + x)
        report = analysis.weighted_birkhoff(weights, flow, observable, start, checkpoints)
        expected, sup = per_step_birkhoff(weights, flow, observable, start, checkpoints)
        assert [n for n, _ in report.checkpoints] == checkpoints
        for (_, got), (_, want) in zip(report.checkpoints, expected):
            assert abs(got - want) <= 1e-12
        assert report.sup_observed == sup

    @pytest.mark.parametrize("kernel", [False, True], ids=["per_point", "block"])
    @pytest.mark.parametrize(
        "flow,start",
        [
            (circle.rotation_flow(ALPHA), 0.1),
            (interval.quadratic_flow(0.7), 0.3),
        ],
        ids=["rotation", "quadratic_family"],
    )
    def test_checkpoints_straddling_shared_chunks(self, flow, start, kernel, rng):
        # the stream's blocks are the weight builders' chunks
        block = sequences._BLOCK
        n_terms = 2 * block + 1001
        weights = sequences.WeightSequence(
            "gauss", rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms), 2.0
        )
        checkpoints = [1, block - 1, block, block + 1, 2 * block, 2 * block + 1, n_terms]
        observable = Observable(
            "f",
            lambda x: complex(np.exp(2j * np.pi * x)) + x,
            eval_block=(lambda xs: np.exp(2j * np.pi * xs) + xs) if kernel else None,
        )
        report = analysis.weighted_birkhoff(weights, flow, observable, start, checkpoints)
        expected, sup = per_step_birkhoff(weights, flow, observable, start, checkpoints)
        assert block == 4096
        assert [n for n, _ in report.checkpoints] == checkpoints
        for (_, got), (_, want) in zip(report.checkpoints, expected):
            assert abs(got - want) <= 1e-12
        assert report.sup_observed == pytest.approx(sup, rel=1e-12)

    @pytest.mark.parametrize("short", [False, True], ids=["1e5", "below_tail_plus_period"])
    @pytest.mark.parametrize("orbit", list(CYCLIC_ORBITS))
    def test_cyclic_orbits_fold_within_1e12(self, orbit, short, rng):
        flow, observable, start = registered(*CYCLIC_ORBITS[orbit])
        tail, period = first_recurrence(flow, observable, start)
        block = sequences._BLOCK
        if short:  # no walk of N steps can meet the repeat
            n_terms = tail + period - 1
            marks = [1, tail // 2, tail, n_terms]
        else:
            n_terms = 10**5
            # inside the tail, at its end, the first lap of the cycle, and
            # the block boundaries
            marks = [1, tail // 2, tail, tail + 1, tail + period, tail + period + 1]
            marks += [block - 1, block, block + 1, 2 * block, 2 * block + 1, n_terms]
        checkpoints = sorted({n for n in marks if 1 <= n <= n_terms})
        weights = gauss_weights(rng, n_terms)
        report = analysis.weighted_birkhoff(weights, flow, observable, start, checkpoints)
        expected, sup = per_step_birkhoff(weights, flow, observable, start, checkpoints)
        assert [n for n, _ in report.checkpoints] == checkpoints
        for (_, got), (_, want) in zip(report.checkpoints, expected):
            assert abs(got - want) <= 1e-12
        assert report.sup_observed == sup

    def test_late_repeat_is_met_in_a_later_block(self):
        flow, observable, start = registered(*CYCLIC_ORBITS["quadratic_late_repeat"])
        tail, _ = first_recurrence(flow, observable, start)
        block = sequences._BLOCK
        assert block < tail < 2 * block
        heads = [
            (len(head), cycle)
            for head, cycle in flows._observed_orbit(flow, observable, start, 3 * block)
        ]
        assert heads[0] == (block, None)
        (first, cycle), (third, same) = heads[1:]
        assert cycle is not None and same is cycle and third == 0
        assert cycle.start == block + first and tail <= cycle.start

    @pytest.mark.parametrize(
        "orbit",
        [
            # the first flip: no state repeats
            (("quadratic_family", {"t": "0.5"}), ("coordinate", {}), "0.3"),
            (
                ("torus_affine", {"matrix": "1,0;1,1", "shift": "0.41421356237309503,0"}),
                ("torus_fourier", {"k1": "1", "k2": "1"}),
                "0.2137,0.718",
            ),
        ],
        ids=["quadratic_no_repeat", "counterexample_skew"],
    )
    def test_orbits_that_never_repeat_keep_the_product_sums(self, orbit, rng):
        # no cycle, so each chunk's terms are summed as products, bit for bit
        flow, observable, start = registered(*orbit)
        n_terms = 10**5
        weights = gauss_weights(rng, n_terms)
        checkpoints = analysis.default_checkpoints(n_terms)
        report = analysis.weighted_birkhoff(weights, flow, observable, start, checkpoints)
        acc, recorded, lo = sequences.KahanSum(), [], 0
        stream = flows._observable_stream(flow, observable, start, n_terms)
        for block, chunk in zip(stream, weights.chunks()):
            terms = chunk[: len(block)] * block
            cut = 0
            for n in [n for n in checkpoints if lo < n <= lo + len(block)]:
                acc.add(complex(terms[cut : n - lo].sum()))
                cut = n - lo
                recorded.append((n, acc.value / n))
            acc.add(complex(terms[cut:].sum()))
            lo += len(block)
        assert [(n, s.real.hex(), s.imag.hex()) for n, s in report.checkpoints] == [
            (n, s.real.hex(), s.imag.hex()) for n, s in recorded
        ]

    def test_bad_density_counts_exact(self):
        # a shear pulls fibers apart and wraps them round: the bad set is
        # a union of long stretches, so the counts move at every checkpoint
        flow = torus.torus_affine_flow(torus.ModularMatrix(1, 1, 0, 1))
        x, z = np.array([0.3, 0.2]), np.array([0.3, 0.2003])
        eps, n_steps = 0.05, 5000
        result = analysis.mls_bad_density(flow, x, z, eps, n_steps)
        bad = np.cumsum(np.array(per_step_distances(flow, x, z, n_steps)) >= eps)
        expected = [(n, int(bad[n - 1])) for n in analysis.default_checkpoints(n_steps)]
        assert list(result.bad_counts) == expected
        assert 0 < expected[-1][1] < n_steps

    @pytest.mark.parametrize(
        "flow",
        [
            circle.rotation_flow(ALPHA),
            interval.quadratic_flow(0.7),
            torus.torus_affine_flow(torus.ModularMatrix(1, 1, 0, 1)),
        ],
        ids=lambda flow: flow.name,
    )
    def test_isometry_defect_exact(self, flow):
        got = isometry_defect(flow, np.random.default_rng(3), n_pairs=20, n_steps=300)
        # the rotation's block is its closed form, more exact than accumulated
        # steps; the quadratic and torus blocks walk ``step`` bit for bit
        rotation = flow.name.startswith("rotation")
        distances = block_distances if rotation else per_step_distances
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            x, y = flow.sample(rng), flow.sample(rng)
            base = flow.dist(x, y)
            for d in distances(flow, x, y, 300):
                worst = max(worst, abs(d - base))
        assert got == worst

    @pytest.mark.parametrize(
        "flow",
        [circle.rotation_flow(ALPHA), circle.build_denjoy(ALPHA, 4000).as_flow()],
        ids=["rotation", "denjoy"],
    )
    def test_distance_trace_near_per_step(self, flow):
        # the closed-form and gap-table blocks are not stepped: they stay
        # within the rounding that accumulated steps pick up
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, z = flow.sample(rng), flow.sample(rng)
            got = flows.orbit_distance_trace(flow, x, z, 2000)
            assert np.max(np.abs(got - per_step_distances(flow, x, z, 2000))) <= 1e-12

    def test_orbit_and_probes_read_the_block(self):
        flow, x, z, n = circle.rotation_flow(ALPHA), 0.1, 0.35, 4096
        rows_x, rows_z = flow.block(x, n)[0], flow.block(z, n)[0]
        orbit = flows.orbit(flow, x, n)
        assert orbit[0] == x
        assert np.array(orbit[1:]).tobytes() == rows_x.tobytes()
        distances = np.array([flow.dist(u, v) for u, v in zip(rows_x, rows_z)])
        assert analysis.mean_attraction_test(flow, x, z, n) == distances.sum() / n

    def test_mean_attraction_and_equicontinuity(self, rng):
        flow = torus.torus_affine_flow(torus.ModularMatrix(1, 1, 0, 1))
        pairs = [(rng.random(2), rng.random(2)) for _ in range(5)]
        means = []
        for x, z in pairs:
            want = sum(per_step_distances(flow, x, z, 3000)) / 3000
            assert abs(analysis.mean_attraction_test(flow, x, z, 3000) - want) <= 1e-12
            means.append(want)
        worst = analysis.mean_equicontinuity_probe(flow, pairs, 3000)
        assert abs(worst - max(means)) <= 1e-12

    def test_holder_defect(self, rng):
        w = sequences.mobius_sequence(512)
        flow = interval.quadratic_flow(0.7)
        obs = Observable("x", lambda x: complex(x))
        q = w.growth_exponent / (w.growth_exponent - 1.0)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 2)
            acc_x, acc_y = sequences.KahanSum(), sequences.KahanSum()
            diff_sum = 0.0
            u, v = x, y
            for n in range(1, 513):
                u, v = flow.step(u), flow.step(v)
                fu, fv = complex(obs.eval(u)), complex(obs.eval(v))
                acc_x.add(w.values[n - 1] * fu)
                acc_y.add(w.values[n - 1] * fv)
                diff_sum += abs(fu - fv) ** q
            want = abs(acc_x.value - acc_y.value) / 512 - w.growth_bound * (
                diff_sum / 512
            ) ** (1.0 / q)
            assert abs(analysis.holder_defect(w, flow, obs, x, y, 512) - want) <= 1e-12
