import numpy as np
import pytest

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
        sym, tri = flows.check_metric_axioms(rotation_flow(0.1), rng)
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
            sym, tri = flows.check_metric_axioms(flow, rng, n_triples=300)
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
