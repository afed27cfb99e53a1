"""Per-layer metrics: isolated loops and single calls into each module.

Every call goes through a Tracer span; rates are work counts divided by
span durations.  Flow, metric and observable rates come from loops over
one orbit per flow, and the weighted average of that same orbit gives the
averaging loop's own time (``analysis.birkhoff.self_s``).  Calls that fill
a per-process cache (``interval.cascade``, ``cyclotomic_polynomial``) are
timed on their first, cold use only.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import statistics
from fractions import Fraction
from pathlib import Path

import numpy as np

from oscillab import analysis, circle, cli, flows, interval, registry, sequences, torus
from oracle import dyadic_phases
from tracing import Tracer
from workloads import CONFIG_DIR, RHO, mat_inverse, mat_mul, orbit_loops, random_modular

N_GEN = 1 << 17
N_FLOW = 1 << 15
N_PADIC = 1 << 11
N_PHASE = 10**6
REPEATS = 3

GENERATORS = [
    ("mobius", {}), ("liouville", {}), ("quadratic_phase", {"alpha": RHO}),
    ("polynomial_phase", {"coeffs": "0,0.07,0.0131"}), ("nlogn_phase", {"c": "1.0"}),
    ("subnormal", {"tau": "0.2"}),
]

# (metric prefix, flow, params, observable, params, start) as in the bundled configs
FLOWS = [
    ("circle.rotation", "rotation", {"rho": RHO}, "fourier", {"k": "1"}, "0.0"),
    ("circle.denjoy", "denjoy", {"rho": RHO, "trunc": "2000"}, "fourier", {"k": "1"}, "0.25"),
    ("torus.shear_fiber", "shear_fiber", {"t": "1", "y": RHO}, "fourier", {"k": "2"}, "0.0"),
    ("torus.affine", "torus_affine", {"matrix": "1,0;1,1", "shift": f"{RHO},0"}, "torus_fourier",
     {"k1": "0", "k2": "1"}, "0.20710678118654752,0"),
    ("torus.auto", "torus_auto", {"matrix": "0,1;-1,0"}, "torus_fourier", {"k1": "1", "k2": "1"},
     "0.2137,0.718"),
    ("interval.quadratic_family", "quadratic_family", {"t": "0.7"}, "coordinate", {}, "0.3"),
    ("padic.poly", "padic_poly", {"p": "3", "precision": "32", "coeffs": "1,1,0,1"}, "padic_phase",
     {"level": "4"}, "5"),
    ("padic.adding_machine", "adding_machine", {"p": "2", "precision": "32"}, "padic_phase",
     {"level": "6"}, "0"),
    ("padic.rational", "padic_rational", {"p": "3", "precision": "24", "num": "0,0,1", "den": "1"},
     "projective_phase", {"level": "3"}, "2,1"),
]
# which orbit measures each metric and each observable
DIST_ON = {"circle.dist_per_s": "circle.rotation", "torus.dist_per_s": "torus.affine",
           "interval.dist_per_s": "interval.quadratic_family", "padic.dist_per_s": "padic.poly",
           "padic.spherical_dist_per_s": "padic.rational"}
OBS_ON = {"fourier": "circle.rotation", "torus_fourier": "torus.affine",
          "coordinate": "interval.quadratic_family", "padic_phase": "padic.poly",
          "projective_phase": "padic.rational"}


class Timer:
    def __init__(self) -> None:
        self.tr = Tracer()

    def __call__(self, name, fn, *args, **kwargs):
        """(value, seconds) of one traced call."""
        index = len(self.tr.spans)
        value = self.tr.call(name, fn, *args, **kwargs)
        _, start, end, _, _ = self.tr.spans[index]
        return value, end - start

    def median(self, name, fn, *args, **kwargs) -> float:
        return statistics.median(self(name, fn, *args, **kwargs)[1] for _ in range(REPEATS))


def scaled_config(text: str, divisor: int) -> str:
    """The config with n (and its checkpoints) divided by ``divisor``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    out = io.StringIO()
    for section in parser.sections():
        body = parser[section]
        n = max(int(body["n"]) // divisor, 1)
        body["n"] = str(n)
        if body.get("checkpoints"):
            points = sorted({min(int(c) // divisor, n) for c in body["checkpoints"].split(",")} - {0})
            body["checkpoints"] = ",".join(str(c) for c in points)
    parser.write(out)
    return out.getvalue()


def _loops(timer: Timer, prefix: str, flow, obs, start, n: int):
    """Seconds of n steps, of evaluating the orbit, and of n - 1 distances."""
    def dist_loop(points):
        dist = flow.dist
        for a, b in zip(points, points[1:]):
            dist(a, b)

    module = prefix.split(".")[0]
    (points, step_s, eval_s), _ = timer(f"{module}.orbit_loops", orbit_loops, flow, obs, start, n)
    _, dist_s = timer(f"{module}.dist_loop", dist_loop, points)
    return step_s, eval_s, dist_s


def run(req: dict, import_s: float) -> dict:
    timer = Timer()
    out = Path(req["out"])
    out.mkdir(parents=True, exist_ok=True)
    m: dict[str, float] = {"cli.import_s": import_s}

    for name, params in GENERATORS:
        secs = timer.median("registry.build_sequence", registry.build_sequence, name, params, N_GEN, 1)
        m[f"sequences.gen.{name}.terms_per_s"] = N_GEN / secs
    mobius = registry.build_sequence("mobius", {}, N_GEN)
    report, secs = timer("sequences.zero_set_scan", sequences.zero_set_scan, mobius, 128, 1 << 14)
    m["sequences.scan.freq_terms_per_s"] = len(report.grid) * (1 << 14) / secs
    secs = timer.median("sequences.cesaro_mean", sequences.cesaro_mean, mobius, 1 / 3)
    m["sequences.cesaro_mean.terms_per_s"] = N_GEN / secs

    weights = registry.build_sequence("quadratic_phase", {"alpha": RHO}, N_PHASE)
    program = np.mod(np.angle(weights.values) / (2 * np.pi), 1.0)
    exact = dyadic_phases([0, 0, RHO], np.arange(1, N_PHASE + 1))
    diff = np.abs(program - exact)
    m["sequences.quadratic_phase.max_phase_err"] = float(np.max(np.minimum(diff, 1.0 - diff)))

    def spectra():
        for q in range(2, 65):
            sequences.quadratic_rational_spectrum(1, q)

    m["cyclotomic.spectrum_s"] = timer("sequences.quadratic_rational_spectrum", spectra)[1]
    secs = timer("sequences.quadratic_rational_cesaro", sequences.quadratic_rational_cesaro,
                 1, 5, Fraction(1, 5), 1 << 21)[1]
    m["cyclotomic.brute.terms_per_s"] = (1 << 21) / secs

    loops = {}
    for prefix, flow_name, flow_params, obs_name, obs_params, start_text in FLOWS:
        n = N_PADIC if prefix.startswith("padic") else N_FLOW
        flow = registry.build_flow(flow_name, flow_params)
        obs = registry.build_observable(obs_name, obs_params)
        start = registry.parse_start(flow_name, start_text, flow)
        step_s, eval_s, dist_s = _loops(timer, prefix, flow, obs, start, n)
        w = registry.build_sequence("mobius", {}, n)
        _, birkhoff_s = timer("analysis.weighted_birkhoff", analysis.weighted_birkhoff, w, flow, obs, start)
        loops[prefix] = (n, step_s, eval_s, dist_s)
        m[f"{prefix}.steps_per_s"] = n / step_s
        m[f"analysis.birkhoff.{flow_name}.terms_per_s"] = n / birkhoff_s
        if prefix == "circle.rotation":
            m["analysis.birkhoff.self_s"] = birkhoff_s - step_s - eval_s
    for metric, prefix in DIST_ON.items():
        n, _, _, dist_s = loops[prefix]
        m[metric] = (n - 1) / dist_s
    for obs_name, prefix in OBS_ON.items():
        n, _, eval_s, _ = loops[prefix]
        m[f"registry.obs.{obs_name}.evals_per_s"] = n / eval_s

    rho = float(RHO)
    m["circle.denjoy.build_s"] = timer.median("circle.build_denjoy", circle.build_denjoy, rho, 2000)
    m["padic.rational.build_s"] = timer.median(
        "registry.build_flow", registry.build_flow, "padic_rational",
        {"p": "3", "precision": "24", "num": "0,0,1", "den": "1"})
    denjoy = circle.build_denjoy(rho, 13000)
    pairs = circle.close_endpoint_pairs(denjoy, 0.05, 50, 10**4, seed=17)

    def densities():
        for first, second in pairs:
            circle.mls_density_on_lambda(denjoy, first, second, 0.05, 10**4)

    m["circle.symbolic.pairs_per_s"] = len(pairs) / timer("circle.mls_density_on_lambda", densities)[1]
    result, m["interval.cascade_s"] = timer("interval.cascade", interval.cascade, 8)
    params = result.parameters
    t = params[3] + 0.5 * (params[4] - params[3])
    m["interval.coding_s"] = timer("interval.attractor_coding", interval.attractor_coding, t, 4)[1]
    rng = np.random.default_rng(5)
    matrices = []
    for _ in range(200):
        conj = random_modular(rng)
        shear = int(rng.integers(-50, 51))
        matrices.append(torus.ModularMatrix(*mat_mul(mat_mul(conj, (1, shear, 0, 1)), mat_inverse(conj))))

    def normal_forms():
        for matrix in matrices:
            torus.normal_form(matrix)

    m["torus.normal_form_per_s"] = len(matrices) / timer("torus.normal_form", normal_forms)[1]

    rotation = registry.build_flow("rotation", {"rho": RHO})
    fourier = registry.build_observable("fourier", {"k": "1"})
    small = registry.build_sequence("mobius", {}, 512)
    starts = [tuple(float(v) for v in rng.random(2)) for _ in range(20)]

    def holder():
        for x, y in starts:
            analysis.holder_defect(small, rotation, fourier, x, y, 256)

    m["analysis.probe.holder_defect.pair_steps_per_s"] = 20 * 256 / timer("analysis.holder_defect", holder)[1]
    secs = timer("analysis.mean_equicontinuity_curve", analysis.mean_equicontinuity_curve, rotation,
                 lambda d, g: (float(g.random()), (float(g.random()) + d) % 1.0),
                 [1e-1, 1e-2, 1e-3, 1e-4], lambda d: 500, 4, 3)[1]
    m["analysis.probe.mean_equicontinuity.pair_steps_per_s"] = 4 * 4 * 500 / secs
    secs = timer("analysis.mls_bad_density", analysis.mls_bad_density, rotation, 0.1, 0.125, 0.05, 10**4)[1]
    m["analysis.probe.mls_bad_density.pair_steps_per_s"] = 10**4 / secs
    secs = timer("analysis.mean_attraction_test", analysis.mean_attraction_test, rotation, 0.1, 0.125, 10**4)[1]
    m["analysis.probe.mean_attraction.pair_steps_per_s"] = 10**4 / secs
    secs = timer("flows.orbit_distance_trace", flows.orbit_distance_trace, rotation, 0.1, 0.125, 10**4)[1]
    m["analysis.probe.orbit_distance_trace.pair_steps_per_s"] = 10**4 / secs
    secs = timer("analysis.autocorrelation_spectrum", analysis.autocorrelation_spectrum,
                 rotation, fourier, 0.0, 32, N_FLOW)[1]
    m["analysis.autocorr.terms_per_s"] = (N_FLOW + 32) / secs

    m["analysis.verdict.zero_limit_ok_frac"] = zero_limit_ok_frac(timer)
    m.update(cli_metrics(timer, out))
    return {"metrics": m, "spans": timer.tr.by_name()}


def zero_limit_ok_frac(timer: Timer) -> float:
    """Share of averages known to tend to 0 that are not called 'stagnant'.

    The bundled subnormal experiment under 24 other seeds, and Mobius
    weights against the affine skew product from 12 start points.  Below 1
    means false 'stagnant' verdicts; the workloads avoid these inputs because
    they would fail their checks, so the defect is counted here instead.
    """
    verdicts = []
    quadratic = registry.build_flow("quadratic_family", {"t": "0.7"})
    coordinate = registry.build_observable("coordinate", {})
    for seed in range(1, 25):
        w = registry.build_sequence("subnormal", {"tau": "0.2"}, 20000, seed)
        report, _ = timer("analysis.weighted_birkhoff", analysis.weighted_birkhoff, w, quadratic, coordinate, 0.3)
        verdicts.append(report.verdict)
    skew = registry.build_flow("torus_affine", {"matrix": "1,0;1,1", "shift": f"{RHO},0"})
    mode = registry.build_observable("torus_fourier", {"k1": "0", "k2": "1"})
    mobius = registry.build_sequence("mobius", {}, 1 << 13)
    for start in np.random.default_rng(7).random((12, 2)):
        report, _ = timer("analysis.weighted_birkhoff", analysis.weighted_birkhoff, mobius, skew, mode, start)
        verdicts.append(report.verdict)
    return sum(v != "stagnant" for v in verdicts) / len(verdicts)


def cli_metrics(timer: Timer, out: Path) -> dict:
    texts = [path.read_text() for path in sorted(CONFIG_DIR.glob("*.cfg"))]
    combined = out / "combined.cfg"
    combined.write_text("".join(scaled_config(text, 4) for text in texts))
    walls, written = {}, 0
    for jobs in (1, 2):
        results = out / f"jobs{jobs}"
        argv = ["--out", str(results), "run", str(combined), "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            status, walls[jobs] = timer("cli.main", cli.main, argv)
        if status != 0:
            raise RuntimeError(f"oscillab run --jobs {jobs} exited with {status}")
        if jobs == 1:
            written = sum(p.stat().st_size for p in results.iterdir() if p.suffix in (".json", ".csv")
                          and p.name != "manifest.json")

    small = out / "small.cfg"
    small.write_text("".join(scaled_config(text, 20) for text in texts))
    experiments = cli.parse_config(str(small))
    results = out / "overhead"
    results.mkdir(exist_ok=True)

    def overhead_once():
        total = 0.0
        for cfg in experiments:
            _, whole = timer("cli.run_experiment", cli.run_experiment, cfg, str(results))
            w, a = timer("registry.build_sequence", registry.build_sequence, cfg.sequence,
                         cfg.sequence_params, cfg.n_terms, cfg.seed)
            f, b = timer("registry.build_flow", registry.build_flow, cfg.flow, cfg.flow_params)
            o, c = timer("registry.build_observable", registry.build_observable, cfg.observable,
                         cfg.observable_params)
            x, d = timer("registry.parse_start", registry.parse_start, cfg.flow, cfg.start, f)
            _, e = timer("analysis.weighted_birkhoff", analysis.weighted_birkhoff, w, f, o, x, cfg.checkpoints)
            total += whole - (a + b + c + d + e)
        return total

    return {
        "cli.run.overhead_s": statistics.median(overhead_once() for _ in range(REPEATS)),
        "cli.bytes_written": float(written),
        "cli.jobs2_speedup": walls[1] / walls[2],
    }
