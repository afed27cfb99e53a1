"""The four workloads, as lists of items generated from the workload seed.

An item is one call a user would make: one experiment, one scan or one
probe.  Building the items draws every input from the seed and calls no
oscillab function, so the per-process caches (``interval.cascade``,
``cyclotomic_polynomial``) are paid inside the timed items.  Each item
runs its oscillab calls through a tracer, which records a span per call
when the pass is traced and is a plain call otherwise.

Counts per item: ``terms`` as defined per workload (see NOTES.md), ``steps``
flow steps taken, ``freqs`` frequencies evaluated.
"""

from __future__ import annotations

import cmath
import configparser
import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from oscillab import analysis, circle, cli, flows, interval, padic, registry, sequences, torus

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "oscillab" / "configs"
RHO = "0.41421356237309503"  # sqrt(2) - 1, as in the bundled configs
N_LONG = 1 << 16
N_LAGS = 32
N_SCAN = 1 << 14
SCAN_GRID = 512
N_ATOM = 1 << 17
N_BRUTE = 1 << 19
SCAN_LEVEL = 0.1  # every Cesaro mean of these weights tends to 0; see NOTES.md
# limits known from the mathematics, per item
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())
FLOW_MODULE = {
    "rotation": "circle", "denjoy": "circle", "shear_fiber": "torus",
    "torus_affine": "torus", "torus_auto": "torus", "quadratic_family": "interval",
    "padic_poly": "padic", "adding_machine": "padic", "padic_rational": "padic",
}


@dataclass
class Item:
    id: str
    run: Callable  # (tracer) -> value; the timed call
    terms: int = 0
    steps: int = 0
    freqs: int = 0
    check: Callable[[Any], str | None] | None = None  # value -> failure reason
    record: Callable[[Any], Any] | None = None  # value -> JSON output compared across passes
    spec: dict | None = None  # inputs of a weighted average, for the oracle
    samples: list = field(default_factory=list)  # frequencies checked against the oracle


def _json_floats(values):
    return [[int(n), float(s.real), float(s.imag)] for n, s in values]


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def verdict_failure(verdict: str, limit: str) -> str | None:
    """A known nonzero limit must read 'stagnant'; a known zero limit must not."""
    if (verdict == "stagnant") == (limit == "nonzero"):
        return None
    return f"verdict {verdict} for an average whose limit is {limit}"


def _birkhoff_record(report):
    return {"verdict": report.verdict, "slope": report.decay_slope,
            "checkpoints": _json_floats(report.checkpoints)}


def orbit_loops(flow, obs, start, n: int) -> tuple[list, float, float]:
    """Orbit points and the seconds of n isolated Flow.step and Observable.eval calls."""
    x, points = start, []
    step, append = flow.step, points.append
    begin = perf_counter()
    for _ in range(n):
        x = step(x)
        append(x)
    step_s = perf_counter() - begin
    evaluate = obs.eval
    begin = perf_counter()
    for p in points:
        evaluate(p)
    return points, step_s, perf_counter() - begin


def orbit_attribution(spec: dict) -> dict[str, float]:
    """Seconds of stepping (in the flow's module) and of observable evaluation.

    Used by the traced pass to split a weighted average's span into the
    flow module's stepping, the registry observable's evaluation and the
    averaging loop itself.
    """
    flow = registry.build_flow(spec["flow"], spec["flow_params"])
    obs = registry.build_observable(spec["obs"], spec["obs_params"])
    start = registry.parse_start(spec["flow"], spec["start"], flow)
    _, step_s, eval_s = orbit_loops(flow, obs, start, spec["n"])
    return {FLOW_MODULE[spec["flow"]]: step_s, "registry": eval_s}


# ----------------------------------------------------------------------
# configs: the bundled experiments through the command line, serially

def _read_config(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    (section,) = parser.sections()
    body = parser[section]

    def grouped(prefix):
        return {k[len(prefix) + 1:]: v for k, v in body.items() if k.startswith(prefix + ".")}

    n = int(body["n"])
    checkpoints = [int(c) for c in body["checkpoints"].split(",")] if body.get("checkpoints") else None
    return {
        "name": section[len("experiment"):].strip(), "n": n, "seed": body.getint("seed"),
        "seq": body["sequence"],
        "seq_params": grouped("sequence"), "flow": body["flow"], "flow_params": grouped("flow"),
        "obs": body["observable"], "obs_params": grouped("observable"), "start": body["start"],
        "checkpoints": checkpoints,
    }


def configs(seed: int, out_dir: Path) -> list[Item]:
    """The bundled configs as shipped, with their own seeds; ``seed`` is unused."""
    inputs = out_dir / "inputs"
    results = out_dir / "results"
    inputs.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    items = []
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        text = path.read_text()
        spec = _read_config(text)
        cfg_path = inputs / path.name
        cfg_path.write_text(text)
        name = spec["name"]
        argv = ["--out", str(results), "run", str(cfg_path)]

        def run(tr, argv=argv):
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                status = tr.call("cli.main", cli.main, argv)
            return status, printed.getvalue()

        def record(value, name=name):
            json_bytes = (results / f"{name}.json").read_bytes()
            csv_bytes = (results / f"{name}.csv").read_bytes()
            payload = json.loads(json_bytes)
            return {"status": value[0], "verdict": payload["verdict"],
                    "digest": _digest(json_bytes, csv_bytes),
                    "checkpoints": [[c["N"], c["re"], c["im"]] for c in payload["checkpoints"]]}

        def check(value, name=name):
            status, printed = value
            if status != 0:
                return f"exit status {status}"
            label, _, verdict = printed.strip().partition(": ")
            if label != name:
                return f"printed {printed.strip()!r}"
            return verdict_failure(verdict, EXPECTED["configs"][name])

        n_max = spec["checkpoints"][-1] if spec["checkpoints"] else spec["n"]
        items.append(Item(f"config/{name}", run, terms=n_max, steps=n_max, check=check,
                          record=record, spec=spec))
    return items


# ----------------------------------------------------------------------
# long-orbit: weighted averages of the float flows at N = 2^16

def long_orbit(seed: int, out_dir: Path) -> list[Item]:
    rng = np.random.default_rng(seed)
    flows_ = [
        ("rotation", {"rho": RHO}, "fourier", {"k": "1"}, f"{rng.random():.17g}"),
        ("shear_fiber", {"t": "1", "y": RHO}, "fourier", {"k": "2"}, f"{rng.random():.17g}"),
        ("quadratic_family", {"t": "0.7"}, "coordinate", {}, f"{rng.uniform(-1, 1):.17g}"),
        ("denjoy", {"rho": RHO, "trunc": "4000"}, "fourier", {"k": "1"}, f"{rng.random():.17g}"),
        # the exact counterexample: conjugate quadratic phases from (alpha/2, 0)
        ("torus_affine", {"matrix": "1,0;1,1", "shift": f"{RHO},0"}, "torus_fourier",
         {"k1": "0", "k2": "1"}, "0.20710678118654752,0"),
    ]
    weights_ = {"mobius": {}, "liouville": {}, "quadratic_phase": {"alpha": RHO},
                "counterexample": {"alpha": "-0.20710678118654752"}}
    items = []
    for (flow, flow_params, obs, obs_params, start), seq in zip(
            flows_, ["mobius", "liouville", "quadratic_phase", "mobius", "counterexample"]):
        key = f"{flow}/{seq}"
        seq_params = weights_[seq]
        spec = {"seq": "quadratic_phase" if seq == "counterexample" else seq, "seq_params": seq_params,
                "n": N_LONG, "flow": flow, "flow_params": flow_params, "obs": obs,
                "obs_params": obs_params, "start": start, "checkpoints": None, "seed": None}

        def run(tr, s=spec):
            w = tr.call("registry.build_sequence", registry.build_sequence, s["seq"], s["seq_params"], s["n"])
            f = tr.call("registry.build_flow", registry.build_flow, s["flow"], s["flow_params"])
            o = tr.call("registry.build_observable", registry.build_observable, s["obs"], s["obs_params"])
            x = tr.call("registry.parse_start", registry.parse_start, s["flow"], s["start"], f)
            return tr.call("analysis.weighted_birkhoff", analysis.weighted_birkhoff, w, f, o, x)

        items.append(Item(key, run, terms=N_LONG, steps=N_LONG,
                          check=lambda r, key=key: verdict_failure(r.verdict, EXPECTED["long-orbit"][key]),
                          record=_birkhoff_record, spec=spec))

    start = f"{rng.random():.17g}"

    def autocorr(tr):
        f = tr.call("registry.build_flow", registry.build_flow, "rotation", {"rho": RHO})
        o = tr.call("registry.build_observable", registry.build_observable, "fourier", {"k": "1"})
        return tr.call("analysis.autocorrelation_spectrum", analysis.autocorrelation_spectrum,
                       f, o, float(start), N_LAGS, N_LONG)

    def autocorr_check(gamma):
        # f(T^(n+k) x) conj f(T^n x) = e(k rho) exactly for a rotation
        expected = np.exp(2j * np.pi * float(RHO) * np.arange(N_LAGS + 1))
        err = float(np.max(np.abs(gamma - expected)))
        return None if err < 1e-8 else f"autocorrelation off the exact atoms by {err:.3g}"

    items.append(Item("autocorr/rotation", autocorr, terms=N_LONG + N_LAGS, steps=N_LONG + N_LAGS,
                      check=autocorr_check,
                      record=lambda g: [[k, float(v.real), float(v.imag)] for k, v in enumerate(g)]))
    return items


# ----------------------------------------------------------------------
# spectrum: Cesaro scans, single atoms and the exact quadratic spectra

def scan_grid() -> list[float]:
    """The zero_set_scan grid: j/512 plus every r/s with s <= 8."""
    grid = {j / SCAN_GRID for j in range(SCAN_GRID)} | {0.0}
    grid |= {r / s for s in range(2, 9) for r in range(1, s)}
    return sorted(grid)


def gauss_amplitude(numer: int, denom: int, freq: Fraction) -> complex:
    """Limit of (1/N) sum e(n^2 numer/denom - n freq): one period, exact residues."""
    stride = denom // freq.denominator
    residues = ((k * k * numer - k * freq.numerator * stride) % denom for k in range(denom))
    return sum(cmath.exp(2j * math.pi * r / denom) for r in residues) / denom


def spectrum(seed: int, out_dir: Path) -> list[Item]:
    rng = np.random.default_rng(seed)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    roots = [repr(math.sqrt(p) % 1.0) for p in rng.choice(primes, size=3, replace=False)]
    grid = scan_grid()
    items = []
    for seq, params in [("mobius", {}), ("liouville", {}), ("quadratic_phase", {"alpha": roots[0]}),
                        ("polynomial_phase", {"coeffs": f"0,{roots[1]},{roots[2]}"})]:
        picks = sorted(int(i) for i in rng.choice(len(grid), size=8, replace=False))
        spec = {"seq": seq, "seq_params": params, "n": N_SCAN, "seed": None}

        def run(tr, s=spec):
            w = tr.call("registry.build_sequence", registry.build_sequence, s["seq"], s["seq_params"], s["n"])
            return tr.call("sequences.zero_set_scan", sequences.zero_set_scan, w, SCAN_GRID, s["n"])

        def record(report, picks=picks):
            return {"max_abs": report.max_abs, "digest": _digest(report.sigma.tobytes()),
                    "samples": [[float(report.grid[i]), float(report.sigma[i].real),
                                 float(report.sigma[i].imag)] for i in picks]}

        def check(report):
            if [float(t) for t in report.grid] != grid:
                return "scan grid differs from j/512 plus r/s, s <= 8"
            return None if report.max_abs < SCAN_LEVEL else f"max |sigma| {report.max_abs:.3g} >= {SCAN_LEVEL}"

        items.append(Item(f"scan/{seq}", run, terms=len(grid) * N_SCAN, freqs=len(grid), check=check,
                          record=record, spec=spec, samples=[grid[i] for i in picks]))

    # single atoms of the dyadic quadratic phases e(n^2/4), e(n^2/8)
    for denom in (4, 8):
        spec = {"seq": "quadratic_phase", "seq_params": {"alpha": repr(1 / denom)}, "n": N_ATOM}
        state = {}

        def build(tr, s=spec, state=state):
            state["w"] = tr.call("registry.build_sequence", registry.build_sequence, s["seq"], s["seq_params"], s["n"])

        items.append(Item(f"atoms/build/{denom}", build))
        for r in range(denom):
            freq = Fraction(r, denom)

            def run(tr, freq=freq, state=state):
                return tr.call("sequences.cesaro_mean", sequences.cesaro_mean, state["w"], float(freq))

            def check(value, freq=freq, denom=denom):
                err = abs(value - gauss_amplitude(1, denom, freq))
                bound = 2 * denom / N_ATOM
                return None if err <= bound else f"atom {freq}: off the exact limit by {err:.3g} > {bound:.3g}"

            items.append(Item(f"atoms/{denom}/{r}", run, terms=N_ATOM, freqs=1, check=check,
                              record=lambda v: [v.real, v.imag]))

    # exact spectra over a range of denominators
    for denom in range(2, 97):
        numer = int(rng.integers(1, denom))
        while math.gcd(numer, denom) != 1:
            numer = (numer % (denom - 1)) + 1

        def run(tr, numer=numer, denom=denom):
            return tr.call("sequences.quadratic_rational_spectrum", sequences.quadratic_rational_spectrum,
                           numer, denom)

        def check(atoms, denom=denom):
            # Gauss sums have modulus 0, sqrt(q) or sqrt(2q); a q-periodic
            # unimodular sequence has spectral mass 1 (Parseval)
            mass = sum(abs(a) ** 2 for a in atoms.values())
            if abs(mass - 1.0) > 1e-9:
                return f"q={denom}: spectral mass {mass!r} != 1"
            for freq, amp in atoms.items():
                if denom % freq.denominator:
                    return f"q={denom}: atom {freq} off the 1/q lattice"
                if min(abs(abs(amp) ** 2 * denom - m) for m in (1, 2)) > 1e-9:
                    return f"q={denom}: |amplitude|^2 = {abs(amp) ** 2!r} not in {{1/q, 2/q}}"
            return None

        items.append(Item(f"exact/{denom}", run, terms=denom * denom, freqs=denom, check=check,
                          record=lambda atoms: sorted([str(k), v.real, v.imag] for k, v in atoms.items())))

    # brute-force companions: an atom and a non-atom for three odd moduli
    for denom in (3, 5, 7):
        numer = int(rng.integers(1, denom))
        for freq in (Fraction(0), Fraction(1, denom)):
            def run(tr, numer=numer, denom=denom, freq=freq):
                return tr.call("sequences.quadratic_rational_cesaro", sequences.quadratic_rational_cesaro,
                               numer, denom, freq, N_BRUTE)

            def check(value, numer=numer, denom=denom, freq=freq):
                err = abs(value - gauss_amplitude(numer, denom, freq))
                bound = 2 * denom / N_BRUTE
                return None if err <= bound else f"q={denom} at {freq}: off by {err:.3g} > {bound:.3g}"

            items.append(Item(f"brute/{denom}/{freq}", run, terms=N_BRUTE, freqs=1, check=check,
                              record=lambda v: [v.real, v.imag]))
    return items


# ----------------------------------------------------------------------
# probes: many short paired orbits scored by dist

HOLDER_PAIRS = 80
HOLDER_N = 256


def probes(seed: int, out_dir: Path) -> list[Item]:
    rng = np.random.default_rng(seed)
    rho = float(RHO)
    ctx: dict = {}
    items: list[Item] = []

    def add(id_, run, terms=0, steps=0, check=None):
        items.append(Item(id_, run, terms=terms, steps=steps, check=check, record=_probe_record))

    def build(tr):
        ctx["weights"] = tr.call("registry.build_sequence", registry.build_sequence, "mobius", {}, 512)
        ctx["rotation"] = tr.call("registry.build_flow", registry.build_flow, "rotation", {"rho": RHO})
        ctx["torus_auto"] = tr.call("registry.build_flow", registry.build_flow, "torus_auto", {"matrix": "0,1;-1,0"})
        ctx["quadratic"] = tr.call("registry.build_flow", registry.build_flow, "quadratic_family", {"t": "0.7"})
        ctx["denjoy_flow"] = tr.call("registry.build_flow", registry.build_flow, "denjoy",
                                     {"rho": RHO, "trunc": "2000"})
        ctx["adding"] = tr.call("registry.build_flow", registry.build_flow, "adding_machine",
                                {"p": "2", "precision": "32"})
        ctx["padic_poly"] = tr.call("registry.build_flow", registry.build_flow, "padic_poly",
                                    {"p": "3", "precision": "32", "coeffs": "1,1,0,1"})
        ctx["padic_rational"] = tr.call("registry.build_flow", registry.build_flow, "padic_rational",
                                        {"p": "3", "precision": "24", "num": "0,0,1", "den": "1"})
        ctx["fourier"] = tr.call("registry.build_observable", registry.build_observable, "fourier", {"k": "1"})
        ctx["torus_fourier"] = tr.call("registry.build_observable", registry.build_observable, "torus_fourier",
                                       {"k1": "1", "k2": "1"})
        ctx["padic_phase"] = tr.call("registry.build_observable", registry.build_observable, "padic_phase",
                                     {"level": "5"})

    add("build", build)

    # averaged Holder bound over the five acceptance-10 families
    samplers = {
        "rotation": ("fourier", lambda: (float(rng.random()), float(rng.random()))),
        "torus_auto": ("torus_fourier", lambda: (rng.random(2), rng.random(2))),
        "quadratic": ("fourier", lambda: tuple(float(v) for v in rng.uniform(-1.0, 1.0, 2))),
        "denjoy_flow": ("fourier", lambda: (float(rng.random()), float(rng.random()))),
        "adding": ("padic_phase", lambda: tuple(int(v) for v in rng.integers(0, 2**32, 2))),
    }
    for family, (obs, sampler) in samplers.items():
        for j in range(HOLDER_PAIRS):
            x, y = sampler()

            def holder(tr, family=family, obs=obs, x=x, y=y):
                if family == "adding":
                    x = tr.call("padic.PadicInt.from_int", padic.PadicInt.from_int, x, 2, 32)
                    y = tr.call("padic.PadicInt.from_int", padic.PadicInt.from_int, y, 2, 32)
                return tr.call("analysis.holder_defect", analysis.holder_defect, ctx["weights"],
                               ctx[family], ctx[obs], x, y, HOLDER_N)

            add(f"holder/{family}/{j}", holder, terms=HOLDER_N, steps=2 * HOLDER_N,
                check=lambda d: None if d <= 1e-10 else f"Holder defect {d:.3g} > 1e-10")

    # isometries keep every pair at its starting distance
    d0 = float(rng.uniform(0.01, 0.2))
    x0 = float(rng.random())
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    seeds = [int(s) for s in rng.integers(0, 2**31, 2)]

    def shifted_pair(delta, g):
        x = float(g.random())
        return x, (x + delta) % 1.0

    def interval_pair(delta, g):
        x = float(g.uniform(-0.9, 0.9))
        return x, x + delta

    def curve_rot(tr):
        return tr.call("analysis.mean_equicontinuity_curve", analysis.mean_equicontinuity_curve,
                       ctx["rotation"], shifted_pair, deltas, lambda d: 500, 4, seeds[0])

    def curve_check(curve):
        err = max(abs(w - d) for d, w in curve)
        return None if err < 1e-9 else f"rotation moved a pair's mean distance by {err:.3g}"

    add("equicontinuity/rotation", curve_rot, terms=4 * 4 * 500, steps=2 * 4 * 4 * 500, check=curve_check)

    def curve_quad(tr):
        return tr.call("analysis.mean_equicontinuity_curve", analysis.mean_equicontinuity_curve,
                       ctx["quadratic"], interval_pair, deltas, lambda d: 500, 4, seeds[1])

    add("equicontinuity/quadratic", curve_quad, terms=4 * 4 * 500, steps=2 * 4 * 4 * 500,
        check=lambda c: None if all(0.0 <= w <= 2.0 for _, w in c) else "mean distance outside [0, 2]")

    eps = 0.05
    for label, gap, expected in (("close", eps / 2, 0.0), ("far", 2 * eps, 1.0)):
        def mls(tr, gap=gap):
            return tr.call("analysis.mls_bad_density", analysis.mls_bad_density, ctx["rotation"],
                           x0, (x0 + gap) % 1.0, eps, 5000)

        add(f"mls/rotation/{label}", mls, terms=5000, steps=10000,
            check=lambda r, e=expected: None if r.upper_density == e else f"density {r.upper_density} != {e}")

    def attraction_rot(tr):
        return tr.call("analysis.mean_attraction_test", analysis.mean_attraction_test,
                       ctx["rotation"], x0, (x0 + d0) % 1.0, 5000)

    add("attraction/rotation", attraction_rot, terms=5000, steps=10000,
        check=lambda v: None if abs(v - d0) < 1e-9 else f"mean distance {v!r} != {d0!r}")

    torus_x = rng.random(2)
    torus_y = np.mod(torus_x + np.array([d0, 0.0]), 1.0)

    def attraction_torus(tr):
        return tr.call("analysis.mean_attraction_test", analysis.mean_attraction_test,
                       ctx["torus_auto"], torus_x, torus_y, 2000)

    add("attraction/torus_auto", attraction_torus, terms=2000, steps=4000,
        check=lambda v: None if abs(v - d0) < 1e-9 else f"mean distance {v!r} != {d0!r}")

    q0 = float(rng.uniform(-0.9, 0.9))

    def shadow_quad(tr):
        return tr.call("analysis.shadow_periodic", analysis.shadow_periodic, ctx["quadratic"], q0, 0.01, 2000)

    add("shadow/quadratic", shadow_quad, terms=2000, steps=2000,
        check=lambda r: None if r is not None else "attracted orbit not shadowed by a cycle")

    def shadow_rot(tr):
        return tr.call("analysis.shadow_periodic", analysis.shadow_periodic, ctx["rotation"], x0, 0.01, 2000)

    add("shadow/rotation", shadow_rot, terms=2000, steps=2000,
        check=lambda r: None if r is None else f"irrational rotation shadowed by a cycle: {r}")

    def trace_rot(tr):
        return tr.call("flows.orbit_distance_trace", flows.orbit_distance_trace, ctx["rotation"],
                       x0, (x0 + d0) % 1.0, 5000)

    def trace_torus(tr):
        return tr.call("flows.orbit_distance_trace", flows.orbit_distance_trace, ctx["torus_auto"],
                       torus_x, torus_y, 2000)

    def trace_check(trace):
        err = float(np.max(np.abs(trace - d0)))
        return None if err < 1e-9 else f"isometry changed a distance by {err:.3g}"

    add("trace/rotation", trace_rot, terms=5000, steps=10000, check=trace_check)
    add("trace/torus_auto", trace_torus, terms=2000, steps=4000, check=trace_check)

    iso_seed, lip_seed = (int(s) for s in rng.integers(0, 2**31, 2))

    def iso_rot(tr):
        return tr.call("flows.isometry_defect", flows.isometry_defect, ctx["rotation"],
                       np.random.default_rng(iso_seed), 30, 100)

    def iso_adding(tr):
        return tr.call("flows.isometry_defect", flows.isometry_defect, ctx["adding"],
                       np.random.default_rng(iso_seed), 10, 50)

    add("isometry/rotation", iso_rot, terms=3000, steps=6000,
        check=lambda d: None if d < 1e-9 else f"isometry defect {d:.3g}")
    add("isometry/adding_machine", iso_adding, terms=500, steps=1000,
        check=lambda d: None if d == 0.0 else f"p-adic isometry defect {d!r}")

    for family, n_pairs in (("rotation", 500), ("padic_poly", 300), ("padic_rational", 100)):
        def lip(tr, family=family, n_pairs=n_pairs):
            return tr.call("flows.lipschitz_one_defect", flows.lipschitz_one_defect, ctx[family],
                           np.random.default_rng(lip_seed), n_pairs)

        add(f"lipschitz/{family}", lip, terms=n_pairs, steps=2 * n_pairs,
            check=lambda d: None if d <= 1e-12 else f"1-Lipschitz defect {d:.3g}")

    odometer_start = int(rng.integers(0, 2**32))

    def minimality(tr):
        start = tr.call("padic.PadicInt.from_int", padic.PadicInt.from_int, odometer_start, 2, 32)
        return tr.call("padic.empirical_minimality", padic.empirical_minimality, ctx["adding"], start, 1024, 8)

    add("minimality/adding_machine", minimality, terms=1024, steps=1024,
        check=lambda r: None if r.covers_component else "odometer orbit missed a residue")

    # Denjoy: symbolic endpoint dynamics
    pair_seed = int(rng.integers(0, 2**31))
    horizon = 10**4

    def denjoy_build(tr):
        ctx["denjoy"] = tr.call("circle.build_denjoy", circle.build_denjoy, rho, 13000)

    add("denjoy/build", denjoy_build)
    for eps_ in (0.1, 0.05, 0.02):
        def pairs(tr, eps_=eps_):
            ctx[eps_] = tr.call("circle.close_endpoint_pairs", circle.close_endpoint_pairs,
                                ctx["denjoy"], eps_, 30, horizon, pair_seed)
            return ctx[eps_]

        add(f"denjoy/pairs/{eps_}", pairs, check=lambda p: None if len(p) == 30 else "wrong pair count")
        for j in range(30):
            def density(tr, eps_=eps_, j=j):
                first, second = ctx[eps_][j]
                return tr.call("circle.mls_density_on_lambda", circle.mls_density_on_lambda,
                               ctx["denjoy"], first, second, eps_, horizon)

            add(f"denjoy/density/{eps_}/{j}", density, terms=horizon,
                check=lambda d, e=eps_: None if d < e else f"bad-time density {d} >= {e}")
    for j in range(1, 21):
        def witness(tr, j=j):
            return tr.call("circle.non_equicontinuity_witness", circle.non_equicontinuity_witness,
                           ctx["denjoy"], 2.0**-j)

        add(f"denjoy/witness/{j}", witness,
            check=lambda w: None if w[3] >= ctx["denjoy"].gap_length(0) / 2 else "witness separation too small")
    rot_start = float(rng.random())

    def rotnum(tr):
        return tr.call("circle.rotation_number", circle.rotation_number, ctx["denjoy"].step, rot_start, 20000)

    add("denjoy/rotation_number", rotnum, terms=20000, steps=20000,
        check=lambda r: None if abs(r - rho) < 1e-3 else f"rotation number {r!r} far from rho")

    # period doubling and its odometer coding
    def cascade(tr):
        ctx["cascade"] = tr.call("interval.cascade", interval.cascade, 8)
        return ctx["cascade"]

    def cascade_check(result):
        ratios = result.ratios()
        bad = [n for n in (4, 5, 6, 7) if abs(ratios[n - 1] / 4.669 - 1.0) >= 0.05]
        return None if not bad else f"Feigenbaum ratios off at levels {bad}"

    add("cascade", cascade, check=cascade_check)
    for depth in range(1, 6):
        def coding(tr, depth=depth):
            params = ctx["cascade"].parameters
            t = params[depth - 1] + 0.5 * (params[depth] - params[depth - 1])
            return tr.call("interval.attractor_coding", interval.attractor_coding, t, depth)

        add(f"coding/{depth}", coding,
            check=lambda r: None if r.is_adding_machine else "cycle coding is not the odometer")

    # shear normal forms of random conjugates
    for j in range(100):
        t = int(rng.integers(-50, 51))
        sign = 1 if rng.random() < 0.5 else -1
        conj = random_modular(rng)
        m = mat_mul(mat_mul(conj, (sign, sign * t, 0, sign)), mat_inverse(conj))

        def normal_form(tr, m=m):
            matrix = tr.call("torus.ModularMatrix", torus.ModularMatrix, *m)
            return matrix, tr.call("torus.normal_form", torus.normal_form, matrix)

        def nf_check(value, t=t):
            matrix, result = value
            if not result.verify(matrix):
                return "normal form fails verification"
            if not (torus.conjugacy_equivalent(t, result.t) or t == result.t == 0):
                return f"shear {result.t} not conjugate to {t}"
            return None

        items.append(Item(f"normal_form/{j}", normal_form, check=nf_check,
                          record=lambda v: [str(v[1].basis), v[1].t, v[1].sign]))
    return items


def _probe_record(value):
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return _digest(value.tobytes())
    return repr(value)


def random_modular(rng, n_factors: int = 6, max_shear: int = 3):
    m = (1, 0, 0, 1)
    for _ in range(n_factors):
        k = int(rng.integers(-max_shear, max_shear + 1))
        m = mat_mul(m, (1, k, 0, 1) if rng.random() < 0.5 else (1, 0, k, 1))
    return m


def mat_mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def mat_inverse(a):
    return (a[3], -a[1], -a[2], a[0])


WORKLOADS = {"configs": configs, "long-orbit": long_orbit, "spectrum": spectrum, "probes": probes}
