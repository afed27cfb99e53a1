import builtins
import concurrent.futures
import hashlib
import json
import math
import os
import re
import threading
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from oscillab import analysis, cli, interval, padic, registry, sequences
from oscillab.flows import Flow


# the flow of the bundled mobius-padic-rational.cfg
PADIC_RATIONAL = {"p": "3", "precision": "24", "num": "0,0,1", "den": "1"}


def config_path(name):
    return str(resources.files("oscillab").joinpath("configs", name))


def bundled_config_names():
    return sorted(
        entry.name
        for entry in resources.files("oscillab").joinpath("configs").iterdir()
        if entry.name.endswith(".cfg")
    )


class TestRegistry:
    def test_required_names_present(self):
        for name in ("mobius", "liouville", "quadratic_phase", "subnormal"):
            assert name in registry.SEQUENCES
        for name in (
            "rotation",
            "denjoy",
            "torus_affine",
            "torus_auto",
            "padic_poly",
            "padic_rational",
            "quadratic_family",
            "adding_machine",
        ):
            assert name in registry.FLOWS

    def test_every_registered_entry_has_a_block_kernel(self):
        # a new flow or observable must not fall back to the per-point stream
        flow_params = {
            "rotation": {"rho": "0.25"},
            "denjoy": {"rho": "0.41421356237309503", "trunc": "1000"},
            "torus_affine": {"matrix": "1,0;1,1", "shift": "0.5,0"},
            "torus_auto": {"matrix": "0,1;-1,0"},
            "padic_poly": {"p": "3", "precision": "8", "coeffs": "1,1"},
            "padic_rational": PADIC_RATIONAL,
            "quadratic_family": {"t": "0.7"},
            "adding_machine": {"p": "2", "precision": "8"},
            "shear_fiber": {"t": "1", "y": "0.5"},
        }
        observable_params = {
            "fourier": {"k": "1"},
            "torus_fourier": {"k1": "1", "k2": "0"},
            "coordinate": {},
            "padic_phase": {"level": "2"},
            "projective_phase": {"level": "2"},
        }
        assert set(flow_params) == set(registry.FLOWS)
        assert set(observable_params) == set(registry.OBSERVABLES)
        for name, params in flow_params.items():
            assert registry.build_flow(name, params).block is not None, name
        for name, params in observable_params.items():
            assert registry.build_observable(name, params).eval_block is not None, name

    def test_table_lists_everything(self):
        table = registry.registry_table()
        for name in list(registry.SEQUENCES) + list(registry.FLOWS) + list(
            registry.OBSERVABLES
        ):
            assert name in table

    def test_table_ordering_stable(self):
        assert registry.registry_table() == registry.registry_table()

    def test_unknown_sequence(self):
        with pytest.raises(registry.RegistryError):
            registry.build_sequence("moebius", {}, 10)

    def test_unknown_parameter(self):
        with pytest.raises(registry.RegistryError):
            registry.build_flow("rotation", {"rho": "0.3", "extra": "1"})

    def test_missing_parameter(self):
        with pytest.raises(registry.RegistryError):
            registry.build_flow("rotation", {})

    def test_subnormal_requires_seed(self):
        with pytest.raises(registry.RegistryError):
            registry.build_sequence("subnormal", {"tau": "0.2"}, 100)

    def test_schema_round_trip(self):
        flow = registry.build_flow("rotation", {"rho": "0.25"})
        assert "rotation" in flow.name
        w = registry.build_sequence("subnormal", {"tau": "0.2"}, 100, seed=5)
        assert len(w) == 100

    def test_start_point_parsers(self):
        flow = registry.build_flow(
            "padic_poly", {"p": "3", "precision": "16", "coeffs": "1,1"}
        )
        start = registry.parse_start("padic_poly", "7", flow)
        assert start.residue == 7
        flow2 = registry.build_flow("torus_auto", {"matrix": "0,1;-1,0"})
        xy = registry.parse_start("torus_auto", "0.25,0.75", flow2)
        assert list(xy) == [0.25, 0.75]

    @pytest.mark.parametrize(
        "flow_name, params, raw",
        [
            ("padic_rational", PADIC_RATIONAL, "2,1,3"),
            ("padic_rational", PADIC_RATIONAL, "5"),
            ("torus_auto", {"matrix": "0,1;-1,0"}, "0.5"),
            ("torus_auto", {"matrix": "0,1;-1,0"}, "0.25,0.75,0.5"),
        ],
    )
    def test_malformed_xy_start_rejected(self, flow_name, params, raw):
        flow = registry.build_flow(flow_name, params)
        with pytest.raises(ValueError, match=f"start '{raw}': expected the form x,y"):
            registry.parse_start(flow_name, raw, flow)

    @pytest.mark.parametrize(
        "raw, named",
        [("0.41421356237309503", "[0.41421356237309503]"), ("0.4,0,0", "[0.4, 0.0, 0.0]"), ("", "[]")],
    )
    def test_torus_affine_shift_needs_two_coordinates(self, raw, named):
        params = {"matrix": "1,0;1,1", "shift": raw}
        with pytest.raises(ValueError, match=re.escape(f"shift {named}: expected the form x,y")):
            registry.build_flow("torus_affine", params)

    @pytest.mark.parametrize(
        "raw, named", [("inf,0", "[inf, 0.0]"), ("0,nan", "[0.0, nan]"), ("-inf,inf", "[-inf, inf]")]
    )
    def test_torus_affine_shift_must_be_finite(self, raw, named):
        params = {"matrix": "1,0;1,1", "shift": raw}
        with pytest.raises(ValueError, match=re.escape(f"shift {named}: coordinates must be finite")):
            registry.build_flow("torus_affine", params)

    # each bundled config's start, as its flow's parser reads it
    @pytest.mark.parametrize(
        "config, want",
        [
            ("counterexample.cfg", [0.20710678118654752, 0.0]),
            ("liouville-adding-machine.cfg", padic.PadicInt(2, 32, 0)),
            ("liouville-shear-fiber.cfg", 0.0),
            ("mobius-padic-rational.cfg", padic.ProjPoint.from_ints(2, 1, 3, 24)),
            ("mobius-rotation.cfg", 0.0),
            ("nlogn-torus-auto.cfg", [0.2137, 0.718]),
            ("polynomial-padic-poly.cfg", padic.PadicInt(3, 32, 5)),
            ("quadratic-denjoy.cfg", 0.25),
            ("resonant-rotation.cfg", 0.0),
            ("subnormal-quadratic-family.cfg", 0.3),
        ],
    )
    def test_bundled_config_starts(self, config, want):
        (cfg,) = cli.parse_config(config_path(config))
        flow = registry.build_flow(cfg.flow, cfg.flow_params)
        start = registry.parse_start(cfg.flow, cfg.start, flow)
        if isinstance(want, list):
            assert isinstance(start, np.ndarray) and start.tolist() == want
        else:
            assert type(start) is type(want) and start == want

    def test_flow_without_parser_rejected(self):
        flow = Flow("bare", step=lambda x: x, dist=lambda a, b: abs(a - b))
        with pytest.raises(registry.RegistryError, match="bare"):
            registry.parse_start("bare", "0.5", flow)

    @pytest.mark.parametrize("rho", ["0.5", "0.25", "0.1"])
    def test_denjoy_rational_rotation_rejected(self, rho):
        with pytest.raises(ValueError, match="repeats orbit points"):
            registry.build_flow("denjoy", {"rho": rho, "trunc": "1000"})

    def test_digit_list_longer_than_precision_rejected(self):
        flow = registry.build_flow("adding_machine", {"p": "2", "precision": "4"})
        assert registry.parse_start("adding_machine", "1,0,1,1", flow).residue == 13
        with pytest.raises(ValueError, match="precision"):
            registry.parse_start("adding_machine", "1,0,1,0,1,1", flow)

    @pytest.mark.parametrize("level", ["0", "-1"])
    @pytest.mark.parametrize("name", ["padic_phase", "projective_phase"])
    def test_phase_level_below_one_rejected(self, name, level):
        with pytest.raises(ValueError, match="level"):
            registry.build_observable(name, {"level": level})

    def test_phase_level_above_precision_rejected(self):
        x = padic.PadicInt.from_int(5, 3, 8)
        point = padic.ProjPoint.from_ints(5, 1, 3, 8)
        for name, state in (("padic_phase", x), ("projective_phase", point)):
            assert registry.build_observable(name, {"level": "8"}).eval(state) != 0
            observable = registry.build_observable(name, {"level": "12"})
            with pytest.raises(ValueError, match="resolution exceeds working precision"):
                observable.eval(state)


class TestConfigParsing:
    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment x\nsequence = mobius\n")
        code = cli.main(["--out", str(tmp_path), "run", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "line" in err.lower()

    def test_unknown_registry_name_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "[experiment x]\nsequence = nope\nn = 10\nflow = rotation\n"
            "flow.rho = 0.1\nobservable = fourier\nobservable.k = 1\nstart = 0\n"
        )
        code = cli.main(["--out", str(tmp_path), "run", str(bad)])
        assert code == 2
        assert "unknown sequence" in capsys.readouterr().err

    def test_missing_key_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment x]\nsequence = mobius\nn = 10\n")
        assert cli.main(["--out", str(tmp_path), "run", str(bad)]) == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n", None, "[x] missing n"),
            ("n", "ten", "[x] bad value: invalid literal for int() with base 10: 'ten'"),
            ("n", "0", "[x] bad value: n must be >= 1, got 0"),
            ("flow", "nope", "[x] unknown flow 'nope'"),
            ("observable", "nope", "[x] unknown observable 'nope'"),
        ],
    )
    def test_bad_experiment_exits_two_with_one_message(self, key, value, message, tmp_path, capsys):
        keys = {
            "sequence": "mobius", "n": "10", "flow": "rotation", "flow.rho": "0.1",
            "observable": "fourier", "observable.k": "1", "start": "0", key: value,
        }
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "[experiment x]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)
        )
        assert cli.main(["--out", str(tmp_path / "out"), "run", str(bad)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "keys, message",
        [
            ({"checkpoints": "0,50"}, "[x] bad value: checkpoints must lie in 1..N, N = 100"),
            ({"checkpoints": "50,200"}, "[x] bad value: checkpoints must lie in 1..N, N = 100"),
            ({"checkpoints": "100,50"}, "[x] bad value: checkpoints must be strictly increasing"),
            ({"checkpoints": "50.7,100"},
             "[x] bad value: invalid literal for int() with base 10: '50.7'"),
            ({"sequence": "subnormal", "sequence.tau": "0.2", "seed": "-1"},
             "[x] bad value: seed must be >= 0, got -1"),
        ],
        ids=[
            "checkpoint_zero",
            "checkpoint_past_n",
            "checkpoints_decreasing",
            "checkpoint_not_integer",
            "negative_seed",
        ],
    )
    def test_bad_checkpoints_or_seed_exit_two_at_parse_time(self, keys, message, tmp_path, capsys):
        keys = {
            "sequence": "mobius", "n": "100", "flow": "rotation", "flow.rho": "0.1",
            "observable": "fourier", "observable.k": "1", "start": "0", **keys,
        }
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment x]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(bad)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "x.json").exists()

    def test_config_without_experiments_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.cfg"
        empty.write_text("# nothing to run\n")
        assert cli.main(["--out", str(tmp_path / "out"), "run", str(empty)]) == 2
        assert capsys.readouterr().err == f"config error: {empty} declares no [experiment ...] sections\n"

    @pytest.mark.parametrize("name", ["../escaped", "sub/escaped", "..", ".", "a\\b"])
    def test_name_cannot_leave_output_dir(self, name, tmp_path, capsys):
        out = tmp_path / "a" / "out"
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            f"[experiment {name}]\nsequence = mobius\nn = 10\nflow = rotation\n"
            "flow.rho = 0.1\nobservable = fourier\nobservable.k = 1\nstart = 0\n"
        )
        with pytest.raises(cli.ConfigError):
            cli.parse_config(str(bad))
        assert cli.main(["--out", str(out), "run", str(bad)]) == 2
        assert "path separator" in capsys.readouterr().err
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
        assert written == {"bad.cfg"}

    def test_repeated_experiment_name_exits_two(self, tmp_path, capsys):
        # both sections would write a.json and a.csv, and the manifest keeps one verdict
        body = (
            "sequence = mobius\nn = 10\nflow = rotation\nflow.rho = 0.1\n"
            "observable = fourier\nobservable.k = 1\nstart = 0\n"
        )
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[experiment a]\n{body}\n[experiment  a]\n{body}")
        with pytest.raises(cli.ConfigError, match=r"\[experiment a\] and \[experiment  a\]"):
            cli.parse_config(str(bad))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["experimental", "experiments a", "experiment_a", " experiment a"])
    def test_misspelt_section_exits_two(self, section, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            f"[{section}]\nsequence = mobius\nn = 10\nflow = rotation\n"
            "flow.rho = 0.1\nobservable = fourier\nobservable.k = 1\nstart = 0\n"
        )
        with pytest.raises(cli.ConfigError, match=rf"\[{section}\]"):
            cli.parse_config(str(bad))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_bundled_configs_parse_as_one_file(self, tmp_path):
        # the benchmark joins every bundled config into one file and runs it
        combined = tmp_path / "combined.cfg"
        names = bundled_config_names()
        combined.write_text("\n".join(open(config_path(name)).read() for name in names))
        parsed = [cfg.name for cfg in cli.parse_config(str(combined))]
        assert parsed == [name[: -len(".cfg")] for name in names]

    def test_unreadable_config_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main(["--out", str(out), "run", str(tmp_path / "missing.cfg")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_counterexample_config_stagnant_at_one(self, tmp_path):
        code = cli.main(
            ["--out", str(tmp_path), "run", config_path("counterexample.cfg")]
        )
        assert code == 0
        report = json.loads((tmp_path / "counterexample.json").read_text())
        assert report["verdict"] == "stagnant"
        final = report["checkpoints"][-1]
        assert abs(complex(final["re"], final["im"]) - 1.0) < 1e-6

    def test_resonant_rotation_config_exact(self, tmp_path):
        # weights e(n rho) against e(-x_n) on x_n = n rho mod 1: every term is 1
        code = cli.main(
            ["--out", str(tmp_path), "run", config_path("resonant-rotation.cfg")]
        )
        assert code == 0
        report = json.loads((tmp_path / "resonant-rotation.json").read_text())
        for checkpoint in report["checkpoints"]:
            assert abs(complex(checkpoint["re"], checkpoint["im"]) - 1.0) <= 1e-15

    def test_mobius_rotation_config_decays(self, tmp_path):
        code = cli.main(
            ["--out", str(tmp_path), "run", config_path("mobius-rotation.cfg")]
        )
        assert code == 0
        report = json.loads((tmp_path / "mobius-rotation.json").read_text())
        assert report["verdict"] == "decaying"

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_every_bundled_config_runs(self, name, tmp_path):
        assert cli.main(["--out", str(tmp_path), "run", config_path(name)]) == 0
        stem = name[: -len(".cfg")]
        assert (tmp_path / f"{stem}.json").exists()
        assert (tmp_path / f"{stem}.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_sha256"]
        assert all(
            not status.startswith("error") for status in manifest["experiments"].values()
        )

    @pytest.mark.parametrize(
        "name,owner,attr,bound",
        [
            # mod 3^4, 81 states, the orbit repeats after 24 steps, with period 9
            ("polynomial-padic-poly", padic, "_horner", 2 * 3**4),
            # the float orbit repeats bit for bit from step 237, with period 4
            ("subnormal-quadratic-family", interval.QuadraticMap, "__call__", 1000),
        ],
    )
    def test_periodic_bundled_orbits_stop_stepping(self, name, owner, attr, bound, tmp_path, monkeypatch):
        # the shipped N is 20000 for both: each block stops at its first repeat
        step = getattr(owner, attr)
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return step(*args)

        monkeypatch.setattr(owner, attr, counted)
        (cfg,) = cli.parse_config(config_path(f"{name}.cfg"))
        assert cfg.n_terms == 20000
        cli.run_experiment(cfg, str(tmp_path))
        assert 0 < calls <= bound

    def test_run_writes_the_config_start_without_its_repr(self, tmp_path, monkeypatch):
        # a run writes the start's config text, so the parsed point's repr
        # is never needed; a library report still writes repr(start)
        class Unprintable(float):
            def __repr__(self):
                raise AssertionError("repr of the start point")

        parse_start = registry.parse_start
        monkeypatch.setattr(
            registry, "parse_start", lambda *args: Unprintable(parse_start(*args))
        )
        (cfg,) = cli.parse_config(config_path("mobius-rotation.cfg"))
        assert cli.run_experiment(cfg, str(tmp_path)) == {
            "name": "mobius-rotation",
            "verdict": "decaying",
        }
        written = json.loads((tmp_path / "mobius-rotation.json").read_text())
        assert written["start"] == "0.0"
        flow = registry.build_flow(cfg.flow, cfg.flow_params)
        observable = registry.build_observable(cfg.observable, cfg.observable_params)
        weights = sequences.mobius_sequence(100)
        report = analysis.weighted_birkhoff(weights, flow, observable, 0.25)
        assert report.to_json_dict()["start"] == "0.25"

    def test_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        for out in (out1, out2):
            assert (
                cli.main(
                    [
                        "--out",
                        str(out),
                        "run",
                        config_path("subnormal-quadratic-family.cfg"),
                    ]
                )
                == 0
            )
        name = "subnormal-quadratic-family"
        for suffix in (".json", ".csv"):
            assert (out1 / f"{name}{suffix}").read_bytes() == (
                out2 / f"{name}{suffix}"
            ).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        multi = tmp_path / "multi.cfg"
        text = []
        for name in ("mobius-rotation.cfg", "resonant-rotation.cfg"):
            text.append(open(config_path(name)).read())
        multi.write_text("\n".join(text))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert cli.main(["--out", str(serial), "run", str(multi)]) == 0
        assert (
            cli.main(["--out", str(parallel), "run", str(multi), "--jobs", "2"]) == 0
        )
        for stem in ("mobius-rotation", "resonant-rotation"):
            assert (serial / f"{stem}.json").read_bytes() == (
                parallel / f"{stem}.json"
            ).read_bytes()

    def test_output_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ENV_VAR, str(tmp_path))
        assert cli.main(["run", config_path("resonant-rotation.cfg")]) == 0
        assert (tmp_path / "resonant-rotation.json").exists()

    def test_parallel_jobs_report_in_config_order(self, tmp_path, capsys):
        # the first experiment is the slowest, so completion order differs
        multi = tmp_path / "multi.cfg"
        names = ("mobius-rotation", "resonant-rotation", "quadratic-denjoy")
        multi.write_text(
            "\n".join(open(config_path(f"{name}.cfg")).read() for name in names)
        )
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(multi), "--jobs", "3"]) == 0
        reported = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert reported == list(names)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two(self, jobs, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--out", str(out), "run", config_path("resonant-rotation.cfg")]
        assert cli.main([*argv, "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--out", str(out), "run", config_path("subnormal-quadratic-family.cfg")]
        assert cli.main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_malformed_start_named_in_manifest(self, tmp_path):
        text = open(config_path("mobius-padic-rational.cfg")).read()
        cfg = tmp_path / "bad-start.cfg"
        cfg.write_text(text.replace("start = 2,1\n", "start = 2,1,3\n"))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(cfg)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiments"]["mobius-padic-rational"] == (
            "error: cannot read start '2,1,3': expected the form x,y"
        )

    def test_quadratic_start_outside_interval_named_in_manifest(self, tmp_path):
        text = open(config_path("subnormal-quadratic-family.cfg")).read()
        cfg = tmp_path / "bad-start.cfg"
        cfg.write_text(text.replace("start = 0.3\n", "start = 5.0\n"))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(cfg)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiments"]["subnormal-quadratic-family"] == (
            "error: start '5.0' must lie in [-1, 1]"
        )
        assert not (out / "subnormal-quadratic-family.json").exists()

    def test_malformed_shift_named_in_manifest(self, tmp_path):
        text = open(config_path("counterexample.cfg")).read()
        cfg = tmp_path / "bad-shift.cfg"
        cfg.write_text(text.replace("flow.shift = 0.41421356237309503,0\n", "flow.shift = 0.4,0,0\n"))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(cfg)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiments"]["counterexample"] == (
            "error: cannot use shift [0.4, 0.0, 0.0]: expected the form x,y"
        )

    def test_registry_error_named_in_manifest_without_quotes(self, tmp_path):
        text = open(config_path("resonant-rotation.cfg")).read()
        cfg = tmp_path / "no-rho.cfg"
        cfg.write_text(text.replace("flow.rho = 0.41421356237309503\n", ""))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(cfg)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiments"]["resonant-rotation"] == (
            "error: flow 'rotation' missing parameters ['rho']"
        )

    def test_manifest_hashes_the_bytes_that_ran(self, tmp_path, monkeypatch):
        cfg = tmp_path / "edited.cfg"
        cfg.write_text(open(config_path("resonant-rotation.cfg")).read())
        ran = cfg.read_bytes()
        run_experiment = cli.run_experiment

        def edit_then_run(experiment, out_dir):
            cfg.write_bytes(ran + b"# edited during the run\n")
            return run_experiment(experiment, out_dir)

        monkeypatch.setattr(cli, "run_experiment", edit_then_run)
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "run", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(ran).hexdigest()

    def test_run_reads_the_config_once(self, tmp_path, monkeypatch):
        # the digest and the experiments come from one read of the file, so
        # an edit between two reads cannot record bytes that did not run
        cfg = tmp_path / "once.cfg"
        cfg.write_text(open(config_path("resonant-rotation.cfg")).read())
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert cli.main(["--out", str(tmp_path / "out"), "run", str(cfg)]) == 0
        assert opened.count(str(cfg)) == 1

    def test_jobs_one_runs_in_the_calling_thread(self, tmp_path, monkeypatch):
        multi = tmp_path / "multi.cfg"
        multi.write_text(
            "\n".join(
                open(config_path(name)).read()
                for name in ("mobius-rotation.cfg", "resonant-rotation.cfg")
            )
        )
        threads = []
        run_experiment = cli.run_experiment

        def record_thread(experiment, out_dir):
            threads.append(threading.current_thread())
            return run_experiment(experiment, out_dir)

        def no_pool(*args, **kwargs):
            raise AssertionError("--jobs 1 opened a thread pool")

        monkeypatch.setattr(cli, "run_experiment", record_thread)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert cli.main(["--out", str(tmp_path / "out"), "run", str(multi)]) == 0
        assert threads == [threading.main_thread()] * 2

    def test_no_state_carries_between_calls(self, tmp_path, monkeypatch):
        cfg = config_path("subnormal-quadratic-family.cfg")
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert cli.main(["--out", str(fresh), "run", cfg]) == 0
        argv = ["--out", str(reused), "run", cfg, "--seed", "7", "--jobs", "2"]
        assert cli.main(argv) == 0
        name = "subnormal-quadratic-family"
        assert (reused / f"{name}.json").read_bytes() != (fresh / f"{name}.json").read_bytes()

        def no_pool(*args, **kwargs):  # --jobs is back to 1
            raise AssertionError("a plain run opened a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert cli.main(["--out", str(reused), "run", cfg]) == 0
        for suffix in (".json", ".csv"):
            assert (reused / f"{name}{suffix}").read_bytes() == (
                fresh / f"{name}{suffix}"
            ).read_bytes()

    def test_seed_override_changes_stochastic_run(self, tmp_path):
        base, other = tmp_path / "base", tmp_path / "other"
        cfg = config_path("subnormal-quadratic-family.cfg")
        assert cli.main(["--out", str(base), "run", cfg]) == 0
        assert cli.main(["--out", str(other), "run", cfg, "--seed", "999"]) == 0
        name = "subnormal-quadratic-family.json"
        assert (base / name).read_bytes() != (other / name).read_bytes()


class TestOtherCommands:
    def test_list_contains_required_names(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "mobius",
            "liouville",
            "quadratic_phase",
            "subnormal",
            "rotation",
            "denjoy",
            "torus_affine",
            "torus_auto",
            "padic_poly",
            "padic_rational",
            "quadratic_family",
            "adding_machine",
        ):
            assert name in out

    def test_cascade_csv(self, tmp_path):
        assert (
            cli.main(
                ["--out", str(tmp_path), "cascade", "--depth", "4", "--out-file", "c.csv"]
            )
            == 0
        )
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "n,t_n,ratio"
        assert lines[1].startswith("0,-0.5")
        t1 = float(lines[2].split(",")[1])
        assert abs(t1 - 0.5) < 1e-9

    def test_cascade_at_its_deepest_level(self, tmp_path):
        argv = ["--out", str(tmp_path), "cascade", "--depth", "12", "--out-file", "c.csv"]
        assert cli.main(argv) == 0
        assert len((tmp_path / "c.csv").read_text().splitlines()) == 14

    def test_cycle_not_found_reported_as_error(self, monkeypatch, capsys):
        def fail(depth):
            raise interval.CycleNotFound("x")

        monkeypatch.setattr(interval, "cascade", fail)
        assert cli.main(["cascade", "--depth", "3"]) == 2
        assert capsys.readouterr().err == "error: x\n"

    @pytest.mark.parametrize(
        "exc, prefix",
        [
            (cli.ConfigError("x"), "config error"),
            (ValueError("x"), "error"),
            (ZeroDivisionError("x"), "error"),
            (registry.RegistryError("x"), "error"),
            (interval.CycleNotFound("x"), "error"),
            (interval.CodingAmbiguous("x"), "error"),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else value,
    )
    def test_main_reports_every_subcommand_failure(self, exc, prefix, monkeypatch, capsys):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_list", fail)
        assert cli.main(["list"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{prefix}: x\n")

    def test_main_lets_other_failures_propagate(self, monkeypatch):
        def fail(args):
            raise RuntimeError("x")

        monkeypatch.setattr(cli, "cmd_list", fail)
        with pytest.raises(RuntimeError):
            cli.main(["list"])

    def test_cascade_creates_missing_out_dir(self, tmp_path):
        out = tmp_path / "missing" / "dir"
        argv = ["--out", str(out), "cascade", "--depth", "2", "--out-file", "x.csv"]
        assert cli.main(argv) == 0
        assert (out / "x.csv").read_text().startswith("n,t_n,ratio\n")

    @pytest.mark.parametrize("name", ["../esc.csv", "sub/esc.csv", "..", ".", "a\\b"])
    @pytest.mark.parametrize(
        "command",
        [
            ["cascade", "--depth", "2"],
            ["denjoy", "--trunc", "1000"],
            ["spectrum", "--p", "1", "--q", "3"],
            ["coding", "--t", "0.74839", "--depth", "2"],
        ],
        ids=lambda command: command[0],
    )
    def test_out_file_cannot_leave_out_dir(self, command, name, tmp_path, capsys):
        out = tmp_path / "a" / "out"
        assert cli.main(["--out", str(out), *command, "--out-file", name]) == 2
        assert capsys.readouterr().err.startswith("error: --out-file")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command", [["denjoy", "--trunc", "50"], ["cascade", "--depth", "-1"]], ids=lambda c: c[0]
    )
    def test_bad_size_exits_two(self, command, tmp_path, capsys):
        assert cli.main(["--out", str(tmp_path / "out"), *command]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("rho", ["0.5", "0.25", "0.1"])
    def test_denjoy_rational_rotation_exits_two(self, rho, tmp_path, capsys):
        argv = ["--out", str(tmp_path / "out"), "denjoy", "--rho", rho, "--trunc", "1000"]
        assert cli.main(argv) == 2
        assert "repeats orbit points" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_denjoy_gap_table_reloadable(self, tmp_path):
        from oscillab import circle

        assert (
            cli.main(
                [
                    "--out",
                    str(tmp_path),
                    "denjoy",
                    "--rho",
                    str(math.sqrt(2) - 1),
                    "--trunc",
                    "1500",
                    "--out-file",
                    "gaps.csv",
                ]
            )
            == 0
        )
        loaded = circle.load_denjoy(tmp_path / "gaps.csv")
        assert loaded.truncation == 1500

    def test_spectrum_exact_table(self, capsys):
        assert cli.main(["spectrum", "--p", "1", "--q", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "r,s,re_amp,im_amp,abs_amp"
        atoms = {(ln.split(",")[0], ln.split(",")[1]) for ln in lines[1:]}
        assert atoms == {("0", "1"), ("1", "3"), ("2", "3")}

    def test_spectrum_exact_table_sorted(self, capsys):
        assert cli.main(["spectrum", "--p", "1", "--q", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        freqs = [Fraction(int(ln.split(",")[0]), int(ln.split(",")[1])) for ln in lines]
        assert freqs == [Fraction(b, 6) for b in range(6)]

    def test_spectrum_scan(self, tmp_path):
        assert (
            cli.main(
                [
                    "--out",
                    str(tmp_path),
                    "spectrum",
                    "--scan-sequence",
                    "mobius",
                    "--n",
                    "2000",
                    "--grid",
                    "16",
                    "--out-file",
                    "scan.csv",
                ]
            )
            == 0
        )
        header = (tmp_path / "scan.csv").read_text().splitlines()[0]
        assert header == "t,re_sigma,im_sigma,abs_sigma,N"

    def test_spectrum_scan_stdout_matches_csv_writer(self, tmp_path, capsys):
        argv = ["spectrum", "--scan-sequence", "mobius", "--n", "3000", "--grid", "32"]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        weights = registry.build_sequence("mobius", {}, 3000)
        path = tmp_path / "scan.csv"
        path.write_text(sequences.spectrum_csv(sequences.zero_set_scan(weights, 32, 3000)))
        assert stdout.encode() == path.read_bytes()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--scan-sequence", "mobius", "--grid", "1"],
            ["--scan-sequence", "mobius", "--n", "0"],
            ["--scan-sequence", "mobius", "--n", "-5"],
            ["--scan-sequence", "quadratic_phase", "--scan-params", "alpha"],
            ["--scan-sequence", "nope"],
            ["--p", "2", "--q", "4"],
        ],
    )
    def test_spectrum_bad_input_exits_two(self, extra, tmp_path, capsys):
        assert cli.main(["--out", str(tmp_path), "spectrum", *extra]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())

    def test_unknown_scan_sequence_named_without_quotes(self, tmp_path, capsys):
        argv = ["--out", str(tmp_path), "spectrum", "--scan-sequence", "foo"]
        assert cli.main(argv) == 2
        known = ", ".join(sorted(registry.SEQUENCES))
        assert capsys.readouterr().err == f"error: unknown sequence 'foo'; known: {known}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name, params, bad",
        [
            ("quadratic_phase", "alpha=inf", "inf"),
            ("quadratic_phase", "alpha=1e400", "inf"),
            ("quadratic_phase", "alpha=nan", "nan"),
            ("polynomial_phase", "coeffs=0,inf", "inf"),
            ("polynomial_phase", "coeffs=0,-inf", "-inf"),
        ],
    )
    def test_non_finite_phase_coefficient_exits_two(self, name, params, bad, tmp_path, capsys):
        argv = ["--out", str(tmp_path), "spectrum", "--scan-sequence", name]
        assert cli.main([*argv, "--scan-params", params]) == 2
        assert capsys.readouterr().err == f"error: phase coefficient {bad} is not finite\n"
        assert not any(tmp_path.iterdir())

    def test_scan_params_part_not_key_value_named(self, tmp_path, capsys):
        argv = ["--out", str(tmp_path), "spectrum", "--scan-sequence", "mobius"]
        assert cli.main([*argv, "--scan-params", "foo"]) == 2
        assert capsys.readouterr().err == "error: --scan-params part 'foo' is not key=value\n"
        assert cli.main([*argv, "--scan-params", "a=1;;b"]) == 2
        assert capsys.readouterr().err == "error: --scan-params part 'b' is not key=value\n"
        assert not any(tmp_path.iterdir())

    def test_normal_form_worked_example(self, capsys):
        assert cli.main(["normal-form", "--matrix=-5,6;-6,7"]) == 0
        out = capsys.readouterr().out
        assert "t       = 6" in out
        assert "[[1,0],[1,1]]" in out

    def test_normal_form_rejects_hyperbolic(self, capsys):
        assert cli.main(["normal-form", "--matrix", "2,1;1,1"]) == 2

    def test_coding_word_table(self, capsys):
        from oscillab import interval

        params = interval.cascade(3).parameters
        t = params[1] + 0.5 * (params[2] - params[1])
        assert cli.main(["coding", "--t", str(t), "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "word,image_word"
        assert "11,00" in out  # the carry case of the odometer
        assert "# adding_machine = True" in out

    def test_coding_outside_window_exits_two(self, capsys):
        assert cli.main(["coding", "--t", "0.3", "--depth", "2"]) == 2


class TestExperimentConfigRoundTrip:
    def test_padic_digit_list_start(self):
        flow = registry.build_flow(
            "adding_machine", {"p": "2", "precision": "8"}
        )
        start = registry.parse_start("adding_machine", "1,0,1", flow)
        assert start.residue == 5
