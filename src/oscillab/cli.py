"""Experiment runner and command-line interface.

Subcommands: ``run`` (execute experiments from a config file), ``list``
(registry table), ``cascade``, ``denjoy``, ``spectrum``, ``coding``,
``normal-form``.
Reports are JSON plus a CSV mirror, written atomically; identical config
and seed reproduce byte-identical outputs.  ``main`` reports every
subcommand's bad input on stderr, as ``error: ...`` or ``config error: ...``,
with exit status 2.  One parser, built on the first ``main`` call, serves
every later call in the process.  ``run --jobs 1`` runs each experiment in
the calling thread; ``--jobs N`` runs them on N threads.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import functools
import hashlib
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace

from . import __version__, circle, interval, registry, sequences, torus
from .analysis import _birkhoff_report, checked_checkpoints

OUTPUT_ENV_VAR = "OSCILLAB_OUT"


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: sequence x flow x observable from a named start point."""

    name: str
    sequence: str
    sequence_params: dict
    n_terms: int
    flow: str
    flow_params: dict
    observable: str
    observable_params: dict
    start: str
    checkpoints: tuple[int, ...] | None
    seed: int | None

    @classmethod
    def from_section(cls, name: str, section: dict[str, str]) -> "ExperimentConfig":
        """The experiment ``name`` from its section's items, read once into ``section``."""
        grouped: dict[str, dict] = {"sequence": {}, "flow": {}, "observable": {}}
        for key, value in section.items():
            prefix, dot, param = key.partition(".")
            if dot and prefix in grouped:
                grouped[prefix][param] = value

        if "n" not in section:
            raise ConfigError(f"[{name}] missing n")
        try:
            n_terms = int(section["n"])
            if n_terms < 1:
                raise ValueError(f"n must be >= 1, got {n_terms}")
            checkpoints = None
            if section.get("checkpoints"):
                parts = [int(part) for part in section["checkpoints"].split(",")]
                checkpoints = tuple(checked_checkpoints(parts, n_terms))
            seed = int(section["seed"]) if section.get("seed") else None
            if seed is not None and seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed}")
            return cls(
                name=name,
                sequence=section["sequence"],
                sequence_params=grouped["sequence"],
                n_terms=n_terms,
                flow=section["flow"],
                flow_params=grouped["flow"],
                observable=section["observable"],
                observable_params=grouped["observable"],
                start=section["start"],
                checkpoints=checkpoints,
                seed=seed,
            )
        except KeyError as exc:
            raise ConfigError(f"[{name}] missing key {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ConfigError(f"[{name}] bad value: {exc}") from exc

    def known_names(self) -> None:
        if self.sequence not in registry.SEQUENCES:
            raise ConfigError(f"[{self.name}] unknown sequence {self.sequence!r}")
        if self.flow not in registry.FLOWS:
            raise ConfigError(f"[{self.name}] unknown flow {self.flow!r}")
        if self.observable not in registry.OBSERVABLES:
            raise ConfigError(f"[{self.name}] unknown observable {self.observable!r}")


def _read_config(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def parse_config(path: str) -> list[ExperimentConfig]:
    return _parse_config_bytes(_read_config(path), path)


def _parse_config_bytes(raw: bytes, path: str) -> list[ExperimentConfig]:
    """The experiments of the config file ``path`` whose bytes are ``raw``.

    The bytes are decoded as ``open(path)`` decodes them.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.TextIOWrapper(io.BytesIO(raw)), source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    experiments = []
    sections: dict[str, str] = {}  # experiment name -> its section name
    for section_name in parser.sections():
        match = re.fullmatch(r"experiment(\s.*)?", section_name)
        if match is None:
            raise ConfigError(
                f"unexpected section [{section_name}]; sections must be "
                f"[experiment <name>]"
            )
        label = (match[1] or "").strip() or section_name
        # the name becomes NAME.json and NAME.csv inside the output directory
        if not _is_file_name(label):
            raise ConfigError(
                f"[{section_name}] experiment name must not be '.', '..' "
                f"or contain a path separator"
            )
        if label in sections:
            raise ConfigError(f"[{sections[label]}] and [{section_name}] share the name {label!r}")
        sections[label] = section_name
        cfg = ExperimentConfig.from_section(label, dict(parser.items(section_name, raw=True)))
        cfg.known_names()
        experiments.append(cfg)
    if not experiments:
        raise ConfigError(f"{path} declares no [experiment ...] sections")
    return experiments


def _is_file_name(name: str) -> bool:
    """True when ``name`` joined onto a directory stays inside it."""
    return name not in (".", "..") and "/" not in name and "\\" not in name


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_output(out_dir: str, name: str | None, text: str) -> None:
    """Write ``text`` to the file ``name`` inside ``out_dir``, or to stdout.

    A name that would leave ``out_dir`` raises ``ValueError``; ``out_dir``
    is created if needed.
    """
    if not name:
        sys.stdout.write(text)
        return
    if not _is_file_name(name):
        raise ValueError(
            f"--out-file {name!r} must not be '.', '..' or contain a path separator"
        )
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, name), text)


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    weights = registry.build_sequence(
        cfg.sequence, cfg.sequence_params, cfg.n_terms, seed=cfg.seed
    )
    flow = registry.build_flow(cfg.flow, cfg.flow_params)
    observable = registry.build_observable(cfg.observable, cfg.observable_params)
    start = registry.parse_start(cfg.flow, cfg.start, flow)
    # the report's start is the canonical config text, not the parsed repr
    report = _birkhoff_report(weights, flow, observable, start, cfg.checkpoints, cfg.start)
    payload = report.to_json_dict()
    json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    csv_lines = ["N,re,im,abs"]
    for n, s in report.checkpoints:
        csv_lines.append(f"{n},{s.real:.17g},{s.imag:.17g},{abs(s):.17g}")
    _atomic_write(os.path.join(out_dir, f"{cfg.name}.json"), json_text)
    _atomic_write(os.path.join(out_dir, f"{cfg.name}.csv"), "\n".join(csv_lines) + "\n")
    return {"name": cfg.name, "verdict": report.verdict}


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    out_dir = args.out
    raw = _read_config(args.config)  # hashed and parsed from one read
    experiments = _parse_config_bytes(raw, args.config)
    digest = hashlib.sha256(raw).hexdigest()
    os.makedirs(out_dir, exist_ok=True)
    if args.seed is not None:
        experiments = [replace(cfg, seed=args.seed) for cfg in experiments]
    started = time.time()
    statuses = {}
    failed = False
    if args.jobs == 1:  # each experiment runs in this thread when its turn comes
        outcomes = [functools.partial(run_experiment, cfg, out_dir) for cfg in experiments]
    else:
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs)
        outcomes = [pool.submit(run_experiment, cfg, out_dir).result for cfg in experiments]
        pool.shutdown(wait=False)  # the loop below waits for every result
    for cfg, outcome in zip(experiments, outcomes):  # report in config order
        try:
            result = outcome()
            statuses[cfg.name] = result["verdict"]
            print(f"{cfg.name}: {result['verdict']}")
        except Exception as exc:  # surfaced per experiment
            statuses[cfg.name] = f"error: {exc}"
            print(f"{cfg.name}: error: {exc}", file=sys.stderr)
            failed = True
    manifest = {
        "config_sha256": digest,
        "version": __version__,
        "wall_time_s": time.time() - started,
        "experiments": statuses,
    }
    _atomic_write(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )
    return 1 if failed else 0


def cmd_list(args) -> int:
    sys.stdout.write(registry.registry_table())
    return 0


def cmd_cascade(args) -> int:
    result = interval.cascade(args.depth)
    params = result.parameters
    ratios = result.ratios()
    lines = ["n,t_n,ratio"]
    lines.append(f"0,{interval.CASCADE_ORIGIN:.17g},")
    for i, t_n in enumerate(params, start=1):
        ratio = f"{ratios[i - 1]:.17g}" if i - 1 < len(ratios) else ""
        lines.append(f"{i},{t_n:.17g},{ratio}")
    _write_output(args.out, args.out_file, "\n".join(lines) + "\n")
    return 0


def cmd_denjoy(args) -> int:
    denjoy = circle.build_denjoy(args.rho, args.trunc)
    name = args.out_file or "denjoy_gap_table.csv"
    _write_output(args.out, name, circle.gap_table_csv(denjoy))
    print(
        f"gap table written to {os.path.join(args.out, name)} (tail mass "
        f"{denjoy.tail_mass:.3g}, rotation number target {args.rho:.12g})"
    )
    return 0


def cmd_spectrum(args) -> int:
    if args.scan_sequence:
        params = {}
        for part in filter(None, (args.scan_params or "").split(";")):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"--scan-params part {part!r} is not key=value")
            params[key] = value
        weights = registry.build_sequence(args.scan_sequence, params, args.n, seed=args.seed)
        report = sequences.zero_set_scan(weights, grid_size=args.grid, n_terms=args.n)
        text = sequences.spectrum_csv(report)
    else:
        atoms = sequences.quadratic_rational_spectrum(args.p, args.q)
        lines = ["r,s,re_amp,im_amp,abs_amp"]
        for frac in sorted(atoms):
            amp = atoms[frac]
            lines.append(
                f"{frac.numerator},{frac.denominator},{amp.real:.17g},"
                f"{amp.imag:.17g},{abs(amp):.17g}"
            )
        text = "\n".join(lines) + "\n"
    _write_output(args.out, args.out_file, text)
    return 0


def cmd_coding(args) -> int:
    report = interval.attractor_coding(args.t, args.depth)
    lines = ["word,image_word"]
    for word in sorted(report.word_map):
        image = report.word_map[word]
        lines.append(
            "".join(map(str, word)) + "," + "".join(map(str, image))
        )
    lines.append(f"# adding_machine = {report.is_adding_machine}")
    _write_output(args.out, args.out_file, "\n".join(lines) + "\n")
    return 0


def cmd_normal_form(args) -> int:
    matrix = torus.ModularMatrix.from_string(args.matrix)
    result = torus.normal_form(matrix)
    print(f"matrix  = {matrix}")
    print(f"basis P = {result.basis}")
    print(f"t       = {result.t}")
    print(f"sign    = {'+1' if result.sign == 1 else '-1'}")
    print(f"check   : P^-1 M P == {'+' if result.sign == 1 else '-'}T_{result.t}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; ``main`` runs subcommand ``a-b`` as ``cmd_a_b``."""
    parser = argparse.ArgumentParser(
        prog="oscillab",
        description="oscillating-sequence and flow disjointness experiments",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUTPUT_ENV_VAR} or current directory)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None, help="override config seeds")

    sub.add_parser("list", help="list registered sequences/flows/observables")

    p_cascade = sub.add_parser("cascade", help="period-doubling cascade parameters")
    p_cascade.add_argument("--depth", type=int, default=8)
    p_cascade.add_argument("--out-file", default=None)

    p_denjoy = sub.add_parser("denjoy", help="build and persist a Denjoy gap table")
    p_denjoy.add_argument("--rho", type=float, default=math.sqrt(2) - 1)
    p_denjoy.add_argument("--trunc", type=int, default=4000)
    p_denjoy.add_argument("--out-file", default=None)

    p_spec = sub.add_parser(
        "spectrum", help="exact quadratic-phase spectrum or a Cesaro grid scan"
    )
    p_spec.add_argument("--p", type=int, default=1)
    p_spec.add_argument("--q", type=int, default=2)
    p_spec.add_argument("--scan-sequence", default=None)
    p_spec.add_argument("--scan-params", default=None, help="key=value;key=value")
    p_spec.add_argument("--n", type=int, default=10000)
    p_spec.add_argument("--grid", type=int, default=512)
    p_spec.add_argument("--seed", type=int, default=None)
    p_spec.add_argument("--out-file", default=None)

    p_coding = sub.add_parser(
        "coding", help="odometer word table of an attracting power-of-two cycle"
    )
    p_coding.add_argument("--t", type=float, required=True)
    p_coding.add_argument("--depth", type=int, required=True)
    p_coding.add_argument("--out-file", default=None)

    p_nf = sub.add_parser("normal-form", help="shear normal form of a modular matrix")
    p_nf.add_argument("--matrix", required=True, help="format 'a,b;c,d'")

    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input is reported on stderr with status 2."""
    args = build_parser().parse_args(argv)
    if args.out is None:
        args.out = os.environ.get(OUTPUT_ENV_VAR, ".")
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ConfigError as exc:  # a ValueError, so it is caught first
        print(f"config error: {exc}", file=sys.stderr)
    except (
        ValueError,
        ArithmeticError,
        registry.RegistryError,
        interval.CycleNotFound,
        interval.CodingAmbiguous,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
