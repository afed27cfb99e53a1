"""oscillab benchmark: one workload, measured in fresh single-threaded processes.

Usage (from the repository root):

    python3 bench/run.py --workload configs --seed 1 --seconds 50 --trace 0

Workloads: configs, long-orbit, spectrum, probes (see NOTES.md; the
regression gate in BENCHMARK.json uses configs and spectrum).  With
``--trace 0`` the run makes passes for ``--seconds`` seconds (at least
11), each in a fresh process forked from a server that has imported
oscillab, and prints the end-to-end metrics from each item's mean
latency.  With ``--trace 1`` it makes two untraced passes, two traced
passes and one per-layer pass, and prints the per-layer metrics.  Every
item's output is checked: against committed verdicts, against an
independent reference (``oracle.py``) and against the first pass, which
must match byte for byte.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0
# passes run until --seconds have gone, and at least 11 of them: the pooled
# tail is then always the slowest item
MIN_PASSES = 11
PASS_LIMIT_S = 120.0
SERVERS_PER_RUN = 3
TRACE_PAIRS = 2
WORKLOADS = ("configs", "long-orbit", "spectrum", "probes")
# largest array a pass holds (MiB), to compare with the L3 cache
LARGEST_ARRAY_MIB = {"configs": 1.6, "long-orbit": 1.0, "spectrum": 8.0, "probes": 0.1}
END_TO_END_UNITS = {"setup_s": "s", "terms_per_s": "terms/s", "item_s_p50": "s",
                    "item_s_tail": "s", "peak_rss_mb": "MiB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    # single-threaded: BLAS and OpenMP pools pinned to one thread (<= nproc)
    env.update({name: "1" for name in THREAD_VARS})
    return env


class Server:
    """One ``worker.py serve`` process: it imports oscillab once and forks a
    fresh child for every request, one at a time."""

    def __init__(self, started: float) -> None:
        self.started = started
        # a process group of its own, so that a hung pass child can be killed with it
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "serve"], cwd=ROOT, env=worker_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self) -> dict:
        remaining = RUN_LIMIT_S - (perf_counter() - self.started)
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 1.0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("worker server stopped or timed out")
        return json.loads(line)

    def __call__(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        code = self._reply()["exit"]
        if code != 0:
            raise RuntimeError(f"worker {request['mode']} exited with {code} (traceback above)")
        return json.loads((Path(request["out"]) / "result.json").read_text())

    def close(self) -> None:
        """Ends the server and waits for it; kills its whole group if it does not end."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


class Servers:
    """Starts servers on demand and stops every one of them on exit."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.current: Server | None = None

    def fresh(self) -> Server:
        self.close()
        self.current = Server(self.started)
        return self.current

    def close(self) -> None:
        if self.current is not None:
            self.current.close()
            self.current = None


def run_layers(request: dict, started: float) -> dict:
    """The per-layer pass, in a process of its own that imports oscillab."""
    remaining = RUN_LIMIT_S - (perf_counter() - started)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(request)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=max(remaining, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker layers failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(seed: int) -> dict:
    def first_line(path: Path, prefix: str = "") -> str:
        try:
            for line in path.read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    head = first_line(ROOT / ".git" / "HEAD")
    if head.startswith("ref:"):
        head = first_line(ROOT / ".git" / head.split(None, 1)[1])
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed,
        "cpu": first_line(Path("/proc/cpuinfo"), "model name"),
        "l3": first_line(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        "commit": head if head != "unknown" else "not a git checkout",
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten items beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n if n else 0.0


def judge(passes: list[dict], refs: dict) -> list[str]:
    """One failure line per failed item of every pass."""
    from oracle import CHECKPOINT_TOL, SPECTRUM_TOL, compare

    first = {row["id"]: row["record"] for row in passes[0]["items"]}
    failures = []
    for index, result in enumerate(passes):
        for row in result["items"]:
            reason = row["failure"]
            if reason is None and row["record"] != first.get(row["id"]):
                reason = "output differs from the first pass"
            if reason is None and row["id"] in refs:
                record = row["record"]
                if "samples" in record:
                    reason = compare(record["samples"], refs[row["id"]], SPECTRUM_TOL)
                else:
                    reason = compare(record["checkpoints"], refs[row["id"]], CHECKPOINT_TOL)
            if reason is not None:
                failures.append(f"pass {index} {row['id']}: {reason}")
    return failures


def rate(result: dict) -> float:
    return sum(row["terms"] for row in result["items"]) / result["timed_s"]


def latencies(passes: list[dict]) -> dict[str, list[float]]:
    """Seconds of every item, one entry per pass."""
    by_item: dict[str, list[float]] = {}
    for result in passes:
        for row in result["items"]:
            by_item.setdefault(row["id"], []).append(row["seconds"])
    return by_item


def typical(passes: list[dict]) -> dict[str, float]:
    """Each item's latency: the mean over its passes.

    Other tenants of the machine slow it by up to 1.8x, in stretches of a
    few seconds that cover a varying share of a run.  The fastest pass of
    an item then depends on whether a quiet stretch came at all, and the
    median jumps between the quiet and the loaded speed as that share
    crosses one half; the mean moves only in proportion to the share.
    """
    return {item: statistics.fmean(secs) for item, secs in latencies(passes).items()}


def typical_rate(passes: list[dict]) -> float:
    """Terms per second of the timed section: all terms over all item seconds."""
    return sum(row["terms"] for row in passes[0]["items"]) / sum(typical(passes).values())


def measure(args, servers: Servers, run_dir: Path) -> tuple[dict, list[dict], dict]:
    begin = perf_counter()
    passes: list[dict] = []
    served = 0
    while len(passes) < MIN_PASSES or perf_counter() - begin < args.seconds:
        if perf_counter() - begin > PASS_LIMIT_S:
            break
        # a new server in each third of the run, so that setup_s (its imports) is measured thrice
        if served < SERVERS_PER_RUN and perf_counter() - begin >= args.seconds * served / SERVERS_PER_RUN:
            server = servers.fresh()
            served += 1
        passes.append(server({"mode": "pass", "workload": args.workload, "seed": args.seed,
                              "traced": False, "out": str(run_dir / f"pass{len(passes)}")}))
    n_passes = len(passes)
    item_s = typical(passes)
    # every pass calls each item once: each latency counts once per pass
    tail_s, tail_pct = tail([secs for secs in item_s.values() for _ in range(n_passes)])
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "terms_per_s": typical_rate(passes),
        "item_s_p50": statistics.median(item_s.values()),
        "item_s_tail": tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {"passes": n_passes, "items": len(item_s) * n_passes, "tail_percentile": tail_pct,
             "pass_terms_per_s": [rate(p) for p in passes],
             "import_s": statistics.median(p["import_s"] for p in passes),
             "item_latencies_s": latencies(passes)}
    return metrics, passes, notes


def trace(args, servers: Servers, run_dir: Path) -> tuple[dict, list[dict], dict]:
    base = {"mode": "pass", "workload": args.workload, "seed": args.seed}
    server = servers.fresh()
    plain, traced = [], []
    for k in range(TRACE_PAIRS):  # alternate, so drift of the machine hits both sides
        plain.append(server(dict(base, traced=False, out=str(run_dir / f"untraced{k}"))))
        traced.append(server(dict(base, traced=True, out=str(run_dir / f"traced{k}"))))
    layer = run_layers({"mode": "layers", "seed": args.seed, "out": str(run_dir / "layers")}, servers.started)
    metrics = dict(layer["metrics"])
    rows = traced[0]["items"]
    metrics.update({
        "count.items": float(len(rows)),
        "count.terms": float(sum(r["terms"] for r in rows)),
        "count.steps": float(sum(r["steps"] for r in rows)),
        "count.frequencies": float(sum(r["freqs"] for r in rows)),
        "trace.terms_per_s_ratio": typical_rate(traced) / typical_rate(plain),
    })
    modules: dict[str, float] = {}
    for result in traced:
        for module, secs in result["modules"].items():
            modules[module] = modules.get(module, 0.0) + secs
    total = sum(modules.values())
    shares = {module: secs / total for module, secs in sorted(modules.items())}
    return metrics, plain + traced, {"module_share": shares, "layer_spans": layer["spans"]}


def main() -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "oscillab" / "__init__.py").is_file():
        print(f"error: no oscillab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # a terminated run still stops its servers and their pass children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    servers = Servers(started)
    try:
        metrics, passes, notes = (trace if args.trace else measure)(args, servers, run_dir)
        refs = servers.current({"mode": "oracle", "workload": args.workload, "seed": args.seed,
                                "out": str(run_dir / "oracle")})["refs"]
    finally:
        servers.close()
    sys.path.insert(0, str(BENCH))
    failures = judge(passes, refs)
    attempted = sum(len(p["items"]) for p in passes)

    meta = dict(metadata(args.seed), workload=args.workload, seconds=args.seconds, trace=args.trace,
                largest_array_mib=LARGEST_ARRAY_MIB[args.workload], **passes[0]["versions"])
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
                    for name, value in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(
        dict(result, metadata=meta, notes=notes, failures=failures), indent=2) + "\n")

    for key, value in meta.items():
        print(f"# {key}: {value}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    for name, entry in result["metrics"].items():
        print(f"{name:55s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':55s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} items attempted)")
    for key, value in notes.items():
        if key not in ("layer_spans", "item_latencies_s"):
            print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.startswith("count."):
        return "count"
    if name == "cli.bytes_written":
        return "bytes"
    if name == "sequences.quadratic_phase.max_phase_err":
        return "turns"
    if name.endswith(("speedup", "_ratio", "_frac")):
        return "ratio"
    if name.endswith("_per_s"):
        return name.rsplit(".", 1)[1][: -len("_per_s")] + "/s"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
