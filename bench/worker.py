"""Measured passes of a workload, each in a fresh process.

Usage: python3 bench/worker.py serve
       python3 bench/worker.py '{"mode": "layers", "seed": ..., "out": ...}'

``serve`` imports oscillab, calls none of its functions, and then reads one
JSON request a line from standard input.  It forks a child for each
request, so every pass starts in a fresh process whose oscillab state is
that of a process that has only imported it; the per-process caches are
empty and are paid inside the timed items.  The child writes its result to
``<out>/result.json``; ``serve`` answers each request with one JSON line
holding the child's exit code.  Request modes: ``pass`` runs every item of
a workload once and reports timings, counts, check failures and outputs;
``oracle`` computes the reference values for the same inputs.  ``layers``
runs the isolated per-layer loops in a process of its own, whose import
time is ``cli.import_s``; its result is printed as one JSON line.
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oscillab.cli  # noqa: E402,F401

IMPORT_S = perf_counter() - STARTED

import numpy  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer, module_of  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(req: dict, ready_s: float, forked: float) -> dict:
    out = Path(req["out"])
    items = workloads.WORKLOADS[req["workload"]](req["seed"], out)
    tr = Tracer() if req["traced"] else NullTracer()
    # the imports of the serving process plus this pass's input generation
    setup_s = ready_s + perf_counter() - forked
    values, seconds = [], []
    first = perf_counter()
    for item in items:
        tr.item = item.id
        start = perf_counter()
        if req["traced"]:
            values.append(tr.call("item", item.run, tr))
        else:
            values.append(item.run(tr))
        seconds.append(perf_counter() - start)
    timed_s = perf_counter() - first
    peak = rss_mb()
    rows = []
    for item, value, secs in zip(items, values, seconds):
        try:
            reason = item.check(value) if item.check else None
            record = item.record(value) if item.record else None
        except Exception as exc:  # a malformed output is a failed item, not a crash
            reason, record = f"check raised {type(exc).__name__}: {exc}", None
        rows.append({"id": item.id, "seconds": secs, "terms": item.terms, "steps": item.steps,
                     "freqs": item.freqs, "failure": reason, "record": record})
    result = {"setup_s": setup_s, "import_s": IMPORT_S, "timed_s": timed_s, "peak_rss_mb": peak,
              "items": rows, "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if req["traced"]:
        result["modules"] = module_shares(tr, items)
        tr.write(str(out / "spans.jsonl"))
    return result


def module_shares(tr: Tracer, items) -> dict:
    """Self seconds per module, with weighted averages split by isolated loops.

    The span of a weighted average (``analysis.weighted_birkhoff`` or the
    ``cli.main`` that runs one) covers stepping and observable evaluation
    as well as the averaging loop; isolated Flow.step and Observable.eval
    loops over the same orbit move those parts to the flow's module and to
    the registry.
    """
    selfs = tr.self_times()
    per_module: dict[str, float] = {}
    by_item: dict[str, list[int]] = {}
    for index, (name, _, _, _, item) in enumerate(tr.spans):
        per_module[module_of(name)] = per_module.get(module_of(name), 0.0) + selfs[index]
        by_item.setdefault(item, []).append(index)
    for item in items:
        if item.spec is None or "flow" not in item.spec:
            continue
        owner = next(i for i in by_item[item.id]
                     if tr.spans[i][0] in ("analysis.weighted_birkhoff", "cli.main"))
        parts = workloads.orbit_attribution(item.spec)
        moved = min(sum(parts.values()), selfs[owner])
        scale = moved / sum(parts.values())
        per_module[module_of(tr.spans[owner][0])] -= moved
        for module, secs in parts.items():
            per_module[module] = per_module.get(module, 0.0) + secs * scale
    return per_module


def run_oracle(req: dict) -> dict:
    from oscillab import analysis

    items = workloads.WORKLOADS[req["workload"]](req["seed"], Path(req["out"]))
    refs = {}
    for item in items:
        if item.spec is None:
            continue
        spec = dict(item.spec)
        if item.samples:
            refs[item.id] = oracle.cesaro_reference(spec, item.samples)
        else:
            spec["checkpoints"] = spec["checkpoints"] or analysis.default_checkpoints(spec["n"])
            refs[item.id] = oracle.birkhoff_reference(spec)
    return {"refs": refs}


def serve() -> None:
    ready_s = perf_counter() - STARTED
    print(json.dumps({"ready_s": ready_s}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        Path(req["out"]).mkdir(parents=True, exist_ok=True)
        forked = perf_counter()
        # safe to fork: with BLAS and OpenMP pinned to one thread this process has no threads
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                result = run_pass(req, ready_s, forked) if req["mode"] == "pass" else run_oracle(req)
                Path(req["out"], "result.json").write_text(json.dumps(result))
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"exit": os.waitstatus_to_exitcode(status)}), flush=True)


def main() -> None:
    if sys.argv[1] == "serve":
        serve()
        return
    import layers

    result = layers.run(json.loads(sys.argv[1]), IMPORT_S)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
