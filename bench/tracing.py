"""Spans around the benchmark's calls into oscillab's public functions.

A span is (name, start, end, parent index, item id).  The module of a span
is the first component of its name (``analysis.weighted_birkhoff`` belongs
to ``analysis``); item spans are named ``item`` and belong to the benchmark
itself.  Spans stay in memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Untraced runs: a call is just the call."""

    item = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, str | None]] = []
        self._stack: list[int] = []
        self.item: str | None = None

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.item))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)

    def self_times(self) -> list[float]:
        """Span duration minus the part of it that its child spans cover.

        Calls are sequential, so children never overlap each other and the
        covered part is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def by_name(self) -> dict[str, dict[str, float]]:
        """Total and self seconds and call count per span name."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def module_of(span_name: str) -> str:
    return "bench" if span_name == "item" else span_name.split(".", 1)[0]
