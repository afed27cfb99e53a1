"""Flow abstraction shared by every concrete dynamical system.

A flow bundles a step map, a metric and, optionally, a sampler and a
start-point parser over an opaque state type; each state space's module
builds its flows, and ``parse_pair`` reads the ``x,y`` start of the
two-coordinate ones.  Flows are stateless.  ``Flow.block`` is a flow's one
orbit, read through ``_points`` (which steps a flow without ``block``) by
``orbit``, by the observable stream of f(T^k x), which evaluates a block
with ``eval_block`` or else row by row, and by the pair stream
``orbit_distance_trace`` of d(T^k x, T^k z).  Outside them,
``interval.basin_probe`` calls a flow's ``block`` itself, and the interval
cycle finders walk their cycle orbits with ``compact_walk``.  Averages need
only O(block) memory; a distance trace holds both orbits whole, as blocks
and as rows.

The observable stream's blocks are the 4096-term chunks
(``sequences._BLOCK``) in which the weight builders fill c_n.  A block
stacks its points along a leading axis: a float array of shape (n,) for
the circle and interval flows, (n, 2) for the torus, and a
``padic.ResidueBlock`` (the ring plus residue arrays) for the p-adic flows.

A cycle is walked once.  The torus, quadratic-family and p-adic kernels
step their plain map with ``compact_walk``, whose ``cycle_walk`` compares
each new state with the one saved at the last power of two (Brent's cycle
check).  At the first exact repeat of the full state the orbit is periodic
from there on, so the walk stops and keeps a ``Walk``: each state up to
the repeat once, the tail before the cycle and the period.  Their
``Flow.walk`` returns it, and ``walk_block`` tiles it into ``Flow.block``:
the tiled points are the points a step loop would produce, bit for bit.
(Floats compare with ``==``, which equates 0.0 and -0.0; each such map
sends both to the same image, and the tail is cut where the states agree
bit for bit.)  An orbit that never repeats is walked to the end of the
block.  The observable stream reads ``Flow.walk`` where a flow has one:
once a block's walk meets a repeat, f is evaluated once on each state of
the walk, and every later term is served from those values, so no later
block is walked or evaluated, and ``analysis.weighted_birkhoff`` sums the
cyclic terms between two checkpoints as one residue fold of the weights
by a multiple of the period, dotted with the cycle's values.

Finite reductions make repeats certain.  An observable with a ``level``
reads only the residue mod p^level, and a flow with ``reduce`` can step
its orbit mod p^level, where at most p^level states exist; the observable
stream then steps the reduced flow.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .sequences import _BLOCK, _blocks

Point = Any


@dataclass(frozen=True)
class Walk:
    """The orbit points T x .. T^n x of a walked kernel, each state held once.

    ``points`` stacks T x .. T^m x as ``Flow.block`` stacks points.  When
    the walk met an exact repeat, m = ``tail`` + ``period`` and the last
    ``period`` rows are the cycle: T^k x for k > ``tail`` is the row
    tail + (k - 1 - tail) mod period.  Otherwise ``period`` is 0 and m = n.
    The tail is the shortest one: T^(tail + 1) x is the first point that
    recurs.
    """

    points: Any
    tail: int
    period: int
    n_steps: int

    @property
    def size(self) -> int:
        """m, the number of points held."""
        return self.tail + self.period if self.period else self.n_steps

    def last(self, start: Point) -> Any:
        """T^n x as its row of an array of points; ``start`` when n = 0."""
        k = self.n_steps - 1
        if k < 0:
            return start
        if self.period and k >= self.tail:
            k = self.tail + (k - self.tail) % self.period
        return self.points[k]

    def tiled(self) -> Any:
        """T x .. T^n x, the ``n_steps`` rows of ``Flow.block``."""
        if not self.period:
            return self.points
        k = np.arange(self.n_steps)
        rows = np.where(k < self.tail, k, self.tail + (k - self.tail) % self.period)
        return self.points.take(rows, axis=0)


@dataclass(frozen=True)
class Flow:
    """A state space with a continuous self-map and a metric.

    ``sample`` draws a random point of the state space (used by sampling
    checks such as ``isometry_defect``).  ``parse`` reads a start point from
    its config text (``registry.parse_start``).  ``block(x, n)`` returns
    ``(points, last)``: the next ``n`` orbit points T x .. T^n x stacked
    along a leading axis (see the module docstring), and T^n x as a point;
    a block that meets an exact repeat of the state tiles the cycle.  Every
    orbit reader reads ``block``, or without it applies ``step`` per point.
    ``walk(x, n)``, set on the walked kernels, returns ``(walk, last)``: the
    same n points as a ``Walk``, each state up to the first repeat held
    once, which the observable stream reads; their ``block`` is
    ``walk_block(walk)``.

    ``reduce(x, level)`` returns ``(flow, x)``: the flow that steps the
    orbit mod p^level, and x there, when ``level`` is below this flow's
    precision, and this flow and x otherwise.  The reduced orbit is the
    full orbit read mod p^level, so an observable of that ``level`` gives
    the same values on both.
    """

    name: str
    step: Callable[[Point], Point]
    dist: Callable[[Point, Point], float]
    sample: Callable[[np.random.Generator], Point] | None = None
    parse: Callable[[str], Point] | None = None
    block: Callable[[Point, int], tuple[Any, Point]] | None = None
    reduce: Callable[[Point, int], tuple[Flow, Point]] | None = None
    walk: Callable[[Point, int], tuple[Walk, Point]] | None = None

    def __repr__(self) -> str:  # keep reports readable
        return f"Flow({self.name})"


@dataclass(frozen=True)
class Observable:
    """A complex-valued function evaluated along orbits.

    ``eval_block`` evaluates a block of points, as ``Flow.block`` stacks
    them, to a complex array with one value per point.  ``level`` is set
    when the observable reads only the residue of a p-adic point mod
    p^level; the observable stream then steps ``Flow.reduce``'s flow.
    """

    name: str
    eval: Callable[[Point], complex]
    eval_block: Callable[[Any], np.ndarray] | None = None
    level: int | None = None

    def __repr__(self) -> str:
        return f"Observable({self.name})"


def parse_pair(raw: str, convert: Callable[[str], Any]) -> tuple:
    """Read an ``x,y`` start point, converting each coordinate with ``convert``."""
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"cannot read start {raw!r}: expected the form x,y")
    return convert(parts[0]), convert(parts[1])


def cycle_walk(
    f: Callable[[Point], Point], state: Point, n_steps: int, record: Callable[[Point], Any]
) -> int:
    """Step ``state`` by ``f`` up to ``n_steps`` times, passing each image to ``record``.

    Each new state is compared with the one saved at the last power of two
    (Brent, BIT 20, 1980).  At the first exact repeat T^t x, which equals
    T^(t - period) x (x itself when t == period), the walk stops and
    returns the period; it returns 0 when no state repeated.
    """
    saved, saved_k, due = state, 0, 1
    for k in range(1, n_steps + 1):
        state = f(state)
        record(state)
        if state == saved:
            return k - saved_k
        if k == due:
            saved, saved_k, due = state, k, 2 * k
    return 0


def compact_walk(f: Callable[[Point], Point], state: Point, n_steps: int, dtype) -> Walk:
    """The orbit points T x .. T^n x of ``state`` under ``f``, walked up to the first repeat.

    A state is a number, giving rows of an (m,) array, or a list of two,
    giving rows of an (m, 2) array.  A float or int64 ``dtype`` records raw
    machine values (``array``), ``object`` Python ints.  After a repeat the
    rows past the cycle's first lap are dropped, so each state is held once.
    """
    pair = isinstance(state, list)
    if dtype is object:
        store = []
        record = store.extend if pair else store.append
    else:
        store = array(np.dtype(dtype).char)
        record = store.fromlist if pair else store.append
    period = cycle_walk(f, state, n_steps, record)
    points = np.array(store, dtype=object) if dtype is object else np.frombuffer(store, dtype)
    if pair:
        points = points.reshape(-1, 2)
    if not period:
        return Walk(points, 0, 0, n_steps)
    # the tail ends at the first row whose state recurs a period on, bit
    # for bit: 0.0 == -0.0, but only equal bits are sure to map alike.
    # Without such a row the repeat was a -0.0 of a 0.0, and the cycle is
    # the last period rows, as the walk met it
    bits = points.view(np.int64) if points.dtype == np.float64 else points
    same = bits[: len(bits) - period] == bits[period:]
    if pair:
        same = same.all(axis=1)
    tail = int(np.argmax(same)) if same.any() else len(points) - period
    return Walk(points[: tail + period], tail, period, n_steps)


def walk_block(walk: Callable[[Point, int], tuple[Walk, Point]]):
    """The ``Flow.block`` of a ``Flow.walk``: each walk's points, tiled past the repeat."""

    def block(x: Point, n_steps: int) -> tuple[Any, Point]:
        orbit, last = walk(x, n_steps)
        return orbit.tiled(), last

    return block


def _points(flow: Flow, x: Point, n_steps: int) -> tuple[Any, Point]:
    """``flow.block(x, n_steps)``; a flow without ``block`` is stepped into a list."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if flow.block is not None:
        return flow.block(x, n_steps)
    points = []
    for _ in range(n_steps):
        x = flow.step(x)
        points.append(x)
    return points, x


def orbit(flow: Flow, start: Point, n_steps: int) -> list:
    """The first ``n_steps + 1`` orbit points, ``start`` first."""
    return [start, *_points(flow, start, n_steps)[0]]


@dataclass(frozen=True)
class _Cycle:
    """f on an orbit's cycle: from ``start`` on, term i (counted from 0) is
    values[(i - start) % period]."""

    values: np.ndarray
    start: int


_NO_VALUES = np.empty(0, dtype=complex)


def _observed_orbit(
    flow: Flow, observable: Observable, start: Point, n_terms: int
) -> Iterator[tuple[np.ndarray, _Cycle | None]]:
    """f(T^k x) for k = 1..n_terms, one ``(head, cycle)`` pair per ``_blocks`` chunk.

    ``head`` holds the chunk's values up to the orbit's cycle, all of them
    until a walk meets a repeat.  ``cycle`` is None until then, and from
    the chunk in which the cycle begins on it gives every later value: f
    was evaluated once on each state of that walk, and no later chunk is
    walked or evaluated.
    """
    x = start
    if flow.reduce is not None and observable.level is not None:
        flow, x = flow.reduce(x, observable.level)
    evaluate = observable.eval_block or (lambda points: list(map(observable.eval, points)))

    def values_of(points, n_points: int) -> np.ndarray:
        values = np.asarray(evaluate(points), dtype=complex)
        if values.shape != (n_points,):
            raise ValueError(
                f"{observable.name} gave values of shape {values.shape} "
                f"for {n_points} points of {flow.name}"
            )
        return values

    cycle = None
    for lo, hi in _blocks(n_terms):
        if cycle is not None:
            yield _NO_VALUES, cycle
        elif flow.walk is None:
            points, x = _points(flow, x, hi - lo)
            yield values_of(points, hi - lo), None
        else:
            walked, x = flow.walk(x, hi - lo)
            values = values_of(walked.points, walked.size)
            if walked.period:
                cycle = _Cycle(values[walked.tail :], lo + walked.tail)
                values = values[: walked.tail]
            yield values, cycle


def _observable_stream(
    flow: Flow, observable: Observable, start: Point, n_terms: int
) -> Iterator[np.ndarray]:
    """f(T^k x) for k = 1..n_terms, in the weight builders' 4096-term chunks (``_blocks``)."""
    observed = _observed_orbit(flow, observable, start, n_terms)
    for (lo, hi), (head, cycle) in zip(_blocks(n_terms), observed):
        if len(head) < hi - lo:
            k = np.arange(lo + len(head), hi) - cycle.start
            head = np.concatenate((head, cycle.values[k % len(cycle.values)]))
        yield head


def orbit_distance_trace(flow: Flow, x: Point, z: Point, n_steps: int) -> np.ndarray:
    """Distances d(T^n x, T^n z) for n = 1..n_steps along synchronized orbits."""
    us, vs = _points(flow, x, n_steps)[0], _points(flow, z, n_steps)[0]
    if isinstance(us, np.ndarray) and us.ndim == 1:
        us, vs = us.tolist(), vs.tolist()  # floats: dist runs faster on them than on numpy scalars
    return np.fromiter(map(flow.dist, us, vs), dtype=float, count=n_steps)


def circle_distance(a: float, b: float) -> float:
    """Arc-length metric on the unit circle R/Z (total length 1)."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _distance_excess(flow: Flow, rng, n_pairs: int, n_steps: int) -> Iterator[np.ndarray]:
    """d(T^n x, T^n y) - d(x, y) for n = 1..n_steps, for each of ``n_pairs`` sampled pairs."""
    if flow.sample is None:
        raise ValueError(f"flow {flow.name} has no sampler")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    for _ in range(n_pairs):
        x, y = flow.sample(rng), flow.sample(rng)
        yield orbit_distance_trace(flow, x, y, n_steps) - flow.dist(x, y)


def isometry_defect(
    flow: Flow, rng: np.random.Generator, n_pairs: int = 100, n_steps: int = 100
) -> float:
    """Worst |d(T^n x, T^n y) - d(x, y)| over sampled pairs and n <= n_steps."""
    return max(float(np.max(np.abs(e))) for e in _distance_excess(flow, rng, n_pairs, n_steps))


def lipschitz_one_defect(flow: Flow, rng: np.random.Generator, n_pairs: int = 1000) -> float:
    """Worst d(Tx, Ty) - d(x, y) over sampled pairs (<= 0 for 1-Lipschitz maps)."""
    return max(e[0] for e in _distance_excess(flow, rng, n_pairs, 1))
