"""Circle rotations and a constructive Denjoy counter-example.

The Denjoy map is realized from one wandering-gap orbit: gap n has length
proportional to 1/(n^2 + 2) and sits at the cumulative mass of all gaps
whose rotation-orbit point precedes it.  Iteration on the invariant Cantor
set is done symbolically (index shifts in the gap table), so deep orbits
carry no float drift; interval interiors map affinely gap-to-gap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
import numpy.random

from .flows import Flow, circle_distance
from .sequences import KahanSum, rational_phases

# sum over all integers n of 1/(n^2 + 2) in closed form
_FULL_GAP_SUM = math.pi / math.sqrt(2.0) / math.tanh(math.sqrt(2.0) * math.pi)


class TruncationError(ValueError):
    """A symbolic index or horizon ran past the stored gap range."""


def rotation_flow(rho: float) -> Flow:
    """Rigid rotation by ``rho`` on the circle [0, 1) with arc metric.

    ``block`` is the closed form x + k rho mod 1, reduced exactly from the
    float start and ``rho`` and rounded once per point: up to 8 points in
    Python ints, which cost less there than ``rational_phases``'s numpy calls.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rotation angle must lie in [0, 1)")
    b, e = rho.as_integer_ratio()

    def step(x: float) -> float:
        return (x + rho) % 1.0

    def block(x: float, n_steps: int):
        if n_steps > 8 or not math.isfinite(x):  # rational_phases rejects a non-finite x
            points = rational_phases([x, rho], np.arange(n_steps + 1))
            return points[1:], float(points[-1])
        a, d = float(x).as_integer_ratio()
        D = max(d, e)
        a, s = a * (D // d), b * (D // e)
        phases = [(a + k * s) % D / D % 1.0 for k in range(n_steps + 1)]  # 1.0 is 0 mod 1
        return np.array(phases[1:]), phases[-1]

    return Flow(
        name=f"rotation(rho={rho:.12g})",
        step=step,
        dist=circle_distance,
        sample=lambda rng: float(rng.random()),
        parse=float,
        block=block,
    )


@dataclass(frozen=True, eq=False)
class DenjoyMap:
    """Semi-conjugate-to-rotation circle homeomorphism with a wandering orbit.

    ``raw_lengths[n]`` is c/(n^2+2) (the full-series normalization, so the
    raw lengths over all of Z sum to one); realized lengths rescale the
    truncated mass to tile [0, 1) exactly.  ``tail_mass`` is the exact raw
    mass dropped by the truncation and drives every accuracy contract.
    The orbit points x_n = n * rho mod 1 are reduced exactly from the float
    ``rotation`` and rounded once (``sequences.rational_phases``).
    """

    rotation: float
    truncation: int
    scale: float = field(init=False)
    tail_mass: float = field(init=False)
    tail_bound: float = field(init=False)

    def __post_init__(self) -> None:
        if self.truncation < 1000:
            raise ValueError("truncation must be >= 1e3 for usable accuracy")
        if not 0.0 < self.rotation < 1.0:
            raise ValueError("rotation number must lie in (0, 1)")
        n_tr = self.truncation
        scale = 1.0 / _FULL_GAP_SUM
        indices = np.arange(-n_tr, n_tr + 1)
        raw = scale / (indices.astype(float) ** 2 + 2.0)
        trunc_mass = math.fsum(raw)
        tail_mass = 1.0 - trunc_mass
        tail_bound = 2.0 * scale / (n_tr - 1.0)
        # orbit points n * rho mod 1 of the underlying rotation, exact
        pos = rational_phases([0, self.rotation], indices)
        order = np.argsort(pos)
        pos_sorted = pos[order]
        spacing = np.diff(pos_sorted)
        if not spacing.all():
            raise ValueError(
                f"rotation number {self.rotation!r} repeats orbit points within "
                f"truncation {n_tr} ({np.count_nonzero(spacing) + 1} of {len(pos)} "
                f"distinct); the Denjoy construction needs an irrational rotation number"
            )
        realized = raw / trunc_mass
        lefts_sorted = np.concatenate([[0.0], np.cumsum(realized[order])[:-1]])
        lefts = np.empty_like(lefts_sorted)
        lefts[order] = lefts_sorted
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "tail_mass", tail_mass)
        object.__setattr__(self, "tail_bound", tail_bound)
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_realized", realized)
        object.__setattr__(self, "_orbit_pos", pos)
        object.__setattr__(self, "_lefts", lefts)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_lefts_sorted", lefts_sorted)
        object.__setattr__(self, "_pos_sorted", pos_sorted)

    # -- table access ---------------------------------------------------

    def _slot(self, n: int) -> int:
        if abs(n) > self.truncation:
            raise TruncationError(f"gap index {n} outside truncation {self.truncation}")
        return n + self.truncation

    def gap_left(self, n: int) -> float:
        return float(self._lefts[self._slot(n)])

    def gap_length(self, n: int) -> float:
        return float(self._realized[self._slot(n)])

    def raw_length(self, n: int) -> float:
        return float(self._raw[self._slot(n)])

    def orbit_point(self, n: int) -> float:
        """The rotation-orbit point x_n = n * rho (mod 1) the gap collapses to."""
        return float(self._orbit_pos[self._slot(n)])

    def endpoint(self, n: int, side: str) -> float:
        """Coordinate of a gap endpoint; side is 'left' or 'right'."""
        if side == "left":
            return self.gap_left(n)
        if side == "right":
            return self.gap_left(n) + self.gap_length(n)
        raise ValueError("side must be 'left' or 'right'")

    def locate(self, x: float) -> int:
        """Index of the gap whose half-open interval contains x."""
        x = x % 1.0
        rank = bisect_right(self._lefts_sorted, x) - 1
        return int(self._indices[self._order[rank]])

    # -- dynamics ---------------------------------------------------------

    def step(self, x: float) -> float:
        """One application of the homeomorphism.

        Interior points map affinely onto the next gap; past the stored
        range the image collapses to the insertion position of the next
        rotation-orbit point, an error within the tail mass.
        """
        x = x % 1.0
        n = self.locate(x)
        if n + 1 <= self.truncation:
            frac = (x - self.gap_left(n)) / self.gap_length(n)
            return self.gap_left(n + 1) + frac * self.gap_length(n + 1)
        target = (self.orbit_point(self.truncation) + self.rotation) % 1.0
        rank = int(np.searchsorted(self._pos_sorted, target))
        return float(self._lefts_sorted[rank % len(self._lefts_sorted)])  # len wraps to 0.0

    def block(self, x: float, n_steps: int):
        """The next ``n_steps`` points, read symbolically off the gap table.

        A point at fraction f of gap n lands at fraction f of gap n + k
        after k steps, so each run inside the table is one gather
        ``lefts[n + k] + f * lens[n + k]``; a point in the last stored gap
        takes one real ``step``.
        """
        points = np.empty(n_steps)
        done = 0
        while done < n_steps:
            x = x % 1.0
            n = self.locate(x)
            run = min(self.truncation - n, n_steps - done)
            if run == 0:
                x = self.step(x)
                points[done] = x
                done += 1
                continue
            slot = self._slot(n)
            frac = (x - self._lefts[slot]) / self._realized[slot]
            ahead = np.arange(slot + 1, slot + run + 1)
            points[done : done + run] = self._lefts[ahead] + frac * self._realized[ahead]
            done += run
            x = float(points[done - 1])
        return points, x

    def semiconjugacy(self, x: float) -> float:
        """h collapsing each gap to its rotation-orbit point: h o T = R o h."""
        return self.orbit_point(self.locate(x))

    def as_flow(self) -> Flow:
        return Flow(
            name=f"denjoy(rho={self.rotation:.12g}, trunc={self.truncation})",
            step=self.step,
            dist=circle_distance,
            sample=lambda rng: float(rng.random()),
            parse=float,
            block=self.block,
        )


def build_denjoy(rotation: float, truncation: int) -> DenjoyMap:
    """Construct the Denjoy map for an irrational rotation number.

    The caller supplies the rotation number (badly approximable values such
    as sqrt(2) - 1 keep the gap table well separated); one whose stored
    orbit points n * rho mod 1 repeat, such as any p/q with q <= 2 *
    truncation, raises ValueError.
    """
    return DenjoyMap(rotation=rotation, truncation=truncation)


# ----------------------------------------------------------------------
# symbolic iteration on the invariant Cantor set

def symbolic_lambda_orbit(
    denjoy: DenjoyMap, endpoint_id: tuple[int, str], n_steps: int
) -> tuple[int, str]:
    """T^k on gap endpoints is an exact index shift: (n, side) -> (n+k, side)."""
    n, side = endpoint_id
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    denjoy._slot(n)  # validates the source index
    target = n + n_steps
    denjoy._slot(target)  # validates the image index
    return (target, side)


def endpoint_orbit_distance(
    denjoy: DenjoyMap,
    first: tuple[int, str],
    second: tuple[int, str],
    n_steps: np.ndarray | int,
) -> np.ndarray:
    """d(T^k a, T^k b) for endpoints a, b, read off the gap table."""
    ks = np.atleast_1d(np.asarray(n_steps, dtype=int))
    n1, s1 = first
    n2, s2 = second
    lo, hi = int(np.min(ks)), int(np.max(ks))
    for n in (n1, n2):
        denjoy._slot(n)
        denjoy._slot(n + lo)
        denjoy._slot(n + hi)
    idx1 = n1 + ks + denjoy.truncation
    idx2 = n2 + ks + denjoy.truncation
    lefts = denjoy._lefts
    lens = denjoy._realized
    a = lefts[idx1] + (lens[idx1] if s1 == "right" else 0.0)
    b = lefts[idx2] + (lens[idx2] if s2 == "right" else 0.0)
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def mls_density_on_lambda(
    denjoy: DenjoyMap,
    first: tuple[int, str],
    second: tuple[int, str],
    eps: float,
    horizon: int,
) -> float:
    """Density of times k <= horizon with d(T^k a, T^k b) >= eps (symbolic)."""
    if first == second:
        return 0.0
    ks = np.arange(1, horizon + 1)
    d = endpoint_orbit_distance(denjoy, first, second, ks)
    return float(np.count_nonzero(d >= eps)) / horizon


def mls_recipe(denjoy: DenjoyMap, eps: float) -> tuple[int, float]:
    """The proof-driven closeness recipe for a target bad-time density eps.

    Returns (range_cut, gap) such that endpoint pairs whose collapsed
    rotation points are within ``gap`` have bad-time density below eps:
    range_cut bounds the indices of gaps longer than the residual mass,
    and gap = eps / (2 * range_cut + 1).
    """
    # smallest symmetric index range whose complement carries mass < eps
    range_cut = denjoy.truncation
    cum = 0.0
    for n in range(denjoy.truncation + 1):
        cum += denjoy.gap_length(n)
        if n > 0:
            cum += denjoy.gap_length(-n)
        if 1.0 - cum < eps:
            range_cut = n
            break
    return range_cut, eps / (2.0 * range_cut + 1.0)


def _convergent_denominators(value: float, max_q: int) -> list[int]:
    """Continued-fraction convergent denominators of value, up to max_q."""
    qs = []
    h_prev, h = 0, 1
    x = value
    for _ in range(64):
        ai = math.floor(x)
        h_prev, h = h, ai * h + h_prev
        if h > max_q:
            break
        if h >= 1:
            qs.append(h)
        rem = x - ai
        if rem < 1e-15:
            break
        x = 1.0 / rem
    return sorted(set(qs))


def close_endpoint_pairs(
    denjoy: DenjoyMap, eps: float, count: int, horizon: int, seed: int = 0
) -> list[tuple[tuple[int, str], tuple[int, str]]]:
    """Endpoint pairs satisfying the closeness recipe for density target eps.

    Pairs are (n, side), (n + q, side') with q a continued-fraction
    denominator of the rotation number, so the collapsed points are within
    the recipe's gap; indices are kept inside the truncation for the
    requested horizon.
    """
    _, gap = mls_recipe(denjoy, eps)
    budget = denjoy.truncation - horizon
    if budget <= 0:
        raise TruncationError("horizon exceeds the stored gap range")
    shift = None
    for q in _convergent_denominators(denjoy.rotation, budget):
        if circle_distance(q * denjoy.rotation % 1.0, 0.0) < gap:
            shift = q
            break
    if shift is None:
        raise TruncationError(
            f"no convergent denominator within truncation achieves gap {gap:.3g}; "
            "increase the truncation"
        )
    rng = np.random.default_rng(seed)
    pairs = []
    span = budget - shift
    for _ in range(count):
        n = int(rng.integers(-span, span + 1))
        s1 = "left" if rng.random() < 0.5 else "right"
        s2 = "left" if rng.random() < 0.5 else "right"
        pairs.append(((n, s1), (n + shift, s2)))
    return pairs


def non_equicontinuity_witness(
    denjoy: DenjoyMap, delta: float
) -> tuple[tuple[int, str], tuple[int, str], int, float]:
    """Endpoints closer than delta that a forward iterate spreads to gap-0 size.

    Returns (a, b, k, separation): a, b are the endpoints of the deep gap
    -k, and T^k carries them onto the endpoints of gap 0, separation equal
    to that gap's full length.
    """
    for k in range(1, denjoy.truncation + 1):
        if denjoy.gap_length(-k) < delta:
            a = (-k, "left")
            b = (-k, "right")
            separation = float(
                endpoint_orbit_distance(denjoy, a, b, np.array([k]))[0]
            )
            return a, b, k, separation
    raise TruncationError(f"no stored gap shorter than delta={delta:.3g}")


# ----------------------------------------------------------------------
# rotation number

def rotation_number(step, start: float, n_steps: int) -> float:
    """Average lift displacement of an orientation-preserving circle map."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    _check_cyclic_monotone(step)
    x = start % 1.0
    total = KahanSum()
    for _ in range(n_steps):
        nxt = step(x) % 1.0
        total.add((nxt - x) % 1.0)
        x = nxt
    return (total.value.real / n_steps) % 1.0


def _cyclic_order(a: float, b: float, c: float) -> int:
    """+1 if a, b, c occur in counterclockwise cyclic order, -1 otherwise."""
    return 1 if ((b - a) % 1.0) < ((c - a) % 1.0) else -1


def _check_cyclic_monotone(step) -> None:
    rng = np.random.default_rng(5)
    for _ in range(128):
        a, b, c = rng.random(3)
        if len({round(v, 12) for v in (a, b, c)}) < 3:
            continue
        if _cyclic_order(a, b, c) != _cyclic_order(step(a) % 1.0, step(b) % 1.0, step(c) % 1.0):
            raise ValueError("map is not an orientation-preserving circle map")


# ----------------------------------------------------------------------
# persistence

def gap_table_csv(denjoy: DenjoyMap) -> str:
    """Position-sorted CSV (n, x_n, H(x_n), raw_len) with construction metadata."""
    rows = sorted(
        range(-denjoy.truncation, denjoy.truncation + 1), key=denjoy.gap_left
    )
    lines = [
        f"# denjoy rho={denjoy.rotation:.17g} trunc={denjoy.truncation} "
        f"scale={denjoy.scale:.17g} tail_mass={denjoy.tail_mass:.17g}",
        "n,x_n,left,raw_len",
    ]
    for n in rows:
        lines.append(
            f"{n},{denjoy.orbit_point(n):.17g},{denjoy.gap_left(n):.17g},"
            f"{denjoy.raw_length(n):.17g}"
        )
    return "\n".join(lines) + "\n"


def load_denjoy(path) -> DenjoyMap:
    """Rebuild a Denjoy map from a persisted gap table."""
    with open(path) as fh:
        header = fh.readline()
    if not header.startswith("# denjoy"):
        raise ValueError("not a denjoy gap table")
    fields = dict(part.split("=") for part in header[len("# denjoy "):].split())
    return DenjoyMap(rotation=float(fields["rho"]), truncation=int(fields["trunc"]))
