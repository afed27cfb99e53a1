"""The quadratic family t - (1+t)x^2 on [-1, 1] and its period-doubling tower.

Cycle location by continuation (iterate from the critical point, then
Newton-polish on the return map), the flip-bifurcation cascade found by
bisection on the cycle multiplier, the doubling renormalization operator,
Schwarzian checks, and the odometer coding of deep attracting cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial

from .flows import Flow, compact_walk, walk_block

CASCADE_ORIGIN = -0.5  # parameter where the fixed points collide (parabolic)
CYCLE_TOL = 1e-10
NESTING_TOL = 1e-9
MAX_POLY_DEGREE = 32


class CycleNotFound(RuntimeError):
    """No periodic cycle of the requested period at the working tolerance."""


class CodingAmbiguous(RuntimeError):
    """A cycle point sits within the nesting tolerance of a separator."""


# ----------------------------------------------------------------------
# maps

@dataclass(frozen=True)
class QuadraticMap:
    """T(x) = t - (1+t) x^2 on [-1, 1], the period-doubling model family."""

    t: float

    def __post_init__(self) -> None:
        if not -0.5 <= self.t <= 1.0:
            raise ValueError("parameter must lie in [-1/2, 1]")

    def __call__(self, x: float) -> float:
        return self.t - (1.0 + self.t) * x * x

    def deriv(self, x: float) -> float:
        return -2.0 * (1.0 + self.t) * x

    degree = 2

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.t, 0.0, -(1.0 + self.t)])

    def fixed_points(self) -> tuple[float, float]:
        """(-1, t/(1+t)): the endpoint fixed point and the interior one."""
        return (-1.0, self.t / (1.0 + self.t))


@dataclass(frozen=True)
class PolyMap:
    """Polynomial self-map of [-1, 1] with the quadratic-like endpoint shape.

    Coefficients ascend; construction checks T(-1) = T(1) = -1 within 1e-9
    and a unique interior critical point.
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        left = self._eval(coeffs, -1.0)
        right = self._eval(coeffs, 1.0)
        if abs(left + 1.0) > 1e-9 or abs(right + 1.0) > 1e-9:
            raise ValueError("endpoints must map to -1 (within 1e-9)")
        dcoeffs = np.polynomial.polynomial.polyder(coeffs)
        roots = np.polynomial.polynomial.polyroots(dcoeffs)
        interior = [
            r.real for r in roots if abs(r.imag) < 1e-9 and -0.999 < r.real < 0.999
        ]
        if len(set(round(r, 6) for r in interior)) != 1:
            raise ValueError("map must have a unique interior critical point")

    @staticmethod
    def _eval(coeffs: np.ndarray, x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    def __call__(self, x):
        return self._eval(self.coefficients, x)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class RenormalizedMap:
    """-T(T(-beta x)) / beta, evaluated through T for maps too deep to compose."""

    base: object
    beta: float

    def __call__(self, x):
        return -self.base(self.base(-self.beta * x)) / self.beta


@dataclass(frozen=True)
class Cycle:
    """An attracting or repelling periodic orbit."""

    period: int
    points: np.ndarray  # sorted
    multiplier: float


# ----------------------------------------------------------------------
# cycle machinery

def _return_value_and_deriv(tmap, x: float, period: int) -> tuple[float, float]:
    val = x
    der = 1.0
    for _ in range(period):
        der *= tmap.deriv(val)
        val = tmap(val)
    return val, der


def _newton_polish(tmap, x0: float, period: int) -> tuple[float, float]:
    """Refine a periodic point of the return map; returns (point, multiplier)."""
    x = x0
    for _ in range(80):
        val, der = _return_value_and_deriv(tmap, x, period)
        f = val - x
        fprime = der - 1.0
        if fprime == 0.0:
            raise CycleNotFound("degenerate Newton step (multiplier 1)")
        step = f / fprime
        x -= step
        if not -1.0 <= x <= 1.0:
            raise CycleNotFound("Newton iterate left the interval")
        if abs(step) < 1e-14:
            val, der = _return_value_and_deriv(tmap, x, period)
            return x, der
    raise CycleNotFound("Newton did not converge")


def _orbit_points(tmap, x: float, period: int) -> np.ndarray:
    return np.concatenate(([x], compact_walk(tmap, float(x), period - 1, float).tiled()))


def _genuine_period(tmap, x: float, period: int) -> bool:
    """Reject cycles that actually close up at a proper divisor of period.

    x and its image after half the period must be more than CYCLE_TOL
    apart, the residual ``find_cycle`` demands of a cycle: on the genuine
    2048-cycle of the cascade they are only 1.4-2.4e-8 apart.
    """
    if period == 1:
        return True
    half = period // 2
    val, _ = _return_value_and_deriv(tmap, x, half)
    return abs(val - x) > CYCLE_TOL


def _attracting_cycle_from_critical(tmap, period: int) -> tuple[float, float]:
    """Iterate the critical orbit until it settles on a period-cycle, then polish."""
    x = tmap(0.0)
    warm = 256 + 8 * period
    for _ in range(warm):
        x = tmap(x)
    prev = x
    for _ in range(40000):
        for _ in range(period):
            x = tmap(x)
        if abs(x - prev) < 1e-11:
            point, mult = _newton_polish(tmap, x, period)
            if not _genuine_period(tmap, point, period):
                raise CycleNotFound("converged to a cycle of lower period")
            return point, mult
        prev = x
    raise CycleNotFound(f"critical orbit did not settle on a {period}-cycle")


def find_cycle(t: float, period: int) -> Cycle:
    """Locate the attracting cycle of the given power-of-two period at t."""
    if period < 1 or period > 2**14 or (period & (period - 1)) != 0:
        raise ValueError("period must be a power of two, at most 2^14")
    tmap = QuadraticMap(t)
    point, mult = _attracting_cycle_from_critical(tmap, period)
    # one walk of two periods: walk[period + k] is the return map at walk[k]
    walk = _orbit_points(tmap, point, 2 * period)
    order = np.sort(walk[:period])
    if period > 1 and np.min(np.diff(order)) < 1e-9:
        raise CycleNotFound("cycle points collapse; period is not genuine")
    # the return-map residual at every cycle point stays within tolerance
    if np.any(np.abs(walk[period:] - walk[:period]) > CYCLE_TOL):
        raise CycleNotFound("cycle fails the periodicity tolerance")
    return Cycle(period=period, points=order, multiplier=mult)


def _tracked_cycle(t: float, seed: float, period: int) -> tuple[float, float]:
    """Newton-continue a known cycle point to a nearby parameter."""
    point, mult = _newton_polish(QuadraticMap(t), seed, period)
    if not _genuine_period(QuadraticMap(t), point, period):
        raise CycleNotFound("tracking drifted to a lower-period cycle")
    return point, mult


# ----------------------------------------------------------------------
# the cascade

@dataclass(frozen=True)
class CascadeResult:
    """Flip-bifurcation parameters t_1 < t_2 < ... and tracker metadata."""

    parameters: np.ndarray

    def __len__(self) -> int:
        return len(self.parameters)

    def ratios(self) -> np.ndarray:
        """(t_n - t_(n-1)) / (t_(n+1) - t_n) for n = 1..len-2 (0-indexed result)."""
        gaps = np.diff(np.concatenate([[CASCADE_ORIGIN], self.parameters]))
        return gaps[:-1] / gaps[1:]


def _bracket_flip(
    t_lo: float, x_lo: float, period: int, step: float, t_cap: float
) -> tuple[float, float, float]:
    """March right from an attracting cycle until the multiplier crosses -1."""
    t, x = t_lo, x_lo
    _, mult = _tracked_cycle(t, x, period)
    h = step
    while True:
        t_next = t + h
        if t_next > t_cap:
            raise CycleNotFound("flip bracket ran past the safety cap")
        try:
            x_next, mult_next = _tracked_cycle(t_next, x, period)
        except CycleNotFound:
            h /= 2
            if h < 1e-15:
                raise
            continue
        if mult_next <= -1.0:
            return t, t_next, x
        t, x, mult = t_next, x_next, mult_next


def _bisect_flip(t_lo: float, t_hi: float, x_seed: float, period: int) -> float:
    """Bisect on multiplier + 1; the cycle root stays simple through the flip."""
    x_lo = x_seed
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        if mid == t_lo or mid == t_hi:
            break
        x_mid, mult = _tracked_cycle(mid, x_lo, period)
        if mult > -1.0:
            t_lo, x_lo = mid, x_mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


@lru_cache(maxsize=None)
def _cascade_cached(n_max: int) -> tuple[float, ...]:
    parameters: list[float] = []
    t_prev = CASCADE_ORIGIN
    # period-1 window: the interior fixed point is attracting from t = 0
    t_lo, x_lo = 0.0, 0.0
    window = 1.0
    for level in range(1, n_max + 1):
        period = 2 ** (level - 1)
        lo, hi, x_seed = _bracket_flip(t_lo, x_lo, period, step=window / 8.0, t_cap=1.0)
        t_n = _bisect_flip(lo, hi, x_seed, period)
        parameters.append(t_n)
        window = t_n - t_prev
        t_prev = t_n
        if level == n_max:
            break
        # seed the doubled cycle inside the next window (near its superstable core)
        predicted = window / 4.669
        seeded = False
        for frac in (0.55, 0.4, 0.7, 0.3, 0.85):
            t_seed = t_n + frac * predicted
            try:
                x_lo, _ = _attracting_cycle_from_critical(QuadraticMap(t_seed), 2 * period)
                t_lo = t_seed
                seeded = True
                break
            except CycleNotFound:
                continue
        if not seeded:
            raise CycleNotFound(f"could not seed the period-{2 * period} window")
        window = predicted
    return tuple(parameters)


def cascade(n_max: int) -> CascadeResult:
    """Parameters t_1 < ... < t_n_max where the 2^(n-1)-cycle multiplier hits -1."""
    if not 1 <= n_max <= 12:
        raise ValueError("n_max must lie in 1..12")
    params = np.array(_cascade_cached(n_max))
    if np.any(np.diff(params) <= 0):
        raise AssertionError("cascade output is not strictly increasing")
    return CascadeResult(params)


@dataclass(frozen=True)
class FeigenbaumEstimate:
    value: float
    error_bar: float
    cascade_parameters: np.ndarray


def feigenbaum_parameter(n_max: int) -> FeigenbaumEstimate:
    """Accumulation point of the cascade by geometric (Aitken) extrapolation.

    The error bar is the spread of the last two extrapolations.
    """
    if n_max < 4:
        raise ValueError("need cascade depth >= 4 to extrapolate")
    params = cascade(n_max).parameters

    def extrapolate(k: int) -> float:
        w_prev = params[k - 1] - params[k - 2]
        w = params[k] - params[k - 1]
        ratio = w_prev / w
        return params[k] + w / (ratio - 1.0)

    last = extrapolate(len(params) - 1)
    prev = extrapolate(len(params) - 2)
    return FeigenbaumEstimate(
        value=last, error_bar=abs(last - prev), cascade_parameters=params
    )


# ----------------------------------------------------------------------
# Schwarzian derivative and renormalization

def schwarzian(map_like, x: float) -> float:
    """T'''/T' - (3/2)(T''/T')^2 via exact polynomial differentiation."""
    if isinstance(map_like, (QuadraticMap, PolyMap)):
        coeffs = map_like.coefficients
    else:
        coeffs = np.asarray(map_like, dtype=float)
    polyder = np.polynomial.polynomial.polyder
    polyval = np.polynomial.polynomial.polyval
    d1 = polyder(coeffs)
    d2 = polyder(d1)
    d3 = polyder(d2)
    tp = polyval(x, d1)
    if tp == 0.0:
        raise ValueError("Schwarzian derivative undefined at a critical point")
    tpp = polyval(x, d2)
    tppp = polyval(x, d3) if len(d3) else 0.0
    return float(tppp / tp - 1.5 * (tpp / tp) ** 2)


def positive_fixed_point(map_like) -> float:
    """The fixed point in (0, 1) of a quadratic-like map, bisected to one ulp."""
    f = lambda x: map_like(x) - x
    lo, hi = 1e-12, 1.0 - 1e-12
    if f(lo) <= 0.0 or f(hi) >= 0.0:
        # fall back to a scan for a sign change
        xs = np.linspace(1e-6, 1.0 - 1e-6, 257)
        vals = f(xs)
        (crossings,) = np.nonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
        if not len(crossings):
            raise ValueError("map has no positive fixed point in (0, 1)")
        lo, hi = xs[crossings[0]], xs[crossings[0] + 1]
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return float(min((lo, hi), key=lambda x: abs(f(x))))


def renormalize(map_like):
    """Doubling renormalization: conjugate the second iterate back to [-1, 1].

    With b the positive fixed point, the renormalized map is
    -T(T(-b x)) / b.  Polynomial inputs are composed exactly while the
    degree stays within MAX_POLY_DEGREE; beyond that, and for any other
    map, the result evaluates that formula through T itself.
    """
    beta = positive_fixed_point(map_like)
    if isinstance(map_like, (QuadraticMap, PolyMap)):
        coeffs, degree = map_like.coefficients, map_like.degree
        if degree**2 <= MAX_POLY_DEGREE:
            inner = coeffs * np.power(-beta, np.arange(degree + 1))
            composed = np.polynomial.Polynomial(coeffs)(np.polynomial.Polynomial(inner)).coef
            return PolyMap(-composed / beta)
    return RenormalizedMap(map_like, beta)


# ----------------------------------------------------------------------
# odometer coding of deep attracting cycles

@dataclass(frozen=True)
class CodingReport:
    depth: int
    orbit: np.ndarray  # cycle points in orbit order, starting nearest the critical point
    words: dict  # orbit index -> digit tuple, least significant first
    word_map: dict  # digit tuple -> digit tuple induced by one application of the map
    is_adding_machine: bool


def _increment(word: tuple[int, ...]) -> tuple[int, ...]:
    digits = list(word)
    for i, d in enumerate(digits):
        if d == 0:
            digits[i] = 1
            return tuple(digits)
        digits[i] = 0
    return tuple(digits)


def _repelling_cycle_points(t: float, level: int, cascade_params: np.ndarray) -> np.ndarray:
    """The (repelling at t) cycle of period 2^level, by parameter continuation."""
    if level == 0:
        return np.array([QuadraticMap(t).fixed_points()[1]])
    period = 2**level
    lo, hi = cascade_params[level - 1], cascade_params[level]
    t_start = lo + 0.45 * (hi - lo)
    point, _ = _attracting_cycle_from_critical(QuadraticMap(t_start), period)
    for t_step in np.linspace(t_start, t, 24)[1:]:
        point, _ = _newton_polish(QuadraticMap(t_step), point, period)
    return _orbit_points(QuadraticMap(t), point, period)


def attractor_coding(
    t: float, depth: int, nesting_tol: float = NESTING_TOL
) -> CodingReport:
    """Code the attracting 2^depth-cycle by nested separator intervals.

    Each level splits every cluster at the unique repelling lower-period
    point inside its hull; the sub-cluster holding the cluster's earliest
    visit of the critical orbit takes digit 0.  The report records whether
    one application of the map acts on the resulting binary words as the
    odometer (+1 with carry, least significant digit first).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    params = cascade(depth + 1).parameters
    if not params[depth - 1] < t <= params[depth]:
        raise ValueError(
            f"no attracting 2^{depth}-cycle at t={t:.6f}; "
            f"window is ({params[depth - 1]:.6f}, {params[depth]:.6f}]"
        )
    period = 2**depth
    tmap = QuadraticMap(t)
    anchor0, _ = _attracting_cycle_from_critical(tmap, period)
    orbit = _orbit_points(tmap, anchor0, period)
    start = int(np.argmin(np.abs(orbit)))
    orbit = np.concatenate([orbit[start:], orbit[:start]])  # orbit[0] closest to 0

    separators = [
        _repelling_cycle_points(t, level, params) for level in range(depth)
    ]

    words: dict[int, list[int]] = {j: [] for j in range(period)}

    def assign(indices: list[int], level: int) -> None:
        if level == depth:
            return
        pts = orbit[indices]
        lo, hi = float(np.min(pts)), float(np.max(pts))
        inside = [s for s in separators[level] if lo < s < hi]
        if len(inside) != 1:
            raise CodingAmbiguous(
                f"expected one separator in cluster hull at level {level}, "
                f"found {len(inside)}"
            )
        sep = inside[0]
        if np.min(np.abs(pts - sep)) < nesting_tol:
            raise CodingAmbiguous("cycle point within nesting tolerance of separator")
        left = [j for j in indices if orbit[j] < sep]
        right = [j for j in indices if orbit[j] > sep]
        if len(left) != len(right):
            raise CodingAmbiguous("separator split is unbalanced")
        anchor = min(indices)
        zero_side, one_side = (left, right) if anchor in left else (right, left)
        for j in zero_side:
            words[j].append(0)
        for j in one_side:
            words[j].append(1)
        assign(zero_side, level + 1)
        assign(one_side, level + 1)

    assign(list(range(period)), 0)
    word_of = {j: tuple(w) for j, w in words.items()}
    word_map = {
        word_of[j]: word_of[(j + 1) % period] for j in range(period)
    }
    is_odometer = all(
        word_map[w] == _increment(w) for w in word_map
    )
    return CodingReport(
        depth=depth,
        orbit=orbit,
        words=word_of,
        word_map=word_map,
        is_adding_machine=is_odometer,
    )


# ----------------------------------------------------------------------
# basins

@dataclass(frozen=True)
class BasinProbe:
    period: int
    cycle: np.ndarray
    phase: int
    cesaro_trace: float


def basin_probe(t: float, x: float, n_steps: int) -> BasinProbe:
    """Identify the attracting cycle, of period at most 2^10, of the orbit of x.

    The Cesaro trace is (1/N) sum d(T^n x, T^n z) with z the cycle point
    whose phase minimizes the trace.
    """
    tmap = QuadraticMap(t)
    orbit, _ = quadratic_flow(t).block(x, n_steps)
    burn = min(n_steps, 20000)
    y = float(orbit[burn - 1]) if burn else x
    period = None
    for candidate in (2**k for k in range(11)):
        val, _ = _return_value_and_deriv(tmap, y, candidate)
        if abs(val - y) < 1e-9 and _genuine_period(tmap, y, candidate):
            period = candidate
            break
    if period is None:
        raise CycleNotFound("orbit did not settle on a power-of-two cycle")
    point, _ = _newton_polish(tmap, y, period)
    cycle = _orbit_points(tmap, point, period)
    n = np.arange(1, n_steps + 1)
    traces = [np.abs(orbit - cycle[(phase + n) % period]).mean() for phase in range(period)]
    phase = int(np.argmin(traces))
    return BasinProbe(
        period=period,
        cycle=cycle,
        phase=phase,
        cesaro_trace=float(traces[phase]),
    )


def quadratic_flow(t: float) -> Flow:
    """The quadratic family member as a metric flow on [-1, 1].

    ``step`` is the map itself; ``walk`` walks it on Python floats with
    ``flows.compact_walk``.
    """
    tmap = QuadraticMap(t)

    def parse(raw: str) -> float:
        x = float(raw)
        if not -1.0 <= x <= 1.0:
            raise ValueError(f"start {raw!r} must lie in [-1, 1]")
        return x

    def walk(x: float, n_steps: int):
        orbit = compact_walk(tmap, float(x), n_steps, float)
        return orbit, float(orbit.last(x))

    return Flow(
        name=f"quadratic_family(t={t:g})",
        step=tmap,
        dist=lambda a, b: abs(a - b),
        sample=lambda rng: float(rng.uniform(-1.0, 1.0)),
        parse=parse,
        block=walk_block(walk),
        walk=walk,
    )
