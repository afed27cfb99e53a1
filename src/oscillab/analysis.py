"""Weighted Birkhoff averaging and empirical stability probes.

The disjointness engine streams one orbit, accumulates the weighted
average of an observable with compensated summation, and classifies the
decay of the checkpointed magnitudes.  Companion probes measure
mean-equicontinuity responses, bad-time densities, periodic shadowing,
and orbit autocorrelations (the Fourier coefficients of the spectral
measure of the observable).  None of them steps a flow itself: each
reads an orbit stream of ``flows``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import numpy.random

from .flows import Flow, Observable, _observable_stream, orbit, orbit_distance_trace
from .sequences import KahanSum, WeightSequence, cesaro_mean

# verdict thresholds: empirical separation between the decaying examples
# and the exact stagnant counterexample; configuration, not truth
DECAY_SLOPE = -0.1
STAGNANT_SLOPE = -0.02
DECAY_FINAL_LEVEL = 0.05
ATOM_LEVEL = 0.05  # a Cesaro mean below this at every candidate atom is clear


def default_checkpoints(n_max: int) -> list[int]:
    """Half-decade grid 100, 316, 1000, ... capped at n_max."""
    points = []
    k = 4
    while True:
        n = round(10 ** (k / 2))
        if n >= n_max:
            break
        if n >= 100:
            points.append(n)
        k += 1
    points.append(n_max)
    return points


@dataclass(frozen=True)
class DisjointnessReport:
    """Checkpointed weighted Birkhoff averages and their decay verdict."""

    sequence: str
    flow: str
    observable: str
    start: str
    checkpoints: tuple[tuple[int, complex], ...]
    decay_slope: float
    verdict: str  # 'decaying' | 'stagnant' | 'inconclusive'
    limit_estimate: complex | None
    sup_observed: float

    def final_value(self) -> complex:
        return self.checkpoints[-1][1]

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "flow": self.flow,
            "observable": self.observable,
            "start": self.start,
            "checkpoints": [
                {"N": n, "re": s.real, "im": s.imag} for n, s in self.checkpoints
            ],
            "slope": self.decay_slope,
            "verdict": self.verdict,
        }


def checked_checkpoints(checkpoints, n_terms: int) -> list[int]:
    """``checkpoints`` as ints; refused unless integers, non-empty, increasing and in 1..n_terms."""
    try:
        checkpoints = [operator.index(n) for n in checkpoints]
    except TypeError:
        raise ValueError("checkpoints must be integers") from None
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > n_terms:
        raise ValueError(f"checkpoints must lie in 1..N, N = {n_terms}")
    return checkpoints


def weighted_birkhoff(
    weights: WeightSequence,
    flow: Flow,
    observable: Observable,
    start,
    checkpoints=None,
) -> DisjointnessReport:
    """Stream (1/N) sum c_n f(T^n x) and classify its decay.

    The weights are read one chunk per block of the observable stream, up
    to the last checkpoint, so streamed weights are never held whole.  The
    verdict fits the slope of log |S_N| against log N over the last half of
    the checkpoints and compares the final |S_N| with the floor
    DECAY_FINAL_LEVEL * growth_bound * sup |f| on the orbit: a clearly
    negative slope below the floor reads 'decaying', a flat tail at or
    above it reads 'stagnant', anything else is 'inconclusive'.
    """
    return _birkhoff_report(weights, flow, observable, start, checkpoints, repr(start))


def _birkhoff_report(
    weights: WeightSequence,
    flow: Flow,
    observable: Observable,
    start,
    checkpoints,
    start_text: str,
) -> DisjointnessReport:
    """``weighted_birkhoff`` with ``start_text`` as the report's start."""
    if checkpoints is None:
        checkpoints = default_checkpoints(len(weights))
    checkpoints = checked_checkpoints(checkpoints, len(weights))
    acc = KahanSum()
    sup_observed = 0.0
    recorded: list[tuple[int, complex]] = []
    lo = 0  # terms 1..lo are in acc
    stream = _observable_stream(flow, observable, start, checkpoints[-1])
    for block, chunk in zip(stream, weights.chunks()):
        # hypot is what abs(complex) computes; np.abs can differ by an ulp
        mags = np.hypot(block.real, block.imag)
        block_sup = float(np.max(mags))
        if not math.isfinite(block_sup):
            raise ValueError(f"observable is not finite on the orbit of {start!r}")
        sup_observed = max(sup_observed, block_sup)
        terms = chunk[: len(block)] * block
        cut = 0  # terms[:cut] are in acc
        for n in [n for n in checkpoints if lo < n <= lo + len(block)]:
            acc.add(complex(terms[cut : n - lo].sum()))
            cut = n - lo
            recorded.append((n, acc.value / n))
        acc.add(complex(terms[cut:].sum()))
        lo += len(block)
    slope = _fit_tail_slope(recorded)
    final_mag = abs(recorded[-1][1])
    floor = DECAY_FINAL_LEVEL * weights.growth_bound * max(sup_observed, 1e-300)
    if slope < DECAY_SLOPE and final_mag < floor:
        verdict = "decaying"
        limit = None
    elif slope > STAGNANT_SLOPE and final_mag >= floor:
        verdict = "stagnant"
        limit = recorded[-1][1]
    else:
        verdict = "inconclusive"
        limit = None
    return DisjointnessReport(
        sequence=weights.name,
        flow=flow.name,
        observable=observable.name,
        start=start_text,
        checkpoints=tuple(recorded),
        decay_slope=slope,
        verdict=verdict,
        limit_estimate=limit,
        sup_observed=sup_observed,
    )


def _fit_tail_slope(recorded) -> float:
    tail = recorded[len(recorded) // 2 :]
    if len(tail) < 2:
        tail = recorded
    if len(tail) < 2:
        return 0.0  # a single checkpoint carries no decay evidence
    logs_n = np.log([n for n, _ in tail])
    logs_s = np.log([max(abs(s), 1e-300) for _, s in tail])
    slope, _ = np.polyfit(logs_n, logs_s, 1)
    return float(slope)


# ----------------------------------------------------------------------
# stability probes

def mean_equicontinuity_probe(flow: Flow, pairs, n_steps: int) -> float:
    """Worst prefix-Cesaro orbit distance over the supplied close pairs."""
    worst = max((mean_attraction_test(flow, x, y, n_steps) for x, y in pairs), default=None)
    if worst is None:
        raise ValueError("pairs must be non-empty")
    return worst


def mean_equicontinuity_curve(
    flow: Flow, pair_sampler, deltas, n_steps_for, n_pairs: int = 8, seed: int = 0
):
    """Response curve delta -> worst Cesaro distance.

    ``pair_sampler(delta, rng)`` yields one close pair; ``n_steps_for``
    maps delta to the averaging horizon (longer horizons are needed at
    small separations to see genuine non-collapse).
    """
    rng = np.random.default_rng(seed)
    curve = []
    for delta in deltas:
        pairs = [pair_sampler(delta, rng) for _ in range(n_pairs)]
        curve.append((delta, mean_equicontinuity_probe(flow, pairs, n_steps_for(delta))))
    return curve


@dataclass(frozen=True)
class DensityEstimate:
    """Bad-time counts along prefixes and the resulting upper density."""

    bad_counts: tuple[tuple[int, int], ...]
    upper_density: float


def mls_bad_density(flow: Flow, x, y, eps: float, n_steps: int) -> DensityEstimate:
    """Density of times with d(T^n x, T^n y) >= eps, tracked along prefixes."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    bad = np.cumsum(orbit_distance_trace(flow, x, y, n_steps) >= eps)
    recorded = [(n, int(bad[n - 1])) for n in default_checkpoints(n_steps)]
    rates = [c / n for n, c in recorded if n >= 0.1 * n_steps]  # includes n_steps itself
    return DensityEstimate(bad_counts=tuple(recorded), upper_density=max(rates))


def mean_attraction_test(flow: Flow, x, z, n_steps: int) -> float:
    """(1/N) sum_{n<=N} d(T^n x, T^n z)."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    return float(orbit_distance_trace(flow, x, z, n_steps).sum()) / n_steps


def shadow_periodic(flow: Flow, x, eps: float, horizon: int):
    """Find (tau, phase) so the orbit eps-shadows a periodic cycle from tau on.

    The candidate cycle (period <= 64, and <= horizon/4 so that it can pass
    the drift check) is read off the orbit tail; the shadowing claim is
    verified at every time up to the horizon.  Returns None when no
    periodic cycle shadows the orbit at this eps (e.g. irrational rotations).
    """
    points = orbit(flow, x, horizon)
    period = None
    for p in range(1, min(64, horizon // 4) + 1):
        tail_ok = all(
            flow.dist(points[-1 - m], points[-1 - m - p]) < eps / 4.0
            for m in range(2 * p)
        )
        if tail_ok:
            period = p
            break
    if period is None:
        return None
    cycle = points[-period:]
    # phase alignment: points[horizon] corresponds to cycle[period-1]
    def cycle_at(n: int):
        return cycle[(period - 1 + n - horizon) % period]

    bad_last = 0
    for n in range(horizon + 1):
        if flow.dist(points[n], cycle_at(n)) >= eps:
            bad_last = n + 1
    if bad_last > horizon - 4 * period:
        return None  # drift persists to the end: not genuine shadowing
    tau = bad_last
    phase = (period - 1 + tau - horizon) % period
    return tau, phase


# ----------------------------------------------------------------------
# spectral measure diagnostics

def autocorrelation_spectrum(
    flow: Flow, observable: Observable, start, n_lags: int, n_terms: int
) -> np.ndarray:
    """gamma(k) = (1/N) sum f(T^(n+k) x) conj(f(T^n x)) for k = 0..n_lags.

    These are the Fourier coefficients of the observable's spectral
    measure.  The orbit is streamed in blocks; only a lag window of
    observable values is carried across blocks.
    """
    if not 0 <= n_lags < n_terms:
        raise ValueError(f"n_lags must lie in 0..n_terms - 1, got {n_lags} for n_terms {n_terms}")
    accs = [KahanSum() for _ in range(n_lags + 1)]
    carry = np.empty(0, dtype=complex)
    produced = 0  # observable values emitted so far; value index n runs 1..N+K
    for block in _observable_stream(flow, observable, start, n_terms + n_lags):
        ext = np.concatenate([carry, block])
        base = produced - len(carry)  # ext[i] holds the value with index base+i+1
        for k in range(n_lags + 1):
            # each pair (n, n+k) is charged to the block holding index n+k
            lo = max(len(carry), k)
            hi = min(len(ext), n_terms + k - base)  # n = base+i+1-k must stay <= N
            if hi <= lo:
                continue
            accs[k].add(complex(np.vdot(ext[lo - k : hi - k], ext[lo:hi])))
        carry = ext[len(ext) - n_lags :] if n_lags else np.empty(0, dtype=complex)
        produced += len(block)
    return np.array([acc.value for acc in accs]) / n_terms


# ----------------------------------------------------------------------
# spectral-support gate

@dataclass(frozen=True)
class HookedReport:
    atom_means: dict
    spectral_clear: bool
    birkhoff: DisjointnessReport
    verdict: str  # 'supported' | 'resonant' | 'mixed'


def hooked_disjointness(
    weights: WeightSequence,
    flow: Flow,
    observable: Observable,
    start,
    support_atoms,
    checkpoints=None,
) -> HookedReport:
    """Check the sequence's Cesaro means at candidate spectral atoms, then average.

    If every atom mean is small the decay hypothesis applies and the
    Birkhoff average should decay ('supported'); a resonant atom paired
    with a stagnant average is 'resonant'; disagreement is 'mixed'.  Each
    atom goes to ``cesaro_mean`` as given, so a ``Fraction`` r/s is exact.
    Every atom mean and the average read the weights' chunks, so no N-term
    array is built for streamed arithmetic or periodic phase weights;
    streamed weights are sieved once per atom and once for the average.
    """
    atom_means = {t: cesaro_mean(weights, t) for t in support_atoms}
    spectral_clear = all(abs(v) < ATOM_LEVEL for v in atom_means.values())
    report = weighted_birkhoff(weights, flow, observable, start, checkpoints)
    if spectral_clear and report.verdict == "decaying":
        verdict = "supported"
    elif not spectral_clear and report.verdict == "stagnant":
        verdict = "resonant"
    else:
        verdict = "mixed"
    return HookedReport(
        atom_means=atom_means,
        spectral_clear=spectral_clear,
        birkhoff=report,
        verdict=verdict,
    )


# ----------------------------------------------------------------------
# averaged Holder bound

def holder_defect(
    weights: WeightSequence,
    flow: Flow,
    observable: Observable,
    x,
    y,
    n_terms: int,
) -> float:
    """|S_N f(x) - S_N f(y)| minus its averaged Holder bound (<= 0 up to rounding).

    The bound is growth_bound * ((1/N) sum |f(T^n x) - f(T^n y)|^q)^(1/q)
    with q conjugate to the growth exponent.  Like ``weighted_birkhoff``,
    it reads the weights chunk by chunk, up to n_terms.
    """
    if not 1 <= n_terms <= len(weights):
        raise ValueError(f"n_terms must lie in 1..{len(weights)}, got {n_terms}")
    q = weights.growth_exponent / (weights.growth_exponent - 1.0)
    acc_x = KahanSum()
    acc_y = KahanSum()
    diff_sum = 0.0
    for fu, fv, chunk in zip(
        _observable_stream(flow, observable, x, n_terms),
        _observable_stream(flow, observable, y, n_terms),
        weights.chunks(),
    ):
        c = chunk[: len(fu)]
        acc_x.add(complex((c * fu).sum()))
        acc_y.add(complex((c * fv).sum()))
        diff_sum += float((np.abs(fu - fv) ** q).sum())
    lhs = abs(acc_x.value - acc_y.value) / n_terms
    rhs = weights.growth_bound * (diff_sum / n_terms) ** (1.0 / q)
    return lhs - rhs
