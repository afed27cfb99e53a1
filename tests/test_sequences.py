import cmath
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    cyclotomic_polynomial,
    progression_mean,
    reference_growth_bound,
    reference_liouville,
    reference_mobius,
)
from oscillab import analysis, registry
from oscillab import sequences as seq

ALPHA = math.sqrt(2.0) - 1.0
CHUNK = seq._BLOCK
# parameters for every registered sequence
REGISTRY_PARAMS = {
    "mobius": {},
    "liouville": {},
    "quadratic_phase": {"alpha": "0.25"},
    "nlogn_phase": {"c": "0.7"},
    "polynomial_phase": {"coeffs": "0.1,0.3,0.125"},
    "subnormal": {"tau": "0.3"},
}


def brute_mobius(n):
    if n == 1:
        return 1
    count = 0
    m = n
    for p in range(2, n + 1):
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            count += 1
            if m % p == 0:
                return 0
    if m > 1:
        count += 1
    return (-1) ** count


def brute_omega(n):
    count = 0
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            count += 1
        p += 1
    if m > 1:
        count += 1
    return count


@pytest.fixture(scope="module")
def factorized():
    """mu(n) and (-1)^Omega(n) for n = 1..2*10^4, by trial division."""
    ns = range(1, 20_001)
    return (
        np.array([brute_mobius(n) for n in ns]),
        np.array([(-1) ** brute_omega(n) for n in ns]),
    )


class TestArithmeticSequences:
    def test_mobius_n1(self):
        assert list(seq.mobius(1)) == [1]

    def test_mobius_small_values(self):
        mu = seq.mobius(30)
        assert mu[6 - 1] == 1
        assert mu[12 - 1] == 0
        assert mu[30 - 1] == -1

    def test_mobius_against_factorization(self):
        mu = seq.mobius(500)
        for n in range(1, 501):
            assert mu[n - 1] == brute_mobius(n), n

    def test_mobius_mean_small(self):
        mu = seq.mobius(10**6)
        assert abs(mu.sum()) / 10**6 < 0.01

    def test_liouville_small_values(self):
        ell = seq.liouville(8)
        assert ell[1 - 1] == 1
        assert ell[4 - 1] == 1
        assert ell[8 - 1] == -1

    def test_liouville_completely_multiplicative(self, rng):
        ell = seq.liouville(10**4)
        for _ in range(1000):
            a = int(rng.integers(1, 100))
            b = int(rng.integers(1, 100))
            assert ell[a * b - 1] == ell[a - 1] * ell[b - 1]

    def test_liouville_against_omega(self):
        ell = seq.liouville(200)
        for n in range(1, 201):
            assert ell[n - 1] == (-1) ** brute_omega(n)

    # mobius sieves the primes up to sqrt(N), and liouville adds mu at every
    # square d^2 <= N: N at and around prime and composite squares
    @pytest.mark.parametrize(
        "n_max",
        [1, 2, 3, 4, 20_000]
        + [p * p + d for p in (2, 3, 5, 7, 11, 101, 139) for d in (-1, 0, 1)]
        + [q * q + d for q in (4, 6, 8, 9, 10, 12, 100, 141) for d in (-1, 0, 1)],
    )
    def test_sieves_against_factorization(self, n_max, factorized):
        mobius, liouville = factorized
        assert np.array_equal(seq.mobius(n_max), mobius[:n_max])
        assert np.array_equal(seq.liouville(n_max), liouville[:n_max])


class TestWeightSequence:
    def test_growth_bound_is_prefix_supremum(self, rng):
        values = rng.normal(size=50) + 1j * rng.normal(size=50)
        w = seq.WeightSequence("gauss", values, 2.0)
        brute = max(
            (np.mean(np.abs(values[:n]) ** 2)) ** 0.5 for n in range(1, 51)
        )
        assert w.growth_bound == pytest.approx(brute, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            seq.WeightSequence("bad", np.array([1.0, np.inf]), 2.0)

    def test_rejects_unit_exponent(self):
        with pytest.raises(ValueError):
            seq.WeightSequence("bad", np.ones(3), 1.0)

    def test_cesaro_bounded_by_growth_bound(self):
        for w in (
            seq.mobius_sequence(2000),
            seq.quadratic_phase_sequence(2000, ALPHA),
            seq.subnormal_sequence(0.3, 2000, seed=7),
        ):
            for t in (0.0, 0.3, ALPHA):
                assert abs(seq.cesaro_mean(w, t)) <= w.growth_bound + 1e-9

    @pytest.mark.parametrize("n_terms", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK - 1, 3 * CHUNK + 1])
    @pytest.mark.parametrize("exponent", [2.0, 1.5, 3.0])
    def test_chunked_bound_is_the_one_cumsum_bound(self, rng, n_terms, exponent):
        # growing magnitudes put the prefix maximum at N, in the last chunk
        ramp = np.arange(1, n_terms + 1) * (1.0 + 0.1 * rng.random(n_terms))
        values = ramp * np.exp(2j * np.pi * rng.random(n_terms))
        prefix = np.cumsum(np.abs(values) ** exponent) / np.arange(1, n_terms + 1)
        assert np.argmax(prefix) == n_terms - 1
        want = reference_growth_bound(values, exponent)
        assert seq.prefix_growth_bound(seq._chunks(values), exponent) == want
        assert seq.WeightSequence("ramp", values, exponent).growth_bound == want

    @pytest.mark.parametrize("at", [0, CHUNK - 1, CHUNK, 2 * CHUNK + 5])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    def test_rejects_non_finite_in_any_chunk(self, at, bad):
        values = np.ones(3 * CHUNK, dtype=complex)
        values[at] = bad
        with pytest.raises(ValueError, match="finite"):
            seq.WeightSequence("bad", values, 2.0)

    def test_overflowing_finite_values_have_an_infinite_bound(self):
        values = np.ones(2 * CHUNK, dtype=complex)
        values[3] = 1e200
        with np.errstate(over="ignore"):
            assert seq.WeightSequence("huge", values, 2.0).growth_bound == math.inf

    @pytest.mark.parametrize("name", sorted(registry.SEQUENCES))
    def test_every_registered_sequence_refuses_zero_terms(self, name):
        with pytest.raises(ValueError, match="n_terms must be >= 1"):
            registry.build_sequence(name, REGISTRY_PARAMS[name], 0, seed=2)

    def test_only_a_reader_of_the_bound_computes_it(self, monkeypatch):
        calls = []
        bound = seq.prefix_growth_bound

        def counted(chunks, exponent):
            calls.append(0)  # the terms this call reads

            def read():
                for chunk in chunks:
                    calls[-1] += len(chunk)
                    yield chunk

            return bound(read(), exponent)

        monkeypatch.setattr(seq, "prefix_growth_bound", counted)
        assert set(REGISTRY_PARAMS) == set(registry.SEQUENCES)
        built = [
            registry.build_sequence(name, p, 2 * CHUNK + 5, seed=2)
            for name, p in REGISTRY_PARAMS.items()
        ]
        for w in built:
            seq.zero_set_scan(w)
            seq.cesaro_mean(w, Fraction(1, 3))
            seq.cesaro_mean(w, ALPHA)
        assert calls == []
        flow = registry.build_flow("rotation", {"rho": repr(ALPHA)})
        observable = registry.build_observable("fourier", {"k": "1"})
        for w in built:
            calls.clear()
            analysis.weighted_birkhoff(w, flow, observable, 0.0)
            assert calls == [len(w)]
            assert w.growth_bound == reference_growth_bound(w.values, 2.0)
            assert calls == [len(w)]


SEGMENT = 8 * CHUNK  # the Mobius weights' segment up to N = 2^22


# each sieved function, its weights and its independent reference
SIEVED = {
    "mobius": (seq.mobius, seq.mobius_sequence, reference_mobius),
    "liouville": (seq.liouville, seq.liouville_sequence, reference_liouville),
}


def sieved_cases(mobius_cases, liouville_cases):
    """(name, *case) parameters for both sieved sequences.

    A Mobius case's id is the case alone, and a Liouville case's id is the
    case prefixed with liouville-.
    """
    def param(name, case, prefix):
        case = case if isinstance(case, tuple) else (case,)
        return pytest.param(name, *case, id=prefix + "-".join(map(str, case)))

    return [param("mobius", c, "") for c in mobius_cases] + [
        param("liouville", c, "liouville-") for c in liouville_cases
    ]


def rotation_pair():
    return (
        registry.build_flow("rotation", {"rho": repr(ALPHA)}),
        registry.build_observable("fourier", {"k": "1"}),
    )


class TestMobiusStream:
    # chunk and segment edges, 32 and 31 segments at 2^20 and 10^6, and 117
    # longer (9-chunk) segments at 4.3e6
    @pytest.mark.parametrize(
        "name, n_max",
        sieved_cases(
            [1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, SEGMENT - 1, SEGMENT, SEGMENT + 1]
            + [2**20, 10**6, 4_300_000],
            [SEGMENT - 1, SEGMENT + 1, 3 * SEGMENT + 7, 10**6],
        ),
    )
    def test_sieves_match_the_one_array_sieve(self, name, n_max):
        function, sequence, reference = SIEVED[name]
        values = function(n_max)
        assert values.dtype == np.int64
        assert np.array_equal(values, reference(n_max))
        assert np.array_equal(seq.liouville(n_max), reference_liouville(n_max))
        w = sequence(n_max)
        assert np.array_equal(np.concatenate(list(w.chunks())), values)
        assert w.growth_bound == seq.prefix_growth_bound(seq._chunks(values.astype(complex)), 2.0)

    @pytest.mark.parametrize(
        "name, n_max",
        sieved_cases([SEGMENT + 1, 3 * SEGMENT + 7, 2**21 + 1], [SEGMENT + 1, 3 * SEGMENT + 7, 10**6]),
    )
    def test_chunks_are_the_values_in_block_order(self, name, n_max):
        _, sequence, reference = SIEVED[name]
        w = sequence(n_max)
        chunks = list(w.chunks())
        assert [len(c) for c in chunks] == [b - a for a, b in seq._blocks(n_max)]
        assert "values" not in vars(w)  # the chunks fill no N-term array
        assert np.concatenate(chunks).tobytes() == w.values.tobytes()
        assert w.values.tobytes() == reference(n_max).astype(np.complex128).tobytes()

    @pytest.mark.parametrize(
        "name, n_max, mertens",
        sieved_cases([(10**6, 212), (10**7, 1037)], [(10**6, -530), (10**7, -842)]),
    )
    def test_mertens_function_from_the_chunks(self, name, n_max, mertens):
        chunks = SIEVED[name][1](n_max).chunks()
        assert sum(int(c.real.sum()) for c in chunks) == mertens

    @pytest.mark.parametrize("n_max", [SEGMENT + 1, 3 * SEGMENT + 7])
    @pytest.mark.parametrize("checkpoints", [None, "short"])
    def test_chunks_read_as_values_read(self, n_max, checkpoints):
        # a streamed sequence and the same values as an array give the same bits
        if checkpoints == "short":
            checkpoints = [100, n_max // 3]
        flow, observable = rotation_pair()
        streamed = seq.mobius_sequence(n_max)
        stored = seq.WeightSequence("mobius", reference_mobius(n_max), 2.0)
        got = analysis.weighted_birkhoff(streamed, flow, observable, 0.25, checkpoints)
        want = analysis.weighted_birkhoff(stored, flow, observable, 0.25, checkpoints)
        assert got == want
        for n_terms in (n_max // 3 + 1, n_max):
            got = analysis.holder_defect(streamed, flow, observable, 0.25, 0.5, n_terms)
            want = analysis.holder_defect(stored, flow, observable, 0.25, 0.5, n_terms)
            assert got == want
        assert "values" not in vars(streamed)
        assert streamed.growth_bound == seq.prefix_growth_bound(seq._chunks(stored.values), 2.0)

    @pytest.mark.parametrize("name, n_max", sieved_cases([1, CHUNK + 1, SEGMENT], [1, CHUNK + 1, SEGMENT]))
    def test_one_segment_of_weights_is_held_and_sieved_once(self, monkeypatch, name, n_max):
        _, sequence, reference = SIEVED[name]
        calls = []
        segments = seq._mobius_segments

        def counted(n_max, span, liouville=False):
            calls.append(span)
            return segments(n_max, span, liouville)

        monkeypatch.setattr(seq, "_mobius_segments", counted)
        flow, observable = rotation_pair()
        w = sequence(n_max)
        assert calls == [n_max]  # mobius(N) or liouville(N), one segment
        assert w.values.tobytes() == reference(n_max).astype(np.complex128).tobytes()
        assert all(np.shares_memory(c, w.values) for c in w.chunks())
        # every read slices the held weights, as repeated Holder probes do
        for x in (0.1, 0.2, 0.3):
            analysis.holder_defect(w, flow, observable, x, 0.5, n_max)
        analysis.weighted_birkhoff(w, flow, observable, 0.0)
        assert calls == [n_max]

    def test_hooked_disjointness_holds_no_array_of_the_weights(self):
        # the atom means and the average each read the chunks
        flow, observable = rotation_pair()
        atoms = [Fraction(1, 2), ALPHA]
        n_max = 3 * SEGMENT + 7
        for w in (seq.mobius_sequence(n_max), seq.quadratic_phase_sequence(n_max, 0.25)):
            got = analysis.hooked_disjointness(w, flow, observable, 0.0, atoms)
            assert "values" not in vars(w)
            held = seq.WeightSequence(w.name, w.values, 2.0)
            assert got == analysis.hooked_disjointness(held, flow, observable, 0.0, atoms)
        w = seq.mobius_sequence(2**20)
        tracemalloc.start()
        try:
            analysis.hooked_disjointness(w, flow, observable, 0.0, atoms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # building values for the atom means took 25 MiB here
        assert peak < 4 << 20

    def test_a_weighted_average_sieves_only_what_it_reads(self, monkeypatch):
        produced = []
        segments = seq._mobius_segments

        def counted(n_max, span, liouville=False):
            lo = 1
            for mu in segments(n_max, span, liouville):
                produced.append(lo)
                lo += len(mu)
                yield mu

        monkeypatch.setattr(seq, "_mobius_segments", counted)
        flow, observable = rotation_pair()
        w = seq.mobius_sequence(3 * SEGMENT + 7)
        # the bound is 1 without a sieve, so an average to N = 100 reads one segment
        analysis.weighted_birkhoff(w, flow, observable, 0.0, [100])
        assert produced == [1]
        assert w.growth_bound == 1.0
        assert produced == [1]
        produced.clear()
        # a read stops where its reader stops
        analysis.weighted_birkhoff(w, flow, observable, 0.0, [100])
        analysis.holder_defect(w, flow, observable, 0.0, 0.5, SEGMENT + 1)
        assert produced == [1, 1, SEGMENT + 1]
        assert "values" not in vars(w)

    def test_weighted_average_holds_no_array_of_the_weights(self):
        flow, observable = rotation_pair()
        for sequence in (seq.mobius_sequence, seq.liouville_sequence):
            analysis.weighted_birkhoff(sequence(CHUNK), flow, observable, 0.0)  # warm caches
            tracemalloc.start()
            try:
                report = analysis.weighted_birkhoff(sequence(2**22), flow, observable, 0.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.verdict == "decaying"
            # holding the weights whole took 100 MiB here: three int64 sieve
            # arrays and a complex copy, 32 bytes a term
            assert peak < 4 << 20, sequence

    @pytest.mark.parametrize("liouville", [False, True], ids=["mobius", "liouville"])
    def test_streamed_read_holds_one_segment(self, liouville):
        # a read past one segment holds the sieve of the segment it makes and
        # the chunks in flight, not the segment before it too
        n_max = 2**22
        w = (seq.liouville_sequence if liouville else seq.mobius_sequence)(n_max)
        tracemalloc.start()
        try:
            next(seq._mobius_segments(n_max, seq._mobius_span(n_max), liouville))
            sieve = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for chunk in w.chunks():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) > SEGMENT
        # one segment more is 256 KiB here
        assert peak <= sieve + 2 * CHUNK * 16


class TestPhaseSequences:
    def test_quadratic_zero_alpha(self):
        w = seq.quadratic_phase_sequence(10, 0.0)
        assert w.values[4] == 1.0 + 0j

    def test_unit_modulus(self):
        w = seq.nlogn_phase_sequence(500, 1.0)
        assert np.max(np.abs(np.abs(w.values) - 1.0)) < 1e-14

    def test_quadratic_grid_decay(self):
        w = seq.quadratic_phase_sequence(10**5, ALPHA)
        report = seq.zero_set_scan(w)
        assert report.max_abs < 0.05

    def test_nlogn_uniform_bound(self):
        n_terms = 10**4
        w = seq.nlogn_phase_sequence(n_terms, 1.0)
        report = seq.zero_set_scan(w)
        assert report.max_abs <= 5.0 / math.sqrt(n_terms)

    def test_polynomial_matches_quadratic(self):
        w_poly = seq.polynomial_phase_sequence(3000, [0.0, 0.0, ALPHA])
        w_quad = seq.quadratic_phase_sequence(3000, ALPHA)
        assert np.max(np.abs(w_poly.values - w_quad.values)) < 1e-8


def exact_phase(coeffs, n: int) -> float:
    return float(sum(Fraction(c) * n**k for k, c in enumerate(coeffs)) % 1)


# sampled n up to 1e7, n near 2^31, and negative n
PHASE_N = np.concatenate(
    [
        np.random.default_rng(7).integers(1, 10**7, size=200),
        2**31 + np.arange(-3, 4),
        -np.random.default_rng(8).integers(1, 10**7, size=50),
        [-(2**31), -1, 0],
    ]
)


def common_denominator(coeffs) -> int:
    return math.lcm(*(Fraction(c).denominator for c in coeffs))


class TestRationalPhases:
    @pytest.mark.parametrize(
        "coeffs",
        [
            [0, 0, ALPHA],
            [0.1, ALPHA, -0.0131, 0.07],
            [0, 0, 1e-5],  # a 2^-69 denominator: the Python-int path
            [Fraction(1, 3), 0, Fraction(-5, 7)],
        ],
    )
    def test_matches_fraction_reference(self, coeffs):
        got = seq.rational_phases(coeffs, PHASE_N)
        assert got.tolist() == [exact_phase(coeffs, int(n)) for n in PHASE_N]
        assert np.all((got >= 0.0) & (got < 1.0))

    @pytest.mark.parametrize("eps", [Fraction(1, 2**64), Fraction(1, 3 * 2**60)])
    def test_residue_rounding_to_one_wraps_to_zero(self, eps):
        # 1 - eps rounds to 1.0 as a float; mod 1 that is 0
        assert seq.rational_phases([-eps], np.arange(4)).tolist() == [0.0] * 4

    @pytest.mark.parametrize(
        "coeffs,n_terms",
        [
            # the periodic fill serves D <= N: dyadic D at N = D and N = D - 1
            ([0, 0, Fraction(1, 64)], 64),
            ([0, 0, Fraction(1, 64)], 63),
            # and a non-dyadic D, whose residues are Python ints
            ([0, 0, Fraction(5, 97)], 97),
            ([0, 0, Fraction(5, 97)], 96),
            ([0, 1 / 8, 3 / 16], 1000),
        ],
    )
    def test_periodic_fill_is_exp_of_phases(self, coeffs, n_terms):
        w = seq.polynomial_phase_sequence(n_terms, coeffs)
        phases = seq.rational_phases(coeffs, np.arange(1, n_terms + 1))
        assert w.values.tobytes() == np.exp(2j * np.pi * phases).tobytes()

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(5, 7), 1e-5, -ALPHA / 2])
    def test_quadratic_sequence_is_exact(self, alpha):
        w = seq.quadratic_phase_sequence(3000, alpha)
        phases = [exact_phase([0, 0, alpha], n) for n in range(1, 3001)]
        assert np.array_equal(w.values, np.exp(2j * np.pi * np.array(phases)))

    @pytest.mark.parametrize(
        "coeffs",
        [
            [0, 0, Fraction(1, 64)],  # dyadic D <= N: one period, then copies
            [0, 0, 0.25],
            [0.1, ALPHA, -0.0131, 0.07],  # dyadic D > N: exp of every phase
            [0, 0, Fraction(5, 97)],  # non-dyadic D <= N: Python-int residues
            [0, 0, Fraction(5, 100_003)],  # non-dyadic D > N
        ],
    )
    @pytest.mark.parametrize("n_terms", [CHUNK - 1, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 7])
    def test_chunked_weights_are_exp_of_phases(self, coeffs, n_terms):
        w = seq.polynomial_phase_sequence(n_terms, coeffs)
        phases = seq.rational_phases(coeffs, np.arange(1, n_terms + 1))
        assert w.values.tobytes() == np.exp(2j * np.pi * phases).tobytes()
        assert w.growth_bound == reference_growth_bound(w.values, 2.0)

    # D P(n) mod D has period D: one period, then copies of it, at N = D,
    # one past a doubling, one short of it and past a few chunks
    @pytest.mark.parametrize(
        "coeffs",
        [
            [0, 0, 1],
            [0, 0, Fraction(1, 2)],
            [0, Fraction(1, 4), Fraction(3, 4)],
            [0.5, 0.25, 0.125],
            [0, 0, Fraction(5, 97)],
            [0, 0, Fraction(1, 4096)],
            [0, Fraction(1, 17), Fraction(3, 241)],  # D = 4097, Python-int residues
        ],
        ids=lambda coeffs: f"D={common_denominator(coeffs)}",
    )
    def test_periodic_weights_are_exp_of_phases(self, coeffs):
        denom = common_denominator(coeffs)
        sizes = {denom, denom + 1, 2 * denom - 1, 2 * denom, 2 * denom + 1, 3 * CHUNK + 7}
        for n_terms in sorted(n for n in sizes if n >= denom):
            w = seq.polynomial_phase_sequence(n_terms, coeffs)
            phases = seq.rational_phases(coeffs, np.arange(1, n_terms + 1))
            want = np.exp(2j * np.pi * phases)
            # the chunks and the bound read one held period before values is built
            chunks = list(w.chunks())
            assert [len(c) for c in chunks] == [b - a for a, b in seq._blocks(n_terms)]
            assert np.concatenate(chunks).tobytes() == want.tobytes(), n_terms
            assert w.growth_bound == reference_growth_bound(want, 2.0), n_terms
            assert ("values" in vars(w)) == (n_terms == denom)
            assert w.values.tobytes() == want.tobytes(), n_terms

    def test_periodic_build_holds_no_table_of_the_period(self):
        # D = 100 003 <= N: the period's Python-int residues are built a
        # chunk at a time, and no D-term table of roots is held
        coeffs = [0, 0, Fraction(5, 100_003)]
        seq.polynomial_phase_sequence(CHUNK, coeffs)  # warm numpy's caches
        tracemalloc.start()
        try:
            w = seq.polynomial_phase_sequence(200_006, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.values.nbytes + (512 << 10)

    def test_periodic_build_holds_one_period(self):
        # e(n^2/4) has period 4: the build holds it plus a chunk, not 2^17 terms
        seq.quadratic_phase_sequence(CHUNK, 0.25)  # warm numpy's caches
        tracemalloc.start()
        try:
            w = seq.quadratic_phase_sequence(2**17, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10
        assert "values" not in vars(w)

    def test_chunked_nlogn_and_subnormal_match_one_shot(self):
        n_terms = 2 * CHUNK + 3
        n = np.arange(1, n_terms + 1, dtype=np.float64)
        nlogn = np.exp(2j * np.pi * np.mod(0.7 * n * np.log(n), 1.0))
        assert seq.nlogn_phase_sequence(n_terms, 0.7).values.tobytes() == nlogn.tobytes()
        signs = np.random.default_rng(5).integers(0, 2, size=n_terms) * 2 - 1
        subnormal = (n**0.3 * signs).astype(np.complex128)
        got = seq.subnormal_sequence(0.3, n_terms, seed=5).values
        assert got.tobytes() == subnormal.tobytes()

    def test_build_holds_its_result_plus_chunks(self):
        seq.quadratic_phase_sequence(CHUNK, 0.25)  # warm numpy's caches
        tracemalloc.start()
        try:
            w = seq.quadratic_phase_sequence(2**17, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.values.nbytes + (512 << 10)


class TestSubnormal:
    def test_magnitudes_exact(self):
        w = seq.subnormal_sequence(0.3, 1000, seed=11)
        n = np.arange(1, 1001)
        assert np.array_equal(np.abs(w.values), n**0.3)

    def test_determinism(self):
        a = seq.subnormal_sequence(0.2, 500, seed=99)
        b = seq.subnormal_sequence(0.2, 500, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            seq.subnormal_sequence(0.5, 10, seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 20240601])
    @pytest.mark.parametrize("n_terms", [1, 4095, 4096, 4097, 20000, 100001])
    def test_chunked_coins_are_one_draw(self, seed, n_terms):
        n = np.arange(1, n_terms + 1, dtype=np.float64)
        signs = np.random.default_rng(seed).integers(0, 2, size=n_terms) * 2 - 1
        one_draw = (n**0.3 * signs).astype(np.complex128)
        got = seq.subnormal_sequence(0.3, n_terms, seed=seed).values
        assert got.tobytes() == one_draw.tobytes()

    def test_build_holds_its_result_plus_chunks(self):
        seq.subnormal_sequence(0.3, CHUNK, seed=1)  # warm numpy's caches
        tracemalloc.start()
        try:
            w = seq.subnormal_sequence(0.3, 2**17, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.values.nbytes + (512 << 10)

    def test_salem_zygmund_envelope(self):
        n_terms = 10**5
        w = seq.subnormal_sequence(0.2, n_terms, seed=3)
        report = seq.zero_set_scan(w)
        envelope = 10.0 * math.sqrt(math.log(n_terms)) / n_terms**0.3
        assert report.max_abs < envelope


class TestCesaroMean:
    def test_constant_sequence(self):
        w = seq.WeightSequence("ones", np.ones(100, dtype=complex), 2.0)
        for n in (1, 7, 100):
            assert seq.cesaro_mean(w, 0.0, n) == pytest.approx(1.0)

    def test_resonance_cancels_exactly(self):
        n = np.arange(1, 2001)
        w = seq.WeightSequence("mode", np.exp(2j * np.pi * ALPHA * n), 2.0)
        for terms in (10, 500, 2000):
            assert abs(seq.cesaro_mean(w, ALPHA, terms) - 1.0) < 1e-12

    def test_mobius_at_zero(self):
        w = seq.mobius_sequence(10**6)
        assert abs(seq.cesaro_mean(w, 0.0)) < 0.01

    def test_linear_in_weights(self, rng):
        u = rng.normal(size=300) + 1j * rng.normal(size=300)
        v = rng.normal(size=300) + 1j * rng.normal(size=300)
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        wu = seq.WeightSequence("u", u, 2.0)
        wv = seq.WeightSequence("v", v, 2.0)
        wc = seq.WeightSequence("au+bv", a * u + b * v, 2.0)
        for t in (0.0, 0.123, 0.77):
            combined = seq.cesaro_mean(wc, t)
            split = a * seq.cesaro_mean(wu, t) + b * seq.cesaro_mean(wv, t)
            assert abs(combined - split) < 1e-12

    def test_n_exceeds_length(self):
        w = seq.WeightSequence("ones", np.ones(10, dtype=complex), 2.0)
        with pytest.raises(ValueError):
            seq.cesaro_mean(w, 0.0, 11)

    @pytest.mark.parametrize(
        "freq", [0.0, 0.5, 0.75, 0.625, Fraction(1, 3), Fraction(2, 7)]
    )
    def test_rational_frequency_is_exact(self, freq):
        # reference: one fsum over every term, each phase an exact residue
        # rounded once; the float phases n*freq are off by up to ~1e-11 here
        n_terms = 10**5
        n = np.arange(1, n_terms + 1)
        r, s = Fraction(freq).numerator, Fraction(freq).denominator
        mobius = seq.mobius_sequence(n_terms)
        quadratic = seq.quadratic_phase_sequence(n_terms, 0.125)
        big = math.lcm(8, s)
        references = [
            mobius.values.real * np.exp(-2j * np.pi * ((n * r % s) / s)),
            # e(n^2/8 - n r/s), over the common denominator
            np.exp(2j * np.pi * ((n * n * (big // 8) - n * r * (big // s)) % big / big)),
        ]
        for w, terms in zip((mobius, quadratic), references):
            exact = complex(math.fsum(terms.real), math.fsum(terms.imag)) / n_terms
            assert abs(seq.cesaro_mean(w, freq) - exact) < 1e-13, w.name

    @pytest.mark.parametrize("freq", [math.sqrt(2) - 1, 0.123456789, 1 / 3])
    def test_float_frequency_phases_are_exact(self, freq):
        # a denominator above N: every phase n freq is reduced mod 1 exactly,
        # where exp(-2 pi i freq n) in floats was off by up to 4.4e-14 here
        n_terms = 2**18
        mobius = seq.mobius_sequence(n_terms)
        phases = seq.rational_phases([0, freq], np.arange(1, n_terms + 1))
        terms = mobius.values.real * np.exp(-2j * np.pi * phases)
        exact = complex(math.fsum(terms.real), math.fsum(terms.imag)) / n_terms
        assert abs(seq.cesaro_mean(mobius, freq) - exact) < 1e-16

    def test_fraction_and_float_frequencies_agree(self):
        w = seq.mobius_sequence(5000)
        assert seq.cesaro_mean(w, Fraction(3, 4)) == seq.cesaro_mean(w, 0.75)
        # a denominator above N takes the float phases of float(freq)
        assert seq.cesaro_mean(w, Fraction(1, 3), 2) == seq.cesaro_mean(w, 1 / 3, 2)


def fsum_folds(values, m):
    """F_k = the sum of values[n - 1] over n = k mod m, by one fsum per class."""
    classes = [values[(k - 1) % m :: m] for k in range(m)]
    return np.array([complex(math.fsum(c.real), math.fsum(c.imag)) for c in classes])


class TestResidueFold:
    @pytest.mark.parametrize(
        "n_terms, m",
        [
            (1000, 7),  # m does not divide N
            (1001, 7),  # it does
            (5, 9),  # m > N
            (1, 1),
            (777, 1),
            (3 * CHUNK + 5, 512),  # N across several chunks
            (3 * CHUNK + 5, 840),
            (3 * CHUNK + 5, 2),
        ],
    )
    def test_matches_fsum_per_class(self, rng, n_terms, m):
        values = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
        folds = seq.residue_fold(values, m)
        assert folds.shape == (m,)
        assert folds.dtype == np.complex128
        tol = 1e-13 * np.sum(np.abs(values))
        assert np.max(np.abs(folds - fsum_folds(values, m))) <= tol

    def test_real_values_give_complex_folds(self):
        folds = seq.residue_fold(np.arange(1.0, 11.0), 4)
        assert folds.dtype == np.complex128
        assert folds.tolist() == [4 + 8 + 0j, 1 + 5 + 9 + 0j, 2 + 6 + 10 + 0j, 3 + 7 + 0j]

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_modulus_below_one(self, m):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            seq.residue_fold(np.ones(10, dtype=complex), m)

    def test_fold_and_mean_allocate_no_copy_of_the_weights(self):
        w = seq.quadratic_phase_sequence(2**17, 0.25)
        w.values  # periodic weights build their N values when first read
        seq.cesaro_mean(w, 0.25)  # warm numpy's caches
        for call in (lambda: seq.residue_fold(w.values, 512), lambda: seq.cesaro_mean(w, 0.25)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 256 << 10


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


# coefficients whose common denominator is D; 4097 = 17 * 241 does not
# divide 2^64, so its residues are Python ints
PERIODIC_COEFFS = {
    1: [0, 0, 1],
    3: [0, 0, Fraction(1, 3)],
    4: [0, 0, Fraction(1, 4)],
    97: [0, 0, Fraction(5, 97)],
    4097: [0, Fraction(1, 17), Fraction(3, 241)],
}


def weight_builds():
    """(id, build) of periodic, streamed and held weights."""
    # past two fills of a carried fold's staging rows (under 2 chunks) at every m
    n_terms = 9 * CHUNK + 7
    builds = [
        (f"periodic-D={denom}", functools.partial(seq.polynomial_phase_sequence, n_terms, coeffs))
        for denom, coeffs in PERIODIC_COEFFS.items()
    ]
    builds += [
        (f"mobius-{n_max}", functools.partial(seq.mobius_sequence, n_max))
        for n_max in (SEGMENT - 1, SEGMENT + 1, 3 * SEGMENT + 7)
    ]
    values = np.array([1, 1j]) @ np.random.default_rng(3).normal(size=(2, n_terms))
    builds.append(("held-gauss", lambda: seq.WeightSequence("gauss", values, 2.0)))
    return builds


BUILDS = weight_builds()


class TestChunkedCesaro:
    """Folds, means and scans of chunks have the bits of the one-array ones."""

    @pytest.mark.parametrize("build", [b for _, b in BUILDS], ids=[i for i, _ in BUILDS])
    def test_carried_fold_is_the_one_block_fold(self, build):
        n_terms = len(build())
        # cesaro_mean's widths s * isqrt(N / s) for s = 1..8 and 97
        widths = {s * math.isqrt(n_terms // s) for s in (*range(1, 9), 97)}
        for m in sorted({1, 2, 7, 512, 840} | widths):
            w = build()
            (read,) = seq._weight_folds(w, n_terms, (m,))
            want = seq.residue_fold(w.values, m)
            assert read.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("m", [2, 7, 512, 724, 840])
    def test_fold_staging_stays_below_the_mmap_threshold(self, m):
        # 724 is cesaro_mean's width at N = 2^17 and s = 4
        assert seq._CarriedFold(m)._rows.nbytes < 128 << 10

    @pytest.mark.parametrize("build", [b for _, b in BUILDS], ids=[i for i, _ in BUILDS])
    def test_means_and_scans_are_the_held_ones(self, build):
        w = build()
        n_max, holds = len(w), "values" in vars(w)
        held = seq.WeightSequence("held", w.values, 2.0)
        freqs = [Fraction(r, s) for s in range(1, 9) for r in range(s)]
        freqs += [Fraction(5, 97), Fraction(1, 4097), ALPHA, 1 / 3]
        for n_terms in (1, 3, CHUNK + 1, n_max // 3 + 1, n_max):
            w = build()
            for t in freqs:
                got = seq.cesaro_mean(w, t, n_terms)
                assert bits(got) == bits(seq.cesaro_mean(held, t, n_terms)), (t, n_terms)
            for grid_size in (2, 7, 512):
                got = seq.zero_set_scan(w, grid_size, n_terms)
                want = seq.zero_set_scan(held, grid_size, n_terms)
                assert got.sigma.tobytes() == want.sigma.tobytes(), (grid_size, n_terms)
                assert got.max_abs == want.max_abs
            assert ("values" in vars(w)) == holds  # reading built nothing

    @pytest.mark.parametrize("freq", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_mean_refuses_a_non_finite_frequency(self, freq):
        w = seq.mobius_sequence(100)
        with pytest.raises(ValueError, match=f"frequency {freq} is not finite"):
            seq.cesaro_mean(w, freq)


def counted_segments(monkeypatch):
    """Patch the sieve to record the first n of each segment it produces."""
    produced = []
    segments = seq._mobius_segments

    def counted(n_max, span, liouville=False):
        lo = 1
        for mu in segments(n_max, span, liouville):
            produced.append(lo)
            lo += len(mu)
            yield mu

    monkeypatch.setattr(seq, "_mobius_segments", counted)
    return produced


class TestStreamedCesaro:
    def test_scan_sieves_each_segment_once(self, monkeypatch):
        produced = counted_segments(monkeypatch)
        n_max = 3 * SEGMENT + 7
        w = seq.mobius_sequence(n_max)
        report = seq.zero_set_scan(w)
        assert produced == list(range(1, n_max + 1, SEGMENT))
        assert "values" not in vars(w)
        want = seq.zero_set_scan(seq.WeightSequence("mobius", reference_mobius(n_max), 2.0))
        assert report.sigma.tobytes() == want.sigma.tobytes()

    def test_a_mean_sieves_only_what_it_reads(self, monkeypatch):
        produced = counted_segments(monkeypatch)
        w = seq.mobius_sequence(3 * SEGMENT + 7)
        for freq in (Fraction(1, 2), ALPHA):  # a fold and a compensated sum
            produced.clear()
            seq.cesaro_mean(w, freq, 100)
            assert produced == [1]
            produced.clear()
            seq.cesaro_mean(w, freq, SEGMENT + 1)
            assert produced == [1, SEGMENT + 1]
        produced.clear()
        seq.zero_set_scan(w, 512, SEGMENT)
        assert produced == [1]
        assert "values" not in vars(w)

    def test_scan_holds_no_array_of_the_weights(self):
        for sequence in (seq.mobius_sequence, seq.liouville_sequence):
            seq.zero_set_scan(sequence(SEGMENT + 1))  # warm caches
            tracemalloc.start()
            try:
                report = seq.zero_set_scan(sequence(2**22))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.max_abs < 0.01
            # holding the weights whole took 100 MiB, as for the weighted average
            assert peak < 4 << 20, sequence


class TestZeroSetScan:
    def test_rescan_idempotent(self):
        w = seq.quadratic_phase_sequence(2000, ALPHA)
        first = seq.zero_set_scan(w, grid_size=64)
        second = seq.zero_set_scan(w, grid_size=64)
        assert np.array_equal(first.sigma, second.sigma)
        assert first.max_abs == np.max(np.abs(first.sigma))

    def test_grid_contains_low_rationals(self):
        w = seq.WeightSequence("ones", np.ones(10, dtype=complex), 2.0)
        report = seq.zero_set_scan(w, grid_size=16)
        for t in (1 / 3, 3 / 7, 5 / 8):
            assert np.any(np.isclose(report.grid, t))

    @pytest.mark.parametrize(
        "weights, grid_size, n_terms",
        [
            (seq.mobius_sequence(1000), 2, 999),
            (seq.mobius_sequence(1000), 2, 1000),
            (seq.subnormal_sequence(0.3, 50, seed=4), 7, 5),
            (seq.quadratic_phase_sequence(3000, ALPHA), 7, 2999),
            (seq.quadratic_phase_sequence(3000, ALPHA), 100, 2500),
            (seq.subnormal_sequence(0.4, 700, seed=8), 512, 700),
            (seq.mobius_sequence(5000), 512, 4321),
        ],
    )
    def test_every_point_matches_exact_residue_reference(self, weights, grid_size, n_terms):
        report = seq.zero_set_scan(weights, grid_size, n_terms)
        points = scan_points(grid_size)
        assert report.grid.tolist() == [float(t) for t in points]
        assert report.n_terms == n_terms
        values = weights.values[:n_terms]
        tol = 1e-12 * np.mean(np.abs(values))
        for t, sigma in zip(points, report.sigma):
            assert abs(sigma - residue_reference(values, t)) <= tol

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: seq.mobius_sequence(n),
            lambda n: seq.subnormal_sequence(0.2, n, seed=3),
            lambda n: seq.quadratic_phase_sequence(n, ALPHA),
        ],
        ids=["mobius", "subnormal", "quadratic"],
    )
    def test_large_n_matches_exact_residue_reference(self, build):
        weights = build(10**6)
        n_terms = 10**6 - 1
        report = seq.zero_set_scan(weights, 512, n_terms)
        points = scan_points(512)
        assert report.grid.tolist() == [float(t) for t in points]
        values = weights.values[:n_terms]
        tol = 1e-12 * np.mean(np.abs(values))
        picks = {0, points.index(Fraction(1, 3)), points.index(Fraction(3, 7))}
        picks |= set(np.random.default_rng(5).choice(len(points), 3, replace=False))
        for i in sorted(picks):
            reference = residue_reference(values, points[i])
            assert abs(report.sigma[i] - reference) <= tol

    @pytest.mark.parametrize("grid_size", [2, 3, 7, 512, 840, 1000, 1024, 4096, 100_000])
    def test_grid_is_the_union_of_lattice_and_low_rationals(self, grid_size):
        common = math.lcm(grid_size, 840)
        low = [r * (common // s) for s in range(2, 9) for r in range(1, s)]
        keys = np.union1d(np.arange(grid_size) * (common // grid_size), low)
        grid = seq.zero_set_scan(seq.mobius_sequence(100), grid_size).grid
        assert grid.dtype == np.float64
        assert grid.tobytes() == (keys / common).tobytes()

    def test_rejects_bad_sizes(self):
        w = seq.mobius_sequence(100)
        for n_terms in (0, -1, 101):
            with pytest.raises(ValueError):
                seq.zero_set_scan(w, 16, n_terms)
        for grid_size in (1, 0, -4):
            with pytest.raises(ValueError):
                seq.zero_set_scan(w, grid_size)


def scan_points(grid_size):
    """The scan grid as exact rationals: j/grid_size, plus r/s for s <= 8."""
    points = {Fraction(j, grid_size) for j in range(grid_size)}
    points |= {Fraction(r, s) for s in range(2, 9) for r in range(s)}
    return sorted(points)


def residue_reference(values, t):
    """(1/N) sum c_n e(-n t), phases as exact residues n*num mod den, fsum'd."""
    n = np.arange(1, len(values) + 1, dtype=np.int64)
    residues = (n * t.numerator) % t.denominator
    terms = values * np.exp(-2j * np.pi * residues / t.denominator)
    return complex(math.fsum(terms.real), math.fsum(terms.imag)) / len(values)


def long_division_remainder(counts, order):
    """Per-coefficient long division of sum counts[m] x^m by the monic phi_order."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rem = [int(c) for c in counts]
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg + 1):
                rem[i - deg + j] -= c * phi[j]
    return rem[:deg]


def spectrum_reference(numer, denom):
    """Candidates r/s over the divisors s of denom, one long division each."""
    atoms = {}
    for s in range(1, denom + 1):
        if denom % s:
            continue
        stride = denom // s
        for r in range(s):
            if math.gcd(r, s) != 1:
                continue
            counts = [0] * denom
            for k in range(denom):
                counts[(k * k * numer + k * r * stride) % denom] += 1
            if any(long_division_remainder(counts, denom)):
                atoms[Fraction(r, s)] = sum(
                    c * cmath.exp(2j * math.pi * m / denom)
                    for m, c in enumerate(counts)
                    if c
                ) / denom
    return atoms


class TestCyclotomic:
    def test_known_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


class TestQuadraticRationalSpectrum:
    def test_known_small_spectra(self):
        assert set(seq.quadratic_rational_spectrum(1, 2)) == {Fraction(1, 2)}
        assert set(seq.quadratic_rational_spectrum(1, 3)) == {
            Fraction(0),
            Fraction(1, 3),
            Fraction(2, 3),
        }
        assert set(seq.quadratic_rational_spectrum(1, 4)) == {
            Fraction(0),
            Fraction(1, 2),
        }

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            seq.quadratic_rational_spectrum(2, 4)

    def test_matches_reference_for_every_coprime_numer(self):
        # every coprime numer up to 64; 1 and q - 1 for q = 65..105
        every = [(numer, denom) for denom in range(1, 65) for numer in range(denom)]
        ends = [(numer, denom) for denom in range(65, 106) for numer in (1, denom - 1)]
        for numer, denom in every + ends:
            if math.gcd(numer, denom) != 1:
                continue
            atoms = seq.quadratic_rational_spectrum(numer, denom)
            reference = spectrum_reference(numer, denom)
            assert set(atoms) == set(reference), (numer, denom)
            for freq, amp in reference.items():
                assert abs(atoms[freq] - amp) < 1e-12, (numer, denom, freq)

    def test_survivors_are_the_rows_phi_does_not_divide(self):
        # every coprime p/q with q <= 128: the q count rows of each p, built
        # by one bincount per q, long-divided all at once by phi_q in int64
        for denom in range(1, 129):
            numers = np.array([p for p in range(denom) if math.gcd(p, denom) == 1])
            k = np.arange(denom, dtype=np.int64)
            residues = (numers[:, None, None] * (k * k % denom) + k[:, None] * k) % denom
            slots = np.arange(len(numers) * denom).reshape(-1, denom, 1) * denom + residues
            counts = np.bincount(slots.ravel(), minlength=slots.size).reshape(-1, denom)
            phi = np.array(cyclotomic_polynomial(denom), dtype=np.int64)
            deg = len(phi) - 1
            peak = int(counts.max())
            for i in range(denom - 1, deg - 1, -1):
                counts[:, i - deg : i + 1] -= counts[:, i, None] * phi
                peak = max(peak, int(np.abs(counts[:, i - deg : i]).max(initial=0)))
            # no step can wrap: each term is at most peak * (1 + max|phi|)
            assert peak * (1 + int(np.abs(phi).max())) < 2**62, denom
            alive = counts[:, :deg].any(axis=1).reshape(len(numers), denom)
            for numer, row in zip(numers, alive):
                atoms = seq.quadratic_rational_spectrum(int(numer), denom)
                assert set(atoms) == {Fraction(int(b), denom) for b in np.flatnonzero(row)}

    @pytest.mark.parametrize("denom", [65536, 65537, 65538])
    def test_large_denominator_in_linear_memory(self, denom):
        # a q x q count array would take 32 GiB here
        atoms = seq.quadratic_rational_spectrum(1, denom)
        assert len(atoms) == (denom if denom % 2 else denom // 2)
        assert abs(sum(abs(a) ** 2 for a in atoms.values()) - 1.0) <= 1e-9
        for amp in atoms.values():
            assert min(abs(abs(amp) ** 2 * denom - m) for m in (1, 2)) <= 1e-9
        keys = sorted(atoms)
        k = np.arange(denom, dtype=np.int64)
        for freq in (keys[0], keys[len(keys) // 3], keys[-1]):
            b = freq.numerator * (denom // freq.denominator)
            terms = np.exp(2j * np.pi * ((k * k + b * k) % denom) / denom)
            direct = complex(math.fsum(terms.real), math.fsum(terms.imag)) / denom
            assert abs(atoms[freq] - direct) <= 1e-12, freq

    def test_rejects_denominator_past_int64_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large"):
                seq.quadratic_rational_spectrum(1, 3_037_000_501)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_gauss_sum_mass_and_moduli(self):
        # Gauss sums have modulus 0, sqrt(q) or sqrt(2q); a q-periodic
        # unimodular sequence has spectral mass 1 (Parseval)
        for denom in range(2, 97):
            for numer in range(1, denom):
                if math.gcd(numer, denom) != 1:
                    continue
                atoms = seq.quadratic_rational_spectrum(numer, denom)
                mass = sum(abs(a) ** 2 for a in atoms.values())
                assert abs(mass - 1.0) <= 1e-9, (numer, denom)
                for freq, amp in atoms.items():
                    assert denom % freq.denominator == 0
                    assert min(abs(abs(amp) ** 2 * denom - m) for m in (1, 2)) <= 1e-9

    def test_brute_force_agreement_all_q(self):
        # direct averaging at N = 1e6*q against the exact amplitudes
        for denom in range(2, 13):
            numer = 1
            atoms = seq.quadratic_rational_spectrum(numer, denom)
            n_terms = 10**6 * denom
            for s in range(1, denom + 1):
                if denom % s:
                    continue
                for r in range(s):
                    if math.gcd(r, s) != 1:
                        continue
                    freq = Fraction(r, s)
                    brute = seq.quadratic_rational_cesaro(numer, denom, freq, n_terms)
                    exact = atoms.get(freq, 0j)
                    # N covers whole periods, so the mean is the atom itself
                    assert abs(brute - exact) <= 1e-12, (denom, freq)


def _reference_cesaro_sum(numer, denom, freq, ns):
    """sum over n in ns of e((n^2 numer - n freq denom)/denom): Python-int residues, fsum."""
    shift = int(freq * denom)
    terms = [
        cmath.exp(2j * math.pi * ((n * n * numer - n * shift) % denom) / denom) for n in ns
    ]
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


REFERENCE_CASES = [
    (95, 97, Fraction(13, 97)),
    (1, 12, Fraction(1, 4)),
    (3, 8, Fraction(0)),
    (0, 1, Fraction(0)),
]


class TestQuadraticRationalCesaro:
    @pytest.mark.parametrize("numer, denom, freq", REFERENCE_CASES)
    def test_matches_pure_python_reference(self, numer, denom, freq):
        lengths = {1, denom - 1, denom, denom + 1, 3 * denom + 2, 1000} - {0}
        for n_terms in sorted(lengths):
            brute = seq.quadratic_rational_cesaro(numer, denom, freq, n_terms)
            reference = _reference_cesaro_sum(numer, denom, freq, range(1, n_terms + 1)) / n_terms
            assert abs(brute - reference) <= 1e-12, (numer, denom, freq, n_terms)

    def test_matches_reference_past_int64_squares(self):
        # n^2 numer passes 2^63 from n ~ 3.1e8 when numer = 95; the tail
        # n = L q + 1..N is summed at its own (large) n
        numer, denom, freq = 95, 97, Fraction(13, 97)
        n_terms = 2**40 + 12_345
        periods, rest = divmod(n_terms, denom)
        whole = _reference_cesaro_sum(numer, denom, freq, range(1, denom + 1))
        tail = _reference_cesaro_sum(numer, denom, freq, range(periods * denom + 1, n_terms + 1))
        reference = (periods * whole + tail) / n_terms
        brute = seq.quadratic_rational_cesaro(numer, denom, freq, n_terms)
        assert abs(brute - reference) <= 1e-12

    def test_float_freq_read_as_its_fraction(self):
        assert seq.quadratic_rational_cesaro(1, 12, 0.25, 1000) == (
            seq.quadratic_rational_cesaro(1, 12, Fraction(1, 4), 1000)
        )
        assert seq.quadratic_rational_cesaro(3, 8, 0, 100) == (
            seq.quadratic_rational_cesaro(3, 8, Fraction(0), 100)
        )
        # 1/3 as a float has denominator 2^54
        with pytest.raises(ValueError, match="denominator dividing denom"):
            seq.quadratic_rational_cesaro(1, 4, 1 / 3, 100)

    @pytest.mark.parametrize("n_terms", [0, -5])
    def test_rejects_fewer_than_one_term(self, n_terms):
        with pytest.raises(ValueError, match="n_terms must be >= 1"):
            seq.quadratic_rational_cesaro(1, 3, Fraction(0), n_terms)

    def test_rejects_overflowing_denominator(self):
        with pytest.raises(ValueError, match="too large"):
            seq.quadratic_rational_cesaro(2**40, 2**41 + 1, Fraction(0), 10**7)


def progression_by_cesaro(weights, modulus, residue, freq, n_terms):
    """The progression mean from ``modulus`` Cesaro means, by
    1[n = residue (mod modulus)] = (1/modulus) sum_j e(j (n - residue)/modulus)."""
    return sum(
        cmath.exp(2j * math.pi * j * residue / modulus)
        * seq.cesaro_mean(weights, Fraction(freq) + Fraction(j, modulus), n_terms)
        for j in range(modulus)
    ) / modulus


class TestArithmeticSubsequence:
    def test_counting_identity(self):
        w = seq.WeightSequence("ones", np.ones(101, dtype=complex), 2.0)
        want = math.ceil(101 / 2) / 101
        assert progression_mean(w, 2, 1, 0.0, 101) == pytest.approx(want, abs=1e-15)
        assert progression_by_cesaro(w, 2, 1, 0.0, 101) == pytest.approx(want, abs=1e-15)

    def test_recombination(self):
        w = seq.quadratic_phase_sequence(4000, ALPHA)
        for t in (0.0, 0.37):
            parts = [progression_mean(w, 5, r, t, 4000) for r in range(1, 6)]
            assert abs(sum(parts) - seq.cesaro_mean(w, t, 4000)) < 1e-12
            for r, part in enumerate(parts, start=1):
                assert abs(progression_by_cesaro(w, 5, r, t, 4000) - part) < 1e-12

    def test_root_of_unity_identity(self):
        # the proof's expansion over shifted frequencies, checked numerically
        w = seq.mobius_sequence(3000)
        modulus, residue, t = 4, 3, 0.21
        lhs = progression_mean(w, modulus, residue, t, 3000)
        assert abs(lhs - progression_by_cesaro(w, modulus, residue, t, 3000)) < 1e-12

    def test_mobius_progression_decay(self):
        w = seq.mobius_sequence(10**6)
        value = progression_by_cesaro(w, 4, 1, 0.0, 10**6)
        assert abs(value - progression_mean(w, 4, 1, 0.0, 10**6)) < 1e-15
        assert abs(value) < 0.02

    @pytest.mark.parametrize(
        "modulus,residue,freq",
        [(4, 1, Fraction(1, 2)), (4, 3, Fraction(3, 4)), (2, 1, Fraction(1, 2)), (2, 1, 0.5)],
    )
    def test_rational_frequency_exact(self, modulus, residue, freq):
        # both sides read exact residue phases n freq mod 1
        n_terms = 10**5
        w = seq.quadratic_phase_sequence(n_terms, Fraction(1, 8))
        want = progression_mean(w, modulus, residue, freq, n_terms)
        got = progression_by_cesaro(w, modulus, residue, freq, n_terms)
        assert abs(got - want) < 1e-14


class TestExport:
    def test_spectrum_csv_columns(self, tmp_path):
        w = seq.mobius_sequence(500)
        report = seq.zero_set_scan(w, grid_size=8)
        path = tmp_path / "spec.csv"
        path.write_text(seq.spectrum_csv(report))
        header = path.read_text().splitlines()[0]
        assert header == "t,re_sigma,im_sigma,abs_sigma,N"


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: seq.quadratic_rational_spectrum(0, 0), "denominator must be >= 1"),
        (lambda: seq.quadratic_rational_spectrum(5, 4), "0 <= numer < denom"),
        (lambda: seq.WeightSequence("empty", np.array([]), 2.0), "non-empty 1-d array"),
        (lambda: seq.subnormal_sequence(0.3, 0, seed=1), "n_terms must be >= 1"),
        (lambda: seq.subnormal_sequence(0.3, -5, seed=1), "n_terms must be >= 1"),
    ],
    ids=[
        "spectrum_denominator_zero",
        "spectrum_numerator_past_denominator",
        "weights_empty",
        "subnormal_no_terms",
        "subnormal_negative_terms",
    ],
)
def test_bad_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_arithmetic_subsequence_past_the_prefix_is_zero():
    # no n <= 10 is 40 mod 50: the 50 shifted means cancel
    w = seq.mobius_sequence(100)
    assert progression_mean(w, 50, 40, 0.1, 10) == 0j
    assert abs(progression_by_cesaro(w, 50, 40, 0.1, 10)) < 1e-15
