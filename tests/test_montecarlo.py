"""Seeded stochastic verification of the analytic quantities.

Statistical thresholds are chosen so that flakiness is negligible and every
test is deterministic anyway (fixed seeds):

* point estimates are checked within 5 standard errors,
* goodness-of-fit runs at significance 0.001,
* CI coverage is asserted at >= 90 out of 100 seeds for a 95% interval.
"""

from __future__ import annotations

import json
import math
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest, chisquare

from packmatch import montecarlo
from packmatch.coincidence import (
    PackSpec,
    coincidence_probability,
    compositions,
    distinct_pack_count,
    endpoint_probability,
)
from packmatch.firstmatch import endpoint_spectrum, exact_pmf_and_expectation
from packmatch.montecarlo import (
    _CHUNK,
    RNG_ALGORITHM,
    _generator,
    _wilson_interval,
    endpoint_histogram,
    first_match_experiment,
    first_match_trial,
    pair_match_rate,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

# (n, d, trials, seed) of each pinned experiment; (2, 3) crosses a chunk.
# (2, 2) and (200, 3) draw multinomial rows, (1, 2000) sorted item colors,
# and the others coded item colors.
_GOLDEN_EXPERIMENTS = [
    (12, 12, 300, 3),
    (60, 5, 500, 5),
    (2, 3, _CHUNK + 7, 29),
    (1, 2000, 30, 2),
    (0, 4, 50, 7),
    (2, 2, 1000, 13),
    (200, 3, 300, 11),
]
_GOLDEN_TRIAL_SHAPES = [(12, 12), (2, 2)]
# (n, d, trials, seed) of each pinned pair experiment. (60, 5) and (7, 2) cross
# a chunk and invert their first color on the CDF table, (7, 2) with about 13800
# matches; (200, 3) draws it as binomials (n > 30·d); (0, 3) and (3, 1) match
# without a draw.
_GOLDEN_PAIR_EXPERIMENTS = [
    (60, 5, _CHUNK + 1, 3),
    (7, 2, _CHUNK + 1, 3),
    (200, 3, 200000, 5),
    (4, 3, 10000, 1),
    (0, 3, 100, 1),
    (3, 1, 100, 1),
]


def first_match_digits() -> dict:
    """Seeded first-match output: experiment histograms and means, and trial runs.

    Each trial run is the first 20 ``first_match_trial`` values from
    ``_generator(3, 0)`` and the generator's state after them, so it pins
    both the values and how many endpoints the trials drew.
    """
    experiments = {}
    for n, d, trials, seed in _GOLDEN_EXPERIMENTS:
        report = first_match_experiment(PackSpec(n, d), trials, seed)
        experiments[f"{n},{d}x{trials}@{seed}"] = {
            "histogram": {str(value): count for value, count in report.histogram.items()},
            "mean": report.mean,
        }
    trial_runs = {}
    for n, d in _GOLDEN_TRIAL_SHAPES:
        rng = _generator(3, 0)
        values = [first_match_trial(PackSpec(n, d), rng) for _ in range(20)]
        trial_runs[f"{n},{d}"] = {"values": values, "state": rng.bit_generator.state}
    return {"experiments": experiments, "trials": trial_runs}


def pair_match_digits() -> dict:
    """Seeded ``pair_match_rate`` match counts, keyed ``"n,dxtrials@seed"``."""
    return {
        f"{n},{d}x{trials}@{seed}": pair_match_rate(PackSpec(n, d), trials, seed).matches
        for n, d, trials, seed in _GOLDEN_PAIR_EXPERIMENTS
    }


class TestWilsonInterval:
    def test_matches_scipy(self):
        for successes, trials in [(5, 10), (1, 40), (375, 1000), (0, 25), (25, 25)]:
            low, high = _wilson_interval(successes, trials)
            reference = binomtest(successes, trials).proportion_ci(
                confidence_level=0.95, method="wilson"
            )
            assert math.isclose(low, reference.low, abs_tol=1e-12)
            assert math.isclose(high, reference.high, abs_tol=1e-12)

    def test_contains_point_estimate_even_at_boundaries(self):
        for successes, trials in [(0, 7), (7, 7), (10, 10), (1, 1), (3, 8)]:
            low, high = _wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0


class TestPairMatchRate:
    def test_deterministic_reports(self):
        spec = PackSpec(2, 3)
        first = pair_match_rate(spec, 5000, 21)
        second = pair_match_rate(spec, 5000, 21)
        assert first == second
        assert first.algorithm == RNG_ALGORITHM
        assert first.seed == 21
        assert first.trials == 5000

    def test_ci_contains_truth_one_item_two_colors(self):
        report = pair_match_rate(PackSpec(1, 2), 10**6, 7)
        assert report.ci_low <= 0.5 <= report.ci_high
        assert abs(report.estimate - 0.5) < 5 * 0.0005  # 5 standard errors

    def test_ci_contains_truth_two_items_two_colors(self):
        report = pair_match_rate(PackSpec(2, 2), 10**6, 7)
        assert report.ci_low <= 0.375 <= report.ci_high
        standard_error = math.sqrt(0.375 * 0.625 / 10**6)
        assert abs(report.estimate - 0.375) < 5 * standard_error

    def test_degenerate_spec_always_matches(self):
        report = pair_match_rate(PackSpec(0, 3), 100, 1)
        assert report.matches == 100
        assert report.estimate == 1.0
        assert report.ci_low <= report.estimate <= report.ci_high

    def test_one_color_always_matches(self):
        report = pair_match_rate(PackSpec(5, 1), 1000, 2)
        assert report.matches == 1000
        assert type(report.matches) is int
        assert report.estimate == 1.0

    def test_three_colors_deep_within_five_standard_errors(self):
        # At (3, 4) a pair is decided only after colors 0, 1 and 2 all agree.
        trials = 2 * 10**5
        truth = float(coincidence_probability(PackSpec(3, 4)))
        report = pair_match_rate(PackSpec(3, 4), trials, 19)
        standard_error = math.sqrt(truth * (1 - truth) / trials)
        assert abs(report.estimate - truth) < 5 * standard_error

    def test_estimate_inside_interval_invariant(self):
        for seed in range(10):
            report = pair_match_rate(PackSpec(3, 3), 400, seed)
            assert report.ci_low <= report.estimate <= report.ci_high

    def test_report_is_immutable_tuple(self):
        report = pair_match_rate(PackSpec(1, 2), 10, 0)
        assert isinstance(report, tuple)
        with pytest.raises(AttributeError):
            report.estimate = 0.0  # type: ignore[misc]

    def test_coverage_calibration(self):
        # 95% Wilson intervals over 100 independent seeds: at least 90 must
        # cover the exact value 0.375 (binomial slack below the nominal 95).
        truth = float(coincidence_probability(PackSpec(2, 2)))
        covered = sum(
            1
            for seed in range(100)
            if (report := pair_match_rate(PackSpec(2, 2), 2000, seed)).ci_low
            <= truth
            <= report.ci_high
        )
        assert covered >= 90

    def test_seeded_matches_equal_golden(self):
        golden = json.loads((GOLDEN / "pair_match_seeded.json").read_text("utf-8"))
        assert pair_match_digits() == golden

    def test_chunk_memory_stays_below_one_megabyte(self):
        # The first colors are drawn in slices into one narrow (2, 65536)
        # array; one full-width float64 draw alone would take 1 MB. Warmed
        # first, so numpy's one-time set-up is not counted.
        spec = PackSpec(60, 5)
        pair_match_rate(spec, 10, 0)
        tracemalloc.start()
        try:
            pair_match_rate(spec, _CHUNK, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_pack_size_past_four_billion(self):
        # The counts are uint64 there, which numpy's binomial reads only
        # after a cast to int64.
        report = pair_match_rate(PackSpec(2**33, 3), 10, 1)
        assert report.matches == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            pair_match_rate(PackSpec(1, 2), 0, 0)
        with pytest.raises(ValueError):
            pair_match_rate(PackSpec(1, 2), 10, -1)
        with pytest.raises(ValueError):
            pair_match_rate(PackSpec(1, 2), 10, 2**64)
        report = pair_match_rate(PackSpec(1, 2), 10, 2**64 - 1)
        assert report.seed == 2**64 - 1


class TestFirstColorCdf:
    @pytest.mark.parametrize("n, d", [(60, 5), (4, 2), (90, 3)])
    def test_is_the_exact_binomial_cdf_rounded_once(self, n, d):
        # (90, 3) is the largest n that draws its first color from the table
        # at d = 3; entries that round to 1.0 are left out.
        exact = [
            float(Fraction(sum(math.comb(n, j) * (d - 1) ** (n - j) for j in range(i + 1)), d**n))
            for i in range(n + 1)
        ]
        cdf = montecarlo._first_color_cdf(PackSpec(n, d))
        assert cdf.tolist() == [value for value in exact if value < 1.0]

    def test_only_where_numpy_inverts(self):
        assert montecarlo._first_color_cdf(PackSpec(91, 3)) is None
        assert montecarlo._first_color_cdf(PackSpec(5, 1)) is None
        assert montecarlo._first_color_cdf(PackSpec(0, 3)).size == 0


def _decode(code: int, spec: PackSpec) -> tuple[int, ...]:
    """The color counts of an endpoint code ``sum(count_c·(n + 1)**c)``."""
    counts = []
    for _ in range(spec.d):
        code, count = divmod(code, spec.n + 1)
        counts.append(count)
    return tuple(counts)


def _color_count_keys(spec: PackSpec, rng: np.random.Generator, rows: int) -> list[bytes]:
    """The endpoint counts of ``n`` int64 item colors per row, keyed as 0.3.0 keyed them."""
    colors = rng.integers(0, spec.d, size=(rows, spec.n))
    counts = np.stack([(colors == c).sum(axis=1) for c in range(spec.d)], axis=1)
    return montecarlo._row_keys(counts.astype(np.min_scalar_type(spec.n)))


class TestKeySources:
    @pytest.mark.parametrize(
        "n, d, source",
        [
            (2, 39, "_coded_keys"),  # 3**39 < 2**63
            (2, 40, "_sorted_color_keys"),  # 3**40 > 2**63
            (1, 2000, "_sorted_color_keys"),
            (16, 16, "_sorted_color_keys"),  # 17**16 > 2**63
            (200, 3, "_multinomial_keys"),  # n > 30·(d - 2)
            (5, 2, "_multinomial_keys"),
        ],
    )
    def test_shape_rule(self, n, d, source):
        assert montecarlo._key_source(PackSpec(n, d))[0] is getattr(montecarlo, source)

    @pytest.mark.parametrize("n, d", [(2, 3), (4, 3), (5, 4), (8, 4)])
    def test_decoded_codes_match_endpoint_law(self, n, d):
        # Chi-square at significance 0.001. (8, 4) draws runs of 6 colors, so
        # its last run holds 2 and reads its draw mod 4**2.
        spec, samples = PackSpec(n, d), 10**6
        codes = Counter(montecarlo._coded_keys(spec, _generator(41, n + d), samples))
        hist = Counter({_decode(code, spec): count for code, count in codes.items()})
        comps = list(compositions(spec))
        assert set(hist) <= set(comps)
        observed = [hist[c] for c in comps]
        expected = [float(endpoint_probability(spec, c)) * samples for c in comps]
        assert chisquare(observed, expected).pvalue > 0.001

    def test_code_table_runs(self):
        table, runs, extra = montecarlo._code_table(8, 4)
        assert (table.size, runs, extra) == (4**6, 2, 4)
        assert table[0] == 6 and table[-1] == 6 * 9**3  # six colors 0, six colors 3
        assert montecarlo._code_table(5, 4)[1:] == (1, 0)
        assert montecarlo._code_table(0, 4)[1:] == (0, 0)

    @pytest.mark.parametrize("n, d", [(1, 2000), (2, 40), (16, 16)])
    def test_sorted_colors_and_counts_give_equal_times(self, n, d, monkeypatch):
        # Both keys identify the endpoint of the same draws.
        spec, times = PackSpec(n, d), []
        for source in (montecarlo._sorted_color_keys, _color_count_keys):
            monkeypatch.setattr(montecarlo, "_key_source", lambda spec, source=source: (source, n))
            times.append(montecarlo._first_match_times(spec, _generator(5, 0), 20))
        assert times[0] == times[1]

    @pytest.mark.parametrize("n, d", [(2, 39), (2, 40)])
    def test_mean_within_five_standard_errors_of_exact(self, n, d):
        # Either side of (n + 1)**d < 2**63: coded keys, then sorted colors.
        spec = PackSpec(n, d)
        exact = float(exact_pmf_and_expectation(endpoint_spectrum(spec)).expectation)
        report = first_match_experiment(spec, 20000, 43)
        assert abs(report.mean - exact) < 5 * report.std_error


class StubGenerator:
    """Stands in for the generator behind a key source: keys that never repeat, and their counts."""

    def __init__(self) -> None:
        self.sizes: list[int] = []
        self._next = 0

    def keys(self, size):
        self.sizes.append(size)
        self._next += size
        return list(range(self._next - size, self._next))


@pytest.fixture
def stub_rows(monkeypatch):
    """Route the coded item-color key source through ``StubGenerator.keys``."""
    monkeypatch.setattr(montecarlo, "_coded_keys", lambda spec, rng, rows: rng.keys(rows))


class TestFirstMatchTrial:
    def test_seeded_output_matches_golden(self):
        golden = json.loads((GOLDEN / "first_match_seeded.json").read_text("utf-8"))
        assert list(golden["experiments"]) == [
            f"{n},{d}x{trials}@{seed}" for n, d, trials, seed in _GOLDEN_EXPERIMENTS
        ]
        assert first_match_digits() == golden

    def test_pigeonhole_guard(self, stub_rows):
        spec = PackSpec(4, 5)  # 70 distinct endpoints -> a repeat by pack 71
        assert montecarlo._key_source(spec)[0] is montecarlo._coded_keys
        cap = distinct_pack_count(spec) + 1
        rng = StubGenerator()
        with pytest.raises(AssertionError, match=f"no repeat within {cap} packs"):
            first_match_trial(spec, rng)
        assert rng.sizes == [16, 20, 25, 10]
        assert sum(rng.sizes) == cap

    def test_pigeonhole_guard_in_experiment(self, monkeypatch, stub_rows):
        spec = PackSpec(4, 5)
        cap = distinct_pack_count(spec) + 1
        monkeypatch.setattr(montecarlo, "_generator", lambda seed, stream: StubGenerator())
        with pytest.raises(AssertionError, match=f"no repeat within {cap} packs"):
            first_match_experiment(spec, 3, 0)

    @pytest.mark.parametrize("n, d", [(12, 12), (60, 5), (2, 3), (200, 3)])
    def test_batched_kernel_equals_repeated_trials(self, n, d):
        # Rows do not depend on how draws are split into calls, so the kernel's
        # look-ahead calls give the same times as one call per block.
        spec, trials = PackSpec(n, d), 300
        rng = _generator(7, 0)
        repeated = [first_match_trial(spec, rng) for _ in range(trials)]
        assert montecarlo._first_match_times(spec, _generator(7, 0), trials) == repeated

    def test_support_one_item_two_colors(self):
        rng = _generator(3, 0)
        values = {first_match_trial(PackSpec(1, 2), rng) for _ in range(200)}
        assert values == {2, 3}

    def test_degenerate_always_two(self):
        rng = _generator(5, 0)
        assert all(first_match_trial(PackSpec(0, 4), rng) == 2 for _ in range(50))

    def test_never_exceeds_pigeonhole_cap(self):
        spec = PackSpec(2, 2)  # 3 distinct endpoints -> at most 4 packs
        cap = distinct_pack_count(spec) + 1
        rng = _generator(17, 0)
        for _ in range(500):
            value = first_match_trial(spec, rng)
            assert 2 <= value <= cap


class TestFirstMatchExperiment:
    @pytest.mark.parametrize(
        "spec, packs",
        [
            (PackSpec(3, 300000), "8.4E+7"),
            (PackSpec(3, 2**63), "1.4E+28"),
            (PackSpec(10**16, 3), "1.4E+8"),  # counts far above 1: Robbins' bounds
            (PackSpec(38, 38), "5.3E+7"),  # about 5.7e7 by the exact q_max
            (PackSpec(10**12, 10**12), "6.1E+216248601005"),
        ],
    )
    def test_trial_beyond_the_memory_budget_is_refused_before_drawing(
        self, spec, packs, monkeypatch
    ):
        def refuse(spec):
            raise RuntimeError("the key source was asked for rows")

        monkeypatch.setattr(montecarlo, "_key_source", refuse)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"draws at least {re.escape(packs)} packs"):
            first_match_experiment(spec, 3, 0)
        with pytest.raises(ValueError, match="above the 1 GiB memory budget"):
            first_match_trial(spec, _generator(0, 0))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "shape",
        [(3, 10**5), (2, 10**6), (1, 10**6), (36, 36), (60, 5), (12, 12), (8, 3), (0, 3), (5, 1)],
    )
    def test_trials_within_the_memory_budget_pass_the_check(self, shape):
        # Only the check runs: (36, 36) alone would hold about 2e7 keys.
        montecarlo._check_trial_memory(PackSpec(*shape))

    def test_deterministic_reports(self):
        first = first_match_experiment(PackSpec(2, 3), 500, 5)
        second = first_match_experiment(PackSpec(2, 3), 500, 5)
        assert first == second
        assert first.algorithm == RNG_ALGORITHM

    def test_histogram_totals_and_interval(self):
        report = first_match_experiment(PackSpec(1, 2), 20000, 11)
        assert sum(report.histogram.values()) == 20000
        assert set(report.histogram) <= {2, 3}
        assert report.ci_low <= report.mean <= report.ci_high
        # Exact law {2: 1/2, 3: 1/2}: mean 2.5, sd 0.5.
        standard_error = 0.5 / math.sqrt(20000)
        assert abs(report.mean - 2.5) < 5 * standard_error
        assert abs(report.std_error - standard_error) < 3e-4
        assert abs(report.histogram[2] / 20000 - 0.5) < 5 * 0.5 / math.sqrt(20000)

    def test_matches_exact_law_one_item_three_colors(self):
        # Exact law {2: 1/3, 3: 4/9, 4: 2/9}: mean 26/9, variance 44/81.
        trials = 10**5
        report = first_match_experiment(PackSpec(1, 3), trials, 3)
        assert set(report.histogram) == {2, 3, 4}
        mean = float(Fraction(26, 9))
        standard_error = math.sqrt(44 / 81 / trials)
        assert abs(report.mean - mean) < 5 * standard_error
        for value, mass in {2: Fraction(1, 3), 3: Fraction(4, 9), 4: Fraction(2, 9)}.items():
            p = float(mass)
            band = 5 * math.sqrt(p * (1 - p) / trials)
            assert abs(report.histogram[value] / trials - p) < band
        # The sample discriminates the exact mean from the pairwise-model
        # value (~3.98, and ~3.07 under a survival-style variant): both sit
        # far outside the 5-sigma band around 26/9.
        assert abs(report.mean - 3.074) > 20 * standard_error

    def test_deterministic_across_chunks(self):
        trials = _CHUNK + 7
        first = first_match_experiment(PackSpec(1, 2), trials, 23)
        second = first_match_experiment(PackSpec(1, 2), trials, 23)
        assert first == second
        assert set(first.histogram) == {2, 3}
        assert sum(first.histogram.values()) == trials

    def test_multi_chunk_histogram_matches_exact_law(self):
        # Chi-square goodness of fit at significance 0.001 over three seed
        # streams, against the exact first-match law (support 2..N+1); (2, 6)
        # has fewer items than colors.
        trials = 2 * _CHUNK + 100
        for spec in [PackSpec(2, 3), PackSpec(2, 6)]:
            law = exact_pmf_and_expectation(endpoint_spectrum(spec))
            assert law.mode == "rational" and law.tail_bound == 0
            report = first_match_experiment(spec, trials, 29)
            assert set(report.histogram) <= set(law.pmf)
            observed = [report.histogram.get(m, 0) for m in law.pmf]
            expected = [float(mass) * trials for mass in law.pmf.values()]
            assert chisquare(observed, expected).pvalue > 0.001

    def test_trivial_experiment(self):
        report = first_match_experiment(PackSpec(0, 1), 10, 9)
        assert report.mean == 2.0
        assert report.std_error == 0.0
        assert report.histogram == {2: 10}
        assert report.ci_low == report.ci_high == 2.0

    def test_single_trial(self):
        # One trial has no sample variance: the standard error is 0, not a
        # difference of rounded squares.
        spec = PackSpec(8, 3)
        report = first_match_experiment(spec, 1, 9)
        time = first_match_trial(spec, _generator(9, 0))
        assert report.mean == time
        assert report.std_error == 0.0
        assert report.ci_low == report.ci_high == report.mean
        assert report.histogram == {time: 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            first_match_experiment(PackSpec(1, 2), 0, 0)
        with pytest.raises(ValueError):
            first_match_experiment(PackSpec(1, 2), 10, -3)


class TestEndpointHistogram:
    def test_totals_keys_and_determinism(self):
        spec = PackSpec(2, 2)
        first = endpoint_histogram(spec, 50000, 9)
        second = endpoint_histogram(spec, 50000, 9)
        assert first == second
        assert sum(first.values()) == 50000
        valid = set(compositions(spec))
        assert set(first) <= valid

    def test_pinned_flagship_counts(self):
        # Cross-run determinism golden; the counts also sit where the exact
        # endpoint law (1/4, 1/2, 1/4) says they should.
        hist = endpoint_histogram(PackSpec(2, 2), 10**6, 11)
        assert hist == {(0, 2): 249834, (1, 1): 499846, (2, 0): 250320}

    def test_ordered_model_matches_endpoint_law(self):
        # Chi-square goodness of fit at significance 0.001: the step-sequence
        # sampler reproduces the multinomial endpoint probabilities.
        samples = 200000
        for n, d in [(2, 2), (3, 3), (4, 2)]:
            spec = PackSpec(n, d)
            hist = endpoint_histogram(spec, samples, seed=60 + 10 * n + d)
            comps = list(compositions(spec))
            observed = [hist.get(c, 0) for c in comps]
            expected = [float(endpoint_probability(spec, c)) * samples for c in comps]
            assert chisquare(observed, expected).pvalue > 0.001

    @pytest.mark.parametrize(
        "samples, n, d",
        [(50, 7, 3), (40, 2, 9), (30, 0, 4), (1, 60, 5), (4000, 300, 2), (4000, 256, 3),
         (20, 1, 2000), (20, 2, 40)],
    )
    def test_keys_decode_to_per_color_sums(self, samples, n, d):
        # Coded keys, counts of 256 and more among them, and sorted colors
        # where the code overflows an int64 ((1, 2000), two bytes a color,
        # and (2, 40)), against one comparison pass per color on the same
        # draws: fewer samples than one stream holds.
        colors = _generator(5, 0).integers(0, d, size=(samples, n))
        counts = np.stack([(colors == c).sum(axis=1) for c in range(d)], axis=1)
        tally = Counter(tuple(row) for row in counts.tolist())
        hist = endpoint_histogram(PackSpec(n, d), samples, 5)
        assert list(hist.items()) == sorted(tally.items())

    def test_memory_grows_with_samples_times_n(self):
        # Sorted colors key each sample by its n two-byte colors here; keys
        # of per-color counts would take 16384·d int64s a chunk (313 MB
        # traced). The returned dict of 2000-tuples holds most of the 40 MB.
        spec = PackSpec(1, 2000)
        endpoint_histogram(spec, 10, 0)
        tracemalloc.start()
        try:
            hist = endpoint_histogram(spec, 1 << 14, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(hist.values()) == 1 << 14
        assert peak <= 40 * 2**20

    def test_empty_pack_histogram(self):
        hist = endpoint_histogram(PackSpec(0, 3), 1000, 4)
        assert hist == {(0, 0, 0): 1000}

    def test_validation(self):
        with pytest.raises(ValueError):
            endpoint_histogram(PackSpec(1, 2), 0, 0)
        with pytest.raises(ValueError):
            endpoint_histogram(PackSpec(1, 2), 10, -1)


class TestReportSerializationContract:
    def test_trial_report_fields(self):
        report = pair_match_rate(PackSpec(1, 2), 50, 13)
        record = report._asdict()
        assert record.keys() == {
            "seed",
            "trials",
            "matches",
            "estimate",
            "ci_low",
            "ci_high",
            "algorithm",
        }
        assert isinstance(record["estimate"], float)
        assert record["algorithm"] == "PCG64"

    def test_first_match_report_fields(self):
        report = first_match_experiment(PackSpec(1, 2), 50, 13)
        record = report._asdict()
        assert record.keys() == {
            "seed",
            "trials",
            "mean",
            "std_error",
            "ci_low",
            "ci_high",
            "histogram",
            "algorithm",
        }

    def test_numpy_types_do_not_leak(self):
        report = pair_match_rate(PackSpec(2, 2), 100, 1)
        assert type(report.matches) is int
        assert type(report.estimate) is float
        hist = endpoint_histogram(PackSpec(1, 2), 100, 2)
        assert all(type(k) is tuple for k in hist)
        assert all(type(v) is int for v in hist.values())
        assert all(
            type(coord) is int for key in hist for coord in key
        )
        fm = first_match_experiment(PackSpec(1, 2), 20, 3)
        assert all(type(k) is int for k in fm.histogram)
        assert all(type(v) is int for v in fm.histogram.values())
