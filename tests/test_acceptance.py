"""End-to-end acceptance gate.

Each ``test_criterion_NN_*`` function below is one acceptance check; the
conftest terminal-summary hook prints a one-line PASS/FAIL verdict per
criterion at the end of the run.  Runtime ceilings wrap only the work being
bounded (fresh memo tables where warm caches would make the bound hollow).
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from scipy.stats import chisquare

from packmatch import cli
from packmatch.coincidence import (
    PackSpec,
    coincidence_probability,
    compositions,
    count_closed,
    count_gf,
    count_recursive,
    distinct_pack_count,
    endpoint_probability,
    two_color_probability,
)
from packmatch.exactmath import binomial, significant_string
from packmatch.firstmatch import (
    PackSizeDistribution,
    endpoint_spectrum,
    exact_pmf_and_expectation,
    mixture_match_probability,
    pairwise_expectation,
    pairwise_pmf,
)
from packmatch.montecarlo import (
    endpoint_histogram,
    first_match_experiment,
    pair_match_rate,
)

COUNT_GRID = [
    [1, 2, 3, 4, 5],
    [1, 6, 15, 28, 45],
    [1, 20, 93, 256, 545],
    [1, 70, 639, 2716, 7885],
    [1, 252, 4653, 31504, 127905],
]

PROBABILITY_GRID = [
    ["1.0000", "0.5000", "0.3333", "0.2500", "0.2000"],
    ["1.0000", "0.3750", "0.1852", "0.1094", "0.0720"],
    ["1.0000", "0.3125", "0.1276", "0.0625", "0.0349"],
    ["1.0000", "0.2734", "0.0974", "0.0414", "0.0202"],
    ["1.0000", "0.2461", "0.0788", "0.0300", "0.0131"],
]


def run_json(*argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, "--format", "json"])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def test_criterion_01_count_table():
    """The 5x5 identical-pair count table matches its golden integers in < 1 s."""
    start = time.perf_counter()
    record = run_json("table", "5", "5", "counts")
    elapsed = time.perf_counter() - start
    values = [[int(cell) for cell in row["values"]] for row in record["rows"]]
    assert values == COUNT_GRID
    assert values[3][2] == 639
    assert values[4][4] == 127905
    assert elapsed < 1.0


def test_criterion_02_probability_table():
    """The 5x5 match-probability table at 4 decimal digits matches its golden grid in < 1 s."""
    start = time.perf_counter()
    record = run_json("table", "5", "5", "probabilities")
    elapsed = time.perf_counter() - start
    values = [row["values"] for row in record["rows"]]
    assert values == PROBABILITY_GRID
    # The (n=2, d=3) cell is 15/81 = 0.185185...; guard against the
    # digit-transposed rendering 0.1825 occasionally quoted for this cell.
    assert values[1][2] == "0.1852"
    assert values[1][2] != "0.1825"
    assert elapsed < 1.0


def test_criterion_03_headline_probability():
    """All three counting routes agree exactly at (60, 5), where the
    probability truncates to 9.752e-05 (0.00009752) and rounds to
    9.753e-05; recursive < 1 s, closed < 60 s."""
    spec = PackSpec(60, 5)

    start = time.perf_counter()
    recursive = count_recursive(spec)
    recursive_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    closed = count_closed(spec)
    closed_elapsed = time.perf_counter() - start

    assert recursive == closed == count_gf(spec)

    probability = Fraction(recursive, 5 ** (2 * 60))
    assert probability == coincidence_probability(spec)
    assert significant_string(probability, 4) == "9.753e-05"
    # Fixed-point truncation to eight decimal places, via integer arithmetic.
    assert probability.numerator * 10**8 // probability.denominator == 9752

    assert recursive_elapsed < 1.0
    assert closed_elapsed < 60.0


def test_criterion_04_pairwise_expectation(headline_probability):
    """The pairwise-model expected pack count at the flagship match
    probability lies in [128.5, 129.5] ("about 129") in < 1 s."""
    start = time.perf_counter()
    series = pairwise_expectation(headline_probability)
    elapsed = time.perf_counter() - start
    assert 128.5 <= float(series.value) <= 129.5
    assert elapsed < 1.0


def test_criterion_05_distinct_pack_count():
    """The number of distinct pack contents at (60, 5) is C(64, 4) = 635376."""
    assert distinct_pack_count(PackSpec(60, 5)) == 635376
    assert binomial(64, 4) == 635376


def test_criterion_06_two_color_identity():
    """For every n <= 30, the squared-binomial sum equals the central
    binomial coefficient and the two-color match probability is
    C(2n, n) / 4^n, all exactly."""
    for n in range(31):
        central = binomial(2 * n, n)
        assert sum(binomial(n, k) ** 2 for k in range(n + 1)) == central
        expected = Fraction(central, 4**n)
        assert two_color_probability(n) == expected
        assert coincidence_probability(PackSpec(n, 2)) == expected


def test_criterion_07_route_equivalence():
    """closed, recursive, and generating-function counts agree exactly on
    the full grid 0 <= n <= 8, 1 <= d <= 5 (45 instances) in < 10 s."""
    start = time.perf_counter()
    checked = 0
    for n in range(9):
        for d in range(1, 6):
            spec = PackSpec(n, d)
            closed = count_closed(spec)
            assert closed == count_recursive(spec)
            assert closed == count_gf(spec)
            checked += 1
    assert checked == 45
    assert time.perf_counter() - start < 10.0


def test_criterion_08_exact_small_laws():
    """Hand-enumerable first-match laws at n = 1 hold exactly (E = 5/2 for
    two colors, 26/9 for three), and the pairwise pmf's excess mass 29/27
    at p = 1/3 stays on record as a permanent witness."""
    law_two = exact_pmf_and_expectation(endpoint_spectrum(PackSpec(1, 2)))
    assert law_two.pmf == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert law_two.expectation == Fraction(5, 2)

    law_three = exact_pmf_and_expectation(endpoint_spectrum(PackSpec(1, 3)))
    assert law_three.pmf == {2: Fraction(1, 3), 3: Fraction(4, 9), 4: Fraction(2, 9)}
    assert law_three.expectation == Fraction(26, 9)

    mass = sum(pairwise_pmf(Fraction(1, 3), length) for length in (2, 3, 4))
    assert mass == Fraction(29, 27)
    assert mass > 1


def test_criterion_09_monte_carlo_calibration(headline_spec, headline_law):
    """One million pair trials give a CI covering 3/8; ten thousand
    first-match trials at (60, 5) land within 3 standard errors of the
    exact expectation and within 10% of 129. Total runtime < 5 min."""
    start = time.perf_counter()

    pair = pair_match_rate(PackSpec(2, 2), 10**6, seed=7)
    assert pair.ci_low <= 0.375 <= pair.ci_high

    experiment = first_match_experiment(headline_spec, 10**4, seed=7)
    exact_value = float(headline_law.expectation)
    assert abs(experiment.mean - exact_value) <= 3 * experiment.std_error
    assert abs(experiment.mean - 129) <= 12.9

    assert time.perf_counter() - start < 300.0


def test_criterion_10_mixture_degeneracy(headline_probability):
    """A pack-size mixture concentrated entirely on n = 60 reproduces the
    single-size five-color match probability exactly."""
    distribution = PackSizeDistribution.from_pairs([(60, Fraction(1))])
    assert mixture_match_probability(distribution, 5) == headline_probability


def test_criterion_11_endpoint_distribution():
    """Endpoint probabilities sum to exactly 1 for n <= 8, d <= 4, and
    sampled endpoint histograms pass a chi-square test at significance
    0.001 for n <= 4, d <= 3 with one million samples each."""
    for d in range(1, 5):
        for n in range(9):
            spec = PackSpec(n, d)
            total = sum(
                endpoint_probability(spec, endpoint) for endpoint in compositions(spec)
            )
            assert total == Fraction(1)

    samples = 10**6
    for n in range(1, 5):
        # A single color has a single endpoint: the histogram is deterministic.
        histogram = endpoint_histogram(PackSpec(n, 1), samples, seed=50 + 10 * n + 1)
        assert histogram == {(n,): samples}
        for d in (2, 3):
            spec = PackSpec(n, d)
            histogram = endpoint_histogram(spec, samples, seed=50 + 10 * n + d)
            endpoints = list(compositions(spec))
            observed = [histogram.get(endpoint, 0) for endpoint in endpoints]
            expected = [
                float(endpoint_probability(spec, endpoint)) * samples
                for endpoint in endpoints
            ]
            assert chisquare(observed, expected).pvalue > 0.001
