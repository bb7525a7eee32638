"""First-duplicate distribution: pairwise closed form and exact oracle."""

from __future__ import annotations

import decimal
import io
import itertools
import json
import math
import pickle
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from packmatch import cli, coincidence, firstmatch
from packmatch.coincidence import (
    ENDPOINT_CEILING,
    PackSpec,
    coincidence_probability,
    compositions,
    distinct_pack_count,
    endpoint_probability,
    two_color_probability,
)
from packmatch.exactmath import factorial
from packmatch.firstmatch import (
    BOUND_PRECISION,
    DEFAULT_PRECISION,
    EXACT_ENDPOINT_LIMIT,
    PAIRWISE_PRECISION,
    _PAIRWISE_MAX_TERMS,
    EndpointSpectrum,
    FirstMatchLaw,
    PackSizeDistribution,
    SeriesExpectation,
    _geometric_tail,
    endpoint_spectrum,
    exact_pmf_and_expectation,
    mixture_match_probability,
    pairwise_expectation,
    pairwise_pmf,
)


def pairwise_term(p: Fraction, index: int) -> Fraction:
    """Exact expectation-series term: l * (l-1) * p * (1-p)^C(l-1, 2)."""
    exponent = (index - 1) * (index - 2) // 2
    return index * (index - 1) * p * (1 - p) ** exponent


def stopping_rule(p: Fraction, index: int, tol: float) -> Decimal | None:
    """The pairwise series' stopping rule at ``index``, its powers taken directly."""
    with decimal.localcontext(
        decimal.Context(prec=PAIRWISE_PRECISION, Emax=10**9, Emin=-(10**9))
    ):
        pd = Decimal(p.numerator) / Decimal(p.denominator)
        omp = 1 - pd
        term = Decimal(index * (index - 1)) * pd * omp ** ((index - 1) * (index - 2) // 2)
        ratio = Decimal(index + 1) / Decimal(index - 1) * omp ** (index - 1)
        return _geometric_tail(term, ratio, Decimal(str(tol)))


GOLDEN = Path(__file__).resolve().parent / "golden"


def forced_spectrum(spec: PackSpec, mode: str, precision: int | None = None) -> EndpointSpectrum:
    """``spec``'s spectrum in the arithmetic ``mode``, built by the constructor."""
    return EndpointSpectrum(coincidence.partition_classes(spec), spec.d**spec.n, mode, precision)


def oracle_digits(n: int, d: int, precision: int | None) -> dict:
    """reprs of every survival, its error bound and the law, for one spectrum.

    ``precision`` None selects rational mode. Survivals and bounds run over
    m = 0..N+1 with N the number of distinct endpoints; the law is taken at
    the default tolerance from a fresh spectrum.
    """
    mode = "rational" if precision is None else "decimal"

    def build():
        return forced_spectrum(PackSpec(n, d), mode, precision)

    spectrum = build()
    support = range(spectrum.num_endpoints + 2)
    law = exact_pmf_and_expectation(build())
    return {
        "survival": [repr(spectrum.survival(m)) for m in support],
        "survival_error": [repr(spectrum.survival_error(m)) for m in support],
        "expectation": repr(law.expectation),
        "tail_bound": repr(law.tail_bound),
        "last_index": law.last_index,
        "precision_alarm": law.precision_alarm,
    }


def product_survivals(spec: PackSpec, m: int) -> list[Fraction]:
    """k! * e_k(q) for k = 0..m from the product prod_v (1 + w_v x), without Newton's identities.

    ``w_v = D * q_v`` are the integer endpoint weights, ``D = d**n``; endpoints
    with equal weights are expanded together as binomials (1 + w x)**mult.
    """
    den = spec.d**spec.n
    weights = Counter(
        (endpoint_probability(spec, c) * den).numerator for c in compositions(spec)
    )
    poly = [1] + [0] * m
    for weight, mult in weights.items():
        factor = [math.comb(mult, j) * weight**j for j in range(min(mult, m) + 1)]
        poly = [
            sum(poly[i - j] * factor[j] for j in range(min(i, len(factor) - 1) + 1))
            for i in range(m + 1)
        ]
    return [Fraction(math.factorial(k) * poly[k], den**k) for k in range(m + 1)]


def product_survival(spec: PackSpec, m: int) -> Fraction:
    """m! * e_m(q) from the product prod_v (1 + w_v x); see :func:`product_survivals`."""
    return product_survivals(spec, m)[m]


def class_order_survivals(classes, steps: int) -> list[int]:
    """m! * E_m for m = 0..steps, the survivals times D**m, without Newton's identities.

    ``classes`` holds (weight, multiplicity) pairs over one denominator D.
    ``P(t) = prod_c (1 + w_c t)**m_c = sum_m E_m t**m`` with ``E_m = D**m e_m``
    solves ``Q P' = R P``, where ``Q = prod_c (1 + w_c t)`` and
    ``R = sum_c m_c w_c Q / (1 + w_c t)``. Matching the coefficients of t**m
    gives, over the K classes,
    ``(m+1) E_{m+1} = sum_{i<K} R_i E_{m-i} - sum_{1<=i<=K} Q_i (m+1-i) E_{m+1-i}``,
    whose division by m + 1 is exact. A step costs O(K) integer operations.
    """
    merged = Counter()
    for weight, size in classes:
        merged[weight] += size
    q = [1]
    for weight in merged:
        q = [a + weight * b for a, b in zip(q + [0], [0] + q)]
    r = [0] * (len(q) - 1)
    for weight, size in merged.items():
        quotient = 0  # synthetic division of Q by (1 + w t), one coefficient at a time
        for i in range(len(r)):
            quotient = q[i] - weight * quotient
            r[i] += size * weight * quotient
    e = [1]
    for m in range(steps):
        total = sum(r[i] * e[m - i] for i in range(min(len(r), m + 1)))
        total -= sum(q[i] * (m + 1 - i) * e[m + 1 - i] for i in range(1, min(len(q), m + 2)))
        value, remainder = divmod(total, m + 1)
        assert remainder == 0, m
        e.append(value)
    return [math.factorial(m) * value for m, value in enumerate(e)]


class TestPairwisePmf:
    def test_examples(self):
        assert pairwise_pmf(Fraction(1, 2), 2) == Fraction(1, 2)
        assert pairwise_pmf(Fraction(1, 3), 3) == Fraction(4, 9)
        assert pairwise_pmf(Fraction(1, 3), 4) == Fraction(8, 27)
        assert pairwise_pmf(Fraction(1, 4), 1) == 0

    def test_value_at_two_equals_pair_probability(self):
        for p in [Fraction(1, 7), Fraction(3, 8), Fraction(1), Fraction(0)]:
            assert pairwise_pmf(p, 2) == p

    def test_values_lie_in_unit_interval(self):
        for p in [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]:
            for length in range(1, 40):
                assert 0 <= pairwise_pmf(p, length) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            pairwise_pmf(Fraction(3, 2), 2)
        with pytest.raises(ValueError):
            pairwise_pmf(Fraction(-1, 2), 2)
        with pytest.raises(ValueError):
            pairwise_pmf(Fraction(1, 2), 0)

    def test_total_mass_can_exceed_one(self):
        # Permanent witness that this model is not a true pmf: at p = 1/3 the
        # first three terms already sum to 29/27 > 1. The pairwise match
        # indicators are only pairwise independent, not mutually independent.
        total = sum(pairwise_pmf(Fraction(1, 3), length) for length in (2, 3, 4))
        assert total == Fraction(29, 27)
        assert total > 1
        assert pairwise_pmf(Fraction(1, 3), 5) > 0  # and the series continues


class TestPairwiseExpectation:
    def test_matches_exact_partial_sums(self):
        p = Fraction(1, 3)
        series = pairwise_expectation(p)
        partial = sum(
            (pairwise_term(p, index) for index in range(2, series.last_index + 1)),
            Fraction(0),
        )
        # The 40-digit decimal summation tracks the exact partial sum to far
        # below the reported tail bound.
        assert abs(Fraction(series.value) - partial) < Fraction(1, 10**30)
        assert Decimal(0) <= series.tail_bound <= Decimal("1e-12")
        assert abs(float(series.value) - 3.979886532006703) < 1e-14

    def test_series_value_semantics(self):
        # Expected strings captured from the frozen-dataclass version.
        series = SeriesExpectation(Decimal("2.5"), tail_bound=Decimal("1E-13"), last_index=7)
        assert repr(series) == (
            "SeriesExpectation(value=Decimal('2.5'), tail_bound=Decimal('1E-13'), last_index=7)"
        )
        same = SeriesExpectation(value=Decimal("2.5"), tail_bound=Decimal("1E-13"), last_index=7)
        assert series == same
        assert hash(series) == hash(same)
        assert series != SeriesExpectation(Decimal("2.5"), Decimal("1E-13"), 8)
        for attr in ("value", "extra"):
            with pytest.raises(AttributeError):
                setattr(series, attr, Decimal(0))

    def test_tail_bound_dominates_truncated_mass(self):
        p = Fraction(1, 3)
        series = pairwise_expectation(p, tol=1e-6)
        extended = pairwise_expectation(p, tol=1e-18)
        truncated_mass = Fraction(extended.value) - Fraction(series.value)
        assert 0 <= truncated_mass <= Fraction(series.tail_bound) + Fraction(1, 10**17)

    def test_certain_match_gives_two(self):
        series = pairwise_expectation(Fraction(1))
        assert series.value == 2
        assert series.tail_bound == 0

    def test_headline_value(self, headline_probability):
        series = pairwise_expectation(headline_probability)
        assert Decimal("128.5") <= series.value <= Decimal("129.5")
        assert abs(float(series.value) - 128.91228023047068) < 1e-10
        assert series.tail_bound <= Decimal("1e-12")
        assert series.last_index == 841

    def test_validation(self):
        with pytest.raises(ValueError):
            pairwise_expectation(Fraction(0))
        with pytest.raises(ValueError):
            pairwise_expectation(Fraction(5, 4))
        # The term ratio stays >= 1 for every l <= 5 * 10**6 at this p, so
        # the series cannot stop within its term cap: refused before summing.
        with pytest.raises(ValueError, match="more than 5000000 terms"):
            pairwise_expectation(Fraction(2, 5_000_000**2 - 1))

    def test_series_that_cannot_reach_tol_is_refused_up_front(self):
        # p ~ 1.2e-12: the term ratio drops below 1 before the term cap, but
        # at the cap the term (tol 1e-12) or its geometric tail bound, with
        # 1 - r ~ 6e-6 (tol 1e-4), is still above the tolerance.
        p = coincidence_probability(PackSpec(24, 24))
        for tol in (1e-12, 1e-4):
            with pytest.raises(ValueError, match="stays above the tolerance"):
                pairwise_expectation(p, tol=tol)

    @pytest.mark.parametrize(
        "p",
        [
            Fraction(1, 3),
            coincidence_probability(PackSpec(60, 5)),
            Fraction(1, 10**6),
            Fraction(1, 10**9),
        ],
    )
    @pytest.mark.parametrize("tol", [1e-4, 1e-12])
    def test_stopping_rule_holds_from_the_stopping_index_on(self, p, tol):
        # The up-front refusal rests on this: the rule fails just before the
        # index where the sum stops, and holds there and at the term cap.
        last = pairwise_expectation(p, tol=tol).last_index
        assert stopping_rule(p, last - 1, tol) is None
        assert stopping_rule(p, last, tol) is not None
        assert stopping_rule(p, _PAIRWISE_MAX_TERMS, tol) is not None

    @pytest.mark.parametrize(
        "spec, tol", [((24, 24), 1e-4), ((24, 24), 1e-12), ((30, 30), 1e-12)]
    )
    def test_stopping_rule_fails_at_the_cap_for_refused_series(self, spec, tol):
        p = coincidence_probability(PackSpec(*spec))
        assert stopping_rule(p, _PAIRWISE_MAX_TERMS, tol) is None
        with pytest.raises(ValueError, match="more than 5000000 terms"):
            pairwise_expectation(p, tol=tol)

    def test_small_probability_above_the_gates_still_converges(self):
        series = pairwise_expectation(Fraction(1, 10**11))
        assert series.tail_bound <= Decimal("1e-12")
        assert series.last_index < 5_000_000


@pytest.mark.parametrize("tol", [0.0, 1.0, math.nan, -1e-12])
def test_tolerance_outside_unit_interval_is_refused(tol):
    with pytest.raises(ValueError, match="tol must lie strictly between 0 and 1"):
        pairwise_expectation(Fraction(1, 3), tol=tol)
    with pytest.raises(ValueError, match="tol must lie strictly between 0 and 1"):
        exact_pmf_and_expectation(endpoint_spectrum(PackSpec(20, 4)), tol=tol)


class TestEndpointSpectrum:
    def test_example_power_sums(self):
        one_two = endpoint_spectrum(PackSpec(1, 2))
        assert one_two.mode == "rational"
        assert one_two.num_endpoints == 2
        assert one_two.power_sum(1) == 1
        assert one_two.power_sum(2) == Fraction(1, 2)

        two_two = endpoint_spectrum(PackSpec(2, 2))
        assert two_two.power_sum(2) == Fraction(3, 8)

        one_three = endpoint_spectrum(PackSpec(1, 3))
        assert one_three.power_sum(2) == Fraction(1, 3)
        assert one_three.power_sum(3) == Fraction(1, 9)

    def test_second_power_sum_equals_pair_match_probability(self):
        # S_2 = sum q_v^2 is exactly the single-pair match probability.
        for n in range(7):
            for d in range(1, 5):
                spec = PackSpec(n, d)
                spectrum = endpoint_spectrum(spec)
                assert spectrum.power_sum(2) == coincidence_probability(spec)

    def test_first_power_sum_is_one(self):
        for n, d in [(0, 3), (1, 1), (4, 3), (6, 2)]:
            assert endpoint_spectrum(PackSpec(n, d)).power_sum(1) == 1

    def test_power_sums_strictly_decreasing(self):
        # Non-degenerate spectra have every q_v < 1, so S_(j+1) < S_j.
        spectrum = endpoint_spectrum(PackSpec(3, 3))
        for j in range(1, 10):
            assert spectrum.power_sum(j + 1) < spectrum.power_sum(j)

    def test_power_sums_decreasing_in_decimal_mode(self, headline_spec):
        spectrum = endpoint_spectrum(headline_spec)
        assert spectrum.mode == "decimal"
        assert abs(spectrum.power_sum(1) - 1) < Decimal("1e-100")
        for j in range(1, 12):
            assert spectrum.power_sum(j + 1) < spectrum.power_sum(j)

    def test_mode_selection_gates(self, headline_spec):
        assert endpoint_spectrum(PackSpec(8, 4)).mode == "rational"
        assert distinct_pack_count(headline_spec) > EXACT_ENDPOINT_LIMIT
        big = endpoint_spectrum(headline_spec)
        assert big.mode == "decimal"
        assert big.precision == DEFAULT_PRECISION
        # The rational/decimal boundary sits between these two shapes.
        below = endpoint_spectrum(PackSpec(139, 3))
        assert below.num_endpoints == 9870 <= EXACT_ENDPOINT_LIMIT
        assert below.mode == "rational"
        above = endpoint_spectrum(PackSpec(140, 3))
        assert above.num_endpoints == 10011 > EXACT_ENDPOINT_LIMIT
        assert above.mode == "decimal"
        forced = forced_spectrum(PackSpec(3, 3), "decimal", 30)
        assert forced.mode == "decimal"
        assert forced.precision == 30
        # The default mode picks rational below the limit whatever the precision.
        assert endpoint_spectrum(PackSpec(3, 3), precision=30).mode == "rational"
        assert endpoint_spectrum(PackSpec(140, 3), precision=30).precision == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            forced_spectrum(PackSpec(2, 2), "float")
        with pytest.raises(ValueError):
            forced_spectrum(PackSpec(2, 2), "decimal", 2)

    def test_endpoint_ceiling_guard(self):
        with pytest.raises(ValueError, match="ceiling"):
            # C(139, 39) is astronomically above the default 10^7 ceiling.
            endpoint_spectrum(PackSpec(100, 40))

    def test_power_sum_range_checks(self):
        spectrum = endpoint_spectrum(PackSpec(2, 2))
        with pytest.raises(ValueError):
            spectrum.power_sum(0)
        # Endpoint probabilities 1/4, 1/2, 1/4: S_4 = 2/256 + 1/16.
        assert spectrum.power_sum(4) == Fraction(9, 128)


class TestExactSurvival:
    def test_examples(self):
        one_two = endpoint_spectrum(PackSpec(1, 2))
        assert one_two.survival(2) == Fraction(1, 2)
        assert one_two.survival(3) == 0
        one_three = endpoint_spectrum(PackSpec(1, 3))
        assert one_three.survival(3) == Fraction(2, 9)

    def test_boundary_values(self):
        spectrum = endpoint_spectrum(PackSpec(2, 3))
        assert spectrum.survival(0) == 1
        assert spectrum.survival(1) == 1
        assert spectrum.survival(spectrum.num_endpoints + 1) == 0
        assert spectrum.survival(10**6) == 0
        with pytest.raises(ValueError):
            spectrum.survival(-1)

    def test_non_increasing_and_zero_after_support(self):
        spectrum = endpoint_spectrum(PackSpec(2, 3))
        values = [spectrum.survival(m) for m in range(8)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier
        assert values[6] > 0  # all 6 distinct endpoints can still be distinct
        assert values[7] == 0  # pigeonhole beyond the support

    def test_grows_power_sums_on_demand(self):
        # A fresh spectrum asked for late indices first, out of order, returns
        # exactly what a spectrum walked index by index returns.
        spec = PackSpec(4, 3)
        for mode in ("rational", "decimal"):
            walked = forced_spectrum(spec, mode)
            powers = [walked.power_sum(j) for j in range(1, 13)]
            survivals = [walked.survival(m) for m in range(13)]
            errors = [walked.survival_error(m) for m in range(13)]

            fresh = forced_spectrum(spec, mode)
            with pytest.raises(ValueError):
                fresh.power_sum(0)
            with pytest.raises(ValueError):
                fresh.survival(-1)
            assert fresh.survival_error(9) == errors[9]
            assert fresh.survival(5) == survivals[5]
            assert fresh.power_sum(12) == powers[11]
            assert fresh.survival(12) == survivals[12]
            assert fresh.power_sum(3) == powers[2]
            assert fresh.survival_error(2) == errors[2]
            assert [fresh.survival(m) for m in range(13)] == survivals
            assert [fresh.survival_error(m) for m in range(13)] == errors
            assert [fresh.power_sum(j) for j in range(1, 13)] == powers
            assert (errors[9] is None) == (mode == "rational")

    def test_newton_matches_direct_expansion(self):
        # m! * e_m from Newton's identities vs. the m-th elementary symmetric
        # polynomial expanded literally over the endpoint probabilities.
        for n, d in [(2, 2), (4, 2), (2, 3), (1, 4), (3, 3), (2, 4)]:
            spec = PackSpec(n, d)
            values = [endpoint_probability(spec, c) for c in compositions(spec)]
            assert len(values) <= 12
            spectrum = endpoint_spectrum(spec)
            for m in range(2, 7):
                direct = sum(
                    (math.prod(combo) for combo in itertools.combinations(values, m)),
                    Fraction(0),
                )
                assert spectrum.survival(m) == factorial(m) * direct

    def test_integer_newton_matches_product_expansion(self):
        for n, d in [(5, 4), (6, 3)]:
            spec = PackSpec(n, d)
            spectrum = forced_spectrum(spec, "rational")
            support = spectrum.num_endpoints
            for m in range(support + 2):
                expected = product_survival(spec, m) if m <= support else 0
                assert spectrum.survival(m) == expected, (n, d, m)
        long_walk = endpoint_spectrum(PackSpec(7, 7))
        assert long_walk.mode == "rational"
        assert long_walk.survival(216) == product_survival(PackSpec(7, 7), 216)

    def test_integer_newton_rejects_a_corrupted_step(self, monkeypatch):
        # Feed the third integer Newton step a sum that is off by one: the
        # exact division by k must notice, and the CLI exits 4 on it.
        calls = []

        def corrupt_divmod(total, k):
            calls.append(k)
            return divmod(total + (len(calls) == 3), k)

        monkeypatch.setattr(firstmatch, "divmod", corrupt_divmod, raising=False)
        with pytest.raises(AssertionError, match="Newton step 3 is not an integer"):
            forced_spectrum(PackSpec(4, 3), "rational").survival(4)
        calls.clear()
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = cli.main(["expect", "--n", "4", "--d", "3", "--model", "exact"])
        assert code == 4
        assert err.getvalue() == "internal check failed: Newton step 3 is not an integer\n"

    def test_split_rational_walk_matches_product_expansion(self):
        # (7, 7) has 14 classes, so the Newton sum splits at s = 28 and the
        # 188 steps past it run on the tail sums; every survival stays exact.
        spec = PackSpec(7, 7)
        spectrum = endpoint_spectrum(spec)
        assert spectrum.mode == "rational"
        assert spectrum.split_index is None
        assert [spectrum.survival(m) for m in range(217)] == product_survivals(spec, 216)
        assert spectrum.split_index == 28
        assert spectrum.tail_classes == spectrum.num_classes == 14

    def test_split_counters(self):
        # The split waits until 2 * (classes still active) <= index.
        flagship = endpoint_spectrum(PackSpec(60, 5))
        flagship.survival(173)
        assert (flagship.split_index, flagship.tail_classes) == (173, 85)
        # Pruned to about half its 36 classes by index 46 at 128 digits;
        # fewer digits prune sooner.
        for precision, split, tail in [(40, 26, 13), (128, 46, 23), (256, 62, 31)]:
            spectrum = forced_spectrum(PackSpec(10, 10), "decimal", precision)
            spectrum.survival(split)
            assert (spectrum.split_index, spectrum.tail_classes) == (split, tail)
        # The walk ends before the rule holds: plain convolution throughout.
        for shape in [(140, 3), (300, 2)]:
            spectrum = endpoint_spectrum(PackSpec(*shape))
            law = exact_pmf_and_expectation(spectrum)
            assert law.last_index < 2 * spectrum.num_classes
            assert spectrum.split_index is None
            assert spectrum.tail_classes == 0

    def test_precisions_agree_within_their_bounds_past_the_split(self):
        # 40 and 256 digits split at different indices (26 and 62) and prune
        # differently, yet every survival of the (10, 10) walk agrees within
        # the sum of the two tracked bounds.
        spec = PackSpec(10, 10)
        low = forced_spectrum(spec, "decimal", 40)
        high = forced_spectrum(spec, "decimal", 256)
        last = exact_pmf_and_expectation(high).last_index
        assert last == 1351
        for m in range(last + 1):
            gap = abs(Fraction(low.survival(m)) - Fraction(high.survival(m)))
            assert gap <= Fraction(low.survival_error(m)) + Fraction(high.survival_error(m)), m
        assert (low.split_index, high.split_index) == (26, 62)

    def test_decimal_mode_matches_rational_within_tracked_error(self):
        # Every n <= 10, 2 <= d <= 6 with at most 300 endpoints: 41 shapes.
        shapes = [
            PackSpec(n, d)
            for d in range(2, 7)
            for n in range(1, 11)
            if distinct_pack_count(PackSpec(n, d)) <= 300
        ]
        assert len(shapes) == 41
        for spec in shapes:
            exact = forced_spectrum(spec, "rational")
            for precision in (8, 10, 12, 16, 20, 30, 40):
                approx = forced_spectrum(spec, "decimal", precision)
                law = exact_pmf_and_expectation(approx)
                for m in range(law.last_index + 1):
                    error = approx.survival_error(m)
                    gap = abs(Fraction(approx.survival(m)) - exact.survival(m))
                    assert gap <= Fraction(error), (precision, spec, m)
                    assert len(error.as_tuple().digits) <= BOUND_PRECISION
                    if precision == 40:
                        assert error < Decimal("1e-20")
                assert law.survival_error == max(
                    approx.survival_error(m) for m in range(law.last_index + 1)
                )

    def test_low_precision_digits_match_golden(self):
        # At these precisions the Newton sums cancel to a few digits, so any
        # change in the order or sign of an operation shows in the reprs.
        golden = json.loads((GOLDEN / "oracle_low_precision.json").read_text("utf-8"))
        assert list(golden) == ["8,3@6", "6,3@5", "5,4@8", "5,4@rational"]
        for key, expected in golden.items():
            shape, _, precision = key.partition("@")
            n, d = map(int, shape.split(","))
            digits = oracle_digits(n, d, None if precision == "rational" else int(precision))
            assert digits == expected, key
        assert golden["8,3@6"]["precision_alarm"]

    def test_survival_error_reporting(self):
        rational = endpoint_spectrum(PackSpec(2, 2))
        rational.survival(2)
        assert rational.survival_error(2) is None

        spectrum = forced_spectrum(PackSpec(3, 3), "decimal", 40)
        assert spectrum.survival_error(0) == 0
        assert spectrum.survival_error(1) == 0
        assert spectrum.survival_error(spectrum.num_endpoints + 5) == 0
        for either_mode in (rational, spectrum):
            with pytest.raises(ValueError, match="pack count must be non-negative"):
                either_mode.survival_error(-1)
        error = spectrum.survival_error(3)  # computes survival(3) first
        assert error >= 0
        spectrum.survival(3)
        assert spectrum.survival_error(3) == error


class TestClassLists:
    """The oracle on class lists that no pack shape produces."""

    @pytest.mark.parametrize("size", [1, 2, 7, 23, 365])
    def test_birthday_problem(self, size):
        # K equally likely endpoints: P[X > m] = K! / ((K - m)! * K**m).
        rational = EndpointSpectrum([(1, size)], size, "rational", None)
        approx = EndpointSpectrum([(1, size)], size, "decimal", 40)
        assert rational.num_endpoints == approx.num_endpoints == size
        assert rational.num_classes == 1
        for m in range(size + 3):
            expected = Fraction(math.perm(size, m) if m <= size else 0, size**m)
            assert rational.survival(m) == expected, m
            gap = abs(Fraction(approx.survival(m)) - expected)
            assert gap <= Fraction(approx.survival_error(m)), m

    def test_decimal_past_the_split_agrees_with_rational(self):
        # Three weights split the Newton sum at s = 6 (2 * 3 <= 6); the
        # survivals are compared over the whole support of 35 endpoints.
        classes = [(3, 5), (2, 10), (1, 20)]
        exact = EndpointSpectrum(classes, 55, "rational", None)
        approx = EndpointSpectrum(classes, 55, "decimal", 30)
        for m in range(exact.num_endpoints + 3):
            gap = abs(Fraction(approx.survival(m)) - exact.survival(m))
            assert gap <= Fraction(approx.survival_error(m)), m
        assert exact.survival(exact.num_endpoints) > 0
        assert (exact.split_index, exact.tail_classes) == (6, 3)
        assert approx.split_index is not None
        law = exact_pmf_and_expectation(exact)
        assert 1 - sum(law.pmf.values()) == exact.survival(law.last_index) <= 1e-12

    def test_unmerged_unsorted_input_gives_the_merged_law(self):
        merged = [(3, 2), (2, 3), (1, 4)]
        shuffled = [(1, 1), (2, 2), (3, 1), (1, 3), (3, 1), (2, 1)]
        for mode, precision in [("rational", None), ("decimal", 20)]:
            left = EndpointSpectrum(merged, 16, mode, precision)
            right = EndpointSpectrum(iter(shuffled), 16, mode, precision)
            assert right.num_classes == left.num_classes == 3
            assert right.num_endpoints == left.num_endpoints == 9
            assert exact_pmf_and_expectation(right) == exact_pmf_and_expectation(left)

    def test_mode_rule(self):
        # The default picks rational up to EXACT_ENDPOINT_LIMIT endpoints.
        assert EXACT_ENDPOINT_LIMIT == 10_000
        at_limit = EndpointSpectrum([(1, 10_000)], 10_000)
        assert (at_limit.mode, at_limit.precision) == ("rational", None)
        above = EndpointSpectrum([(1, 10_001)], 10_001)
        assert (above.mode, above.precision) == ("decimal", DEFAULT_PRECISION)
        assert EndpointSpectrum([(1, 10_001)], 10_001, precision=30).precision == 30
        # Where the default picks rational, a precision is ignored.
        assert EndpointSpectrum([(1, 10_000)], 10_000, precision=30).precision is None

    def test_mode_and_precision_refused_before_the_classes_are_read(self):
        def unread():
            raise AssertionError("classes read")
            yield

        for mode, precision, message in [
            ("rational", 50, "precision applies to decimal mode only"),
            ("decimal", 2, "decimal precision must be at least 4, got 2"),
            (None, 3, "decimal precision must be at least 4, got 3"),
            ("float", None, "unknown spectrum mode: 'float'"),
        ]:
            with pytest.raises(ValueError, match=message):
                EndpointSpectrum(unread(), 1, mode, precision)

    @pytest.mark.parametrize("mode, precision", [("rational", None), ("decimal", 20)])
    def test_refusals(self, mode, precision):
        for classes, denominator, message in [
            ([(1, 3)], 4, "do not sum to 4"),
            ([(2, 1), (1, 1)], 2, "do not sum to 2"),
            ([(0, 3), (1, 2)], 2, r"class \(0, 3\) is not two positive integers"),
            ([(1, -1), (1, 3)], 2, r"class \(1, -1\) is not two positive integers"),
            ([(Fraction(1, 2), 2)], 1, "is not two positive integers"),
            ([(True, True)], 1, r"class \(True, True\) is not two positive integers"),
            ([(1, ENDPOINT_CEILING + 1)], ENDPOINT_CEILING + 1, "above the ceiling"),
        ]:
            with pytest.raises(ValueError, match=message):
                EndpointSpectrum(classes, denominator, mode, precision)
        with pytest.raises(ValueError, match="unknown spectrum mode"):
            EndpointSpectrum([(1, 1)], 1, "float", None)


class TestClassOrderReference:
    """The oracle against :func:`class_order_survivals`, which shares only the class list."""

    @pytest.mark.parametrize("n, d", [(4, 3), (7, 7), (2, 365)])
    def test_rational_survivals_equal_the_reference(self, n, d):
        spec = PackSpec(n, d)
        spectrum = forced_spectrum(spec, "rational")
        reference = class_order_survivals(coincidence.partition_classes(spec), 60)
        for m, value in enumerate(reference):
            assert spectrum.survival(m) == Fraction(value, spec.d ** (spec.n * m)), m

    @pytest.mark.parametrize(
        "classes, denominator, mode, steps",
        [
            # 92 378 endpoints in 36 classes: the default picks decimal mode,
            # pruning and the split are both active, and the law's walk at
            # the default tolerance takes 1351 steps.
            pytest.param(
                list(coincidence.partition_classes(PackSpec(10, 10))), 10**10, None, 1351,
                id="(10,10)",
            ),
            # Forced decimal mode over the whole support and one step past it.
            pytest.param([(1, 365)], 365, "decimal", 366, id="[(1,365)]"),
            pytest.param(
                list(coincidence.partition_classes(PackSpec(6, 4))), 4**6, "decimal", 85,
                id="(6,4)",
            ),
        ],
    )
    def test_decimal_survivals_lie_within_their_bounds(self, classes, denominator, mode, steps):
        spectrum = EndpointSpectrum(classes, denominator, mode)
        assert spectrum.mode == "decimal"
        for m, value in enumerate(class_order_survivals(classes, steps)):
            # |survival - value / D**m| <= bound, compared in integers.
            num, den = spectrum.survival(m).as_integer_ratio()
            bound_num, bound_den = spectrum.survival_error(m).as_integer_ratio()
            scale = denominator**m
            assert abs(num * scale - value * den) * bound_den <= bound_num * scale * den, m
        assert spectrum.split_index is not None


class TestPrecisionAlarm:
    def test_trips_at_low_precision(self):
        spectrum = forced_spectrum(PackSpec(8, 3), "decimal", 6)
        law = exact_pmf_and_expectation(spectrum, tol=1e-9)
        assert law.precision_alarm
        assert spectrum.precision_alarm
        assert spectrum.max_survival_error > spectrum.alarm_threshold

    def test_silent_at_adequate_precision(self):
        spectrum = forced_spectrum(PackSpec(8, 3), "decimal", 50)
        law = exact_pmf_and_expectation(spectrum, tol=1e-12)
        assert not law.precision_alarm
        assert spectrum.max_survival_error < spectrum.alarm_threshold

    def test_alarm_and_largest_bound_read_the_survival_bounds(self):
        # One record: the largest bound and the alarm follow the survival
        # bounds computed so far, in whatever order they are asked for.
        spectrum = forced_spectrum(PackSpec(8, 3), "decimal", 6)
        assert (spectrum.max_survival_error, spectrum.precision_alarm) == (0, False)
        reached = 0
        for m in [5, 2, 12, 30, 20, 45]:
            spectrum.survival_error(m)
            reached = max(reached, m)
            # Asking below the walk's reach grows nothing.
            largest = max(spectrum.survival_error(k) for k in range(reached + 1))
            assert spectrum.max_survival_error == largest
            assert spectrum.precision_alarm == (largest > spectrum.alarm_threshold)
        assert spectrum.precision_alarm
        with pytest.raises(AttributeError):
            spectrum.max_survival_error = Decimal(0)
        rational = forced_spectrum(PackSpec(8, 3), "rational")
        rational.survival(20)
        assert (rational.max_survival_error, rational.precision_alarm) == (None, False)

    def test_flagship_run_stays_silent(self, headline_law):
        assert headline_law.precision == DEFAULT_PRECISION
        assert not headline_law.precision_alarm
        assert headline_law.survival_error < Decimal("1e-60")


class TestExactLaw:
    def test_one_item_three_colors(self):
        law = exact_pmf_and_expectation(endpoint_spectrum(PackSpec(1, 3)))
        assert law.mode == "rational"
        assert law.pmf == {2: Fraction(1, 3), 3: Fraction(4, 9), 4: Fraction(2, 9)}
        assert law.expectation == Fraction(26, 9)
        assert law.tail_bound == 0
        assert law.last_index == 4

    def test_one_item_two_colors(self):
        law = exact_pmf_and_expectation(endpoint_spectrum(PackSpec(1, 2)))
        assert law.pmf == {2: Fraction(1, 2), 3: Fraction(1, 2)}
        assert law.expectation == Fraction(5, 2)

    def test_empty_pack_always_matches_second_purchase(self):
        law = exact_pmf_and_expectation(endpoint_spectrum(PackSpec(0, 7)))
        assert law.pmf == {2: Fraction(1)}
        assert law.expectation == 2
        assert law.last_index == 2

    def test_rational_laws_are_exact_distributions(self):
        for n, d in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
            law = exact_pmf_and_expectation(
                endpoint_spectrum(PackSpec(n, d))
            )
            assert law.mode == "rational"
            assert law.tail_bound == 0
            assert all(mass >= 0 for mass in law.pmf.values())
            assert sum(law.pmf.values()) == 1
            mean = sum(
                (length * mass for length, mass in law.pmf.items()), Fraction(0)
            )
            assert mean == law.expectation
            assert max(law.pmf) == distinct_pack_count(PackSpec(n, d)) + 1

    def test_flagship_decimal_law(self, headline_law):
        assert headline_law.mode == "decimal"
        assert abs(float(headline_law.expectation) - 128.07199587359997) < 5e-9
        assert Decimal(0) < headline_law.tail_bound <= Decimal("1e-12")
        assert all(mass >= 0 for mass in headline_law.pmf.values())
        total = sum(headline_law.pmf.values())
        assert abs(float(total) - 1.0) < 1e-11
        assert headline_law.last_index == max(headline_law.pmf)

    def test_decimal_law_ignores_ambient_context(self):
        spec = PackSpec(20, 4)
        reference = exact_pmf_and_expectation(forced_spectrum(spec, "decimal"))
        assert str(reference.expectation) == "20.94810819474507940551356887"
        with decimal.localcontext() as ambient:
            ambient.prec = 6
            ambient.rounding = decimal.ROUND_FLOOR
            law = exact_pmf_and_expectation(forced_spectrum(spec, "decimal"))
        assert repr(law) == repr(reference)

    def test_law_value_semantics(self):
        # Expected strings captured from the frozen-dataclass version, less
        # its constant ``model`` field.
        law = FirstMatchLaw(
            mode="rational",
            pmf={2: Fraction(1, 2), 3: Fraction(1, 2)},
            expectation=Fraction(5, 2),
            tail_bound=Fraction(0),
            last_index=3,
        )
        assert repr(law) == (
            "FirstMatchLaw(mode='rational', "
            "pmf={2: Fraction(1, 2), 3: Fraction(1, 2)}, expectation=Fraction(5, 2), "
            "tail_bound=Fraction(0, 1), last_index=3, precision=None, "
            "precision_alarm=False, survival_error=None)"
        )
        assert (law.precision, law.precision_alarm, law.survival_error) == (None, False, None)
        assert law == exact_pmf_and_expectation(endpoint_spectrum(PackSpec(1, 2)))
        assert law == FirstMatchLaw(
            "rational", dict(law.pmf), Fraction(5, 2), Fraction(0), 3, None, False, None
        )
        assert law != FirstMatchLaw(
            "rational", law.pmf, Fraction(5, 2), Fraction(0), 3, precision=8
        )
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(law)
        for attr in ("expectation", "extra"):
            with pytest.raises(AttributeError):
                setattr(law, attr, Fraction(3))

    def test_pairwise_model_approaches_oracle_when_collisions_are_rare(
        self, headline_probability, headline_law
    ):
        # At p ~ 1e-4 the pairwise-independence approximation is good: the
        # two expectations differ, but by well under 5%.
        series = pairwise_expectation(headline_probability)
        exact = Fraction(headline_law.expectation)
        approx = Fraction(series.value)
        assert approx != exact
        assert abs(approx - exact) / exact < Fraction(5, 100)

    def test_model_discrepancy_on_enumerable_case(self):
        # Same comparison where collisions are common: the pairwise model is
        # far off (37.8% high), which is why the exact oracle exists.
        law = exact_pmf_and_expectation(endpoint_spectrum(PackSpec(1, 3)))
        series = pairwise_expectation(Fraction(1, 3))
        relative = abs(Fraction(series.value) - law.expectation) / law.expectation
        assert relative > Fraction(1, 3)


class TestPackSizeDistribution:
    def test_from_pairs_sorted_and_exact(self):
        dist = PackSizeDistribution.from_pairs([(2, Fraction(1, 2)), (1, Fraction(1, 2))])
        assert dist.sizes() == (1, 2)
        assert dict(dist.weights) == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            PackSizeDistribution(())
        with pytest.raises(ValueError):
            PackSizeDistribution.from_pairs([(1, Fraction(1, 2)), (1, Fraction(1, 2))])
        with pytest.raises(ValueError):
            PackSizeDistribution.from_pairs([(-1, Fraction(1))])
        with pytest.raises(ValueError):
            PackSizeDistribution.from_pairs([(1, Fraction(0)), (2, Fraction(1))])
        with pytest.raises(ValueError):
            PackSizeDistribution.from_pairs([(1, Fraction(1, 2)), (2, Fraction(1, 3))])

    def test_value_semantics(self):
        # Expected strings and messages captured from the frozen-dataclass version.
        dist = PackSizeDistribution.from_pairs([(2, Fraction(1, 3)), (1, Fraction(2, 3))])
        assert repr(dist) == (
            "PackSizeDistribution(weights=((1, Fraction(2, 3)), (2, Fraction(1, 3))))"
        )
        same = PackSizeDistribution(weights=((1, Fraction(2, 3)), (2, Fraction(1, 3))))
        assert dist == same
        assert hash(dist) == hash(same) == hash(PackSizeDistribution.from_text("2 1/3\n1 2/3\n"))
        assert dist != PackSizeDistribution.from_pairs([(1, Fraction(1))])
        assert pickle.loads(pickle.dumps(dist)) == dist
        for attr in ("weights", "extra"):
            with pytest.raises(AttributeError):
                setattr(dist, attr, ())
        half = Fraction(1, 2)
        for weights, message in [
            ((), "pack size distribution must have at least one entry"),
            (((1, half), (1, half)), "duplicate pack size 1"),
            (((-1, Fraction(1)),), "pack size must be non-negative, got -1"),
            (((1, Fraction(0)), (2, Fraction(1))),
             r"weight for size 1 must lie in \(0, 1\], got 0"),
            (((1, half), (2, Fraction(1, 3))), "weights must sum to exactly 1, got 5/6"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                PackSizeDistribution(weights)

    def test_from_text_rational(self):
        dist = PackSizeDistribution.from_text("# sizes\n\n1 1/2  # half\n2 1/2\n")
        assert dict(dist.weights) == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_from_text_integer_weight_degenerate(self):
        dist = PackSizeDistribution.from_text("60 1\n")
        assert dist.weights == ((60, Fraction(1)),)

    def test_from_text_decimal_weights_renormalized(self):
        dist = PackSizeDistribution.from_text("1 0.25\n2 0.5\n3 0.2500000001\n")
        total = sum(w for _, w in dist.weights)
        assert total == 1
        weights = dict(dist.weights)
        raw_total = Fraction(1, 4) + Fraction(1, 2) + Fraction("0.2500000001")
        assert weights[2] == Fraction(1, 2) / raw_total

    def test_from_text_scientific_notation(self):
        dist = PackSizeDistribution.from_text("1 2.5e-1\n2 7.5e-1\n")
        assert dict(dist.weights) == {1: Fraction(1, 4), 2: Fraction(3, 4)}
        edge = PackSizeDistribution.from_text("1 1\n2 1e-1000\n3 0.5E-999\n")
        assert dict(edge.weights)[2] == Fraction(1, 10**1000) / (1 + Fraction(6, 10**1000))

    def test_from_text_error_messages_carry_line_numbers(self):
        with pytest.raises(ValueError, match=r"line 2: expected 'SIZE WEIGHT'"):
            PackSizeDistribution.from_text("1 1/2\n2 1/2 extra\n")
        with pytest.raises(ValueError, match=r"line 1: pack size 'x'"):
            PackSizeDistribution.from_text("x 1/2\n")
        with pytest.raises(ValueError, match=r"line 2: weight 'abc'"):
            PackSizeDistribution.from_text("1 1/2\n2 abc\n")
        with pytest.raises(ValueError, match=r"line 1: pack size must be non-negative"):
            PackSizeDistribution.from_text("-1 1\n")
        with pytest.raises(ValueError, match=r"line 2: duplicate pack size 1"):
            PackSizeDistribution.from_text("1 1/2\n1 1/2\n")
        with pytest.raises(ValueError, match=r"line 2: weight must be positive"):
            PackSizeDistribution.from_text("1 1/2\n2 0/5\n")
        with pytest.raises(ValueError, match=r"line 1: weight '1/0'"):
            PackSizeDistribution.from_text("1 1/0\n")
        for token in ("1e-1001", "0.09e-999", "1e1001"):
            with pytest.raises(ValueError, match=r"line 2: .* exponent outside -1000..1000"):
                PackSizeDistribution.from_text(f"1 1\n2 {token}\n")

    def test_from_text_total_validation(self):
        with pytest.raises(ValueError, match="expected exactly 1"):
            PackSizeDistribution.from_text("1 1/2\n2 1/3\n")
        with pytest.raises(ValueError, match="away from 1"):
            PackSizeDistribution.from_text("1 0.4\n2 0.5\n")
        with pytest.raises(ValueError, match="no entries"):
            PackSizeDistribution.from_text("# only comments\n")

    def test_from_file(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("1 1/3\n2 2/3\n", encoding="utf-8")
        dist = PackSizeDistribution.from_file(path)
        assert dict(dist.weights) == {1: Fraction(1, 3), 2: Fraction(2, 3)}

    def test_from_file_skips_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("1 1/3\n2 2/3\n", encoding="utf-8-sig")  # writes a BOM first
        dist = PackSizeDistribution.from_file(path)
        assert dict(dist.weights) == {1: Fraction(1, 3), 2: Fraction(2, 3)}

    def test_from_file_missing_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            PackSizeDistribution.from_file(tmp_path / "absent.txt")


class TestMixtureMatchProbability:
    def test_degenerate_reduces_to_single_shape(self, headline_spec):
        dist = PackSizeDistribution.from_pairs([(60, Fraction(1))])
        assert mixture_match_probability(dist, 5) == coincidence_probability(headline_spec)

    def test_uniform_on_two_sizes(self):
        dist = PackSizeDistribution.from_pairs(
            [(1, Fraction(1, 2)), (2, Fraction(1, 2))]
        )
        # (1/2)^2 * 1/2 + (1/2)^2 * 3/8 = 7/32 = 0.21875
        assert mixture_match_probability(dist, 2) == Fraction(7, 32)

    def test_uniform_on_one_size_three_colors(self):
        dist = PackSizeDistribution.from_pairs([(1, Fraction(1))])
        assert mixture_match_probability(dist, 3) == Fraction(1, 3)

    def test_invalid_color_count(self):
        dist = PackSizeDistribution.from_pairs([(1, Fraction(1))])
        with pytest.raises(ValueError):
            mixture_match_probability(dist, 0)

    def test_size_too_large_to_index_is_refused_before_counting(self):
        # Without the PackSpec check, d = 4 runs the GF recurrence towards
        # n = 2**63 - 1 and never returns.
        dist = PackSizeDistribution.from_pairs([(2**63 - 1, Fraction(1))])
        with pytest.raises(ValueError, match=f"pack size n={2**63 - 1} is too large to index"):
            mixture_match_probability(dist, 4)

    def test_builds_one_grid_for_all_sizes(self, monkeypatch):
        # Sizes 1..300 at d = 2 read their counts from one GF list up to the
        # largest size; no size is counted on its own, and the recursion
        # never runs.
        def refuse(*args):
            raise AssertionError("a size was counted on its own")

        calls = []
        build = coincidence._gf_counts

        def counted(max_n, d):
            calls.append((max_n, d))
            return build(max_n, d)

        monkeypatch.setattr(firstmatch, "_gf_counts", counted)
        monkeypatch.setattr(coincidence, "recursive_columns", refuse)
        monkeypatch.setattr(coincidence, "coincidence_probability", refuse)
        monkeypatch.setattr(coincidence, "count_recursive", refuse)
        dist = PackSizeDistribution.from_pairs([(n, Fraction(1, 300)) for n in range(1, 301)])
        value = mixture_match_probability(dist, 2)
        assert calls == [(300, 2)]
        assert value == sum(two_color_probability(n) for n in range(1, 301)) / 300**2

    def test_huge_color_count_reads_the_gf_list(self, monkeypatch):
        # The recursion would build 10**20 columns; the GF route answers, with
        # the same integers.
        def refuse(*args):
            raise AssertionError("the recursion ran")

        monkeypatch.setattr(coincidence, "recursive_columns", refuse)
        dist = PackSizeDistribution.from_pairs([(2, Fraction(1, 2)), (3, Fraction(1, 2))])
        # Squared multinomials over the partition classes: (2), (1, 1) for
        # two items and (3), (2, 1), (1, 1, 1) for three.
        d = 10**20
        two = d + 4 * d * (d - 1) // 2
        three = d + 9 * d * (d - 1) + 36 * d * (d - 1) * (d - 2) // 6
        assert mixture_match_probability(dist, d) == (
            Fraction(two, d**4) + Fraction(three, d**6)
        ) / 4

    def test_mixture_never_exceeds_max_component(self):
        dist = PackSizeDistribution.from_pairs(
            [(1, Fraction(1, 4)), (2, Fraction(1, 4)), (3, Fraction(1, 2))]
        )
        value = mixture_match_probability(dist, 3)
        components = [coincidence_probability(PackSpec(n, 3)) for n in (1, 2, 3)]
        assert 0 < value < max(components)
