"""First-duplicate distribution: pairwise closed form and exact oracle."""

from __future__ import annotations

import decimal
import itertools
import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from packmatch.coincidence import (
    PackSpec,
    coincidence_probability,
    compositions,
    distinct_pack_count,
    endpoint_probability,
)
from packmatch.exactmath import factorial
from packmatch.firstmatch import (
    BOUND_PRECISION,
    DEFAULT_PRECISION,
    EXACT_ENDPOINT_LIMIT,
    PackSizeDistribution,
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


def product_survival(spec: PackSpec, m: int) -> Fraction:
    """m! * e_m(q) from the product prod_v (1 + w_v x), without Newton's identities.

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
    return Fraction(math.factorial(m) * poly[m], den**m)


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
        forced = endpoint_spectrum(PackSpec(3, 3), mode="decimal", precision=30)
        assert forced.mode == "decimal"
        assert forced.precision == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            endpoint_spectrum(PackSpec(2, 2), mode="float")
        with pytest.raises(ValueError):
            endpoint_spectrum(PackSpec(2, 2), mode="rational", precision=50)
        with pytest.raises(ValueError):
            endpoint_spectrum(PackSpec(2, 2), mode="decimal", precision=2)

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
            walked = endpoint_spectrum(spec, mode=mode)
            powers = [walked.power_sum(j) for j in range(1, 13)]
            survivals = [walked.survival(m) for m in range(13)]
            errors = [walked.survival_error(m) for m in range(13)]

            fresh = endpoint_spectrum(spec, mode=mode)
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
            spectrum = endpoint_spectrum(spec, mode="rational")
            support = spectrum.num_endpoints
            for m in range(support + 2):
                expected = product_survival(spec, m) if m <= support else 0
                assert spectrum.survival(m) == expected, (n, d, m)
        long_walk = endpoint_spectrum(PackSpec(7, 7))
        assert long_walk.mode == "rational"
        assert long_walk.survival(216) == product_survival(PackSpec(7, 7), 216)

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
            exact = endpoint_spectrum(spec, mode="rational")
            for precision in (8, 10, 12, 16, 20, 30, 40):
                approx = endpoint_spectrum(spec, mode="decimal", precision=precision)
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

    def test_survival_error_reporting(self):
        rational = endpoint_spectrum(PackSpec(2, 2))
        rational.survival(2)
        assert rational.survival_error(2) is None

        spectrum = endpoint_spectrum(PackSpec(3, 3), mode="decimal", precision=40)
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


class TestPrecisionAlarm:
    def test_trips_at_low_precision(self):
        spectrum = endpoint_spectrum(PackSpec(8, 3), mode="decimal", precision=6)
        law = exact_pmf_and_expectation(spectrum, tol=1e-9)
        assert law.precision_alarm
        assert spectrum.precision_alarm
        assert spectrum.max_survival_error > spectrum.alarm_threshold

    def test_silent_at_adequate_precision(self):
        spectrum = endpoint_spectrum(PackSpec(8, 3), mode="decimal", precision=50)
        law = exact_pmf_and_expectation(spectrum, tol=1e-12)
        assert not law.precision_alarm
        assert spectrum.max_survival_error < spectrum.alarm_threshold

    def test_flagship_run_stays_silent(self, headline_law):
        assert headline_law.precision == DEFAULT_PRECISION
        assert not headline_law.precision_alarm
        assert headline_law.survival_error < Decimal("1e-60")


class TestExactLaw:
    def test_one_item_three_colors(self):
        law = exact_pmf_and_expectation(endpoint_spectrum(PackSpec(1, 3)))
        assert law.model == "exact-oracle"
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
        reference = exact_pmf_and_expectation(endpoint_spectrum(spec, mode="decimal"))
        assert str(reference.expectation) == "20.94810819474507940551356887"
        with decimal.localcontext() as ambient:
            ambient.prec = 6
            ambient.rounding = decimal.ROUND_FLOOR
            law = exact_pmf_and_expectation(endpoint_spectrum(spec, mode="decimal"))
        assert repr(law) == repr(reference)

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

    def test_mixture_never_exceeds_max_component(self):
        dist = PackSizeDistribution.from_pairs(
            [(1, Fraction(1, 4)), (2, Fraction(1, 4)), (3, Fraction(1, 2))]
        )
        value = mixture_match_probability(dist, 3)
        components = [coincidence_probability(PackSpec(n, 3)) for n in (1, 2, 3)]
        assert 0 < value < max(components)
