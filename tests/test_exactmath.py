"""Exact combinatorial primitives and decimal rendering helpers."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from packmatch.coincidence import two_color_probability
from packmatch.exactmath import (
    binomial,
    decimal_string,
    factorial,
    multinomial,
    significant_string,
)


class TestFactorial:
    def test_small_values(self):
        assert factorial(0) == 1
        assert factorial(1) == 1
        assert factorial(5) == 120
        assert factorial(20) == math.factorial(20)

    def test_large_value_matches_stdlib(self):
        assert factorial(300) == math.factorial(300)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestBinomial:
    def test_values(self):
        assert binomial(0, 0) == 1
        assert binomial(4, 2) == 6
        assert binomial(64, 4) == 635376
        assert binomial(2 * 60, 60) == math.comb(120, 60)

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(0, 1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_matches_stdlib_comb_on_grid(self):
        for n in range(26):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k)

    @given(st.integers(0, 120), st.integers(0, 120))
    def test_symmetry(self, n, k):
        if k <= n:
            assert binomial(n, k) == binomial(n, n - k)
        else:
            assert binomial(n, k) == 0

    @given(st.integers(1, 120), st.integers(0, 120))
    def test_pascal_rule(self, n, k):
        if 1 <= k <= n - 1:
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_vandermonde_squares(self):
        # sum_x C(n,x)^2 == C(2n,n), exact, for n <= 30.
        for n in range(31):
            assert sum(binomial(n, x) ** 2 for x in range(n + 1)) == binomial(2 * n, n)


class TestMultinomial:
    def test_values(self):
        assert multinomial(0, []) == 1
        assert multinomial(0, [0, 0, 0]) == 1
        assert multinomial(3, [1, 1, 1]) == 6
        assert multinomial(8, [2, 2, 1, 1, 1, 1]) == 10080
        assert multinomial(60, [60, 0, 0, 0, 0]) == 1

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial(5, [2, 2])

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            multinomial(1, [2, -1])

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    def test_permutation_invariance(self, parts):
        n = sum(parts)
        value = multinomial(n, parts)
        assert value == multinomial(n, sorted(parts))
        assert value == multinomial(n, list(reversed(parts)))

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=5))
    def test_chain_expansion(self, parts):
        # multinomial(n; k1..kd) == prod_i C(n - k1 - ... - k(i-1), ki)
        n = sum(parts)
        product = 1
        remaining = n
        for part in parts:
            product *= binomial(remaining, part)
            remaining -= part
        assert multinomial(n, parts) == product


class TestDecimalString:
    def test_basic_renderings(self):
        assert decimal_string(Fraction(3, 8), 4) == "0.3750"
        assert decimal_string(Fraction(1, 3), 4) == "0.3333"
        assert decimal_string(Fraction(2, 3), 4) == "0.6667"
        assert decimal_string(Fraction(1), 4) == "1.0000"
        assert decimal_string(2, 4) == "2.0000"

    def test_half_even_ties(self):
        # 0.125 -> "0.12" (12 is even), 0.375 -> "0.38" (37 is odd).
        assert decimal_string(Fraction(1, 8), 2) == "0.12"
        assert decimal_string(Fraction(3, 8), 2) == "0.38"
        assert decimal_string(Fraction(5, 2), 0) == "2"
        assert decimal_string(Fraction(7, 2), 0) == "4"

    def test_negative_and_zero(self):
        assert decimal_string(Fraction(-1, 3), 4) == "-0.3333"
        assert decimal_string(Fraction(0), 3) == "0.000"

    def test_digit_count_validation(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(1, 3), -1)

    def test_digits_beyond_the_int_string_limit(self):
        # 5000 and more digits, and terms above CPython's default 4300-digit
        # int-to-str limit, which the CLI lifts but a library caller may not.
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert decimal_string(Fraction(1, 3), 5000) == "0." + "3" * 5000
            assert decimal_string(Fraction(-2, 3), 5000) == "-0." + "6" * 4999 + "7"
            assert decimal_string(Fraction(10**5000 + 1, 2), 0) == "5" + "0" * 4999
            value = two_color_probability(8000)
            assert decimal_string(value, 12) == "0.006307732746"
        finally:
            sys.set_int_max_str_digits(previous)

    @given(st.fractions(min_value=-10, max_value=10), st.integers(0, 8))
    def test_rendering_error_at_most_half_ulp(self, value, digits):
        text = decimal_string(value, digits)
        rendered = Fraction(text)
        assert abs(rendered - value) <= Fraction(1, 2 * 10**digits)


class TestSignificantString:
    def test_basic_renderings(self):
        assert significant_string(Fraction(1, 3), 4) == "3.333e-01"
        assert significant_string(Fraction(2, 3), 4) == "6.667e-01"
        assert significant_string(Fraction(1), 4) == "1.000e+00"
        assert significant_string(Fraction(1234567, 1000), 4) == "1.235e+03"
        assert significant_string(Fraction(-1, 3), 4) == "-3.333e-01"
        assert significant_string(Fraction(0), 4) == "0.000e+00"
        assert significant_string(Fraction(1, 3), 1) == "3e-01"

    def test_carry_into_new_leading_digit(self):
        # 0.99995 rounds (half-even on the odd mantissa 9999) up to 1.000e+00.
        value = Fraction(99995, 100000)
        assert significant_string(value, 4) == "1.000e+00"

    def test_value_beyond_the_int_string_limit(self):
        # C(16000, 8000) / 4**8000 has 4813-digit terms, above CPython's
        # default 4300-digit int-to-str limit, which the CLI lifts but a
        # library caller may not.
        value = two_color_probability(8000)
        assert value.denominator > 10**4300
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert significant_string(value, 11) == "6.3077327460e-03"
        finally:
            sys.set_int_max_str_digits(previous)

    def test_validation(self):
        with pytest.raises(ValueError):
            significant_string(Fraction(1, 3), 0)

    @given(
        st.fractions(min_value=Fraction(1, 10**9), max_value=10**9),
        st.integers(1, 8),
    )
    def test_mantissa_within_one_ulp(self, value, digits):
        text = significant_string(value, digits)
        mantissa, exponent = text.split("e")
        rendered = Fraction(mantissa) * Fraction(10) ** int(exponent)
        scale = Fraction(10) ** (int(exponent) - digits + 1)
        assert abs(rendered - value) <= scale / 2

