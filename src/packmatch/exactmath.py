"""Arbitrary-precision combinatorial primitives.

Counts are plain Python integers (unbounded) and probabilities are
``fractions.Fraction`` values, which the stdlib keeps in lowest terms with a
positive denominator. Nothing in this module rounds; the rendering helpers at
the bottom convert exact rationals to decimal strings for a caller-chosen
digit count and are the only place precision is dropped. ``factorial`` is
the standard library's ``math.factorial``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence, Union

Rational = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) as an exact integer.

    Out-of-range ``k`` (negative or above ``n``) yields 0 so that sums over
    unrestricted indices need no boundary cases.

    Raises:
        ValueError: if ``n`` is negative.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n! / (parts[0]! * ... * parts[-1]!).

    Args:
        n: total number of items.
        parts: non-negative integers that must sum to ``n``.

    Raises:
        ValueError: if any part is negative or the parts do not sum to ``n``.
    """
    total = 0
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial parts must be non-negative, got {p}")
        total += p
    if total != n:
        raise ValueError(f"multinomial parts sum to {total}, expected {n}")
    result = factorial(n)
    for p in parts:
        result //= factorial(p)
    return result


def _round_half_even(scaled: Fraction) -> int:
    """The integer nearest to a non-negative rational, ties to the even one."""
    q, r = divmod(scaled.numerator, scaled.denominator)
    double = 2 * r
    if double > scaled.denominator or (double == scaled.denominator and q % 2 == 1):
        q += 1
    return q


def decimal_string(value: Rational, digits: int = 4) -> str:
    """Render an exact rational with a fixed number of decimal places.

    Rounding is round-half-to-even, computed on the exact value, so the
    output is the correctly rounded fixed-point representation. For example
    ``decimal_string(Fraction(3, 8), 4) == "0.3750"``.

    Raises:
        ValueError: if ``digits`` is negative.
    """
    if digits < 0:
        raise ValueError(f"digits must be non-negative, got {digits}")
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    text = str(_round_half_even(abs(value) * Fraction(10**digits)))
    if digits == 0:
        return sign + text
    text = text.rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def significant_string(value: Rational, digits: int = 4, *, rounding: str = "half-even") -> str:
    """Render an exact rational in scientific notation with ``digits`` significant figures.

    Args:
        value: exact rational to render.
        digits: number of significant figures, at least 1.
        rounding: ``"half-even"`` for correct rounding, or ``"down"`` to
            truncate toward zero (useful when matching a display that shows
            the leading digits of a longer expansion).

    Raises:
        ValueError: if ``digits < 1`` or ``rounding`` is not recognised.
    """
    if digits < 1:
        raise ValueError(f"significant figures must be at least 1, got {digits}")
    if rounding not in ("half-even", "down"):
        raise ValueError(f"unknown rounding mode: {rounding!r}")
    value = Fraction(value)
    if value == 0:
        mantissa = "0" if digits == 1 else "0." + "0" * (digits - 1)
        return f"{mantissa}e+00"
    sign = "-" if value < 0 else ""
    mag = abs(value)

    # Decimal exponent: the unique e with 10^e <= mag < 10^(e+1).
    num, den = mag.numerator, mag.denominator
    exponent = len(str(num)) - len(str(den))
    if num * 10 ** max(0, -exponent) < den * 10 ** max(0, exponent):
        exponent -= 1
    assert den * 10 ** max(0, exponent) <= num * 10 ** max(0, -exponent)

    # Integer mantissa with `digits` digits, scaled by 10^(digits-1-e).
    shift = digits - 1 - exponent
    if shift >= 0:
        scaled = Fraction(num * 10**shift, den)
    else:
        scaled = Fraction(num, den * 10**-shift)
    if rounding == "half-even":
        q = _round_half_even(scaled)
    else:
        q = scaled.numerator // scaled.denominator
    if q == 10**digits:
        # Rounding carried into a new leading digit.
        q //= 10
        exponent += 1
    mantissa = str(q)
    assert len(mantissa) == digits
    if digits > 1:
        mantissa = mantissa[0] + "." + mantissa[1:]
    return f"{sign}{mantissa}e{exponent:+03d}"
