"""Arbitrary-precision combinatorial primitives.

Counts are plain Python integers (unbounded) and probabilities are
``fractions.Fraction`` values, which the stdlib keeps in lowest terms with a
positive denominator. Nothing in this module rounds; the rendering helpers at
the bottom convert exact rationals to decimal strings for a caller-chosen
digit count and are the only place precision is dropped. ``factorial`` is
the standard library's ``math.factorial``.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial
from typing import Sequence, Union

Rational = Union[int, Fraction]

# Defaults of the first-match series: truncation tolerance and the exact
# oracle's decimal-mode precision in significant digits. Defined here so the
# command line reads them without loading the first-match module.
DEFAULT_TOLERANCE = 1e-12
DEFAULT_PRECISION = 128


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


# Exact decimal arithmetic: integer results of any length, never rounded.
_EXACT_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)


def _check_digits(digits: int) -> None:
    """Reject a negative decimal place count, the one ``decimal_string`` refuses."""
    if digits < 0:
        raise ValueError(f"digits must be non-negative, got {digits}")


def decimal_string(value: Rational, digits: int = 4) -> str:
    """Render an exact rational with a fixed number of decimal places.

    Rounding is round-half-to-even, computed on the exact value, so the
    output is the correctly rounded fixed-point representation. For example
    ``decimal_string(Fraction(3, 8), 4) == "0.3750"``. The value is one exact
    ``decimal`` division with remainder of the numerator times 10**digits by
    the denominator; it never goes through ``str`` of a large integer, so it
    renders any digit count in time close to linear in it.

    Raises:
        ValueError: if ``digits`` is negative.
    """
    _check_digits(digits)
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    with decimal.localcontext(_EXACT_CONTEXT):
        den = Decimal(value.denominator)
        quotient, remainder = divmod(Decimal(abs(value.numerator)).scaleb(digits), den)
        double = 2 * remainder
        if double > den or (double == den and quotient % 2 == 1):
            quotient += 1
    text = str(quotient)
    if digits == 0:
        return sign + text
    text = text.rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def significant_string(value: Rational, digits: int = 4) -> str:
    """Render an exact rational in scientific notation with ``digits`` significant figures.

    Rounding is round-half-to-even, computed on the exact value, so the
    mantissa is the correctly rounded one.

    Raises:
        ValueError: if ``digits < 1``.
    """
    if digits < 1:
        raise ValueError(f"significant figures must be at least 1, got {digits}")
    value = Fraction(value)
    # One correctly rounded division at ``digits`` significant digits; 0
    # comes out as 0 with exponent 0.
    context = decimal.Context(
        prec=digits,
        rounding=decimal.ROUND_HALF_EVEN,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
    )
    quotient = context.divide(Decimal(value.numerator), Decimal(value.denominator))
    sign, coefficient, exponent = quotient.as_tuple()
    mantissa = "".join(map(str, coefficient)).ljust(digits, "0")
    exponent += len(coefficient) - 1
    if digits > 1:
        mantissa = mantissa[0] + "." + mantissa[1:]
    return f"{'-' if sign else ''}{mantissa}e{exponent:+03d}"
