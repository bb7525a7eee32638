"""Arbitrary-precision combinatorial primitives.

Counts are plain Python integers (unbounded) and probabilities are
``fractions.Fraction`` values, which the stdlib keeps in lowest terms with a
positive denominator. Nothing in this module rounds; the rendering helpers at
the bottom convert exact rationals to decimal strings for a caller-chosen
digit count and are the only place precision is dropped.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]


class FactorialCache:
    """Monotonically growing table of factorials.

    The table satisfies ``table[k] == k * table[k - 1]`` with ``table[0] == 1``
    and never shrinks. Growth is guarded by a lock; lookups of already
    computed entries take no lock, which is safe because entries are written
    once and list appends are atomic in CPython. Concurrent readers therefore
    always see a consistent prefix and identical values.
    """

    def __init__(self) -> None:
        self._table: list[int] = [1]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._table)

    def extend_to(self, k: int) -> None:
        """Grow the table so that indices 0..k are available."""
        if k < len(self._table):
            return
        with self._lock:
            table = self._table
            while len(table) <= k:
                # len(table) is the index being filled.
                table.append(table[-1] * len(table))

    def factorial(self, k: int) -> int:
        """Return k! exactly.

        Raises:
            ValueError: if ``k`` is negative.
        """
        if k < 0:
            raise ValueError(f"factorial is undefined for negative arguments, got {k}")
        if k >= len(self._table):
            self.extend_to(k)
        return self._table[k]


_SHARED_FACTORIALS = FactorialCache()


def factorial(k: int) -> int:
    """k! from the shared process-wide cache."""
    return _SHARED_FACTORIALS.factorial(k)


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
    cache = _SHARED_FACTORIALS
    return cache.factorial(n) // (cache.factorial(k) * cache.factorial(n - k))


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
    result = _SHARED_FACTORIALS.factorial(n)
    for p in parts:
        result //= _SHARED_FACTORIALS.factorial(p)
    return result


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
    scaled = abs(value) * Fraction(10**digits)
    q, r = divmod(scaled.numerator, scaled.denominator)
    double = 2 * r
    if double > scaled.denominator or (double == scaled.denominator and q % 2 == 1):
        q += 1
    text = str(q)
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
    q, r = divmod(scaled.numerator, scaled.denominator)
    if rounding == "half-even":
        double = 2 * r
        if double > scaled.denominator or (double == scaled.denominator and q % 2 == 1):
            q += 1
    if q == 10**digits:
        # Rounding carried into a new leading digit.
        q //= 10
        exponent += 1
    mantissa = str(q)
    assert len(mantissa) == digits
    if digits > 1:
        mantissa = mantissa[0] + "." + mantissa[1:]
    return f"{sign}{mantissa}e{exponent:+03d}"
