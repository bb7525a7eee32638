"""Probability that two independently filled packs are identical.

A pack is filled by ``n`` independent uniform draws over ``d`` colors, and two
packs count as identical when their per-color count vectors agree. Filling a
pack is the same thing as walking ``n`` uniform steps on the d-dimensional
integer lattice, so the count vector is called the walk's *endpoint*; packs
match exactly when their endpoints coincide.

The ordered sample space for a pack pair has ``d ** (2 n)`` elements. This
module counts the matching pairs by three algorithmically independent routes
(a closed-form sum of squared multinomials, a recursion over colors, and a
generating-function coefficient extraction) and divides exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exactmath import binomial, factorial, multinomial


@dataclass(frozen=True)
class PackSpec:
    """Pack shape: ``n`` items drawn uniformly over ``d`` colors.

    Raises:
        ValueError: if ``n`` is negative or ``d`` is not positive.
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"pack size must be non-negative, got n={self.n}")
        if self.d < 1:
            raise ValueError(f"color count must be positive, got d={self.d}")


def compositions(spec: PackSpec) -> Iterator[tuple[int, ...]]:
    """Yield every weak composition of ``n`` into ``d`` parts exactly once.

    Each tuple is a reachable walk endpoint: non-negative counts per color
    summing to ``n``. The order is deterministic and documented: descending
    colexicographic, where tuples compare by their last differing coordinate,
    so the stream runs from (0, ..., 0, n) down to (n, 0, ..., 0). For n=2,
    d=2 this gives (0, 2), (1, 1), (2, 0). The number of tuples yielded is
    C(n + d - 1, d - 1).
    """
    n, d = spec.n, spec.d
    if d == 1:
        yield (n,)
        return
    counts = [0] * d
    counts[-1] = n
    while True:
        yield tuple(counts)
        if counts[0] == n:
            return
        # Successor: move the leading block onto the next positive slot.
        lead = counts[0]
        counts[0] = 0
        j = 1
        while counts[j] == 0:
            j += 1
        counts[j] -= 1
        counts[j - 1] = lead + 1


def distinct_pack_count(spec: PackSpec) -> int:
    """Number of distinct endpoints (unordered pack contents): C(n+d-1, d-1).

    This counts reachable count vectors, not equally likely outcomes; the
    uniform ordered sample space has size d ** n instead.
    """
    return binomial(spec.n + spec.d - 1, spec.d - 1)


def endpoint_probability(spec: PackSpec, endpoint: Sequence[int]) -> Fraction:
    """Exact probability that a random filling lands on ``endpoint``.

    Args:
        spec: pack shape.
        endpoint: candidate per-color counts; must have length ``d``, be
            non-negative, and sum to ``n``.

    Returns:
        multinomial(n; endpoint) / d ** n as a reduced Fraction.

    Raises:
        ValueError: if the endpoint has the wrong length or is not a weak
            composition of ``n``.
    """
    if len(endpoint) != spec.d:
        raise ValueError(
            f"endpoint has {len(endpoint)} coordinates, expected d={spec.d}"
        )
    weight = multinomial(spec.n, endpoint)
    return Fraction(weight, spec.d**spec.n)


def recursive_columns(max_n: int, max_d: int) -> Iterator[list[int]]:
    """Yield the matching-pair counts column by column, for d = 1..max_d.

    Each column lists count(n, d) for n = 0..max_n. The columns are built
    bottom-up from the recursion over colors, which splits on how many items
    of the last color each pack holds:
    count(n, d) = sum_k C(n, k)^2 * count(n - k, d - 1), with count(n, 1) = 1.
    Each squared binomial is computed once and reused for every column.

    Raises:
        ValueError: if ``max_n`` is negative or ``max_d`` is not positive.
    """
    PackSpec(max_n, max_d)  # validates the bounds
    column = [1] * (max_n + 1)
    yield column
    if max_d == 1:
        return
    squares = [[binomial(n, k) ** 2 for k in range(n + 1)] for n in range(max_n + 1)]
    for _ in range(2, max_d + 1):
        # C(n, k) = C(n, n - k), so pairing squares[n][k] with count(k, d - 1)
        # gives the same sum as pairing it with count(n - k, d - 1).
        column = [sum(map(operator.mul, row, column)) for row in squares]
        yield column


def count_recursive(spec: PackSpec) -> int:
    """Matching-pair count via the bottom-up color recursion."""
    for column in recursive_columns(spec.n, spec.d):
        pass
    return column[spec.n]


def count_closed(spec: PackSpec) -> int:
    """Matching-pair count as the closed-form sum of squared multinomials.

    Evaluates sum over endpoints of multinomial(n; endpoint)^2 by a
    depth-first walk over the colors, extending a running product of binomial
    factors one color at a time so no multinomial is recomputed from scratch.
    The walk keeps an explicit stack, so its depth is not bounded by ``d``.
    """
    n, d = spec.n, spec.d
    if d == 1:
        # Both packs are forced to the single endpoint (n,).
        return 1
    # Pascal rows 0..n; row[m][k] = C(m, k). Addition only, exact.
    rows: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, m)] + [1])
    total = 0
    stack = [(n, d, 1)]  # (items remaining, colors left, product so far)
    while stack:
        remaining, colors_left, partial = stack.pop()
        row = rows[remaining]
        if colors_left == 2 or remaining == 0:
            # Each choice here fixes the rest: the last color takes whatever
            # this one leaves, and with nothing left every color takes 0.
            for c in row:
                term = partial * c
                total += term * term
        else:
            for k, c in enumerate(row):
                stack.append((remaining - k, colors_left - 1, partial * c))
    return total


def _poly_mul(a: list[Fraction], b: list[Fraction], degree: int) -> list[Fraction]:
    """Product of coefficient lists, truncated beyond ``degree``."""
    out = [Fraction(0)] * (degree + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        top = min(degree - i, len(b) - 1)
        for j in range(top + 1):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def count_gf(spec: PackSpec) -> int:
    """Matching-pair count via generating functions.

    The count equals (n!)^2 times the coefficient of x^(2n) in
    (sum_k x^(2k) / (k!)^2) ** d. The base series is truncated at degree 2n,
    which is exact for this coefficient, and the power is taken by binary
    exponentiation over rational coefficient lists.
    """
    n, d = spec.n, spec.d
    degree = 2 * n
    base = [Fraction(0)] * (degree + 1)
    for k in range(n + 1):
        base[2 * k] = Fraction(1, factorial(k) ** 2)
    result = [Fraction(1)] + [Fraction(0)] * degree
    power = base
    e = d
    while e:
        if e & 1:
            result = _poly_mul(result, power, degree)
        e >>= 1
        if e:
            power = _poly_mul(power, power, degree)
    coefficient = result[degree]
    value = coefficient * factorial(n) ** 2
    if value.denominator != 1:
        raise AssertionError(
            f"generating-function count for {spec} is not an integer: {value}"
        )
    return value.numerator


def coincidence_probability(spec: PackSpec) -> Fraction:
    """Exact probability that two independent fillings of ``spec`` match.

    Equals count / d ** (2 n) with the count from the color recursion; the
    closed-form and generating-function routes give the same integer and are
    cross-checked in the test suite.
    """
    return Fraction(count_recursive(spec), spec.d ** (2 * spec.n))


def two_color_probability(n: int) -> Fraction:
    """Match probability for two colors in closed form: C(2n, n) / 4 ** n.

    Raises:
        ValueError: if ``n`` is negative.
    """
    if n < 0:
        raise ValueError(f"pack size must be non-negative, got n={n}")
    return Fraction(binomial(2 * n, n), 4**n)
