"""Probability that two independently filled packs are identical.

A pack is filled by ``n`` independent uniform draws over ``d`` colors, and two
packs count as identical when their per-color count vectors agree. Filling a
pack is the same thing as walking ``n`` uniform steps on the d-dimensional
integer lattice, so the count vector is called the walk's *endpoint*; packs
match exactly when their endpoints coincide.

The ordered sample space for a pack pair has ``d ** (2 n)`` elements. This
module counts the matching pairs by three algorithmically independent routes
and divides exactly: the closed-form sum of squared multinomials, taken one
partition class of endpoints at a time with Pascal-row weights; a recursion
over colors, built column by column; and the generating-function coefficient,
reached by a one-pass power recurrence with multiplicative binomials. No
route calls another, so their agreement is a check.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .exactmath import binomial, multinomial

# The closed route and the exact oracle's spectrum refuse shapes with more
# endpoints than this: a documented resource limit.
ENDPOINT_CEILING = 10_000_000


class PackSpec(NamedTuple("PackSpec", [("n", int), ("d", int)])):
    """Pack shape: ``n`` items drawn uniformly over ``d`` colors.

    A named tuple ``(n, d)``: immutable, compared and hashed by value.

    Raises:
        ValueError: if ``n`` is negative or at least ``sys.maxsize``, too
            large to index, or ``d`` is not positive.
    """

    __slots__ = ()

    def __new__(cls, n: int, d: int) -> PackSpec:
        if n < 0:
            raise ValueError(f"pack size must be non-negative, got n={n}")
        if n >= sys.maxsize:
            raise ValueError(
                f"pack size n={n} is too large to index; at most {sys.maxsize - 1}"
            )
        if d < 1:
            raise ValueError(f"color count must be positive, got d={d}")
        return super().__new__(cls, n, d)


def _check_run(total: int, seed: int) -> None:
    """Reject a Monte Carlo trial count below 1 or a seed outside [0, 2**64)."""
    if total < 1:
        raise ValueError(f"trial count must be positive, got {total}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit non-negative value, got {seed}")


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
    Each squared binomial is computed once and reused for every column; the
    binomials come from Pascal rows, each built from the last by addition.

    Raises:
        ValueError: if ``max_n`` is negative or ``max_d`` is not positive.
    """
    PackSpec(max_n, max_d)  # validates the bounds
    column = [1] * (max_n + 1)
    yield column
    if max_d == 1:
        return
    squares = []
    row = [1]
    for _ in range(max_n + 1):
        squares.append([c * c for c in row])
        row = [1, *map(operator.add, row, row[1:]), 1]
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


def _pascal_rows(n: int, d: int) -> list[list[int] | None]:
    """Pascal rows the class walk reads; row m, when kept, lists C(m, k).

    The first part reads row n; deeper parts read rows up to n - ceil(n/d),
    and the last of the d parts is forced (C(m, m) = 1), so for d <= 2 only
    row n is kept. Rows are built by addition only, one from the previous.
    """
    keep = n - -(-n // d) if d > 2 else -1
    rows: list[list[int] | None] = [None] * (n + 1)
    row = [1]
    for m in range(n + 1):
        if m <= keep or m == n:
            rows[m] = row
        row = [1, *map(operator.add, row, row[1:]), 1]
    return rows


def partition_classes(spec: PackSpec) -> Iterator[tuple[int, int]]:
    """Yield (weight, size) for each partition class of endpoints.

    Endpoints whose sorted counts agree form one class: a partition of ``n``
    into at most ``d`` positive parts, padded with zeros. Every endpoint of
    the class has the multinomial weight n! / prod(part!), and the class holds
    d! / ((d - k)! * prod(run!)) endpoints, where k is the number of parts and
    the runs are the groups of equal parts. The sizes sum to
    C(n + d - 1, d - 1); once the walk is exhausted it raises AssertionError
    if they do not. Classes come in a fixed order, one per partition;
    distinct classes may share a weight.

    The walk places parts in non-increasing order from an explicit stack, so
    its depth is not bounded by ``d``. Each entry carries the weight so far
    (a product of Pascal-row entries C(remaining, part)) and the arrangement
    count so far, updated as arr * (d - placed) // run, which stays an
    integer because it is the multinomial coefficient of the placed runs and
    the free slots. A part is at least the remaining items divided by the
    free slots, so every branch ends in a class.
    """
    n, d = spec.n, spec.d
    if n == 0 or d == 1:
        # One class: all zeros, or every item in the single color.
        yield 1, 1
        return
    rows = _pascal_rows(n, d)
    # (items remaining, previous part, parts placed, run of the previous
    # part, weight, arrangements)
    stack = [(n, n, 0, 0, 1, 1)]
    sizes = 0
    while stack:
        remaining, previous, placed, run, weight, arr = stack.pop()
        free = d - placed
        if free == 1:
            # The last part takes what is left: C(remaining, remaining) = 1.
            run = run + 1 if remaining == previous else 1
            size = arr // run
            sizes += size
            yield weight, size
            continue
        row = rows[remaining]
        for part in range(min(previous, remaining), -(-remaining // free) - 1, -1):
            grown = run + 1 if part == previous else 1
            if part == remaining:
                size = arr * free // grown
                sizes += size
                yield weight, size
            else:
                stack.append(
                    (remaining - part, part, placed + 1, grown,
                     weight * row[part], arr * free // grown)
                )
    count = distinct_pack_count(spec)
    if sizes != count:
        raise AssertionError(f"partition classes of {spec} hold {sizes} endpoints, not {count}")


def count_closed(spec: PackSpec) -> int:
    """Matching-pair count as the closed-form sum of squared multinomials.

    Evaluates sum over endpoints of multinomial(n; endpoint)^2 one partition
    class at a time: every endpoint of a class has the same weight, so the
    class adds size * weight^2 (see :func:`partition_classes`).

    Raises:
        ValueError: when the endpoint count exceeds ``ENDPOINT_CEILING``
            (10**7), a documented limit of this route.
        AssertionError: if the class sizes do not add up to the endpoint
            count.
    """
    count = distinct_pack_count(spec)
    if count > ENDPOINT_CEILING:
        raise ValueError(
            f"{spec} has {count} distinct endpoints, above the closed route's ceiling "
            f"{ENDPOINT_CEILING}; use --route recursive or --route gf"
        )
    return sum(size * weight * weight for weight, size in partition_classes(spec))


def count_gf(spec: PackSpec) -> int:
    """Matching-pair count via generating functions.

    The count equals (n!)^2 times the coefficient f_n of y^n in B(y)**d,
    with B(y) = sum_k y^k / (k!)^2. The power is taken in one pass by
    J.C.P. Miller's recurrence for powers of a power series (Knuth, TAOCP
    vol. 2, section 4.7), which follows from B * (B**d)' = d * B' * B**d.
    Scaled by (k!)^2, N_k = (k!)^2 f_k stays an integer:
    k * N_k = sum_{i=1..k} ((d + 1) * i - k) * C(k, i)^2 * N_{k-i}, with
    N_0 = 1, and N_n is the count. C(k, i) is updated multiplicatively along
    each sum.

    Raises:
        AssertionError: if a step's sum is not divisible by k.
    """
    return _gf_counts(spec.n, spec.d)[spec.n]


def _gf_counts(max_n: int, d: int) -> list[int]:
    """count(k, d) for k = 0..max_n by the recurrence of :func:`count_gf`."""
    numbers = [1]
    for k in range(1, max_n + 1):
        total = 0
        c = 1
        for i in range(1, k + 1):
            c = c * (k - i + 1) // i
            total += ((d + 1) * i - k) * c * c * numbers[k - i]
        value, remainder = divmod(total, k)
        if remainder:
            raise AssertionError(
                f"generating-function step {k} at d={d} is not an integer: {total}/{k}"
            )
        numbers.append(value)
    return numbers


def _match_counts(max_n: int, d: int) -> list[int]:
    """count(n, d) for n = 0..max_n, from the faster of two routes.

    Both routes give the same integers. The recursion builds d columns; the
    GF route's cost does not grow with d, but its terms are larger. Timed
    in process (CPython 3.11, a 2-vCPU Xeon virtual machine), the recursion
    wins only at d <= 3: at n = 300 the GF route takes 2.1x its time at
    d = 2 and 1.3x at d = 3, but 0.9x at d = 4 and 0.5x at d = 6; at
    n = 1000 it takes 1.5x at d = 3 and 0.8x at d = 4.
    """
    if d > 3:
        return _gf_counts(max_n, d)
    for column in recursive_columns(max_n, d):
        pass
    return column


def coincidence_probability(spec: PackSpec) -> Fraction:
    """Exact probability that two independent fillings of ``spec`` match.

    Equals count / d ** (2 n) with the count from the color recursion at
    d <= 3 and from the generating-function route past that; the three
    routes give the same integer and are cross-checked in the test suite.
    """
    return Fraction(_match_counts(spec.n, spec.d)[spec.n], spec.d ** (2 * spec.n))


def two_color_probability(n: int) -> Fraction:
    """Match probability for two colors in closed form: C(2n, n) / 4 ** n.

    Raises:
        ValueError: if ``n`` is negative.
    """
    if n < 0:
        raise ValueError(f"pack size must be non-negative, got n={n}")
    return Fraction(binomial(2 * n, n), 4**n)
