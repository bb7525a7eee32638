"""Probability that two independently filled packs are identical.

A pack is filled by ``n`` independent uniform draws over ``d`` colors, and two
packs count as identical when their per-color count vectors agree. Filling a
pack is the same thing as walking ``n`` uniform steps on the d-dimensional
integer lattice, so the count vector is called the walk's *endpoint*; packs
match exactly when their endpoints coincide.

The ordered sample space for a pack pair has ``d ** (2 n)`` elements. This
module counts the matching pairs by three algorithmically independent routes
and divides exactly: the closed-form sum of squared multinomials, taken one
partition class of endpoints at a time with binomial weights, each stepped
from the last by exact division; a recursion over colors, built column by
column for at most n + 1 colors and carried to d by forward differences; and
the generating-function coefficient, reached through the differential
equation of the walk's generating function one coefficient at a time. No
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
    """Matching-pair count via the bottom-up color recursion.

    count(n, d) is a polynomial of degree at most n in d: a class of k parts
    holds d * (d - 1) * ... * (d - k + 1) / prod(run!) endpoints (see
    :func:`partition_classes`). So the recursion runs for m = min(d, n + 1)
    colors, and Newton's forward differences carry count(n, 1..m) to d:
    count(n, d) = sum_k C(d - 1, k) * Delta^k count(n, 1), exact at the nodes.
    """
    n, d = spec.n, spec.d
    values = [column[n] for column in recursive_columns(n, min(d, n + 1))]
    count = 0
    for k in range(len(values)):
        count += binomial(d - 1, k) * values[0]
        values = list(map(operator.sub, values[1:], values))
    return count


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
    its depth is not bounded by ``d``, and it holds nothing but that stack.
    Each entry carries the weight so far (a product of binomials
    C(remaining, part)) and the arrangement count so far, updated as
    arr * (d - placed) // run, which stays an integer because it is the
    multinomial coefficient of the placed runs and the free slots. A node
    computes C(remaining, top) once for its largest part and steps down to
    each smaller part by the exact division C(r, p - 1) = C(r, p) * p /
    (r - p + 1). A part is at least the remaining items divided by the free
    slots, so every branch ends in a class.
    """
    n, d = spec.n, spec.d
    if n == 0 or d == 1:
        # One class: all zeros, or every item in the single color.
        yield 1, 1
        return
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
        top = min(previous, remaining)
        choose = binomial(remaining, top)
        for part in range(top, -(-remaining // free) - 1, -1):
            grown = run + 1 if part == previous else 1
            if part == remaining:
                size = arr * free // grown
                sizes += size
                yield weight, size
            else:
                stack.append(
                    (remaining - part, part, placed + 1, grown,
                     weight * choose, arr * free // grown)
                )
            # Step to C(remaining, part - 1); the division is exact.
            choose = choose * part // (remaining - part + 1)
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

    The count equals (n!)^2 times the coefficient of y^n in B(y)**d, with
    B(y) = sum_k y^k / (k!)^2. With theta = y * d/dy, B solves
    theta^2 B = y * B, so f_j = B**(d - j) * (theta B)**j for j = 0..d solve
    the first-order system theta f_j = (d - j) f_{j+1} + j * y * f_{j-1}.
    Scaled by (k!)^2, the coefficients g_{j,k} of y^k in f_j are integers:
    k * g_{j,k} = (d - j) * g_{j+1,k} + j * k^2 * g_{j-1,k-1}. Each step
    runs j = min(k, d) down to 0 (f_j starts at y^j), and g_{0,n} is the
    count, after about n * min(n, d) exact divisions.

    Raises:
        AssertionError: if a step's sum is not divisible by k.
    """
    return _gf_counts(spec.n, spec.d)[spec.n]


def _gf_counts(max_n: int, d: int) -> list[int]:
    """count(k, d) for k = 0..max_n by the system of :func:`count_gf`."""
    counts = [1] * (max_n + 1)
    g = [1]  # g[j] = g_{j,k} for j = 0..min(k, d), from g_{0,0} = 1
    for k in range(1, max_n + 1):
        if k <= d:
            g.append(0)
        square = k * k
        # (d - j) * g_{j+1,k}: 0 at the top, where d - j = 0 or f_{j+1} starts
        # past y^k. Going down, g[j - 1] still holds g_{j-1,k-1}; at j = 0 the
        # product is 0.
        above = 0
        for j in range(len(g) - 1, -1, -1):
            total = above + j * square * g[j - 1]
            value, remainder = divmod(total, k)
            if remainder:
                raise AssertionError(
                    f"generating-function step {k} at d={d} is not an integer: {total}/{k}"
                )
            g[j] = value
            above = (d - j + 1) * value
        counts[k] = value
    return counts


def coincidence_probability(spec: PackSpec) -> Fraction:
    """Exact probability that two independent fillings of ``spec`` match.

    Equals count / d ** (2 n) with the count from the generating-function
    route, which costs about n * min(n, d) steps; the three routes give the
    same integer and are cross-checked in the test suite.
    """
    return Fraction(count_gf(spec), spec.d ** (2 * spec.n))


def two_color_probability(n: int) -> Fraction:
    """Match probability for two colors in closed form: C(2n, n) / 4 ** n.

    Raises:
        ValueError: if ``n`` is negative or too large to index (see
            :class:`PackSpec`).
    """
    PackSpec(n, 2)  # validates n
    return Fraction(binomial(2 * n, n), 4**n)
