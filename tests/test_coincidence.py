"""Counting and probability of identical pack pairs, by three routes."""

from __future__ import annotations

import itertools
import math
import pickle
import threading
from collections import Counter
from fractions import Fraction

import pytest

from packmatch import coincidence
from packmatch.coincidence import (
    PackSpec,
    coincidence_probability,
    compositions,
    count_closed,
    count_gf,
    count_recursive,
    distinct_pack_count,
    endpoint_probability,
    partition_classes,
    recursive_columns,
    two_color_probability,
)
from packmatch.exactmath import binomial, decimal_string, multinomial
from packmatch.firstmatch import endpoint_spectrum

# 5x5 golden grid of matching-pair counts, rows n=1..5, columns d=1..5.
COUNT_GRID = [
    [1, 2, 3, 4, 5],
    [1, 6, 15, 28, 45],
    [1, 20, 93, 256, 545],
    [1, 70, 639, 2716, 7885],
    [1, 252, 4653, 31504, 127905],
]


def brute_force_pair_count(spec: PackSpec) -> int:
    """Independent oracle: walk every ordered pair of step sequences."""
    endpoints = []
    for walk in itertools.product(range(spec.d), repeat=spec.n):
        counts = [0] * spec.d
        for step in walk:
            counts[step] += 1
        endpoints.append(tuple(counts))
    return sum(1 for a in endpoints for b in endpoints if a == b)


class TestPackSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PackSpec(-1, 2)
        with pytest.raises(ValueError):
            PackSpec(3, 0)

    def test_frozen_and_hashable(self):
        spec = PackSpec(2, 3)
        assert {spec: 1}[PackSpec(2, 3)] == 1
        with pytest.raises(Exception):
            spec.n = 5  # type: ignore[misc]

    def test_value_semantics(self):
        # Expected strings and messages captured from the frozen-dataclass version.
        spec = PackSpec(n=2, d=3)
        assert repr(spec) == "PackSpec(n=2, d=3)"
        assert f"{PackSpec(60, 5)}" == "PackSpec(n=60, d=5)"
        assert spec == PackSpec(2, 3)
        assert spec != PackSpec(3, 2)
        assert hash(spec) == hash(PackSpec(2, 3))
        assert len({spec, PackSpec(2, 3), PackSpec(3, 2)}) == 2
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(ValueError, match=r"^pack size must be non-negative, got n=-1$"):
            PackSpec(n=-1, d=2)
        with pytest.raises(ValueError, match=r"^color count must be positive, got d=0$"):
            PackSpec(3, 0)
        for attr in ("n", "d", "extra"):
            with pytest.raises(AttributeError):
                setattr(spec, attr, 5)
        assert (spec.n, spec.d) == (2, 3)


class TestCompositions:
    def test_two_items_two_colors(self):
        assert list(compositions(PackSpec(2, 2))) == [(0, 2), (1, 1), (2, 0)]

    def test_empty_pack(self):
        assert list(compositions(PackSpec(0, 3))) == [(0, 0, 0)]

    def test_single_color(self):
        assert list(compositions(PackSpec(7, 1))) == [(7,)]

    def test_three_items_three_colors_order(self):
        assert list(compositions(PackSpec(3, 3))) == [
            (0, 0, 3),
            (0, 1, 2),
            (1, 0, 2),
            (0, 2, 1),
            (1, 1, 1),
            (2, 0, 1),
            (0, 3, 0),
            (1, 2, 0),
            (2, 1, 0),
            (3, 0, 0),
        ]

    def test_order_is_descending_colex(self):
        # Colex compares tuples by their last differing coordinate, which is
        # plain lexicographic comparison of the reversed tuples.
        for n, d in [(4, 3), (3, 4), (5, 2), (2, 5)]:
            stream = list(compositions(PackSpec(n, d)))
            assert stream == sorted(
                stream, key=lambda c: tuple(reversed(c)), reverse=True
            )

    def test_count_sums_and_uniqueness(self):
        for n in range(9):
            for d in range(1, 5):
                spec = PackSpec(n, d)
                stream = list(compositions(spec))
                assert len(stream) == distinct_pack_count(spec)
                assert len(set(stream)) == len(stream)
                assert all(len(c) == d and sum(c) == n for c in stream)
                assert all(min(c) >= 0 for c in stream)

    def test_flagship_stream_size(self):
        spec = PackSpec(60, 5)
        stream = compositions(spec)
        first = next(stream)
        assert first == (0, 0, 0, 0, 60)
        count = 1
        for last in stream:
            count += 1
        assert count == 635376
        assert last == (60, 0, 0, 0, 0)


class TestDistinctPackCount:
    def test_values(self):
        assert distinct_pack_count(PackSpec(60, 5)) == 635376
        assert distinct_pack_count(PackSpec(60, 5)) == binomial(64, 4)
        assert distinct_pack_count(PackSpec(9, 1)) == 1
        assert distinct_pack_count(PackSpec(2, 2)) == 3
        assert distinct_pack_count(PackSpec(0, 4)) == 1


class TestEndpointProbability:
    def test_values(self):
        assert endpoint_probability(PackSpec(1, 2), (1, 0)) == Fraction(1, 2)
        assert endpoint_probability(PackSpec(2, 2), (1, 1)) == Fraction(1, 2)
        assert endpoint_probability(PackSpec(3, 3), (1, 1, 1)) == Fraction(6, 27)

    def test_validation(self):
        with pytest.raises(ValueError):
            endpoint_probability(PackSpec(2, 2), (1, 1, 0))  # wrong length
        with pytest.raises(ValueError):
            endpoint_probability(PackSpec(2, 2), (2, 1))  # wrong total
        with pytest.raises(ValueError):
            endpoint_probability(PackSpec(2, 2), (3, -1))  # negative count

    def test_normalization_exact(self):
        # sum over compositions of endpoint_probability == 1, exactly.
        for n in range(9):
            for d in range(1, 5):
                spec = PackSpec(n, d)
                total = sum(
                    (endpoint_probability(spec, c) for c in compositions(spec)),
                    Fraction(0),
                )
                assert total == 1


class TestCountingRoutes:
    def test_count_closed_golden(self):
        assert count_closed(PackSpec(2, 2)) == 6
        assert count_closed(PackSpec(3, 3)) == 93
        assert count_closed(PackSpec(5, 5)) == 127905
        assert count_closed(PackSpec(0, 4)) == 1
        assert count_closed(PackSpec(6, 1)) == 1

    def test_count_recursive_golden(self):
        assert count_recursive(PackSpec(4, 3)) == 639
        assert count_recursive(PackSpec(5, 4)) == 31504
        for n in range(7):
            assert count_recursive(PackSpec(n, 1)) == 1

    def test_count_gf_golden(self):
        assert count_gf(PackSpec(3, 3)) == 93
        assert count_gf(PackSpec(4, 2)) == 70 == binomial(8, 4)
        for d in range(1, 7):
            assert count_gf(PackSpec(1, d)) == d

    def test_count_grid_golden(self):
        for n in range(1, 6):
            for d in range(1, 6):
                assert count_recursive(PackSpec(n, d)) == COUNT_GRID[n - 1][d - 1]

    def test_routes_agree_on_grid(self):
        for n in range(13):
            for d in range(1, 8):
                spec = PackSpec(n, d)
                closed = count_closed(spec)
                assert closed == count_recursive(spec)
                assert closed == count_gf(spec)

    @pytest.mark.parametrize("n, d", [(24, 8), (80, 5), (200, 3), (60, 5), (1, 2000)])
    def test_routes_agree_at_heavy_shapes(self, n, d):
        spec = PackSpec(n, d)
        closed = count_closed(spec)
        assert closed == count_recursive(spec)
        assert closed == count_gf(spec)

    def test_routes_stay_independent(self, monkeypatch):
        # The routes cross-check each other only while no route calls another.
        golden = {(3, 3): 93, (5, 5): 127905, (4, 2): 70, (0, 4): 1, (6, 1): 1}

        def refuse(*_args):
            raise RuntimeError("another counting route was called")

        monkeypatch.setattr(coincidence, "recursive_columns", refuse)
        monkeypatch.setattr(coincidence, "count_recursive", refuse)
        for (n, d), count in golden.items():
            assert count_closed(PackSpec(n, d)) == count
            assert count_gf(PackSpec(n, d)) == count
        # count_closed reads binomial for its endpoint ceiling; count_gf never does.
        monkeypatch.setattr(coincidence, "binomial", refuse)
        for (n, d), count in golden.items():
            assert count_gf(PackSpec(n, d)) == count

    def test_gf_route_rejects_a_corrupted_step(self, monkeypatch):
        # Feed one step of the power recurrence a sum that is off by one: the
        # exact division by k must notice.
        calls = []

        def corrupt_divmod(total, k):
            calls.append(k)
            return divmod(total + (len(calls) == 3), k)

        monkeypatch.setattr(coincidence, "divmod", corrupt_divmod, raising=False)
        with pytest.raises(AssertionError, match="step 3 .* is not an integer"):
            count_gf(PackSpec(6, 4))

    def test_routes_match_brute_force_walk_pairs(self):
        # Definitional oracle over the full ordered sample space d^(2n).
        for n in range(4):
            for d in range(1, 4):
                spec = PackSpec(n, d)
                expected = brute_force_pair_count(spec)
                assert count_closed(spec) == expected
                assert count_recursive(spec) == expected
                assert count_gf(spec) == expected


class TestPartitionClasses:
    @staticmethod
    def expected_classes(spec: PackSpec) -> list[tuple[int, int]]:
        # One class per sorted endpoint, holding every endpoint that sorts to it.
        classes = Counter(tuple(sorted(c)) for c in compositions(spec))
        return sorted((multinomial(spec.n, key), size) for key, size in classes.items())

    def test_match_sorted_compositions(self):
        shapes = [(n, d) for n in range(9) for d in range(1, 7)]
        shapes += [(0, d) for d in (7, 12, 40)] + [(n, 1) for n in (9, 20, 50)]
        for n, d in shapes:
            spec = PackSpec(n, d)
            assert sorted(partition_classes(spec)) == self.expected_classes(spec), spec

    def test_lost_endpoints_fail_every_consumer(self, monkeypatch):
        # A walk whose class sizes miss the endpoint count, simulated by an
        # endpoint count one too high, fails once the walk is exhausted.
        real = coincidence.distinct_pack_count
        monkeypatch.setattr(coincidence, "distinct_pack_count", lambda spec: real(spec) + 1)
        with pytest.raises(AssertionError, match="hold 35 endpoints, not 36"):
            count_closed(PackSpec(4, 4))
        with pytest.raises(AssertionError, match="hold 35 endpoints, not 36"):
            endpoint_spectrum(PackSpec(4, 4))


class TestCoincidenceTable:
    """The count grid built column by column by ``recursive_columns``."""

    def test_cells_satisfy_recursion(self):
        grid = list(recursive_columns(8, 5))
        assert len(grid) == 5
        assert grid[0] == [1] * 9
        for d in range(2, 6):
            previous, column = grid[d - 2], grid[d - 1]
            assert len(column) == 9
            for n in range(9):
                assert column[n] == sum(
                    binomial(n, k) ** 2 * previous[n - k] for k in range(n + 1)
                )
                assert column[n] == count_closed(PackSpec(n, d))

    def test_squares_come_from_pascal_rows_built_by_addition(self, monkeypatch):
        # One binomial per (n, k) cost almost all of the d = 2 grid; the work
        # is checked, not the wall time. The closed route's Pascal rows are not
        # shared, so the routes stay independent. count(n, 2) = C(2n, n).
        def refuse(*_args):
            raise RuntimeError("recursive_columns computed a binomial on its own")

        monkeypatch.setattr(coincidence, "binomial", refuse)
        monkeypatch.setattr(coincidence, "_pascal_rows", refuse)
        column = list(recursive_columns(300, 2))[-1]
        assert column == [math.comb(2 * n, n) for n in range(301)]

    def test_match_counts_switch_routes_past_three_colors(self, monkeypatch):
        # count(n, d) for n = 0..max_n: the recursion's last column up to
        # d = 3, the GF list past it; the integers are the same.
        for max_n in range(6):
            for d in range(1, 9):
                expected = list(recursive_columns(max_n, d))[-1]
                assert coincidence._match_counts(max_n, d) == expected, (max_n, d)

        def refuse(*_args):
            raise AssertionError("the color recursion ran")

        monkeypatch.setattr(coincidence, "recursive_columns", refuse)
        assert coincidence_probability(PackSpec(1, 10**20)) == Fraction(1, 10**20)
        for n, d in [(8, 9), (60, 4)]:
            assert coincidence_probability(PackSpec(n, d)) == Fraction(
                count_closed(PackSpec(n, d)), d ** (2 * n)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            list(recursive_columns(-1, 2))
        with pytest.raises(ValueError):
            list(recursive_columns(2, 0))

    def test_concurrent_counts_identical(self):
        reference = count_closed(PackSpec(30, 4))
        results: list[int] = []

        def worker() -> None:
            results.append(count_recursive(PackSpec(30, 4)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [reference] * 8


class TestCoincidenceProbability:
    def test_values(self):
        assert coincidence_probability(PackSpec(2, 2)) == Fraction(6, 16)
        assert coincidence_probability(PackSpec(9, 1)) == 1
        assert coincidence_probability(PackSpec(0, 5)) == 1

    def test_in_unit_interval_and_reduced(self):
        for n in range(7):
            for d in range(1, 5):
                p = coincidence_probability(PackSpec(n, d))
                assert 0 < p <= 1
                assert d ** (2 * n) % p.denominator == 0

    def test_sum_of_squares_identity(self):
        # The definitional route: P[match] = sum of endpoint_probability^2.
        for n in range(7):
            for d in range(1, 5):
                spec = PackSpec(n, d)
                squares = sum(
                    (endpoint_probability(spec, c) ** 2 for c in compositions(spec)),
                    Fraction(0),
                )
                assert coincidence_probability(spec) == squares

    def test_strict_monotonicity_on_grid(self):
        probabilities = {
            (n, d): coincidence_probability(PackSpec(n, d))
            for n in range(1, 10)
            for d in range(1, 10)
        }
        for n in range(1, 9):
            for d in range(2, 10):
                assert probabilities[(n + 1, d)] < probabilities[(n, d)]
        for n in range(1, 10):
            for d in range(1, 9):
                assert probabilities[(n, d + 1)] < probabilities[(n, d)]

    def test_pitfall_endpoints_are_not_equally_likely(self):
        # P[match] is far larger than the uniform-endpoint guess 1/635376.
        spec = PackSpec(60, 5)
        p = coincidence_probability(spec)
        assert p != Fraction(1, distinct_pack_count(spec))
        assert p > 60 * Fraction(1, 635376)

    def test_probability_cell_two_items_three_colors(self):
        # 3 permutations of (2,0,0) weigh 1 each, 3 of (1,1,0) weigh 2 each:
        # count = 3*1 + 3*4 = 15, so P = 15/81 renders as 0.1852. Guards
        # against the digit-transposed rendering 0.1825 occasionally quoted
        # for this cell.
        p = coincidence_probability(PackSpec(2, 3))
        assert p == Fraction(15, 81)
        assert decimal_string(p, 4) == "0.1852"
        assert decimal_string(p, 4) != "0.1825"


class TestTwoColorProbability:
    def test_values(self):
        assert two_color_probability(2) == Fraction(6, 16)
        assert two_color_probability(0) == 1
        assert two_color_probability(5) == Fraction(252, 1024)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            two_color_probability(-1)

    def test_central_binomial_identity(self):
        for n in range(31):
            p = two_color_probability(n)
            assert p == Fraction(binomial(2 * n, n), 4**n)
            assert p == coincidence_probability(PackSpec(n, 2))
