"""Seeded Monte Carlo checks of the exact results.

Sampling realises the ordered filling model: a pack is ``n`` independent
uniform draws over ``d`` colors, and only the per-color counts (the walk
endpoint) matter for pack identity. Per-draw color sequences are sampled where
the sequence itself is under test (``endpoint_histogram``) and where they are
the cheaper way to a first-match endpoint; otherwise endpoints come from the
equivalent multinomial law. Both give exactly the endpoint law of the ordered
model. Both places share ``_item_color_rows`` and ``_endpoint_keys``.

The pair experiment never draws a whole endpoint it does not need. Like numpy's
multinomial, it draws color ``c`` as ``Bin(r, 1/(d - c))`` of the ``r`` items
not yet placed, but it draws both packs of every pair one color at a time and
drops a pair at the first color where the two counts differ. Most pairs differ
at the first color, whose draws share one binomial set-up.

The first-match experiment runs a chunk's trials in one kernel,
``_first_match_times``. Each trial draws endpoints in growing blocks; the
kernel draws rows for many trials in one call, which leaves the stream
unchanged, and checks each block for a repeat with C-level set operations,
scanning pack by pack only in the block that holds the repeat. Its rows come
from one of two sources, chosen by the shape alone: item colors (``n`` int64
bounded integers per pack, counted by ``bincount``) where ``d >= 3`` and
``n <= 30·(d - 2)``, and numpy's multinomial (``d - 1`` binomials per pack)
elsewhere. A ``d = 2`` multinomial row is one binomial whose set-up numpy
reuses, and once ``n/d`` is large the binomials cost little while item
colors cost ``O(n)``.

Determinism contract: trials are split into fixed-size chunks, and chunk ``i``
draws from its own generator, keyed by numpy's ``SeedSequence`` on the
experiment seed and stream index ``i``. Within a chunk, the first-match row
source and block schedule fix which rows each trial uses. A report is
therefore a pure function of (spec, trials, seed), for a given packmatch and
numpy version.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .coincidence import PackSpec, distinct_pack_count

RNG_ALGORITHM = "PCG64"

_CHUNK = 1 << 16  # trials per seed stream, in both experiments
_HISTOGRAM_CHUNK = 1 << 14
# Integers drawn or counted per first-match call: rows·max(n, d) for item
# colors, rows·d for multinomial rows, never fewer than 16 rows. Neither
# source's rows depend on how the draws are split into calls (item colors are
# int64 draws; numpy's narrower bounded draws buffer bits within one call), so
# the budget sets only speed and memory.
_DRAW_BUDGET = 1 << 14
_DRAW_ROWS = 1 << 10  # rows per first-match call at most: each row becomes a bytes key
# Item colors while n <= 30·(d - 2): numpy's binomials cost O(1) once n/d
# passes 30, and multinomial rows tie or win at (48, 3) and d = 2.
_ITEM_COLOR_SLOPE = 30
_Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def _generator(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for stream ``stream`` of experiment ``seed``."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(sequence))


def _check_run(total: int, seed: int) -> None:
    """Reject a trial count below 1 or a seed outside [0, 2**64)."""
    if total < 1:
        raise ValueError(f"trial count must be positive, got {total}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit non-negative value, got {seed}")


def _streams(seed: int, total: int, chunk: int) -> Iterator[tuple[np.random.Generator, int]]:
    """Split ``total`` trials into chunks of at most ``chunk``, stream i for chunk i.

    Yields (generator, size) lazily, so a run holds one generator at a time.

    Raises:
        ValueError: on first iteration, if ``total`` is not positive or
            ``seed`` is not a 64-bit non-negative value.
    """
    _check_run(total, seed)
    for stream, start in enumerate(range(0, total, chunk)):
        yield _generator(seed, stream), min(chunk, total - start)


def _wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = _Z_95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    # The interval always contains phat mathematically; the outer min/max
    # absorb float roundoff at the p = 0 and p = 1 boundaries.
    return (max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat)))


@dataclass(frozen=True)
class TrialReport:
    """Result of a pair-matching experiment.

    ``estimate`` always lies inside [ci_low, ci_high] (95% Wilson interval),
    and ``algorithm`` records the generator so reports are reproducible.
    """

    seed: int
    trials: int
    matches: int
    estimate: float
    ci_low: float
    ci_high: float
    algorithm: str
    analytic_reference: float | None = None


def _matching_pairs(spec: PackSpec, rng: np.random.Generator, size: int) -> int:
    """Count the matches among ``size`` pack pairs, deciding them color by color.

    Color ``c`` of each pack is ``Bin(r, 1/(d - c))``, where ``r`` items are
    not yet placed; ``r`` is the same in both packs while their counts agree.
    A pair is dropped when its two draws differ and is a match when they
    agree and place every item (each later color is 0 in both packs); the
    rest go on, and those left after color ``d - 2`` match (the last color
    holds the rest). The first color draws with scalar parameters, so numpy
    sets its binomial up once.
    """
    matches = 0
    remaining = spec.n
    for color in range(spec.d - 1):
        first, second = rng.binomial(remaining, 1.0 / (spec.d - color), size=(2, size))
        same = first == second
        matches += int(np.count_nonzero(same & (first == remaining)))
        remaining = (remaining - first)[same & (first < remaining)]
        size = remaining.size
    return matches + size


def pair_match_rate(
    spec: PackSpec,
    trials: int,
    seed: int,
    analytic_reference: float | None = None,
) -> TrialReport:
    """Estimate the probability that two independent packs match.

    Draws ``trials`` independent pack pairs in fixed-size chunks, each chunk
    on its own seed stream, and counts the pairs with equal endpoints.

    Raises:
        ValueError: if ``trials`` is not positive or ``seed`` is negative.
    """
    matches = 0
    for rng, size in _streams(seed, trials, _CHUNK):
        matches += _matching_pairs(spec, rng, size)
    ci_low, ci_high = _wilson_interval(matches, trials)
    return TrialReport(
        seed=seed,
        trials=trials,
        matches=matches,
        estimate=matches / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        algorithm=RNG_ALGORITHM,
        analytic_reference=analytic_reference,
    )


def _uses_item_colors(spec: PackSpec) -> bool:
    """Whether first-match rows come from item colors rather than multinomial rows."""
    return spec.d >= 3 and spec.n <= _ITEM_COLOR_SLOPE * (spec.d - 2)


def _color_counts(colors: np.ndarray, d: int) -> np.ndarray:
    """Per-row counts of an int64 ``(rows, n)`` array of colors in ``[0, d)``.

    Adds ``row·d`` to each row of ``colors`` in place and counts every row
    with one ``bincount``; the result has shape ``(rows, d)``.
    """
    rows = colors.shape[0]
    colors += np.arange(0, rows * d, d)[:, None]
    return np.bincount(colors.ravel(), minlength=rows * d).reshape(rows, d)


def _item_color_rows(spec: PackSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` endpoints, each the color counts of ``n`` uniform int64 item colors."""
    return _color_counts(rng.integers(0, spec.d, size=(rows, spec.n)), spec.d)


def _endpoint_keys(counts: np.ndarray, n: int) -> list[bytes]:
    """One bytes key per row of ``counts``, in the narrowest unsigned type holding ``n``."""
    key_type = np.min_scalar_type(n)
    row_type = np.dtype((np.void, counts.shape[1] * key_type.itemsize))
    return counts.astype(key_type).view(row_type).ravel().tolist()


def _multinomial_rows(spec: PackSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` endpoints drawn by numpy's multinomial (``d - 1`` binomials each)."""
    return rng.multinomial(spec.n, np.full(spec.d, 1.0 / spec.d), size=rows)


def _first_match_times(spec: PackSpec, rng: np.random.Generator, trials: int) -> list[int]:
    """Sample ``trials`` first-match times in turn from one generator.

    A trial draws endpoints in blocks: the first holds 16 packs, each later
    one a quarter more, capped at ``cap - drawn``. The rest of the block that
    holds the repeat is discarded, and the next trial starts after that
    block.

    Endpoints come from ``_item_color_rows`` where ``_uses_item_colors``
    holds (``d >= 3`` and ``n <= 30·(d - 2)``) and from
    ``_multinomial_rows`` elsewhere. Neither source's rows depend on how the
    draws are split into calls (item colors are int64 draws; numpy's
    ``uint8`` draws would buffer bits within one call), so a call draws
    ``max(16, min(_DRAW_BUDGET // w, _DRAW_ROWS))`` rows whatever the block,
    where ``w`` is the larger of the integers drawn and counted per row: a
    call for a short block draws ahead for later trials, and a long block
    takes several calls. With one trial, calls stop at the end of the trial's
    last block, so ``rng`` is left where the trial ends.

    Each row is kept as its ``_endpoint_keys`` bytes key. A block is checked
    against the keys seen so far and added to them by C-level set
    operations; only the block that holds the repeat is scanned pack by
    pack. A trial ends by pack distinct_pack_count(spec) + 1 by pigeonhole,
    so the loop terminates.
    """
    cap = distinct_pack_count(spec) + 1
    if _uses_item_colors(spec):
        draw, width = _item_color_rows, max(spec.n, spec.d)
    else:
        draw, width = _multinomial_rows, spec.d
    step = max(16, min(_DRAW_BUDGET // width, _DRAW_ROWS))  # rows per draw call
    keys: list[bytes] = []
    used = 0  # keys[:used] belong to blocks already taken
    times = []
    for _ in range(trials):
        seen: set[bytes] = set()
        drawn = 0
        block = 16
        while True:
            size = min(block, cap - drawn)
            if len(keys) - used < size:
                del keys[:used]
                used = 0
                while len(keys) < size:
                    rows = step if trials > 1 else min(step, size - len(keys))
                    keys += _endpoint_keys(draw(spec, rng, rows), spec.n)
            packs = keys[used : used + size]
            used += size
            if not seen.isdisjoint(packs):
                break
            seen.update(packs)
            if len(seen) < drawn + size:
                seen = set()  # the block repeats itself; none of its keys came earlier
                break
            drawn += size
            if drawn >= cap:
                raise AssertionError(
                    f"no repeat within {cap} packs of {spec}; sampler violated pigeonhole"
                )
            block += block // 4
        for key in packs:
            drawn += 1
            if key in seen:
                break
            seen.add(key)
        times.append(drawn)
    return times


def first_match_trial(spec: PackSpec, rng: np.random.Generator) -> int:
    """Sample one first-match time: packs drawn until an endpoint repeats.

    Draws exactly the blocks of :func:`_first_match_times` from ``rng``. The
    result is at most distinct_pack_count(spec) + 1 by pigeonhole.
    """
    return _first_match_times(spec, rng, 1)[0]


@dataclass(frozen=True)
class FirstMatchReport:
    """Result of a first-match experiment.

    ``histogram`` maps each observed first-match time to its frequency and
    sums to ``trials``; ``std_error`` is the sample standard error of the
    mean, and the interval is the 95% normal interval around ``mean``.
    """

    seed: int
    trials: int
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    histogram: dict[int, int]
    algorithm: str
    analytic_reference: float | None = None


def first_match_experiment(
    spec: PackSpec,
    trials: int,
    seed: int,
    analytic_reference: float | None = None,
) -> FirstMatchReport:
    """Run ``trials`` independent first-match trials, one seed stream per chunk.

    Raises:
        ValueError: if ``trials`` is not positive or ``seed`` is negative.
    """
    histogram: Counter[int] = Counter()
    for rng, size in _streams(seed, trials, _CHUNK):
        histogram.update(_first_match_times(spec, rng, size))
    total = sum(value * count for value, count in histogram.items())
    total_sq = sum(value * value * count for value, count in histogram.items())
    mean = total / trials
    if trials > 1:
        variance = (total_sq - trials * mean * mean) / (trials - 1)
        variance = max(0.0, variance)
    else:
        variance = 0.0
    std_error = math.sqrt(variance / trials)
    return FirstMatchReport(
        seed=seed,
        trials=trials,
        mean=mean,
        std_error=std_error,
        ci_low=mean - _Z_95 * std_error,
        ci_high=mean + _Z_95 * std_error,
        histogram=dict(sorted(histogram.items())),
        algorithm=RNG_ALGORITHM,
        analytic_reference=analytic_reference,
    )


def endpoint_histogram(
    spec: PackSpec, samples: int, seed: int
) -> dict[tuple[int, ...], int]:
    """Histogram of walk endpoints over ``samples`` ordered fillings.

    This one samples the per-draw color sequences themselves (not the
    multinomial shortcut), so it exercises the ordered model end to end; the
    test suite compares the result against the exact endpoint probabilities.
    Samples are tallied by ``_endpoint_keys`` key; each key is decoded once.

    Raises:
        ValueError: if ``samples`` is not positive or ``seed`` is negative.
    """
    keys: Counter[bytes] = Counter()
    for rng, size in _streams(seed, samples, _HISTOGRAM_CHUNK):
        keys.update(_endpoint_keys(_item_color_rows(spec, rng, size), spec.n))
    key_type = np.min_scalar_type(spec.n)
    decoded = ((tuple(np.frombuffer(key, key_type).tolist()), count) for key, count in keys.items())
    return dict(sorted(decoded))
