"""Seeded Monte Carlo checks of the exact results.

Sampling realises the ordered filling model: a pack is ``n`` independent
uniform draws over ``d`` colors, and only the per-color counts (the walk
endpoint) matter for pack identity. Per-draw color sequences are sampled where
the sequence itself is under test (``endpoint_histogram``) and where they are
the cheaper way to a first-match endpoint; otherwise endpoints come from the
equivalent multinomial law. Both give exactly the endpoint law of the ordered
model.

The pair experiment never draws a whole endpoint it does not need. Like numpy's
multinomial, it draws color ``c`` as ``Bin(r, 1/(d - c))`` of the ``r`` items
not yet placed, but it draws both packs of every pair one color at a time and
drops a pair at the first color where the two counts differ. Most pairs differ
at the first color. Where numpy would draw that color by inversion
(``n <= 30·d``), it is one uniform per pack looked up in a table of the
``Bin(n, 1/d)`` CDF; elsewhere its draws share one binomial set-up. The first
color is drawn in slices of a few thousand, the first packs of a chunk's
pairs before the second, into counts of the narrowest unsigned type that
holds ``n``: the stream of one full-width draw, with a few hundred KB alive.

The first-match experiment runs a chunk's trials in one kernel,
``_first_match_times``. Each trial draws endpoints in growing blocks; the
kernel draws rows for many trials in one call, which leaves the stream
unchanged, and checks each block for a repeat with C-level set operations,
scanning pack by pack only in the block that holds the repeat. The shape
alone picks its key source (``_key_source``). Where ``d >= 3`` and
``n <= 30·(d - 2)`` a pack is item colors: one int64 draw in ``[0, d**k)``
per run of ``k`` colors, looked up as an int64 endpoint code, where the code
``sum(count_c·(n + 1)**c)`` fits (``(n + 1)**d < 2**63``); ``n`` int64 draws
elsewhere, keyed by their sorted colors. Every other shape draws numpy's
multinomial (``d - 1`` binomials per pack): a ``d = 2`` row is one binomial
whose set-up numpy reuses, and once ``n/d`` is large the binomials cost little
while item colors cost ``O(n)``. A trial holds one key per pack it draws, so
a shape whose mean first-match time alone would fill ``_MEMORY_BUDGET`` is
refused before anything is drawn. ``endpoint_histogram`` keys its ``n`` int64
item colors per sample by the same rule, code or sorted colors, so its memory
grows with samples times ``n``, not ``d``.

Determinism contract: trials are split into fixed-size chunks, and chunk ``i``
draws from its own generator, keyed by numpy's ``SeedSequence`` on the
experiment seed and stream index ``i``. Within a chunk, the first-match row
source and block schedule fix which rows each trial uses. A report is
therefore a pure function of (spec, trials, seed), for a given packmatch and
numpy version.
"""

from __future__ import annotations

import decimal
import functools
import math
from collections import Counter
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .coincidence import PackSpec, _check_run, distinct_pack_count

RNG_ALGORITHM = "PCG64"

_CHUNK = 1 << 16  # trials per seed stream, in both experiments
_HISTOGRAM_CHUNK = 1 << 14
# Integers drawn or counted per first-match call (the width ``_key_source``
# gives, times the rows), never fewer than 16 rows. No source's rows depend on
# how the draws are split into calls (item colors are int64 draws; numpy's
# narrower bounded draws buffer bits within one call), so the budget sets
# only speed and memory.
_DRAW_BUDGET = 1 << 14
_DRAW_ROWS = 1 << 10  # rows per first-match call at most: each row becomes a key
_CODE_TABLE_SIZE = 1 << 12  # entries of a coded first-match lookup table at most
# numpy draws Bin(n, p), p <= 1/2, by inversion while n·p <= 30 and past that
# at O(1) a draw. So the pair experiment inverts its first color, Bin(n, 1/d),
# on a CDF table, which reads the same one uniform, while n <= 30·d, where the
# table stays small; and first-match packs are item colors while
# n <= 30·(d - 2), as multinomial rows tie or win at (48, 3) and d = 2.
_INVERSION_LIMIT = 30
_CDF_DIGITS = 40  # significant digits of the first-color CDF before it is rounded
_FIRST_COLOR_SLICE = 1 << 12  # first-color draws per numpy call in the pair experiment
_Z_95 = 1.959963984540054  # two-sided 95% normal quantile
# Bytes of first-match keys a trial may be expected to hold: 1 GiB.
_MEMORY_BUDGET = 1 << 30


def _generator(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for stream ``stream`` of experiment ``seed``."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(sequence))


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


class TrialReport(NamedTuple):
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


def _first_color_cdf(spec: PackSpec) -> np.ndarray | None:
    """CDF of the first color's count, ``Bin(n, 1/d)``, where numpy would invert it.

    Each entry is summed to ``_CDF_DIGITS`` digits by the pmf ratio
    recurrence and rounded once to double; entries that round to 1.0 are
    dropped, so ``searchsorted(cdf, u, "right")`` of a uniform ``u`` in
    ``[0, 1)`` is a count. None where ``d < 2`` or ``n > 30·d``, where numpy's
    binomial is not an inversion.
    """
    n, d = spec
    if d < 2 or n > _INVERSION_LIMIT * d:
        return None
    cdf = []
    # Rounding (d - 1)/d before its n-th power multiplies the relative error
    # by n; as many more digits as n has make up for it.
    with decimal.localcontext(decimal.Context(prec=_CDF_DIGITS + len(str(n)))):
        term = (decimal.Decimal(d - 1) / d) ** n
        total = term
        for count in range(n + 1):
            if float(total) == 1.0:
                break
            cdf.append(float(total))
            term = term * (n - count) / ((count + 1) * (d - 1))
            total += term
    return np.array(cdf)


def _first_colors(
    spec: PackSpec, rng: np.random.Generator, size: int, cdf: np.ndarray | None
) -> np.ndarray:
    """The first color's count in both packs of ``size`` pairs, shape ``(2, size)``.

    Row 0 holds the first packs and row 1 the second, in the narrowest
    unsigned type that holds ``n``. Each row is drawn in slices of
    ``_FIRST_COLOR_SLICE``, row 0 first, which reads the stream in the order
    of one ``(2, size)`` draw: one uniform per pack inverted on ``cdf``, the
    table of ``_first_color_cdf``, where it is given, otherwise ``Bin(n, 1/d)``
    with scalar parameters, which numpy sets up once.
    """
    rows = np.empty((2, size), np.min_scalar_type(spec.n))
    for row in rows:
        for start in range(0, size, _FIRST_COLOR_SLICE):
            part = row[start : start + _FIRST_COLOR_SLICE]
            if cdf is not None:
                part[:] = np.searchsorted(cdf, rng.random(part.size), side="right")
            else:
                part[:] = rng.binomial(spec.n, 1.0 / spec.d, size=part.size)
    return rows


def _matching_pairs(
    spec: PackSpec, rng: np.random.Generator, size: int, cdf: np.ndarray | None
) -> int:
    """Count the matches among ``size`` pack pairs, deciding them color by color.

    Color ``c`` of each pack is ``Bin(r, 1/(d - c))``, where ``r`` items are
    not yet placed; ``r`` is the same in both packs while their counts agree.
    A pair is dropped when its two draws differ and is a match when they
    agree and place every item (each later color is 0 in both packs); the
    rest go on, and those left after color ``d - 2`` match (the last color
    holds the rest). The first color comes from ``_first_colors``; the few
    pairs left draw each later color in one call.
    """
    matches = 0
    remaining = spec.n
    for color in range(spec.d - 1):
        if color == 0:
            first, second = _first_colors(spec, rng, size, cdf)
        else:
            first, second = rng.binomial(remaining, 1.0 / (spec.d - color), size=(2, size))
        same = first == second
        matches += int(np.count_nonzero(same & (first == remaining)))
        # numpy's binomial reads int64 counts, to which uint64 (n >= 2**32)
        # does not cast safely; the survivors are few.
        remaining = (remaining - first)[same & (first < remaining)].astype(np.int64, copy=False)
        size = remaining.size
    return matches + size


def pair_match_rate(spec: PackSpec, trials: int, seed: int) -> TrialReport:
    """Estimate the probability that two independent packs match.

    Draws ``trials`` independent pack pairs in fixed-size chunks, each chunk
    on its own seed stream, and counts the pairs with equal endpoints.

    Raises:
        ValueError: if ``trials`` is not positive or ``seed`` is negative.
    """
    matches = 0
    cdf = _first_color_cdf(spec)
    for rng, size in _streams(seed, trials, _CHUNK):
        matches += _matching_pairs(spec, rng, size, cdf)
    ci_low, ci_high = _wilson_interval(matches, trials)
    return TrialReport(
        seed=seed,
        trials=trials,
        matches=matches,
        estimate=matches / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        algorithm=RNG_ALGORITHM,
    )


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous 2-D array, one key per row."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def _code_fits(spec: PackSpec) -> bool:
    """Whether the endpoint code ``sum(count_c·(n + 1)**c)`` fits an int64."""
    # (n + 1)**63 >= 2**63 for n >= 1, so d is capped before the power grows.
    return (spec.n + 1) ** min(spec.d, 63) < 2**63


def _code_powers(n: int, d: int) -> np.ndarray:
    """The int64 code ``(n + 1)**c`` of one item of each color ``c``."""
    return np.array([(n + 1) ** c for c in range(d)], dtype=np.int64)


@functools.lru_cache(maxsize=4)
def _code_table(n: int, d: int) -> tuple[np.ndarray, int, int]:
    """The code of every run of ``k`` item colors, runs per pack, colors the last one lacks.

    ``k`` is the largest count with ``d**k <= _CODE_TABLE_SIZE``, at most
    ``n``. Entry ``u`` is the sum of ``(n + 1)**c`` over the ``k`` base-``d``
    digits ``c`` of ``u``, so the runs of a pack sum to its endpoint code
    ``sum(count_c·(n + 1)**c)``.
    """
    k = 0
    while k < n and d ** (k + 1) <= _CODE_TABLE_SIZE:
        k += 1
    powers = _code_powers(n, d)
    digits = np.arange(d**k)
    table = np.zeros(d**k, dtype=np.int64)
    for _ in range(k):
        digits, color = np.divmod(digits, d)
        table += powers[color]
    runs = -(-n // k) if k else 0
    return table, runs, runs * k - n


def _coded_keys(spec: PackSpec, rng: np.random.Generator, rows: int) -> list[int]:
    """``rows`` endpoint codes, each the sum of one ``_code_table`` entry per run.

    A pack draws one int64 integer in ``[0, d**k)`` per run of ``k`` item
    colors, all its runs in one call. Its last run, ``extra`` colors short,
    reads ``u mod d**(k - extra)``, its low digits; the ``extra`` high zero
    digits that its entry then counts are taken back off the sum.
    """
    table, runs, extra = _code_table(spec.n, spec.d)
    draws = rng.integers(0, table.size, size=(rows, runs))
    if extra:
        draws[:, -1] %= table.size // spec.d**extra
    codes = table[draws].sum(axis=1)
    if extra:
        codes -= extra
    return codes.tolist()


def _sorted_color_keys(spec: PackSpec, rng: np.random.Generator, rows: int) -> list[bytes]:
    """``rows`` keys, each the bytes of ``n`` sorted int64 item colors, narrowed."""
    colors = rng.integers(0, spec.d, size=(rows, spec.n)).astype(np.min_scalar_type(spec.d - 1))
    colors.sort(axis=1)
    return _row_keys(colors)


def _multinomial_keys(spec: PackSpec, rng: np.random.Generator, rows: int) -> list[bytes]:
    """``rows`` keys, each an endpoint drawn by numpy's multinomial (``d - 1`` binomials)."""
    counts = rng.multinomial(spec.n, np.full(spec.d, 1.0 / spec.d), size=rows)
    return _row_keys(counts.astype(np.min_scalar_type(spec.n)))


def _key_source(
    spec: PackSpec,
) -> tuple[Callable[[PackSpec, np.random.Generator, int], list], int]:
    """The first-match key source of ``spec``, and the integers it draws or counts per row.

    Item colors where ``d >= 3`` and ``n <= 30·(d - 2)``: coded where the
    code fits an int64 (``(n + 1)**d < 2**63``), else sorted colors.
    Multinomial rows elsewhere.
    """
    n, d = spec
    if d < 3 or n > _INVERSION_LIMIT * (d - 2):
        return _multinomial_keys, d
    if _code_fits(spec):
        return _coded_keys, max(1, _code_table(n, d)[1])
    return _sorted_color_keys, n


def _check_trial_memory(spec: PackSpec) -> None:
    """Refuse a shape whose mean first-match time needs keys beyond ``_MEMORY_BUDGET``.

    Over the endpoint probabilities q_v, E[X] = integral over t >= 0 of
    e**-t * prod(1 + q_v t) dt, and log(1 + x) >= x - x**2 / 2 gives
    E[X] >= sqrt(pi / (2 S_2)) >= sqrt(pi / (2 q_max)), where q_max is the
    probability of the most balanced endpoint. It is n! / d**n where n < d;
    elsewhere its counts c are full or full + 1, and Robbins' bounds on n! and
    each c!, with sum c log(n / (d c)) <= 0, bound it by
    e**(1 / 12n) sqrt(2 pi n) / prod(sqrt(2 pi c) e**(1 / (12c + 1))), free
    of the cancellation that ``math.lgamma`` differences suffer at n near
    10**16. A pack's key takes at least about 48 bytes, an int or bytes
    object plus its set slot, so that many packs must fit the budget.

    Raises:
        ValueError: if they do not.
    """
    n, d = spec
    full, extra = divmod(n, d)  # extra colors hold full + 1 items, the rest full
    if full:
        # Robbins: log(m! / (m / e)**m) = log(2 pi m) / 2 + 1 / (12m + t), 0 < t < 1.
        def robbins(m: int, t: int) -> float:
            return math.log(2 * math.pi * m) / 2 + 1 / (12 * m + t)

        log_q = robbins(n, 0) - extra * robbins(full + 1, 1) - (d - extra) * robbins(full, 1)
    else:
        log_q = math.lgamma(n + 1) - n * math.log(d)
    log_packs = (math.log(math.pi / 2) - log_q) / 2
    key_bytes = 48
    if log_packs > math.log(_MEMORY_BUDGET / key_bytes):
        with decimal.localcontext(decimal.Context(prec=2, Emax=decimal.MAX_EMAX)):
            packs = decimal.Decimal(log_packs).exp()
            gib = packs * key_bytes / 2**30
        raise ValueError(
            f"a first-match trial at {spec} draws at least {packs} packs on average: "
            f"{gib} GiB of keys at {key_bytes} bytes a pack, above the "
            f"{_MEMORY_BUDGET >> 30} GiB memory budget"
        )


def _first_match_times(spec: PackSpec, rng: np.random.Generator, trials: int) -> list[int]:
    """Sample ``trials`` first-match times in turn from one generator.

    A trial draws endpoints in blocks: the first holds 16 packs, each later
    one a quarter more, capped at ``cap - drawn``. The rest of the block that
    holds the repeat is discarded, and the next trial starts after that
    block.

    Each row is kept as a key from ``_key_source(spec)``: an int64 endpoint
    code, the bytes of its sorted item colors or those of its multinomial
    counts. No
    source's rows depend on how the draws are split into calls (its bounded
    draws are int64, one call per batch of rows; numpy's narrower ones
    would buffer bits within one call), so a call draws
    ``max(16, min(_DRAW_BUDGET // w, _DRAW_ROWS))`` rows whatever the block,
    where ``w`` is the larger of the integers drawn and counted per row: a
    call for a short block draws ahead for later trials, and a long block
    takes several calls. With one trial, calls stop at the end of the trial's
    last block, so ``rng`` is left where the trial ends.

    A block is checked against the keys seen so far and added to them by
    C-level set operations; only the block that holds the repeat is scanned
    pack by pack. A trial ends by pack distinct_pack_count(spec) + 1 by
    pigeonhole, so the loop terminates. ``_check_trial_memory`` runs first.
    """
    _check_trial_memory(spec)
    cap = distinct_pack_count(spec) + 1
    draw, width = _key_source(spec)
    step = max(16, min(_DRAW_BUDGET // width, _DRAW_ROWS))  # rows per draw call
    keys: list = []
    used = 0  # keys[:used] belong to blocks already taken
    times = []
    for _ in range(trials):
        seen: set = set()
        drawn = 0
        block = 16
        while True:
            size = min(block, cap - drawn)
            if len(keys) - used < size:
                del keys[:used]
                used = 0
                while len(keys) < size:
                    rows = step if trials > 1 else min(step, size - len(keys))
                    keys += draw(spec, rng, rows)
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


class FirstMatchReport(NamedTuple):
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


def first_match_experiment(spec: PackSpec, trials: int, seed: int) -> FirstMatchReport:
    """Run ``trials`` independent first-match trials, one seed stream per chunk.

    Raises:
        ValueError: if ``trials`` is not positive or ``seed`` is negative, or
            if a trial's keys would overrun ``_MEMORY_BUDGET`` on average.
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
    )


def endpoint_histogram(
    spec: PackSpec, samples: int, seed: int
) -> dict[tuple[int, ...], int]:
    """Histogram of walk endpoints over ``samples`` ordered fillings.

    This one samples the per-draw color sequences themselves (not the
    multinomial shortcut), so it exercises the ordered model end to end; the
    test suite compares the result against the exact endpoint probabilities.
    A chunk draws its ``n`` int64 colors per sample in one call and keys each
    sample by the first-match rule: its endpoint code, computed in place,
    where the code fits an int64, else the bytes of its sorted colors. Each
    distinct key is decoded once.

    Raises:
        ValueError: if ``samples`` is not positive or ``seed`` is negative.
    """
    n, d = spec
    coded = _code_fits(spec)
    powers = _code_powers(n, d) if coded else None
    keys: Counter = Counter()
    for rng, size in _streams(seed, samples, _HISTOGRAM_CHUNK):
        if coded:
            colors = rng.integers(0, d, size=(size, n))
            # Each entry reads its own color before it is overwritten; "clip"
            # never changes a color in [0, d) and keeps numpy from buffering.
            np.take(powers, colors, out=colors, mode="clip")
            codes, counts = np.unique(colors.sum(axis=1), return_counts=True)
            keys.update(dict(zip(codes.tolist(), counts.tolist())))
        else:
            keys.update(_sorted_color_keys(spec, rng, size))
    color_type = np.min_scalar_type(d - 1)
    decoded = {}
    for key, count in keys.items():
        if coded:
            endpoint = []
            for _ in range(d):
                key, part = divmod(key, n + 1)
                endpoint.append(part)
        else:
            endpoint = np.bincount(np.frombuffer(key, color_type), minlength=d).tolist()
        decoded[tuple(endpoint)] = count
    return dict(sorted(decoded.items()))
