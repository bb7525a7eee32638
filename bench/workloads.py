"""Job lists of the four workloads, and the checks each job's output must pass.

A job is one cold ``python -m packmatch ...`` process. Its check receives the
parsed output and returns a list of problems (empty when the output is right).
Expected values come from :mod:`reference`, never from packmatch itself, and
only properties that hold for every seed are checked. Each job also has a
``tamper`` that damages its parsed output the way a plausible bug would; the
self-test requires the check to reject the damaged copy.

Every workload runs at least one job of each subcommand, so every layer and
every end-to-end metric is measured on every workload; the workloads differ
in which layer carries the weight.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Callable

import reference as ref

Record = dict  # flat: dotted key -> string; tables: "n,d" -> cell string
Check = Callable[[Record, dict], list]

# The exact oracle's reference in ``simulate firstmatch`` is skipped above this
# many endpoints (documented CLI behaviour).
REFERENCE_ENDPOINT_LIMIT = 10**6


@dataclass
class Job:
    key: str
    args: list
    check: Check
    tamper: Callable[[Record], Record]
    fmt: str = "json"
    table: bool = False
    trials: int = 0
    fails_today: str = ""  # the known fault this job trips over, if any
    subcommand: str = field(init=False)

    def __post_init__(self) -> None:
        self.subcommand = self.args[0] if self.args[0] != "simulate" else "simulate " + self.args[1]
        self.args = [str(a) for a in self.args] + ["--format", self.fmt]


# --- parsing -----------------------------------------------------------------


def _flatten(value, prefix: str, out: dict) -> dict:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for index, sub in enumerate(value):
            _flatten(sub, f"{prefix}.{index}", out)
    else:
        out[prefix] = "" if value is None else str(value)
    return out


def parse(text: str, fmt: str, table: bool) -> Record:
    """Normalise plain, csv or json output into one flat record."""
    if fmt == "json":
        obj = json.loads(text)
        if not table:
            return _flatten(obj, "", {})
        header = [str(c) for c in obj["columns"]]
        rows = [[str(r["n"])] + list(r["values"]) for r in obj["rows"]]
    elif fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
        if not table:
            return {k: v for k, v in lines[1:]}
        header, rows = lines[0][1:], lines[1:]
    else:
        lines = text.splitlines()
        if not table:
            return dict(line.split(": ", 1) for line in lines)
        header, rows = lines[1].split()[1:], [line.split() for line in lines[2:]]
    rec = {"columns": ",".join(header)}
    for row in rows:
        for d, cell in zip(header, row[1:]):
            rec[f"{row[0]},{d}"] = cell
        rec[f"width.{row[0]}"] = str(len(row) - 1)
    return rec


def _null(rec: Record, key: str) -> bool:
    return rec.get(key, "") in ("", "None")


def _expect_equal(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {str(got)[:80]}, expected {str(want)[:80]}")


# --- shared independent answers --------------------------------------------


@functools.lru_cache(maxsize=None)
def classes(n: int, d: int, brute: bool = False) -> tuple:
    """Endpoint classes, by enumerating fillings when ``brute`` is set."""
    return tuple(ref.brute_force_classes(n, d) if brute else ref.endpoint_classes(n, d))


@functools.lru_cache(maxsize=None)
def count(n: int, d: int, brute: bool = False) -> int:
    return ref.match_count(classes(n, d, brute))


@functools.lru_cache(maxsize=None)
def first_match_mean(n: int, d: int, brute: bool = False) -> float:
    """E[X] exactly for tiny shapes, from the Poissonization integral otherwise."""
    cl = classes(n, d, brute)
    if sum(m for _, m in cl) <= 400:
        return float(ref.truncated_expectation(cl, d**n, sum(m for _, m in cl) + 1))
    return ref.poisson_expectation(cl, d**n)


def _fraction_fields(rec: Record, key: str) -> Fraction:
    return Fraction(int(rec[f"{key}.numerator"]), int(rec[f"{key}.denominator"]))


def _check_probability(problems: list, rec: Record, value: Fraction, digits: int) -> None:
    _expect_equal(problems, "probability", _fraction_fields(rec, "probability"), value)
    _expect_equal(problems, "denominator sign", int(rec["probability.denominator"]) > 0, True)
    _expect_equal(problems, "decimal", rec["decimal"], ref.fixed_string(value, digits))
    if value > 0:
        _expect_equal(
            problems, "scientific", rec["scientific"], ref.scientific_string(value, max(digits, 1))
        )


# --- tampering ---------------------------------------------------------------


def _bump_int(key: str, delta: int = 1) -> Callable[[Record], Record]:
    def tamper(rec: Record) -> Record:
        return {**rec, key: str(int(rec[key]) + delta)}

    return tamper


def _scale(key: str) -> Callable[[Record], Record]:
    def tamper(rec: Record) -> Record:
        return {**rec, key: repr(float(Fraction(rec[key])) * (1 + 1e-6))}

    return tamper


def _shift_histogram(rec: Record) -> Record:
    out = {k: v for k, v in rec.items() if not k.startswith("histogram.")}
    for k, v in rec.items():
        if k.startswith("histogram."):
            out[f"histogram.{int(k.split('.', 1)[1]) + 1}"] = v
    return out


def _last_digit_up(key: str) -> Callable[[Record], Record]:
    def tamper(rec: Record) -> Record:
        cell = rec[key]
        digit = (int(cell[-1]) + 1) % 10
        return {**rec, key: cell[:-1] + str(digit)}

    return tamper


# --- job builders --------------------------------------------------------------


def table_counts_job(key, max_n, max_d, spots, fmt="json", brute=False) -> Job:
    """Count grid: closed-form columns, Cauchy-Schwarz bounds, spot cells."""

    def check(rec, _recs):
        problems = []
        _expect_equal(problems, "columns", rec["columns"], ",".join(map(str, range(1, max_d + 1))))
        for n in range(1, max_n + 1):
            _expect_equal(problems, f"row {n} width", rec.get(f"width.{n}"), str(max_d))
            for d in range(1, max_d + 1):
                value = int(rec[f"{n},{d}"])
                space = d ** (2 * n)
                if d <= 3:
                    _expect_equal(problems, f"cell {n},{d}", value, ref.column_count(n, d))
                elif not space <= value * math.comb(n + d - 1, d - 1) or value > space:
                    problems.append(f"cell {n},{d} outside [d^2n/C(n+d-1,d-1), d^2n]")
        for n, d in spots:
            _expect_equal(problems, f"spot cell {n},{d}", int(rec[f"{n},{d}"]), count(n, d, brute))
        return problems

    return Job(key, ["table", max_n, max_d, "counts"], check, _bump_int(f"{spots[0][0]},{spots[0][1]}"),
               fmt=fmt, table=True)


def table_probabilities_job(key, max_n, max_d, digits, counts_key=None, fmt="json", brute=False) -> Job:
    """Probability grid: every cell is the half-even rendering of count / d^2n.

    Counts come from the job ``counts_key`` (checked on its own) when given,
    else from the benchmark's own class sums (tiny grids only).
    """

    def check(rec, recs):
        if counts_key and counts_key not in recs:
            return [f"count table {counts_key} missing"]
        problems = []
        _expect_equal(problems, "columns", rec["columns"], ",".join(map(str, range(1, max_d + 1))))
        for n in range(1, max_n + 1):
            _expect_equal(problems, f"row {n} width", rec.get(f"width.{n}"), str(max_d))
            for d in range(1, max_d + 1):
                c = int(recs[counts_key][f"{n},{d}"]) if counts_key else count(n, d, brute)
                want = ref.fixed_string(Fraction(c, d ** (2 * n)), digits)
                if rec[f"{n},{d}"] != want:
                    problems.append(f"cell {n},{d}: got {rec[f'{n},{d}']}, expected {want}")
        return problems

    return Job(key, ["table", max_n, max_d, "probabilities", "--digits", digits], check,
               _last_digit_up(f"{max_n},{max_d}"), fmt=fmt, table=True)


def prob_job(key, n, d, route, digits, fmt="json", brute=False, fails_today="") -> Job:
    """One shape's count by the chosen routes against the class sum."""

    def check(rec, _recs):
        problems = []
        want = count(n, d, brute)
        names = ["closed", "recursive", "gf"] if route == "all" else [route]
        for name in names:
            _expect_equal(problems, f"counts.{name}", int(rec[f"counts.{name}"]), want)
        _expect_equal(problems, "count", int(rec["count"]), want)
        _expect_equal(problems, "sample_space", int(rec["sample_space"]), d ** (2 * n))
        _check_probability(problems, rec, Fraction(want, d ** (2 * n)), digits)
        return problems

    return Job(key, ["prob", "--n", n, "--d", d, "--route", route, "--digits", digits],
               check, _bump_int("count"), fmt=fmt, fails_today=fails_today)


def expect_job(key, n, d, model, fmt="json", brute=False, fails_today="") -> Job:
    """Expectations against the Poissonization integral, exact e_m sums and the series."""

    def check(rec, _recs):
        problems = []
        cl = classes(n, d, brute)
        total = d**n
        pair = Fraction(ref.match_count(cl), total * total)
        pairwise = exact = None
        if model in ("pairwise", "both"):
            _expect_equal(problems, "pair probability", _fraction_fields(rec, "pairwise.pair_probability"), pair)
            pairwise = Fraction(rec["pairwise.expectation"])
            mine = Fraction(ref.pairwise_series(pair))
            slack = mine * Fraction(1, 10**30)
            if not -slack <= mine - pairwise <= Fraction(rec["pairwise.tail_bound"]) + slack:
                problems.append(f"pairwise expectation {float(pairwise)} vs series {float(mine)}")
        if model in ("exact", "both"):
            exact = Fraction(rec["exact.expectation"])
            last = int(rec["exact.last_index"])
            tail = Fraction(rec["exact.tail_bound"])
            if rec["exact.mode"] == "rational":
                _expect_equal(problems, "exact expectation", exact, ref.truncated_expectation(cl, total, last))
                endpoints = sum(m for _, m in cl)
                if endpoints <= 400:
                    full = ref.truncated_expectation(cl, total, endpoints + 1)
                    if not 0 <= full - exact <= tail:
                        problems.append("exact tail bound does not cover the ignored mass")
            else:
                mine = ref.poisson_expectation(cl, total)
                if abs(float(exact) - mine) > 1e-9 * mine:
                    problems.append(f"exact expectation {float(exact)!r} vs integral {mine!r}")
                threshold = Decimal(10) ** -(int(rec["exact.precision"]) // 2)
                if _null(rec, "exact.survival_error") or Decimal(rec["exact.survival_error"]) >= threshold:
                    problems.append("survival error missing or above the alarm threshold")
            _expect_equal(problems, "precision alarm", rec["exact.precision_alarm"], "False")
            if not 0 <= tail <= Fraction(1, 10**12):
                problems.append(f"exact tail bound {float(tail)} above the tolerance")
        if pairwise is not None and exact is not None:
            _expect_equal(problems, "relative_difference", rec["relative_difference"],
                          ref.scientific_string(abs(pairwise - exact) / exact, 4))
        return problems

    tampered = "exact.expectation" if model != "pairwise" else "pairwise.expectation"
    return Job(key, ["expect", "--n", n, "--d", d, "--model", model], check,
               _scale(tampered), fmt=fmt, fails_today=fails_today)


def mixture_job(key, filename, entries, d, digits, fmt="json", brute=False) -> tuple:
    """A mixture file and its job; the answer is sum of w^2 p(n) over sizes.

    ``entries`` are (size, weight text) lines. Decimal weights are
    renormalised to sum to 1, as the file format specifies.
    """
    weights = [(n, Fraction(w)) for n, w in entries]
    total = sum(w for _, w in weights)
    weights = sorted((n, w / total) for n, w in weights)

    def check(rec, _recs):
        problems = []
        want = sum(w * w * Fraction(count(n, d, brute), d ** (2 * n)) for n, w in weights)
        for i, (n, w) in enumerate(weights):
            _expect_equal(problems, f"size {i}", int(rec[f"sizes.{i}.n"]), n)
            _expect_equal(problems, f"weight {i}", _fraction_fields(rec, f"sizes.{i}.weight"), w)
        _check_probability(problems, rec, want, digits)
        return problems

    text = "# size weight\n" + "".join(f"{n} {w}\n" for n, w in entries)
    job = Job(key, ["mixture", filename, "--d", d, "--digits", digits], check,
              _bump_int("probability.numerator"), fmt=fmt)
    return job, text


def simulate_pair_job(key, n, d, trials, seed, fmt="json", brute=False) -> Job:
    """Match rate: Wilson interval, 5 standard errors of the exact p."""

    def check(rec, _recs):
        problems = []
        p = Fraction(count(n, d, brute), d ** (2 * n))
        matches = int(rec["matches"])
        _expect_equal(problems, "trials", int(rec["trials"]), trials)
        _expect_equal(problems, "seed", int(rec["seed"]), seed)
        _expect_equal(problems, "estimate", float(rec["estimate"]), matches / trials)
        low, high = float(rec["ci_low"]), float(rec["ci_high"])
        mine = ref.wilson(matches, trials)
        if abs(low - mine[0]) > 1e-12 or abs(high - mine[1]) > 1e-12:
            problems.append(f"interval [{low}, {high}] is not the Wilson interval {mine}")
        if not low <= matches / trials <= high:
            problems.append("estimate outside its interval")
        if abs(matches / trials - float(p)) > 5 * math.sqrt(float(p * (1 - p)) / trials):
            problems.append(f"estimate {matches / trials} more than 5 SE from {float(p)}")
        if _null(rec, "analytic_reference") or abs(float(rec["analytic_reference"]) - float(p)) > 1e-15 * float(p):
            problems.append("analytic reference is not the exact probability")
        return problems

    return Job(key, ["simulate", "pair", "--n", n, "--d", d, "--trials", trials, "--seed", seed],
               check, _bump_int("matches"), fmt=fmt, trials=trials)


def simulate_first_match_job(key, n, d, trials, seed, fmt="json", brute=False) -> Job:
    """First-match times: histogram totals, mean within 5 SE of the exact E[X]."""

    def check(rec, _recs):
        problems = []
        hist = {int(k.split(".", 1)[1]): int(v) for k, v in rec.items() if k.startswith("histogram.")}
        _expect_equal(problems, "histogram total", sum(hist.values()), trials)
        _expect_equal(problems, "seed", int(rec["seed"]), seed)
        total = sum(k * v for k, v in hist.items())
        square = sum(k * k * v for k, v in hist.items())
        mean = total / trials
        _expect_equal(problems, "mean", float(rec["mean"]), mean)
        variance = float(Fraction(square * trials - total * total, trials * (trials - 1))) if trials > 1 else 0.0
        se = math.sqrt(variance / trials)
        if abs(float(rec["std_error"]) - se) > 1e-9 * max(se, 1e-300):
            problems.append(f"std_error {rec['std_error']} vs histogram {se}")
        if not float(rec["ci_low"]) <= mean <= float(rec["ci_high"]):
            problems.append("mean outside its interval")
        exact = first_match_mean(n, d, brute)
        if abs(mean - exact) > 5 * se + 1e-9 * exact:
            problems.append(f"mean {mean} more than 5 SE ({se}) from exact {exact}")
        endpoints = math.comb(n + d - 1, d - 1)
        if endpoints > REFERENCE_ENDPOINT_LIMIT:
            _expect_equal(problems, "skipped reference", _null(rec, "analytic_reference"), True)
        elif _null(rec, "analytic_reference") or abs(float(rec["analytic_reference"]) - exact) > 1e-8 * exact:
            problems.append(f"analytic reference {rec.get('analytic_reference')} vs exact {exact}")
        return problems

    return Job(key, ["simulate", "firstmatch", "--n", n, "--d", d, "--trials", trials, "--seed", seed],
               check, _shift_histogram, fmt=fmt, trials=trials)


# --- workloads -------------------------------------------------------------------


def _tiny_shape(rng: random.Random) -> tuple:
    """A shape whose d**n fillings the checks can enumerate (at most 4096)."""
    d = rng.randint(2, 4)
    return rng.randint(1, {2: 8, 3: 6, 4: 5}[d]), d


ROUTES = ["all", "closed", "recursive", "gf"]
MODELS = ["both", "pairwise", "exact"]


def tiny_jobs(rng, seed, subcommand, prefix, fmt="json", variant=0, shape=None) -> tuple:
    """One small job of ``subcommand``, checked by brute-force enumeration.

    Returns (job, files). The shape (also the table size) is drawn from the
    seed unless given. ``variant`` cycles the counting route and the
    expectation model; variant 0 runs every route and both models. Work takes
    microseconds to milliseconds, so process start, import and rendering
    dominate.
    """
    n, d = shape or _tiny_shape(rng)
    max_n, max_d = shape or (rng.randint(2, 5), rng.randint(2, 4))
    digits = rng.randint(2, 8)
    if subcommand == "table counts":
        spot = (rng.randint(1, max_n), rng.randint(4, max_d) if max_d >= 4 else max_d)
        return table_counts_job(prefix, max_n, max_d, [spot], fmt=fmt, brute=True), {}
    if subcommand == "table probabilities":
        return table_probabilities_job(prefix, max_n, max_d, digits, fmt=fmt, brute=True), {}
    if subcommand == "prob":
        return prob_job(prefix, n, d, ROUTES[variant % 4], digits, fmt=fmt, brute=True), {}
    if subcommand == "expect":
        return expect_job(prefix, n, d, MODELS[variant % 3], fmt=fmt, brute=True), {}
    if subcommand == "mixture":
        sizes = rng.sample(range(0, 6 if d == 2 else 5), rng.randint(1, 3))
        parts = [rng.randint(1, 9) for _ in sizes]
        entries = [(s, f"{p}/{sum(parts)}") for s, p in zip(sizes, parts)]
        job, text = mixture_job(prefix, f"{prefix}.txt", entries, d, digits, fmt=fmt, brute=True)
        return job, {f"{prefix}.txt": text}
    if subcommand == "simulate pair":
        return simulate_pair_job(prefix, n, d, 4000, seed, fmt=fmt, brute=True), {}
    if subcommand == "simulate firstmatch":
        return simulate_first_match_job(prefix, n, d, 400, seed, fmt=fmt, brute=True), {}
    raise ValueError(subcommand)


PROBE_SHAPE = (4, 3)


def _assemble(rng, seed, heavy, probes) -> tuple:
    """The heavy jobs plus one fixed-size probe job of each subcommand in ``probes``."""
    jobs, files = list(heavy), {}
    for index, subcommand in enumerate(probes):
        job, extra = tiny_jobs(rng, seed, subcommand, f"probe{index}", shape=PROBE_SHAPE)
        jobs.append(job)
        files.update(extra)
    return jobs, files


def counting(seed: int) -> tuple:
    """Count and probability grids plus ``prob --route all`` at route-heavy shapes."""
    rng = random.Random(seed)
    spots = [(rng.randint(1, 30), rng.randint(4, 100)) for _ in range(6)]
    spots += [(rng.randint(31, 150), 4) for _ in range(2)]
    heavy = [
        table_counts_job("counts", 150, 100, spots),
        table_probabilities_job("probabilities", 100, 60, rng.randint(4, 8), counts_key="counts"),
        prob_job("closed-heavy", 24, 8, "all", rng.randint(4, 8)),
        prob_job("gf-heavy", 200, 3, "all", rng.randint(4, 8)),
        prob_job("mixed", 80, 5, "all", rng.randint(4, 8)),
    ]
    return _assemble(rng, seed, heavy, ["expect", "mixture", "simulate pair", "simulate firstmatch"])


def oracle(seed: int) -> tuple:
    """The exact first-match oracle across its modes, plus pack-size mixtures."""
    rng = random.Random(seed)
    heavy = [
        expect_job("flagship", 60, 5, "both"),
        expect_job("many-endpoints", 10, 10, "exact"),
        expect_job("long-rational", 7, 7, "exact"),
        expect_job("two-color", 40, 2, "both"),
        expect_job("two-color-long", 100, 2, "exact"),
        expect_job("digit-limit", 300, 2, "exact",
                   fails_today="int-to-str digit limit: exit 2 after the answer is computed"),
    ]
    files = {}
    for name, d, sizes, decimal_weights in [("mixture-a", 4, range(10, 41, 5), False),
                                            ("mixture-b", 6, range(2, 21, 3), True)]:
        parts = [rng.randint(1, 20) for _ in sizes]
        if decimal_weights:
            entries = [(s, repr(p / sum(parts))) for s, p in zip(sizes, parts)]
        else:
            entries = [(s, f"{p}/{sum(parts)}") for s, p in zip(sizes, parts)]
        job, text = mixture_job(name, f"{name}.txt", entries, d, rng.randint(4, 8))
        heavy.append(job)
        files[f"{name}.txt"] = text
    jobs, probe_files = _assemble(rng, seed, heavy,
                                  ["table counts", "prob", "simulate pair", "simulate firstmatch"])
    return jobs, {**files, **probe_files}


def simulate(seed: int) -> tuple:
    """Monte Carlo: 10^6 pair trials and first-match runs at three shapes."""
    rng = random.Random(seed)
    heavy = [
        simulate_pair_job("pair", 60, 5, 1_000_000, seed),
        simulate_first_match_job("fm-reference", 60, 5, 5000, seed),
        simulate_first_match_job("fm-no-reference", 12, 12, 1000, seed),
        simulate_first_match_job("fm-short-walk", 8, 3, 20000, seed),
    ]
    return _assemble(rng, seed, heavy, ["table counts", "prob", "expect", "mixture"])


STARTUP_MIX = ["table counts", "table probabilities", "prob", "expect", "mixture",
               "simulate pair", "simulate firstmatch", "prob"]


def startup(seed: int) -> tuple:
    """47 tiny jobs over all subcommands, routes, models and formats, plus one known fault."""
    rng = random.Random(seed)
    jobs, files = [], {}
    for index in range(47):
        fmt = ["plain", "csv", "json"][index % 3]
        job, extra = tiny_jobs(rng, seed, STARTUP_MIX[index % len(STARTUP_MIX)], f"tiny{index}", fmt,
                               variant=index // len(STARTUP_MIX))
        jobs.append(job)
        files.update(extra)
    jobs.append(prob_job("deep-recursion", 1, 2000, "recursive", 4,
                         fails_today="RecursionError in the color recursion: traceback, exit 1"))
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return [jobs[i] for i in order], files


WORKLOADS = {"counting": counting, "oracle": oracle, "simulate": simulate, "startup": startup}
