"""Command-line interface.

Subcommands:

* ``table MAX_N MAX_D {counts,probabilities}``: grid of matching-pair counts
  or match probabilities for n = 0..MAX_N and d = 1..MAX_D.
* ``prob``: match probability for one pack shape, by any or all counting
  routes, with the exact fraction and decimal renderings.
* ``expect``: expected number of packs until the first match, under the
  pairwise closed form, the exact oracle, or both.
* ``mixture``: match probability when pack sizes follow a distribution file.
* ``simulate``: seeded Monte Carlo estimates with confidence intervals.

Exit codes: 0 success; 2 usage or validation error (bad arguments, malformed
distribution file, a size too large to index or to hold in memory); 3
precision alarm from the decimal-mode oracle; 4 internal invariant breach
(for example the counting routes disagreeing); 141 stdout closed before the
output was written (a reader such as ``head`` quit).

Output formats: ``plain`` (human readable), ``csv``, and ``json``. JSON
renders exact rationals as numerator/denominator digit strings so no
precision is lost; repeated runs with the same arguments and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Any, Callable

from . import firstmatch  # registered lazily by the package: loaded on first use
from .coincidence import (
    PackSpec,
    _check_run,
    coincidence_probability,
    count_closed,
    count_gf,
    count_recursive,
    distinct_pack_count,
    recursive_columns,
)
from .exactmath import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    _check_digits,
    decimal_string,
    significant_string,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it

DEFAULT_SEED = 0
_REFERENCE_ENDPOINT_LIMIT = 10**6  # skip the oracle reference above this
# Decimal digits of the simulate firstmatch reference where the oracle runs in
# decimal mode: a double holds 17. At 48 the error bound stays far below the
# alarm threshold 10**-24: 6.3e-29 at (1, 10**6), whose uniform law over the
# most endpoints the reference runs at has the longest survival walk.
_REFERENCE_PRECISION = 48

_ROUTES: dict[str, Callable[[PackSpec], int]] = {
    "closed": count_closed,
    "recursive": count_recursive,
    "gf": count_gf,
}


def _fraction_record(value: Fraction) -> dict[str, str]:
    return {"numerator": str(value.numerator), "denominator": str(value.denominator)}


def _probability_fields(probability: Fraction, digits: int) -> dict[str, Any]:
    return {
        "probability": _fraction_record(probability),
        "decimal": decimal_string(probability, digits),
        "scientific": significant_string(probability, max(digits, 1)),
        "digits": digits,
    }


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["plain", "csv", "json"],
        default="plain",
        help="output format (default: plain)",
    )


def _add_digits_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--digits",
        type=int,
        default=4,
        help="decimal digits in rendered probabilities (default: 4)",
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="items per pack")
    parser.add_argument("--d", type=int, required=True, help="number of colors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packmatch",
        description=(
            "Exact match probabilities and first-duplicate statistics for "
            "randomly filled packs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "table", help="grid of match counts or probabilities over n and d"
    )
    table.add_argument("max_n", type=int, help="largest pack size (rows 1..max_n)")
    table.add_argument("max_d", type=int, help="largest color count (columns 1..max_d)")
    table.add_argument(
        "which", choices=["counts", "probabilities"], help="what to tabulate"
    )
    _add_output_arguments(table)
    _add_digits_argument(table)
    table.set_defaults(handler=_cmd_table)

    prob = sub.add_parser("prob", help="match probability for one pack shape")
    _add_spec_arguments(prob)
    prob.add_argument(
        "--route",
        choices=["closed", "recursive", "gf", "all"],
        default="all",
        help="counting route to use (default: all, cross-checked)",
    )
    _add_output_arguments(prob)
    _add_digits_argument(prob)
    prob.set_defaults(handler=_cmd_prob)

    expect = sub.add_parser(
        "expect", help="expected packs bought until the first duplicate"
    )
    _add_spec_arguments(expect)
    expect.add_argument(
        "--model",
        choices=["pairwise", "exact", "both"],
        default="both",
        help="pairwise closed form, exact oracle, or both (default: both)",
    )
    expect.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"series truncation tolerance (default: {DEFAULT_TOLERANCE:g})",
    )
    _add_output_arguments(expect)
    expect.set_defaults(handler=_cmd_expect)

    mixture = sub.add_parser(
        "mixture", help="match probability under a pack size distribution"
    )
    mixture.add_argument("file", help="distribution file: 'SIZE WEIGHT' lines")
    mixture.add_argument("--d", type=int, required=True, help="number of colors")
    _add_output_arguments(mixture)
    _add_digits_argument(mixture)
    mixture.set_defaults(handler=_cmd_mixture)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    simulate.add_argument(
        "kind",
        choices=["pair", "firstmatch"],
        help="pair match rate or first-match times",
    )
    _add_spec_arguments(simulate)
    simulate.add_argument("--trials", type=int, required=True, help="number of trials")
    simulate.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"RNG seed, recorded in the report (default: {DEFAULT_SEED})",
    )
    _add_output_arguments(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    return parser


def _cmd_table(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    if args.max_n < 1:
        raise ValueError(f"max_n must be positive, got {args.max_n}")
    if args.max_d < 1:
        raise ValueError(f"max_d must be positive, got {args.max_d}")
    if args.max_n > 1000 or args.max_d > 100:
        raise ValueError(
            f"table bounds {args.max_n}x{args.max_d} exceed the resource guard "
            "(max_n <= 1000, max_d <= 100)"
        )
    _check_digits(args.digits)
    columns = list(range(1, args.max_d + 1))
    grid = list(recursive_columns(args.max_n, args.max_d))  # grid[d - 1][n]
    rows = []
    for n in range(1, args.max_n + 1):
        if args.which == "counts":
            cells = [str(grid[d - 1][n]) for d in columns]
        else:
            cells = [
                decimal_string(Fraction(grid[d - 1][n], d ** (2 * n)), args.digits)
                for d in columns
            ]
        rows.append({"n": n, "values": cells})
    record = {
        "command": "table",
        "which": args.which,
        "max_n": args.max_n,
        "max_d": args.max_d,
        "digits": args.digits,
        "columns": columns,
        "rows": rows,
    }
    return record, False


def _cmd_prob(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    spec = PackSpec(args.n, args.d)
    _check_digits(args.digits)
    names = list(_ROUTES) if args.route == "all" else [args.route]
    counts = {name: _ROUTES[name](spec) for name in names}
    distinct = set(counts.values())
    if len(distinct) != 1:
        raise AssertionError(f"counting routes disagree for {spec}: {counts}")
    count = distinct.pop()
    probability = Fraction(count, spec.d ** (2 * spec.n))
    record = {
        "command": "prob",
        "n": spec.n,
        "d": spec.d,
        "route": args.route,
        "counts": {name: str(value) for name, value in counts.items()},
        "count": str(count),
        "sample_space": str(spec.d ** (2 * spec.n)),
        **_probability_fields(probability, args.digits),
    }
    return record, False


def _cmd_expect(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    spec = PackSpec(args.n, args.d)
    firstmatch._check_tolerance(args.tol)
    record: dict[str, Any] = {
        "command": "expect",
        "n": spec.n,
        "d": spec.d,
        "model": args.model,
        "tol": repr(args.tol),
    }
    # The ceiling refuses before either model runs. A shape it admits has
    # p = sum q_v**2 >= 1/N >= 10**-7, so the pairwise series never hits its term cap.
    spectrum = firstmatch.endpoint_spectrum(spec) if args.model != "pairwise" else None
    series = law = None
    if args.model in ("pairwise", "both"):
        pair_probability = coincidence_probability(spec)
        series = firstmatch.pairwise_expectation(pair_probability, tol=args.tol)
        record["pairwise"] = {
            "pair_probability": _fraction_record(pair_probability),
            "expectation": str(series.value),
            "tail_bound": str(series.tail_bound),
            "last_index": series.last_index,
        }
    if spectrum is not None:
        law = firstmatch.exact_pmf_and_expectation(spectrum, tol=args.tol)
        # Exact numbers print as strings; the rest, None included, as they are.
        record["exact"] = {
            name: str(value) if isinstance(value, (Fraction, Decimal)) else value
            for name in (
                "expectation", "tail_bound", "last_index", "mode",
                "precision", "precision_alarm", "survival_error",
            )
            for value in [getattr(law, name)]
        }
    if series is not None and law is not None:
        exact = Fraction(law.expectation)
        relative = abs(Fraction(series.value) - exact) / exact
        record["relative_difference"] = significant_string(relative, 4)
    return record, law is not None and law.precision_alarm


def _cmd_mixture(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    distribution = firstmatch.PackSizeDistribution.from_file(args.file)
    _check_digits(args.digits)
    probability = firstmatch.mixture_match_probability(distribution, args.d)
    record = {
        "command": "mixture",
        "d": args.d,
        "file": args.file,
        "sizes": [
            {"n": size, "weight": _fraction_record(weight)}
            for size, weight in distribution.weights
        ],
        **_probability_fields(probability, args.digits),
    }
    return record, False


def _simulate_reference(kind: str, spec: PackSpec) -> tuple[float | None, bool]:
    """The exact value a simulation is checked against, and its precision alarm.

    ``pair`` takes the match probability; ``firstmatch`` takes the exact
    oracle's expectation at ``_REFERENCE_PRECISION`` digits, or None above
    ``_REFERENCE_ENDPOINT_LIMIT`` endpoints. Only a float leaves this
    function, so the spectrum and law are freed before numpy loads.
    """
    if kind == "pair":
        return float(coincidence_probability(spec)), False
    if distinct_pack_count(spec) > _REFERENCE_ENDPOINT_LIMIT:
        return None, False
    spectrum = firstmatch.endpoint_spectrum(spec, precision=_REFERENCE_PRECISION)
    law = firstmatch.exact_pmf_and_expectation(spectrum, tol=1e-9)
    return float(law.expectation), law.precision_alarm


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    spec = PackSpec(args.n, args.d)
    _check_run(args.trials, args.seed)
    # The reference runs before numpy loads, whose import then reuses the
    # memory the reference freed: the peak is the larger of the two, not
    # their sum.
    reference, alarm = _simulate_reference(args.kind, spec)
    # numpy import deferred so the exact subcommands start fast. Sampling
    # never calls BLAS, so an idle OpenBLAS worker thread only costs CPU;
    # a value the user has set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import montecarlo

    run = montecarlo.pair_match_rate if args.kind == "pair" else montecarlo.first_match_experiment
    report = run(spec, args.trials, args.seed)
    # The header keys come first; the report's fields of the same name keep
    # their places, and the rest follow in the report's field order.
    record = {
        "command": "simulate",
        "kind": args.kind,
        "n": spec.n,
        "d": spec.d,
        "trials": args.trials,
        "seed": args.seed,
        "algorithm": report.algorithm,
        **report._asdict(),
        "analytic_reference": reference,
    }
    return record, alarm


def _render_table_plain(record: dict[str, Any]) -> str:
    header = ["n\\d"] + [str(c) for c in record["columns"]]
    body = [[str(row["n"])] + list(row["values"]) for row in record["rows"]]
    widths = [
        max(len(line[i]) for line in [header] + body) for i in range(len(header))
    ]
    lines = []
    for line in [header] + body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def _flatten(value: Any, prefix: str = "") -> list[tuple[str, Any]]:
    if isinstance(value, dict):
        items: list[tuple[str, Any]] = []
        for key, sub in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            items.extend(_flatten(sub, path))
        return items
    if isinstance(value, list):
        items = []
        for index, sub in enumerate(value):
            items.extend(_flatten(sub, f"{prefix}.{index}"))
        return items
    return [(prefix, value)]


def _render_plain(record: dict[str, Any]) -> str:
    if record.get("command") == "table":
        meta = (
            f"table of {record['which']} for n=1..{record['max_n']}, "
            f"d=1..{record['max_d']}"
        )
        return meta + "\n" + _render_table_plain(record)
    lines = []
    for key, value in _flatten(record):
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _render_csv(record: dict[str, Any]) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if record.get("command") == "table":
        writer.writerow(["n"] + [str(c) for c in record["columns"]])
        for row in record["rows"]:
            writer.writerow([str(row["n"])] + list(row["values"]))
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten(record):
            writer.writerow([key, "" if value is None else str(value)])
    return buffer.getvalue().rstrip("\n")


def _render(record: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(record, indent=2)
    if fmt == "csv":
        return _render_csv(record)
    return _render_plain(record)


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Exact answers can run to many thousands of digits; render them all.
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, alarm = args.handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory: this input is too large to hold in memory", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(_render(record, args.format))
    if alarm:
        print(
            "precision alarm: decimal-mode error bounds exceeded the threshold, so the "
            f"exact oracle's digits are suspect; the CLI runs it at {DEFAULT_PRECISION} digits "
            f"({_REFERENCE_PRECISION} for the simulate firstmatch reference), and the library "
            "call packmatch.endpoint_spectrum(spec, precision=P) runs it at more",
            file=sys.stderr,
        )
        return EXIT_PRECISION
    return EXIT_OK


def entrypoint() -> None:
    try:
        code = main()
        # Output that fit in the buffer meets the closed pipe here, not in print.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout once more at exit; devnull lets that succeed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
