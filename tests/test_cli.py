"""Command-line surface: parsing, rendering, exit codes, determinism."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import packmatch
from packmatch import cli
from packmatch.coincidence import (
    PackSpec, coincidence_probability, count_gf, count_recursive, distinct_pack_count,
    two_color_probability,
)
from packmatch.exactmath import decimal_string
from packmatch.firstmatch import FirstMatchLaw, endpoint_spectrum, exact_pmf_and_expectation

GOLDEN = Path(__file__).resolve().parent / "golden"
REPO_ROOT = GOLDEN.parent.parent

COUNT_GRID = [
    ["1", "2", "3", "4", "5"],
    ["1", "6", "15", "28", "45"],
    ["1", "20", "93", "256", "545"],
    ["1", "70", "639", "2716", "7885"],
    ["1", "252", "4653", "31504", "127905"],
]


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv: str) -> dict:
    code, out, err = run_cli(*argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


# The command lines whose stdout, stderr and exit code ``cli_corpus.json``
# pins in plain, csv and json; mixture file paths are relative to the
# repository root. Refusals are listed like answers.
_CORPUS_COMMANDS = [
    "prob --n 24 --d 8 --route all",
    "prob --n 200 --d 3 --route all",
    "prob --n 80 --d 5 --route all",
    "prob --n 1 --d 2000 --route recursive",
    "prob --n 30 --d 30 --route recursive",
    "prob --n 0 --d 3 --route recursive",
    "prob --n 30 --d 30",
    "prob --n 24 --d 8 --digits 6",
    "expect --n 60 --d 5",
    "expect --n 40 --d 2",
    "expect --n 100 --d 40",
    "expect --n 30 --d 30",
    "expect --n 24 --d 24",
    "expect --n 1 --d 100000000000000000000",
    "expect --n 4 --d 3 --tol 1e-30",
    "expect --n 4 --d 3",
    "expect --n 0 --d 3",
    "expect --n 10 --d 10 --model exact",
    "expect --n 7 --d 7 --model exact",
    "expect --n 300 --d 2 --model exact",
    "expect --n 140 --d 3 --model exact",
    "expect --n 40 --d 4 --model exact",
    "expect --n 24 --d 24 --model pairwise",
    "expect --n 1 --d 100000000000000000000 --model pairwise",
    "expect --n 1000 --d 2 --model pairwise",
    "mixture tests/golden/mixture_sizes.txt --d 2",
    "mixture tests/golden/mixture_sizes.txt --d 3",
    "mixture tests/golden/mixture_sizes.txt --d 4",
    "mixture tests/golden/mixture_sizes.txt --d 9",
    "mixture tests/golden/mixture_two_sizes.txt --d 100000000000000000000",
    "mixture tests/golden/mixture_sizes_1_to_300.txt --d 2",
    "table 12 9 counts",
    "table 10 6 probabilities --digits 9",
    "simulate pair --n 60 --d 5 --trials 20000 --seed 3",
    "simulate pair --n 200 --d 3 --trials 5000 --seed 5",
    "simulate pair --n 4 --d 3 --trials 4000 --seed 1",
    "simulate firstmatch --n 60 --d 5 --trials 300 --seed 4",
    "simulate firstmatch --n 8 --d 3 --trials 2000 --seed 9",
]
# (139, 3), the largest rational-mode shape at d = 3, takes over a second a
# run, so it is pinned in json alone, which holds every digit, as are the
# closed route's long class walks at d = 2 and d = 3.
_CORPUS_JSON_ONLY = [
    "expect --n 139 --d 3 --model exact",
    "prob --n 4400 --d 2 --route closed",
    "prob --n 1000 --d 3 --route closed",
]


def corpus_commands() -> list[str]:
    """Every key of ``cli_corpus.json``: ``--help`` of the parser and of each
    subcommand, then each corpus command in each format."""
    parser = cli.build_parser()
    subcommands = next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [
        "--help",
        *(f"{name} --help" for name in subcommands),
        *(f"{command} --format {fmt}" for command in _CORPUS_COMMANDS
          for fmt in ("plain", "csv", "json")),
        *(f"{command} --format json" for command in _CORPUS_JSON_ONLY),
    ]


def corpus_entry(command: str) -> dict:
    """Stdout, stderr and exit code of one command line, run in process.

    Run it from the repository root with ``COLUMNS=80``: argparse wraps help
    text to the terminal's width.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(shlex.split(command))
        except SystemExit as exc:  # argparse ends --help with it
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def cli_corpus() -> dict[str, dict]:
    """The contents of ``cli_corpus.json``; see :func:`corpus_entry` for where to run it."""
    return {command: corpus_entry(command) for command in corpus_commands()}


@pytest.fixture(scope="module")
def corpus_golden() -> dict[str, dict]:
    return json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))


class TestCorpus:
    def test_keys_are_the_corpus_commands(self, corpus_golden):
        assert list(corpus_golden) == corpus_commands()

    @pytest.mark.parametrize("command", corpus_commands())
    def test_output_equals_golden(self, command, corpus_golden, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.setenv("COLUMNS", "80")
        assert corpus_entry(command) == corpus_golden[command]


def child_env() -> dict[str, str]:
    """This environment with the imported packmatch's source root first on PYTHONPATH."""
    env = dict(os.environ)
    source_root = str(Path(packmatch.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def run_module(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``python -m packmatch`` in a child process, capturing bytes."""
    return subprocess.run(
        [sys.executable, "-m", "packmatch", *argv],
        capture_output=True,
        env=child_env(),
        timeout=timeout,
    )


def run_capped(
    *args: str, timeout: float, cwd: Path | None = None
) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child whose address space is capped at 1 GiB,
    capturing bytes, so a change that starts filling memory fails there."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=child_env(), cwd=cwd,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )


class TestTable:
    def test_counts_plain_golden(self):
        code, out, _ = run_cli("table", "5", "5", "counts")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "table of counts for n=1..5, d=1..5"
        assert lines[1].split() == ["n\\d", "1", "2", "3", "4", "5"]
        for row_index, cells in enumerate(COUNT_GRID, start=1):
            assert lines[1 + row_index].split() == [str(row_index)] + cells

    def test_probabilities_plain_golden(self):
        code, out, _ = run_cli("table", "5", "5", "probabilities")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "table of probabilities for n=1..5, d=1..5"
        for n in range(1, 6):
            cells = lines[1 + n].split()[1:]
            expected = [
                decimal_string(coincidence_probability(PackSpec(n, d)), 4)
                for d in range(1, 6)
            ]
            assert cells == expected
        # The corrected-cell rendering: row n=2, column d=3.
        assert lines[3].split()[3] == "0.1852"

    def test_single_cell(self):
        code, out, _ = run_cli("table", "1", "1", "counts")
        assert code == 0
        assert out.splitlines()[2].split() == ["1", "1"]

    def test_counts_csv(self):
        code, out, _ = run_cli("table", "5", "5", "counts", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "1", "2", "3", "4", "5"]
        assert rows[1:] == [
            [str(n)] + COUNT_GRID[n - 1] for n in range(1, 6)
        ]

    def test_probabilities_json(self):
        record = run_json("table", "5", "5", "probabilities")
        assert record["command"] == "table"
        assert record["which"] == "probabilities"
        assert record["columns"] == [1, 2, 3, 4, 5]
        assert record["digits"] == 4
        row_two = record["rows"][1]
        assert row_two["n"] == 2
        assert row_two["values"] == ["1.0000", "0.3750", "0.1852", "0.1094", "0.0720"]

    def test_digits_flag(self):
        record = run_json("table", "2", "2", "probabilities", "--digits", "6")
        assert record["rows"][1]["values"] == ["1.000000", "0.375000"]

    def test_validation_exit_codes(self):
        assert run_cli("table", "0", "3", "counts")[0] == 2
        assert run_cli("table", "3", "0", "counts")[0] == 2
        assert run_cli("table", "1001", "3", "counts")[0] == 2
        assert run_cli("table", "3", "101", "counts")[0] == 2


class TestProb:
    def test_all_routes_agree_json(self):
        record = run_json("prob", "--n", "3", "--d", "3")
        assert record["route"] == "all"
        assert record["counts"] == {"closed": "93", "recursive": "93", "gf": "93"}
        assert record["count"] == "93"
        assert record["sample_space"] == "729"
        assert record["probability"] == {"numerator": "31", "denominator": "243"}
        assert record["decimal"] == "0.1276"
        assert record["scientific"] == "1.276e-01"

    def test_json_round_trip_is_exact(self):
        record = run_json("prob", "--n", "5", "--d", "4")
        value = Fraction(
            int(record["probability"]["numerator"]),
            int(record["probability"]["denominator"]),
        )
        assert value == coincidence_probability(PackSpec(5, 4))

    def test_single_route(self):
        record = run_json("prob", "--n", "2", "--d", "2", "--route", "gf")
        assert record["route"] == "gf"
        assert record["counts"] == {"gf": "6"}
        assert record["probability"] == {"numerator": "3", "denominator": "8"}

    def test_empty_pack(self):
        record = run_json("prob", "--n", "0", "--d", "4")
        assert record["probability"] == {"numerator": "1", "denominator": "1"}
        assert record["decimal"] == "1.0000"

    def test_flagship_recursive(self):
        record = run_json("prob", "--n", "60", "--d", "5", "--route", "recursive")
        assert record["decimal"] == "0.0001"
        assert record["scientific"] == "9.753e-05"
        numerator = int(record["probability"]["numerator"])
        denominator = int(record["probability"]["denominator"])
        assert Fraction(numerator, denominator) == coincidence_probability(
            PackSpec(60, 5)
        )

    def test_csv_key_value_rows(self):
        code, out, _ = run_cli("prob", "--n", "2", "--d", "2", "--format", "csv")
        assert code == 0
        rows = dict(
            (row[0], row[1]) for row in list(csv.reader(io.StringIO(out)))[1:]
        )
        assert rows["probability.numerator"] == "3"
        assert rows["probability.denominator"] == "8"
        assert rows["decimal"] == "0.3750"

    def test_many_colors_every_route(self):
        # A count that recursed once per color would hit the recursion limit.
        record = run_json("prob", "--n", "1", "--d", "2000", "--route", "all")
        assert record["counts"] == {"closed": "2000", "recursive": "2000", "gf": "2000"}
        assert record["count"] == "2000"

    def test_closed_route_refuses_above_endpoint_ceiling(self):
        # C(59, 29) endpoints, above the closed route's ceiling of 10**7: the
        # route refuses by the endpoint count, though walking its 5604
        # partition classes would take milliseconds.
        refused = run_module("prob", "--n", "30", "--d", "30", timeout=5)
        assert refused.returncode == 2
        assert refused.stdout == b""
        assert b"--route recursive" in refused.stderr
        answered = run_module(
            "prob", "--n", "30", "--d", "30", "--route", "recursive", "--format", "json",
            timeout=5,
        )
        assert answered.returncode == 0, answered.stderr
        expected = count_recursive(PackSpec(30, 30))
        assert json.loads(answered.stdout)["count"] == str(expected)

    @pytest.mark.parametrize("n, d", [(1, 10**20), (12, 10**20), (5, 2**63 + 7)])
    def test_recursive_route_at_huge_color_counts(self, n, d):
        # The recursion stops at n + 1 colors and carries its counts to d, so
        # no loop runs once per color. The child's address space is capped
        # at 1 GiB and its time at 10 s, so a change that loops per color
        # fails there, not here.
        argv = ["prob", "--n", str(n), "--d", str(d), "--route", "recursive", "--format", "json"]
        result = run_capped("-m", "packmatch", *argv, timeout=10)
        assert (result.returncode, result.stderr) == (0, b"")
        assert json.loads(result.stdout)["count"] == str(count_gf(PackSpec(n, d)))

    def test_validation_exit_code(self):
        assert run_cli("prob", "--n", "-1", "--d", "3")[0] == 2

    def test_unknown_route_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("prob", "--n", "1", "--d", "2", "--route", "magic")
        assert excinfo.value.code == 2


class TestExpect:
    def test_both_models_small_case(self):
        record = run_json("expect", "--n", "1", "--d", "3")
        assert record["model"] == "both"
        pairwise = record["pairwise"]
        assert pairwise["pair_probability"] == {"numerator": "1", "denominator": "3"}
        assert pairwise["expectation"].startswith("3.97988653200670")
        assert Decimal(pairwise["tail_bound"]) <= Decimal("1e-12")
        exact = record["exact"]
        assert exact == {
            "expectation": "26/9",
            "tail_bound": "0",
            "last_index": 4,
            "mode": "rational",
            "precision": None,
            "precision_alarm": False,
            "survival_error": None,
        }
        assert record["relative_difference"] == "3.777e-01"

    def test_exact_expectation_round_trips(self):
        record = run_json("expect", "--n", "2", "--d", "2", "--model", "exact")
        assert "pairwise" not in record
        # Endpoint probabilities at (2, 2) are (1/4, 1/2, 1/4), so the
        # survival sums give 1 + 1 + 5/8 + 3/16 = 45/16.
        assert Fraction(record["exact"]["expectation"]) == Fraction(45, 16)

    def test_exact_value_beyond_default_digit_limit(self):
        # The exact tail bound at (300, 2) has integers of more than 4300
        # digits, the default cap on int-to-str conversion since Python 3.11.
        record = run_json("expect", "--n", "300", "--d", "2", "--model", "exact")
        assert Fraction(record["exact"]["expectation"]) > 2
        numerator, _ = record["exact"]["tail_bound"].split("/")
        assert len(numerator) > 4300

    def test_exact_decimal_golden_many_steps(self):
        # 4614 survival steps over 64 classes: the Newton sum splits at 49,
        # so this takes under a second where the plain convolution took 15 s.
        record = run_json("expect", "--n", "12", "--d", "12", "--model", "exact")
        exact = record["exact"]
        assert exact["mode"] == "decimal"
        assert exact["expectation"] == "722.8655814434752728354409330"
        assert exact["tail_bound"] == "9.867929456055610554005908147E-13"
        assert exact["last_index"] == 4614
        assert exact["precision_alarm"] is False
        assert Decimal(exact["survival_error"]) < Decimal("1e-64")

    def test_trivial_empty_pack(self):
        record = run_json("expect", "--n", "0", "--d", "2", "--model", "exact")
        assert Fraction(record["exact"]["expectation"]) == 2
        assert record["exact"]["last_index"] == 2

    def test_pairwise_only(self):
        record = run_json("expect", "--n", "2", "--d", "2", "--model", "pairwise")
        assert "exact" not in record
        assert record["pairwise"]["pair_probability"] == {
            "numerator": "3",
            "denominator": "8",
        }

    def test_headline_pairwise_value(self):
        record = run_json("expect", "--n", "60", "--d", "5", "--model", "pairwise")
        value = float(record["pairwise"]["expectation"])
        assert 128.5 <= value <= 129.5

    def test_plain_rendering_includes_exact_value(self):
        code, out, _ = run_cli("expect", "--n", "1", "--d", "2", "--model", "exact")
        assert code == 0
        assert "exact.expectation: 5/2" in out.splitlines()

    def test_endpoint_ceiling_is_usage_error(self):
        # C(139, 39) endpoints, far above the oracle's fixed 10^7 ceiling.
        code, out, err = run_cli("expect", "--n", "100", "--d", "40", "--model", "exact")
        assert code == 2
        assert out == ""
        assert "ceiling" in err
        assert "endpoint_ceiling" not in err

    @pytest.mark.parametrize("n, d", [(60000, 3), (29, 20)])
    def test_default_model_refuses_at_the_ceiling_before_either_model_runs(
        self, n, d, monkeypatch
    ):
        # Run first, the pairwise model would spend seconds and hundreds of MB
        # on (60000, 3)'s pair count and sum millions of terms at (29, 20).
        def refuse(*_args, **_kwargs):
            raise AssertionError("a model ran")

        monkeypatch.setattr(cli, "coincidence_probability", refuse)
        monkeypatch.setattr("packmatch.firstmatch.pairwise_expectation", refuse)
        code, out, err = run_cli("expect", "--n", str(n), "--d", str(d))
        assert (code, out) == (2, "")
        assert err.endswith(" distinct endpoints, above the ceiling 10000000\n")

    def test_unreachable_pairwise_series_fails_fast(self):
        # p ~ 7e-16: the series' term ratio stays above 1 past its term cap.
        result = run_module(
            "expect", "--n", "30", "--d", "30", "--model", "pairwise", timeout=5
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"more than 5000000 terms" in result.stderr
        assert b"raise tol" not in result.stderr

    def test_pairwise_series_above_tolerance_fails_fast(self):
        # p ~ 1.2e-12: the ratio can drop below 1 in time, but at the term cap
        # the term (default tol 1e-12) or its geometric tail bound (tol 1e-4)
        # is still above the tolerance.
        for tol_args in ((), ("--tol", "1e-4")):
            result = run_module(
                "expect", "--n", "24", "--d", "24", "--model", "pairwise", *tol_args, timeout=5
            )
            assert result.returncode == 2, tol_args
            assert result.stdout == b""
            assert b"more than 5000000 terms" in result.stderr

    def test_huge_color_count_never_runs_the_recursion(self, monkeypatch):
        # The recursion would build 10**20 color columns; the GF route gives
        # p = 1/d at once, and the series refuses up front. At d = 2 the GF
        # route answers too, where the recursion would hold 2001 rows of
        # squared binomials.
        def refuse(*_args):
            raise AssertionError("the color recursion ran")

        monkeypatch.setattr("packmatch.coincidence.recursive_columns", refuse)
        code, out, err = run_cli(
            "expect", "--n", "1", "--d", str(10**20), "--model", "pairwise"
        )
        assert code == 2
        assert out == ""
        assert "more than 5000000 terms at pair probability 1e-20" in err
        pair = run_json("expect", "--n", "2000", "--d", "2", "--model", "pairwise")[
            "pairwise"]["pair_probability"]
        assert Fraction(int(pair["numerator"]), int(pair["denominator"])) == (
            two_color_probability(2000)
        )

    def test_digits_option_rejected(self):
        # Nothing in expect or simulate output is rendered to --digits.
        for argv in (
            ["expect", "--n", "3", "--d", "3"],
            ["simulate", "pair", "--n", "3", "--d", "3", "--trials", "10"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(*argv, "--digits", "3")
            assert excinfo.value.code == 2, argv

    def test_tolerance_validation(self):
        for tol in ("0", "1.5", "nan"):
            code, out, err = run_cli("expect", "--n", "1", "--d", "2", "--tol", tol)
            assert code == 2, tol
            assert out == ""
            assert "tol must lie strictly between 0 and 1" in err

    def test_precision_alarm_exit_code(self, monkeypatch):
        fake = FirstMatchLaw(
            mode="decimal",
            pmf={2: Decimal("0.5")},
            expectation=Decimal("2.5"),
            tail_bound=Decimal(0),
            last_index=2,
            precision=8,
            precision_alarm=True,
            survival_error=Decimal("0.25"),
        )
        monkeypatch.setattr(
            "packmatch.firstmatch.exact_pmf_and_expectation", lambda spectrum, tol: fake
        )
        code, out, err = run_cli("expect", "--n", "1", "--d", "2", "--model", "exact")
        assert code == 3
        assert "precision alarm" in err
        assert "precision_alarm: True" in out


class TestMixture:
    def test_uniform_two_sizes(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("1 1/2\n2 1/2\n", encoding="utf-8")
        record = run_json("mixture", str(path), "--d", "2")
        assert record["probability"] == {"numerator": "7", "denominator": "32"}
        assert record["decimal"] == "0.2188"
        assert record["sizes"] == [
            {"n": 1, "weight": {"numerator": "1", "denominator": "2"}},
            {"n": 2, "weight": {"numerator": "1", "denominator": "2"}},
        ]

    def test_degenerate_flagship(self, tmp_path):
        path = tmp_path / "sixty.txt"
        path.write_text("60 1\n", encoding="utf-8")
        record = run_json("mixture", str(path), "--d", "5")
        expected = coincidence_probability(PackSpec(60, 5))
        assert record["probability"] == {
            "numerator": str(expected.numerator),
            "denominator": str(expected.denominator),
        }

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1/2\n2 oops\n", encoding="utf-8")
        code, _, err = run_cli("mixture", str(path), "--d", "2")
        assert code == 2
        assert "line 2" in err

    def test_bad_totals_rejected(self, tmp_path):
        rational = tmp_path / "rational.txt"
        rational.write_text("1 1/2\n2 1/3\n", encoding="utf-8")
        code, _, err = run_cli("mixture", str(rational), "--d", "2")
        assert code == 2
        assert "expected exactly 1" in err

        decimal_file = tmp_path / "decimal.txt"
        decimal_file.write_text("1 0.4\n2 0.5\n", encoding="utf-8")
        code, _, err = run_cli("mixture", str(decimal_file), "--d", "2")
        assert code == 2
        assert "away from 1" in err

    def test_huge_decimal_exponent_refused_quickly(self, tmp_path):
        # Either weight used to hang while its exact value 10**(10**8) was built.
        for token in ("1e-99999999", "1e999999999"):
            path = tmp_path / "exponent.txt"
            path.write_text(f"1 1\n2 {token}\n", encoding="utf-8")
            result = run_module("mixture", str(path), "--d", "2", timeout=5)
            assert result.returncode == 2, token
            assert result.stdout == b""
            assert b"line 2" in result.stderr
            assert b"exponent outside -1000..1000" in result.stderr

    def test_decimal_total_beyond_float_range_is_usage_error(self, tmp_path):
        # The total used to be rendered through float(), which overflowed.
        for token, total in (("1e400", "1.00000000000e+400"), ("9.9e1000", "9.90000000000e+1000")):
            path = tmp_path / "overflow.txt"
            path.write_text(f"1 1\n2 {token}\n", encoding="utf-8")
            code, out, err = run_cli("mixture", str(path), "--d", "2")
            assert code == 2, token
            assert out == ""
            assert f"error: {path}: decimal weights sum to {total}" in err

    def test_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_text("1 1/2\n2 1/2\n", encoding="utf-8-sig")
        record = run_json("mixture", str(path), "--d", "2")
        assert record["probability"] == {"numerator": "7", "denominator": "32"}

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 1/2\n2 1/2 # caf\xe9\n")
        code, out, err = run_cli("mixture", str(path), "--d", "2")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xe9 in position 17: "
            "invalid continuation byte\n"
        )

    def test_missing_file_exit_code(self, tmp_path):
        code, _, err = run_cli("mixture", str(tmp_path / "none.txt"), "--d", "2")
        assert code == 2
        assert "error:" in err

    def test_color_count_validation(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("1 1\n", encoding="utf-8")
        code, _, err = run_cli("mixture", str(path), "--d", "0")
        assert code == 2
        assert "color count must be positive, got d=0" in err


class TestSimulate:
    def test_pair_degenerate(self):
        record = run_json(
            "simulate", "pair", "--n", "0", "--d", "3", "--trials", "100", "--seed", "1"
        )
        assert record["estimate"] == 1.0
        assert record["matches"] == 100
        assert record["analytic_reference"] == 1.0
        assert record["seed"] == 1
        assert record["algorithm"] == "PCG64"

    def test_pair_statistics(self):
        record = run_json(
            "simulate", "pair", "--n", "2", "--d", "2", "--trials", "20000", "--seed", "7"
        )
        assert record["analytic_reference"] == 0.375
        assert record["ci_low"] <= record["estimate"] <= record["ci_high"]
        assert abs(record["estimate"] - 0.375) < 5 * 0.00342  # 5 standard errors

    def test_firstmatch_small(self):
        record = run_json(
            "simulate", "firstmatch", "--n", "1", "--d", "2", "--trials", "2000",
            "--seed", "7",
        )
        assert record["analytic_reference"] == 2.5
        assert set(record["histogram"]) == {"2", "3"}
        assert sum(record["histogram"].values()) == 2000
        assert abs(record["mean"] - 2.5) < 5 * 0.5 / (2000**0.5)

    def test_firstmatch_one_item_many_colors(self):
        # n << d samples item colors, one integer per pack instead of d binomials.
        record = run_json(
            "simulate", "firstmatch", "--n", "1", "--d", "20000", "--trials", "20",
            "--seed", "1",
        )
        assert record["analytic_reference"] is not None
        assert sum(record["histogram"].values()) == 20
        assert abs(record["mean"] - record["analytic_reference"]) < 5 * record["std_error"]

    def test_firstmatch_reference_is_null_above_its_endpoint_limit(self):
        # (1, 10**6 + 1) has one endpoint more than the reference runs at.
        argv = ["simulate", "firstmatch", "--n", "1", "--d", "1000001", "--trials", "3"]
        assert run_json(*argv)["analytic_reference"] is None
        for fmt, last_line in (("plain", "analytic_reference: None"), ("csv", "analytic_reference,")):
            code, out, err = run_cli(*argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert out.splitlines()[-1] == last_line
        record = run_json("simulate", "firstmatch", "--n", "1", "--d", "1000000", "--trials", "3")
        assert record["analytic_reference"] == 1253.9809083944108

    def test_firstmatch_reference_runs_at_48_digits(self, monkeypatch):
        # Decimal mode at 48 digits, rational mode as before; at (1, 20000)
        # the reference equals the 128-digit oracle's double.
        from packmatch import firstmatch

        build = firstmatch.endpoint_spectrum
        built = []

        def recording(spec, *, precision=None):
            spectrum = build(spec, precision=precision)
            built.append((spectrum.mode, spectrum.precision))
            return spectrum

        monkeypatch.setattr("packmatch.firstmatch.endpoint_spectrum", recording)
        for n, d in [(1, 20000), (1, 2)]:
            spec = PackSpec(n, d)
            record = run_json(
                "simulate", "firstmatch", "--n", str(n), "--d", str(d), "--trials", "5"
            )
            law = firstmatch.exact_pmf_and_expectation(build(spec), tol=1e-9)
            assert record["analytic_reference"] == float(law.expectation)
        assert built == [("decimal", cli._REFERENCE_PRECISION), ("rational", None)]
        assert cli._REFERENCE_PRECISION == 48

    @pytest.mark.parametrize("n, d", [(1, 10**6), (2, 1413)])
    def test_reference_precision_holds_at_the_longest_walks(self, n, d):
        # (1, 10**6) is the uniform law over the most endpoints the reference
        # runs at, so its survival walk is the longest; (2, 1413) is nearly as
        # long. The bound stays far below the alarm threshold 10**-24.
        spec = PackSpec(n, d)
        assert distinct_pack_count(spec) <= cli._REFERENCE_ENDPOINT_LIMIT
        spectrum = endpoint_spectrum(spec, precision=cli._REFERENCE_PRECISION)
        law = exact_pmf_and_expectation(spectrum, tol=1e-9)
        assert law.last_index > 7000
        assert not law.precision_alarm
        assert law.survival_error < Decimal("1e-27")

    def test_firstmatch_precision_alarm_exit_code(self, monkeypatch):
        fake = FirstMatchLaw(
            mode="decimal",
            pmf={2: Decimal("0.5")},
            expectation=Decimal("2.5"),
            tail_bound=Decimal(0),
            last_index=2,
            precision=8,
            precision_alarm=True,
            survival_error=Decimal("0.25"),
        )
        monkeypatch.setattr(
            "packmatch.firstmatch.exact_pmf_and_expectation", lambda spectrum, tol: fake
        )
        code, out, err = run_cli(
            "simulate", "firstmatch", "--n", "1", "--d", "2", "--trials", "10", "--seed", "1"
        )
        assert code == 3
        assert "precision alarm" in err
        assert "analytic_reference: 2.5" in out

    @pytest.mark.parametrize("kind, reference", [("pair", "0.5"), ("firstmatch", "2.5")])
    def test_analytic_reference_is_the_last_field(self, kind, reference):
        # The reports carry no reference; the CLI appends the exact one.
        argv = ["simulate", kind, "--n", "1", "--d", "2", "--trials", "100", "--format"]
        outs = {fmt: run_cli(*argv, fmt)[1] for fmt in ("plain", "csv", "json")}
        assert outs["plain"].splitlines()[-1] == f"analytic_reference: {reference}"
        assert outs["csv"].splitlines()[-1] == f"analytic_reference,{reference}"
        record = json.loads(outs["json"])
        assert list(record)[-1] == "analytic_reference"
        assert record["analytic_reference"] == float(reference)

    def test_default_seed_is_logged(self):
        record = run_json(
            "simulate", "pair", "--n", "1", "--d", "2", "--trials", "10"
        )
        assert record["seed"] == 0

    def test_validation_exit_codes(self):
        assert (
            run_cli("simulate", "pair", "--n", "1", "--d", "2", "--trials", "0")[0] == 2
        )
        assert (
            run_cli(
                "simulate", "pair", "--n", "1", "--d", "2", "--trials", "5",
                "--seed", "-1",
            )[0]
            == 2
        )


def _work_ran(*args, **kwargs):
    raise AssertionError("the command's work ran before its usage check")


# A usage error in each command's options, the work that must not run before
# it is reported, and the message it is reported with.
_USAGE_BEFORE_WORK = [
    pytest.param(
        ["prob", "--n", "700", "--d", "2", "--digits", "-1"],
        ["packmatch.cli.coincidence_probability"],
        "digits must be non-negative, got -1",
        id="prob-digits",
    ),
    pytest.param(
        ["expect", "--n", "700", "--d", "2", "--tol", "0"],
        ["packmatch.cli.coincidence_probability", "packmatch.firstmatch.endpoint_spectrum",
         "packmatch.firstmatch.pairwise_expectation"],
        "tol must lie strictly between 0 and 1, got 0.0",
        id="expect-tol",
    ),
    pytest.param(
        ["simulate", "pair", "--n", "700", "--d", "2", "--trials", "10", "--seed", "-1"],
        ["packmatch.cli.coincidence_probability", "packmatch.montecarlo.pair_match_rate"],
        "seed must be a 64-bit non-negative value, got -1",
        id="simulate-pair-seed",
    ),
    pytest.param(
        ["simulate", "firstmatch", "--n", "60", "--d", "5", "--trials", "0"],
        ["packmatch.firstmatch.endpoint_spectrum", "packmatch.montecarlo.first_match_experiment"],
        "trial count must be positive, got 0",
        id="simulate-firstmatch-trials",
    ),
    pytest.param(
        ["table", "300", "50", "probabilities", "--digits", "-2"],
        ["packmatch.cli.recursive_columns"],
        "digits must be non-negative, got -2",
        id="table-digits",
    ),
    pytest.param(
        ["table", "2", "2", "counts", "--digits", "-2"],
        ["packmatch.cli.recursive_columns"],
        "digits must be non-negative, got -2",
        id="table-counts-digits",
    ),
    pytest.param(
        ["mixture", "sizes.txt", "--d", "2", "--digits", "-1"],
        ["packmatch.firstmatch.mixture_match_probability"],
        "digits must be non-negative, got -1",
        id="mixture-digits",
    ),
]


# Distribution files for the exit-code sweep: valid ones and ones the parser
# refuses (a negative size, a zero or missing weight, weights off 1, junk).
_SWEEP_MIXTURES = [
    "3 1/4\n5 1/2\n8 1/4\n", "2 1\n", "# sizes\n0 0.5\n4 5e-1\n", "-1 1\n",
    "3 0\n2 1\n", "4 1/3\n", "x y\n", "5\n", "",
]


@st.composite
def _sweep_argv(draw) -> tuple[list[str], str]:
    """A command line over shapes that need no budget, and a mixture file's text."""
    n = str(draw(st.integers(-2, 8)))
    d = str(draw(st.integers(-1, 6)))
    digits = draw(st.sampled_from(["-1", "0", "4", "12"]))
    command = draw(st.sampled_from(["table", "prob", "expect", "mixture", "simulate"]))
    if command == "table":
        which = draw(st.sampled_from(["counts", "probabilities"]))
        argv = ["table", n, d, which, "--digits", digits]
    elif command == "prob":
        route = draw(st.sampled_from(["closed", "recursive", "gf", "all"]))
        argv = ["prob", "--n", n, "--d", d, "--route", route, "--digits", digits]
    elif command == "expect":
        model = draw(st.sampled_from(["pairwise", "exact", "both"]))
        tol = draw(st.sampled_from(["0", "nan", "1", "-1e-3", "1e-12", "1e-4", "0.5"]))
        argv = ["expect", "--n", n, "--d", d, "--model", model, "--tol", tol]
    elif command == "mixture":
        argv = ["mixture", "sizes.txt", "--d", d, "--digits", digits]
    else:
        kind = draw(st.sampled_from(["pair", "firstmatch"]))
        trials = draw(st.sampled_from(["-1", "0", "1", "40", "2.5"]))
        seed = draw(st.sampled_from(["-1", str(2**64), "0", str(2**64 - 1)]))
        argv = ["simulate", kind, "--n", n, "--d", d, "--trials", trials, "--seed", seed]
    argv += ["--format", draw(st.sampled_from(["plain", "csv", "json"]))]
    return argv, draw(st.sampled_from(_SWEEP_MIXTURES))


class TestExitCodesAndPlumbing:
    @settings(deadline=None, max_examples=150)
    @given(_sweep_argv())
    def test_every_small_input_answers_or_is_refused(self, drawn):
        # Every input finishes with exit 0 or is refused with exit 2 and no
        # output; argparse refuses with SystemExit(2). Nothing else escapes.
        argv, mixture = drawn
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as directory:
            Path(directory, "sizes.txt").write_text(mixture)
            argv = [os.path.join(directory, a) if a == "sizes.txt" else a for a in argv]
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert out.getvalue() == "", argv
            assert err.getvalue() != "", argv

    @pytest.mark.parametrize("argv, work, message", _USAGE_BEFORE_WORK)
    def test_usage_error_reported_before_any_work(
        self, argv, work, message, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sizes.txt").write_text("1 1/2\n700 1/2\n")
        for name in cli._ROUTES:
            monkeypatch.setitem(cli._ROUTES, name, _work_ran)
        for target in work:
            monkeypatch.setattr(target, _work_ran)
        code, out, err = run_cli(*argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_route_disagreement_is_internal_error(self, monkeypatch):
        monkeypatch.setitem(cli._ROUTES, "gf", lambda spec: 0)
        code, _, err = run_cli("prob", "--n", "2", "--d", "2")
        assert code == 4
        assert "internal check failed" in err

    def test_every_exported_name_resolves(self):
        for name in packmatch.__all__:
            assert getattr(packmatch, name) is not None, name

    def test_closed_stdout_exits_141_without_traceback(self):
        # About 220 KB of output: more than a pipe holds, so the writer is
        # still printing when the reader quits after one line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "packmatch", "table", "60", "30", "counts"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert proc.stdout.readline() == b"table of counts for n=1..60, d=1..30\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert stderr == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["prob", "--n", str(2**63), "--d", "3", "--route", "recursive"],
            ["prob", "--n", str(2**63), "--d", "1"],
            ["prob", "--n", str(2**63), "--d", "3", "--route", "gf"],
            ["prob", "--n", str(2**63), "--d", "1", "--route", "closed"],
            ["expect", "--n", str(2**63), "--d", "3", "--model", "pairwise"],
            ["expect", "--n", str(2**63), "--d", "1"],
            ["mixture", "sizes.txt", "--d", "3"],
            ["simulate", "pair", "--n", str(2**63), "--d", "3", "--trials", "10"],
            ["simulate", "firstmatch", "--n", str(2**63), "--d", "3", "--trials", "10"],
        ],
        ids=[
            "prob-recursive", "prob-d1", "prob-gf", "prob-d1-closed", "expect-pairwise",
            "expect-d1", "mixture", "simulate-pair", "simulate-firstmatch",
        ],
    )
    def test_size_too_large_to_index_is_usage_error(self, argv, monkeypatch, tmp_path):
        # Only n = 2**63, which fails before anything is allocated: a smaller
        # huge n such as 10**9 would allocate before it failed.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sizes.txt").write_text(f"{2**63} 1\n")
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: pack size n={2**63} is too large to index; at most {sys.maxsize - 1}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["prob", "--n", str(sys.maxsize - 1), "--d", "3", "--route", "recursive"],
            ["expect", "--n", str(sys.maxsize - 1), "--d", "2", "--model", "pairwise"],
            ["simulate", "pair", "--n", str(sys.maxsize - 1), "--d", "2", "--trials", "5"],
            ["mixture", "sizes.txt", "--d", "3"],
            ["prob", "--n", str(sys.maxsize - 1), "--d", "3", "--route", "gf"],
            ["expect", "--n", str(sys.maxsize - 1), "--d", "5", "--model", "pairwise"],
            ["mixture", "sizes.txt", "--d", "4"],
        ],
        ids=[
            "prob-recursive", "expect-pairwise", "simulate-pair", "mixture", "prob-gf",
            "expect-pairwise-d5", "mixture-d4",
        ],
    )
    def test_size_too_large_to_hold_is_usage_error(self, argv, tmp_path):
        # The largest size PackSpec takes asks recursive_columns or the GF
        # route for a list of 2**63 - 1 counts. The child's address space is
        # capped at 1 GiB, so a change that starts filling memory fails there,
        # not here.
        (tmp_path / "sizes.txt").write_text(f"{sys.maxsize - 1} 1\n")
        result = run_capped("-m", "packmatch", *argv, timeout=30, cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == (
            b"error: out of memory: this input is too large to hold in memory\n"
        )

    @pytest.mark.parametrize("d", [2**63, 300000])
    def test_first_match_trial_beyond_the_memory_budget_is_refused(self, d):
        # About d**3 / 6 endpoints: a trial would hold 8.4e7 keys or more
        # before its first repeat. The child's address space is capped at
        # 1 GiB, so a change that starts drawing fails there, not here.
        argv = ["simulate", "firstmatch", "--n", "3", "--d", str(d), "--trials", "1"]
        start = time.perf_counter()
        result = run_capped("-m", "packmatch", *argv, timeout=30)
        assert time.perf_counter() - start < 10
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(
            f"error: a first-match trial at PackSpec(n=3, d={d}) draws at least ".encode()
        )
        assert result.stderr.endswith(
            b" GiB of keys at 48 bytes a pack, above the 1 GiB memory budget\n"
        )

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli()
        assert excinfo.value.code == 2

    def test_version_matches_pyproject(self):
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as handle:
            assert packmatch.__version__ == tomllib.load(handle)["project"]["version"]

    def test_console_script_installed(self):
        """[project.scripts] packmatch, run as pip's wrapper (no install), serves --help; so does any installed copy."""
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        module, _, attr = scripts["packmatch"].partition(":")

        env = child_env()
        wrapper = (
            f"import sys\nfrom {module} import {attr}\n"
            f"sys.argv[0] = 'packmatch'\nsys.exit({attr}())\n"
        )
        declared = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True, env=env, timeout=120,
        )
        assert declared.returncode == 0, declared.stderr
        assert declared.stdout.startswith(b"usage: packmatch")
        for name in (b"table", b"prob", b"expect", b"mixture", b"simulate"):
            assert name in declared.stdout

        installed = shutil.which("packmatch")
        if installed is not None:
            result = subprocess.run(
                [installed, "--help"], capture_output=True, env=env, timeout=120
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout == declared.stdout


class TestSubprocessDeterminism:
    def run_argv(self, argv: list[str]) -> subprocess.CompletedProcess:
        return run_module(*argv)

    def test_help_exits_zero(self):
        result = self.run_argv(["--help"])
        assert result.returncode == 0
        for name in (b"table", b"prob", b"expect", b"mixture", b"simulate"):
            assert name in result.stdout

    def test_import_does_not_load_numpy(self):
        script = (
            "import sys, packmatch, packmatch.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "import packmatch.montecarlo\n"
            "assert packmatch.first_match_experiment is "
            "packmatch.montecarlo.first_match_experiment\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=child_env(), timeout=120
        )
        assert result.returncode == 0, result.stderr

    def test_each_command_loads_only_what_it_runs(self, tmp_path):
        sizes = tmp_path / "sizes.txt"
        sizes.write_text("2 1/2\n3 1/2\n", encoding="utf-8")
        watched = ("numpy", "dataclasses", "inspect", "json", "packmatch.firstmatch")
        # A module registered for lazy loading is not a plain module until it runs.
        script = (
            "import sys, types, packmatch, packmatch.cli\n"
            "assert packmatch.cli.main(sys.argv[1:]) == 0\n"
            f"print(*(name for name in {watched!r}\n"
            "        if type(sys.modules.get(name)) is types.ModuleType), file=sys.stderr)\n"
        )
        table = [
            # (argv, modules it must load, modules it must not load)
            (["table", "5", "4", "counts", "--format", "plain"], set(), set(watched)),
            (["prob", "--n", "4", "--d", "3", "--format", "csv"], set(), set(watched)),
            (["expect", "--n", "5", "--d", "4"], {"packmatch.firstmatch"},
             {"numpy", "dataclasses"}),
            (["mixture", str(sizes), "--d", "3"], {"packmatch.firstmatch"},
             {"numpy", "dataclasses"}),
            (["simulate", "pair", "--n", "2", "--d", "2", "--trials", "10"], {"numpy"},
             {"packmatch.firstmatch", "dataclasses"}),
            (["simulate", "firstmatch", "--n", "2", "--d", "2", "--trials", "10"],
             {"numpy", "packmatch.firstmatch"}, {"dataclasses"}),
        ]
        for argv, present, absent in table:
            result = subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True, env=child_env(), timeout=120,
            )
            assert result.returncode == 0, result.stderr
            loaded = set(result.stderr.decode().split())
            assert present <= loaded and not absent & loaded, (argv, loaded)

    def test_simulate_reference_is_freed_before_numpy_loads(self):
        # The oracle runs without numpy and leaves only a float behind, so
        # numpy's import and the sampling reuse the memory it freed.
        script = (
            "import gc, sys, packmatch.cli\n"
            "from packmatch import firstmatch\n"
            "events = []\n"
            "law = firstmatch.exact_pmf_and_expectation\n"
            "def exact(*args, **kwargs):\n"
            "    events.append(('oracle, numpy loaded', 'numpy' in sys.modules))\n"
            "    return law(*args, **kwargs)\n"
            "firstmatch.exact_pmf_and_expectation = exact\n"
            "def profile(frame, event, arg):\n"
            "    if event == 'call' and frame.f_code.co_name == 'first_match_experiment':\n"
            "        alive = [o for o in gc.get_objects() if isinstance(o, firstmatch.EndpointSpectrum)]\n"
            "        events.append(('sampling, spectra alive', len(alive)))\n"
            "sys.setprofile(profile)\n"
            "assert packmatch.cli.main(sys.argv[1:]) == 0\n"
            "sys.setprofile(None)\n"
            "print(repr(events), file=sys.stderr)\n"
        )
        argv = ["simulate", "firstmatch", "--n", "4", "--d", "3", "--trials", "5"]
        result = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, env=child_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.decode().strip() == repr(
            [("oracle, numpy loaded", False), ("sampling, spectra alive", 0)]
        )

    def test_lazy_names_resolve_in_a_fresh_process(self):
        # Registered but not run, so that code wrapping its functions in
        # sys.modules (bench/trace_job.py) still finds it.
        script = (
            "import sys, types, packmatch, packmatch.cli\n"
            "lazy = sys.modules['packmatch.firstmatch']\n"
            "assert type(lazy) is not types.ModuleType\n"
            "for name in packmatch.__all__:\n"
            "    assert getattr(packmatch, name) is not None, name\n"
            "assert type(lazy) is types.ModuleType\n"
            "assert packmatch.EndpointSpectrum is packmatch.firstmatch.EndpointSpectrum\n"
            "assert lazy.EndpointSpectrum is packmatch.EndpointSpectrum\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=child_env(), timeout=120
        )
        assert result.returncode == 0, result.stderr

    def blas_threads_after(self, argv: list[str], preset: str | None) -> str:
        """OPENBLAS_NUM_THREADS after ``cli.main(argv)`` in a child whose value is ``preset``."""
        script = (
            "import os, sys\n"
            "from packmatch import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "sys.stderr.write(repr(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
        )
        env = child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        result = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return result.stderr.decode()

    def test_simulate_runs_one_blas_thread_unless_set(self):
        argv = ["simulate", "pair", "--n", "1", "--d", "2", "--trials", "10"]
        assert self.blas_threads_after(argv, None) == "'1'"
        assert self.blas_threads_after(argv, "2") == "'2'"
        assert self.blas_threads_after(["prob", "--n", "2", "--d", "2"], None) == "None"

    def test_byte_identical_seeded_simulation(self):
        argv = [
            "simulate", "firstmatch", "--n", "2", "--d", "3", "--trials", "300",
            "--seed", "42", "--format", "json",
        ]
        first = self.run_argv(argv)
        second = self.run_argv(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()

    def test_byte_identical_exact_computation(self):
        argv = ["expect", "--n", "1", "--d", "3", "--format", "csv"]
        first = self.run_argv(argv)
        second = self.run_argv(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def readme_examples() -> list[tuple[str, str]]:
    """Each ``$ packmatch ...`` example of a README text block, with its stdout.

    An example whose output is elided (it holds ``...`` or ``…``) is left out.
    """
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            if command.startswith("packmatch ") and "..." not in output and "…" not in output:
                examples.append((command, output))
    return examples


class TestReadmeExamples:
    def test_the_examples_are_found(self):
        assert len(readme_examples()) >= 4

    @pytest.mark.parametrize(
        "command, output", [pytest.param(*example, id=example[0]) for example in readme_examples()]
    )
    def test_example_prints_what_the_readme_shows(self, command, output):
        code, out, err = run_cli(*shlex.split(command)[1:])
        assert (code, err) == (0, "")
        assert out == output
