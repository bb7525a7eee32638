"""Command-line surface: parsing, rendering, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import packmatch
from packmatch import cli
from packmatch.coincidence import PackSpec, coincidence_probability, count_recursive
from packmatch.exactmath import decimal_string
from packmatch.firstmatch import FirstMatchLaw

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
        # C(59, 29) endpoints: the closed route's walk would take years.
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

    def test_exact_decimal_golden(self):
        record = run_json("expect", "--n", "10", "--d", "10", "--model", "exact")
        exact = record["exact"]
        assert exact["mode"] == "decimal"
        assert exact["expectation"] == "215.8800814048167737940207654"
        assert exact["tail_bound"] == "9.601324364902163106659309485E-13"
        assert exact["last_index"] == 1351
        assert exact["precision_alarm"] is False
        assert exact["survival_error"] == "9.9004844E-108"

    def test_exact_rational_golden(self):
        golden = Path(__file__).resolve().parent / "golden" / "expect_n7_d7_exact.json"
        code, out, _ = run_cli(
            "expect", "--n", "7", "--d", "7", "--model", "exact", "--format", "json"
        )
        assert code == 0
        assert out == golden.read_text(encoding="utf-8")

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

    def test_unreachable_pairwise_series_fails_fast(self):
        # p ~ 7e-16: the series' term ratio stays above 1 past its term cap.
        result = run_module(
            "expect", "--n", "30", "--d", "30", "--model", "pairwise", timeout=5
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"more than 5000000 terms" in result.stderr
        assert b"raise tol" not in result.stderr

    def test_tolerance_validation(self):
        assert run_cli("expect", "--n", "1", "--d", "2", "--tol", "0")[0] == 2
        assert run_cli("expect", "--n", "1", "--d", "2", "--tol", "1.5")[0] == 2

    def test_precision_alarm_exit_code(self, monkeypatch):
        fake = FirstMatchLaw(
            model="exact-oracle",
            mode="decimal",
            pmf={2: Decimal("0.5")},
            expectation=Decimal("2.5"),
            tail_bound=Decimal(0),
            last_index=2,
            precision=8,
            precision_alarm=True,
            survival_error=Decimal("0.25"),
        )
        monkeypatch.setattr(cli, "exact_pmf_and_expectation", lambda spectrum, tol: fake)
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

    def test_missing_file_exit_code(self, tmp_path):
        code, _, err = run_cli("mixture", str(tmp_path / "none.txt"), "--d", "2")
        assert code == 2
        assert "error:" in err

    def test_color_count_validation(self, tmp_path):
        path = tmp_path / "sizes.txt"
        path.write_text("1 1\n", encoding="utf-8")
        code, _, err = run_cli("mixture", str(path), "--d", "0")
        assert code == 2
        assert "color count must be positive, got 0" in err


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


class TestExitCodesAndPlumbing:
    def test_route_disagreement_is_internal_error(self, monkeypatch):
        monkeypatch.setitem(cli._ROUTES, "gf", lambda spec: 0)
        code, _, err = run_cli("prob", "--n", "2", "--d", "2")
        assert code == 4
        assert "internal check failed" in err

    def test_every_exported_name_resolves(self):
        for name in packmatch.__all__:
            assert getattr(packmatch, name) is not None, name

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli()
        assert excinfo.value.code == 2

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
