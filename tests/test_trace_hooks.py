"""The benchmark's tracer still finds the functions it wraps.

``bench/trace_job.py`` wraps packmatch functions and methods by name from
outside the package, so a refactor that renames or bypasses one silently
turns its per-layer counters to 0. Each command here must leave every
counter it names positive.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN, REPO_ROOT, child_env

TRACE_JOB = REPO_ROOT / "bench" / "trace_job.py"


@pytest.mark.parametrize(
    "argv, counters",
    [
        (
            ["expect", "--n", "8", "--d", "3"],
            [
                "firstmatch.spectrum_build.calls",
                "firstmatch.endpoint_classes",
                "firstmatch.power_sums.calls",
                "firstmatch.newton.calls",
                "firstmatch.survival_steps",
                "firstmatch.pairwise_terms",
                "coincidence.probability.calls",
                "coincidence.gf.calls",
            ],
        ),
        (
            ["prob", "--n", "5", "--d", "3", "--route", "all"],
            ["coincidence.closed.calls", "coincidence.recursive.calls", "coincidence.gf.calls"],
        ),
        (
            ["mixture", str(GOLDEN / "mixture_sizes.txt"), "--d", "4"],
            ["firstmatch.mixture.calls"],
        ),
        (
            ["simulate", "firstmatch", "--n", "4", "--d", "3", "--trials", "50"],
            ["montecarlo.experiment.calls"],
        ),
    ],
    ids=["expect", "prob", "mixture", "simulate-firstmatch"],
)
def test_traced_command_counts_every_hooked_layer(argv, counters, tmp_path: Path):
    trace = tmp_path / "trace.json"
    result = subprocess.run(
        [sys.executable, str(TRACE_JOB), str(trace), *argv],
        capture_output=True, env=child_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(trace.read_text(encoding="utf-8"))["counts"]
    assert [name for name in counters if counts.get(name, 0) <= 0] == []
