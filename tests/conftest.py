"""Shared fixtures and the acceptance-criteria summary hook.

The flagship pack shape (60 items, 5 colors) is expensive enough that its
exact first-match law is computed once per session and shared.

Every test in ``test_acceptance.py`` named ``test_criterion_NN_*`` is one
acceptance criterion; the terminal-summary hook below prints one PASS/FAIL
line per criterion at the end of the run.
"""

from __future__ import annotations

import pytest

from packmatch.coincidence import PackSpec, coincidence_probability
from packmatch.firstmatch import endpoint_spectrum, exact_pmf_and_expectation


@pytest.fixture(scope="session")
def headline_spec() -> PackSpec:
    """The flagship pack shape: 60 items drawn over 5 colors."""
    return PackSpec(60, 5)


@pytest.fixture(scope="session")
def headline_probability(headline_spec):
    """Exact single-pair match probability at (60, 5)."""
    return coincidence_probability(headline_spec)


@pytest.fixture(scope="session")
def headline_law(headline_spec):
    """Exact first-match law at (60, 5): decimal mode, tolerance 1e-12."""
    spectrum = endpoint_spectrum(headline_spec)
    return exact_pmf_and_expectation(spectrum, tol=1e-12)


_ACCEPTANCE_MARKER = "test_acceptance.py::test_criterion_"
_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if _ACCEPTANCE_MARKER not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[1]
    if report.when == "call":
        _acceptance_results[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and not report.passed:
        _acceptance_results[name] = "SKIP" if report.skipped else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        # test_criterion_NN_some_label -> ["test", "criterion", "NN", "some_label"]
        parts = name.split("_", 3)
        label = parts[3].replace("_", " ") if len(parts) > 3 else name
        terminalreporter.write_line(
            f"criterion {int(parts[2]):2d}: {_acceptance_results[name]} — {label}"
        )
