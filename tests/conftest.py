"""Shared test plumbing: starts every test with no shared coefficient
schedule, and collects acceptance-criterion verdicts and prints one PASS/FAIL
line per criterion in the terminal summary."""

from __future__ import annotations

import pytest

from gbflab import simulate


@pytest.fixture(autouse=True)
def _no_shared_schedules():
    """Empty the process's schedule cache, so a test that patches
    ``lmmse_coefficient_schedule`` or counts its calls does not depend on
    which tests ran before it."""
    simulate._shared_schedule.cache_clear()


_ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(criterion: str, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS.append((criterion, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in _ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {criterion}: {status}{suffix}")
