"""Shared test plumbing: starts every test with no shared coefficient
schedule and no remembered grid solve, and collects acceptance-criterion
verdicts and prints one PASS/FAIL line per criterion in the terminal
summary."""

from __future__ import annotations

import pytest

from gbflab import analysis, simulate


@pytest.fixture(autouse=True)
def _empty_caches():
    """Empty the process's schedule cache and its grid memo, so a test that
    patches ``lmmse_coefficient_schedule`` or a part of ``_solve_powers``
    (``_coeffs``, ``_start_brackets``, ``_bisect_brackets``), or counts their
    calls, does not depend on which tests ran before it."""
    simulate._shared_schedule.cache_clear()
    analysis._solved_grid.cache_clear()


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
