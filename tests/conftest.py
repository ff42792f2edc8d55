"""Shared pytest plumbing: the hypothesis profile and acceptance verdicts.

Property tests run under one hypothesis profile: derandomized, so every
run draws the same examples; without a deadline, because a loaded
machine can stretch any one example; and without the example database,
so runs leave no ``.hypothesis/`` directory behind.

The acceptance tests report one human-readable verdict line per criterion.
Lines are printed inline (visible under ``-s``) and replayed in a dedicated
terminal-summary section so the battery's outcome is readable even when
capture is on.
"""

import pytest
from hypothesis import settings

settings.register_profile("circlelab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("circlelab")

_LINES = []


@pytest.fixture
def acceptance():
    """Record a one-line verdict for an acceptance criterion."""

    def _record(number: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
        _LINES.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)
