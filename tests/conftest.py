"""Shared test configuration: hypothesis profile, the pool fixture and the acceptance report.

The acceptance tests append one line per criterion to ACCEPTANCE_LINES;
printing them from a terminal-summary hook keeps them visible even though
pytest captures output at the file-descriptor level.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

import cellkit.theorems as theorems

settings.register_profile(
    "cellkit",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "cellkit"))

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def pool_cpus(monkeypatch):
    """Let a pool start up to three workers, whatever CPUs the host lets this process use."""
    monkeypatch.setattr(theorems, "_usable_cpus", lambda: 3)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance report")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
