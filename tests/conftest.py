import pytest

import _acceptance_report
from edgetype import ratedistortion


@pytest.fixture
def cold_memo():
    """Empty the per-process memo of class facts, for tests that record
    which classes a call solves or counts."""
    ratedistortion._class_facts.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_report.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_report.VERDICTS:
            terminalreporter.write_line(line)
