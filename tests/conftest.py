"""Fixtures shared between test modules."""

import pytest

from epw.cli import run


@pytest.fixture(scope="session")
def fast_report():
    """(exit code, stdout) of one in-process `epw report --seed 1`, shared
    by the golden-file test and acceptance criterion 8."""
    return run(["report", "--seed", "1"])
