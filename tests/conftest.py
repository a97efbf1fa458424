"""Checks over the whole test session."""

import os
from pathlib import Path

import pytest

#: what pytest and its plugins keep in the working directory
CACHES = {".pytest_cache", ".hypothesis", ".benchmarks"}


@pytest.fixture(scope="session", autouse=True)
def working_directory_untouched():
    """Fail the session if a test added an entry to the working directory,
    as a stage whose relative paths were resolved against it would."""
    cwd = Path.cwd()
    before = set(os.listdir(cwd))
    yield
    added = set(os.listdir(cwd)) - before - CACHES
    if added:
        pytest.fail(f"the tests added {sorted(added)} to {cwd}")
