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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process has a child, running or not yet
    waited for, as a stage that forked a stream and did not reap it would
    leave."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process (waitpid gave pid {pid},"
                f" status {status})")
