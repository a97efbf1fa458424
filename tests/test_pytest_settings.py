"""The pytest settings of ``pyproject.toml``: a failing property test
reports its falsifying example, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
