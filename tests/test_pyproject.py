"""The Tier-1 pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# a failing @given test makes hypothesis import libcst, whose own DeprecationWarning
# must not turn into an INTERNALERROR that ends the session before the next test
_THREE_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test():
    pass


def test_an_own_deprecation_warning():
    warnings.warn("still an error", DeprecationWarning)
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_three.py").write_text(_THREE_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout[-2000:]
    assert done.returncode == 1, done.stdout[-2000:]
    assert "2 failed, 1 passed" in done.stdout.splitlines()[-1], done.stdout[-2000:]
