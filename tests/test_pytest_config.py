"""The repository's pytest configuration reports failures as failures."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_fails():
    assert False
'''


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # hypothesis's report hook touches a deprecated mypy_extensions name;
    # under filterwarnings = error that warning used to end the session with
    # an internal error (exit 3) before the second test ran
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout
