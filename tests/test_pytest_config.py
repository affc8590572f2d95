"""The repository's pytest settings report a failing property test as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_session(tmp_path):
    # With warnings as errors, a warning raised while hypothesis reports the
    # failing example would end the session before the passing test ran.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
