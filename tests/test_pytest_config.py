"""The repository's pytest settings report a failing property like any test."""
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_is_reported_and_the_next_test_runs(tmp_path):
    # hypothesis's failure report must not trip filterwarnings = ["error"]
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(n):
            assert n != 0

        def test_passes():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
