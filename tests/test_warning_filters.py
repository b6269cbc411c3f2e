import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_property_reports_under_the_warning_filters(tmp_path):
    # every warning is an error, but hypothesis's failure report imports
    # libcst, whose own DeprecationWarning must not end the run in
    # INTERNALERROR before the remaining tests
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
