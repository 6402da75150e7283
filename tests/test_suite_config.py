"""The suite's own pytest configuration."""

import json
import subprocess
import sys


def test_a_falsified_given_test_fails_as_one_test(request, tmp_path):
    """Under the suite's warning filters a falsified ``@given`` test is one
    failure, and the tests after it still run: hypothesis reports it through
    libcst, whose import warns of a deprecation, and that warning raised as
    an error would stop the session with an INTERNALERROR."""
    filters = request.config.getini("filterwarnings")
    (tmp_path / "pyproject.toml").write_text(
        f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    (tmp_path / "test_inner.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(n):\n"
        "    assert n < 0\n\n\n"
        "def test_after():\n"
        "    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
