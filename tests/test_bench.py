import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """The benchmark wraps and calls names of the package (``solve_lp`` as
    a module attribute, ``LpSolution.engine``, ``certify_optimal``,
    ``surrogate_scores``, ``write_csv`` on row tuples); its self-test at
    tiny sizes fails if one of them goes."""
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout
