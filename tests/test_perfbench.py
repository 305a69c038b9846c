import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    """The benchmark wraps bee's functions by name and argument position, so a
    changed bee signature shows up here rather than only in a benchmark run."""
    env = os.environ | {"PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(SELFTEST)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
