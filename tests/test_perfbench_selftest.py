"""The benchmark harness against the current library.

``perfbench/selftest.py`` wraps counters onto library methods by name and
runs the lattice-report steps traced and untraced; a renamed or moved method
fails it here instead of only in a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
