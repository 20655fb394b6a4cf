"""Each script under ``demos/`` runs to completion against ``src`` and prints
exactly its recorded output in ``golden/demo_<name>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def test_demos_found():
    assert len(DEMOS) == 4
    assert sorted(p.name for p in GOLDEN.glob("demo_*.txt")) == [
        f"demo_{p.stem}.txt" for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"demo_{path.stem}.txt").read_bytes()
