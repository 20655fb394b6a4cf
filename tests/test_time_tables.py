"""``scripts/time_tables.py`` runs on one small group and writes its report."""

import importlib.util
import json
from math import prod
from pathlib import Path

from character_table_reference import _is_prime as trial_division_is_prime

ROOT = Path(__file__).resolve().parent.parent


def test_time_tables_reports_the_split_prime(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "time_tables", ROOT / "scripts" / "time_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "tables.json"
    script.main(["--groups", "GL23", "--runs", "1", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["runs"] == 1
    row = report["groups"]["GL23"]
    assert (row["order"], row["classes"], row["L"]) == (48, 8, 24)
    assert row["compute_s"] >= 0 and row["validate_s"] >= 0
    primes = row["primes"]
    assert all(p % row["L"] == 1 and trial_division_is_prime(p) for p in primes)
    assert prod(primes) > row["B"]
