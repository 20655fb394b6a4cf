"""``scripts/time_tables.py`` runs on one small group, and on the JSON loads,
and writes its report."""

import importlib.util
import json
from math import prod
from pathlib import Path

from character_table_reference import _is_prime as trial_division_is_prime

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "time_tables", ROOT / "scripts" / "time_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_time_tables_reports_the_split_prime(tmp_path):
    script = _script()
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


def test_time_tables_reports_the_loads(tmp_path):
    script = _script()
    out = tmp_path / "loads.json"
    script.main(["--groups", "GL23", "--runs", "1", "--loads", "--out", str(out)])
    loads = json.loads(out.read_text())["loads"]
    counts = {name: (row["scalars"], row["kronecker_candidates"], row["interpolations"])
              for name, row in loads.items()}
    # each distinct coefficient is read once per document: the order-80 table
    # has 13 distinct values of 16 coordinates, D240's 63 x 63 table 61 distinct
    # values at level 120 (phi(120) = 32 coordinates each), and the manifest
    # reads its field (17), 138 distinct lists of 4 coordinates and 4 distinct
    # rationals
    assert counts == {
        "field_order80": (17, 1080, 22),
        "table_order80": (13 * 16, 0, 0),
        "table_D240": (61 * 32, 0, 0),
        "manifest_order80": (17 + 138 * 4 + 4, 1080, 22),
    }
    assert all(row["load_s"] >= 0 for row in loads.values())


# (class-sum matrices built, rows lifted): the split stops at r idempotents,
# and one row is lifted per Galois orbit
SPLIT_COUNTS = {"D120": (17, 14), "D240": (31, 18), "D500": (28, 10), "S5": (1, 7),
                "GL23": (6, 7)}


def test_time_tables_reports_the_split_counts(tmp_path):
    script = _script()
    out = tmp_path / "split.json"
    script.main(["--groups", *SPLIT_COUNTS, "--runs", "1", "--out", str(out)])
    groups = json.loads(out.read_text())["groups"]
    assert {name: (row["class_sums"], row["lifted"]) for name, row in groups.items()} \
        == SPLIT_COUNTS
