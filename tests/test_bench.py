"""``scripts/bench.py`` runs on small groups, and on the JSON loads, writes
each group's row with the keys of its stages, and writes the same
deterministic fields on a second run."""

import hashlib
import importlib.util
import json
from math import prod
from pathlib import Path

import pytest

from character_table_reference import _is_prime as trial_division_is_prime
from isotypic import JacobianDecomposer, compute_character_table, from_permutations, galois_orbits

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench)


def _run(out, *args):
    bench.main(["--runs", "1", "--out", str(out), *args])
    report = json.loads(out.read_text())
    assert report["runs"] == 1
    return report


def _untimed(report):
    """The report without the fields ending in ``_s``, at every depth."""
    if isinstance(report, dict):
        return {k: _untimed(v) for k, v in report.items() if not k.endswith("_s")}
    return report


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("bench") / "bench.json", "--groups", "S4", "GL23", "--loads")


def test_bench_is_reproducible(report, tmp_path):
    again = _run(tmp_path / "again.json", "--groups", "S4", "GL23", "--loads")
    assert _untimed(again) == _untimed(report)


def test_lattice_row_reports_every_stage(report):
    row = report["groups"]["S4"]
    assert list(row) == ["order", "subgroup_classes", "build_s", "lattice_s", "init_s",
                         "full_report_s", "isogenies_s", "full_report_sha256"]
    assert (row["order"], row["subgroup_classes"]) == (24, 11)
    assert all(v >= 0 for k, v in row.items() if k.endswith("_s"))
    table = compute_character_table(from_permutations(bench.symmetric(4)))
    full = JacobianDecomposer(table, orbits=galois_orbits(table)).full_report()
    assert row["full_report_sha256"] == hashlib.sha256(repr(full).encode()).hexdigest()[:16]


def test_nested_direct_product_keeps_the_generators():
    """S4xS4xC2 as a nested product of ``perfbench/inputs.py``: each factor's
    generators on its own block of the ten points, fixing the rest, in
    factor order."""
    fixed = list(range(10))
    want = []
    for offset, factor in ((0, bench.symmetric(4)), (4, bench.symmetric(4)), (8, [[1, 0]])):
        for p in factor:
            want.append(fixed[:offset] + [offset + x for x in p] + fixed[offset + len(p):])
    assert bench.GROUPS["S4xS4xC2"][0]() == want


def test_table_row_reports_the_split_prime(report):
    row = report["groups"]["GL23"]
    assert list(row) == ["order", "classes", "compute_s", "validate_s", "L", "B", "primes",
                         "class_sums", "lifted"]
    assert (row["order"], row["classes"], row["L"]) == (48, 8, 24)
    assert row["compute_s"] >= 0 and row["validate_s"] >= 0
    primes = row["primes"]
    assert all(p % row["L"] == 1 and trial_division_is_prime(p) for p in primes)
    assert prod(primes) > row["B"]


def test_loads_report_the_scalars_read(report):
    loads = dict(report["loads"])
    embed = loads.pop("embed_construct")
    loads.pop("checks_order80")
    counts = {name: (row["scalars"], row["kronecker_candidates"], row["interpolations"])
              for name, row in loads.items()}
    # a group presentation holds no scalars.  Each distinct coefficient is
    # read once per document: the order-80 table
    # has 13 distinct values of 16 coordinates, D240's 63 x 63 table 61 distinct
    # values at level 120 (phi(120) = 32 coordinates each), and the manifest
    # reads its field (17), 138 distinct lists of 4 coordinates and 4 distinct
    # rationals.  A field Q(zeta_m) of degree d reads d + 1 + d^2 scalars
    # (d = 2, 2, 4, 6 for m = 4, 6, 10, 14).  The order-80 rep reads its field
    # (17), its embedding (a generator of 16 coordinates at level 40 and an
    # image of 4), 14 character values at level 40 (16 each) and two 4 x 4
    # generator matrices of 4 coordinates each.
    assert counts == {
        "group_order80": (0, 0, 0),
        "field_order80": (17, 1080, 22),
        "fields_construct": (3 + 3 + 5 + 7 + 4 + 4 + 16 + 36, 58, 10),
        "rep_order80": (17 + 16 + 4 + 14 * 16 + 2 * 16 * 4, 1080, 22),
        "table_order80": (13 * 16, 0, 0),
        "table_D240": (61 * 32, 0, 0),
        "manifest_order80": (17 + 138 * 4 + 4, 1080, 22),
    }
    # Dic_5 and Dic_7 declare embeddings; the four reps have 5 + 6 + 8 + 10
    # classes
    assert (embed["embeddings"], embed["values"]) == (2, 29)
    assert all(row["load_s"] >= 0 for row in loads.values())
    assert embed["load_s"] >= 0


def test_ingest_row_reports_the_build_and_its_peak():
    """Called directly on C12: tier-1 never builds the default C1000 and C2000."""
    row = bench.ingest_row(bench.cyclic(12), 1)
    assert list(row) == ["order", "build_s", "classes_s", "build_peak_mb"]
    assert row["order"] == 12
    assert row["build_s"] >= 0 and row["classes_s"] >= 0 and row["build_peak_mb"] >= 0
    assert [bench.GROUPS[name][1] for name in ("C1000", "C2000")] == [bench.ingest_row] * 2
    assert {"C1000", "C2000"} <= set(bench.DEFAULT_GROUPS)


def test_presentation_row_reports_the_build_and_its_peak():
    """Called directly on <x | x^12>: tier-1 never builds P1000 and P2000."""
    row = bench.presentation_row(bench.cyclic_relators(12), 1)
    assert list(row) == ["order", "build_s", "classes_s", "build_peak_mb"]
    assert row["order"] == 12
    assert row["build_s"] >= 0 and row["classes_s"] >= 0 and row["build_peak_mb"] >= 0
    assert [bench.GROUPS[name][1] for name in ("P1000", "P2000")] == [bench.presentation_row] * 2
    assert [len(bench.GROUPS[name][0]()[0]) for name in ("P1000", "P2000")] == [1000, 2000]
    assert {"P1000", "P2000"} <= set(bench.DEFAULT_GROUPS)


def test_checks_report_the_kernel_runs(report):
    row = report["loads"]["checks_order80"]
    assert list(row) == ["run_s", "checks", "failed", "kernel_runs"]
    assert row["run_s"] >= 0
    # 9 idempotent checks, 6 orthogonal pairs of two products each, and 4
    # ideal_dim checks, each of which tests idempotency first
    assert (row["checks"], row["failed"], row["kernel_runs"]) == (31, 0, 9 + 6 * 2 + 4)


# (class-sum matrices built, rows lifted): the split stops at r idempotents,
# and one row is lifted per Galois orbit
SPLIT_COUNTS = {"D120": (17, 14), "D240": (31, 18), "D500": (28, 10), "S5": (1, 7),
                "GL23": (6, 7)}


def test_table_rows_report_the_split_counts(tmp_path):
    groups = _run(tmp_path / "split.json", "--groups", *SPLIT_COUNTS)["groups"]
    assert {name: (row["class_sums"], row["lifted"]) for name, row in groups.items()} \
        == SPLIT_COUNTS
