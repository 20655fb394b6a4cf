"""``scripts/time_lattice.py`` runs on one small group and writes its report."""

import hashlib
import importlib.util
import json
from pathlib import Path

from isotypic import JacobianDecomposer, compute_character_table, from_permutations, galois_orbits

ROOT = Path(__file__).resolve().parent.parent


def test_time_lattice_reports_every_stage(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "time_lattice", ROOT / "scripts" / "time_lattice.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "lattice.json"
    script.main(["--groups", "S4", "--runs", "1", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["runs"] == 1
    row = report["groups"]["S4"]
    assert (row["order"], row["subgroup_classes"]) == (24, 11)
    assert all(row[f"{stage}_s"] >= 0 for stage in script.STAGES)
    table = compute_character_table(from_permutations(script.symmetric(4)))
    full = JacobianDecomposer(table, orbits=galois_orbits(table)).full_report()
    assert row["full_report_sha256"] == hashlib.sha256(repr(full).encode()).hexdigest()[:16]


def test_nested_direct_product_keeps_the_generators():
    """S4xS4xC2 as a nested product of ``perfbench/inputs.py``: each factor's
    generators on its own block of the ten points, fixing the rest, in
    factor order."""
    spec = importlib.util.spec_from_file_location(
        "time_lattice", ROOT / "scripts" / "time_lattice.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    fixed = list(range(10))
    want = []
    for offset, factor in ((0, script.symmetric(4)), (4, script.symmetric(4)), (8, [[1, 0]])):
        for p in factor:
            want.append(fixed[:offset] + [offset + x for x in p] + fixed[offset + len(p):])
    assert script.GROUPS["S4xS4xC2"]() == want
