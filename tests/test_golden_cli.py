"""Byte-identical ``--format json`` output of the bundled CLI invocations.

The files under ``tests/golden/`` were written by the Fraction-polynomial
scalar implementation that the integer kernel replaced, and
``idempotents-primitive_order80`` by the per-ideal Echelon layer that the
trace formula replaced, and ``verify_manifest_order80`` by the
coefficient-by-coefficient product loop that the packed product replaced.
``decompose-intermediate_order80``, ``classify_order80`` (an intersection
verdict) and ``classify_order24`` (a complement verdict) were written before
the decomposer read each subgroup's multiplicity vector from one table and
found Prym partners by lookup.  Any change in a printed value, an ordering
or a verdict shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from isotypic.cli import main

GOLDEN = Path(__file__).parent / "golden"
G80 = "bundled:group_order80.json"

CASES = {
    f"{cmd}_{name}": [cmd, "--group", f"bundled:group_{name}.json"]
    for name in ("order24", "order80", "q8", "s3", "s4")
    for cmd in ("chartable", "full-report", "group-info")
}
CASES.update({
    "idempotents-central_order80":
        ["idempotents", "central", "--group", G80, "--irrep", "11-12"],
    "idempotents-subgroup_order80":
        ["idempotents", "subgroup", "--group", G80, "--irrep", "11-12", "--H", "x*y^2"],
    "decompose-prym_order80":
        ["decompose", "prym", "--group", G80, "--H", "1", "--N", "x,y",
         "--assert-schur", "11-12=2"],
    "decompose-intermediate_order80":
        ["decompose", "intermediate", "--group", G80, "--H", "x*y^2",
         "--assert-schur", "11-12=2"],
    "classify_order80":
        ["classify", "--group", G80, "--irrep", "11-12", "--assert-schur", "11-12=2"],
    "classify_order24": ["classify", "--group", "bundled:group_order24.json", "--irrep", "4"],
    "idempotents-primitive_order80":
        ["idempotents", "primitive", "--group", G80, "--rep", "bundled:rep_order80.json"],
    "verify_manifest_order24": ["verify", "bundled:manifest_order24.json"],
    "verify_manifest_order80": ["verify", "bundled:manifest_order80.json"],
})


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name, capsys):
    assert main(CASES[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
