"""The readers of ``serialize`` read each distinct coefficient once per
document, and load the same values as the memo-free readers of
``serialize_reference.py``."""

import json

import pytest

from isotypic import compute_character_table, from_permutations, serialize
from isotypic.serialize import (
    element_from_json, field_from_json, group_from_spec, table_from_json, table_to_json,
)
from isotypic.fixtures import bundled
from isotypic.verify import ManifestRunner
from serialize_reference import reference_element, reference_table_values
from test_lattice_oracle import dihedral


def _list_reads(monkeypatch):
    """The arguments of every call of the coordinate-list reader."""
    calls = []
    original = serialize.scalars_from_json

    def counting(cs):
        calls.append(cs)
        return original(cs)

    monkeypatch.setattr(serialize, "scalars_from_json", counting)
    return calls


@pytest.mark.parametrize("name", ["manifest_order24.json", "manifest_order80.json"])
def test_manifest_loads_the_reference_values(name):
    manifest = bundled(name)
    runner = ManifestRunner(manifest)
    field = field_from_json(manifest["field"]) if "field" in manifest else None
    for key, spec in manifest["elements"].items():
        if "derive" in spec:
            continue
        want = reference_element(runner.group, spec, field)
        got = runner._elements[key]
        assert got.domain == want.domain
        assert got.coeffs == want.coeffs, key


def test_standalone_element_reads_alone_and_loads_the_reference_values(g80, monkeypatch):
    manifest = bundled("manifest_order80.json")
    calls = _list_reads(monkeypatch)
    for spec in manifest["elements"].values():
        if spec.get("field") == "L":
            spec = dict(spec, field=manifest["field"])
            del calls[:]
            got = element_from_json(g80, spec)
            assert len(calls) == len({tuple(c) for _, c in spec["coeffs"]})
            assert got.coeffs == reference_element(g80, spec).coeffs


def test_tables_load_the_reference_values():
    group80 = group_from_spec(bundled("group_order80.json"))
    d240 = from_permutations(dihedral(120))
    for group, doc in [(group80, bundled("table_order80.json")),
                       (d240, table_to_json(compute_character_table(d240)))]:
        table = table_from_json(group, doc)
        assert [ch.values for ch in table.chars] == reference_table_values(doc)


def test_manifest_reads_each_distinct_list_once(monkeypatch):
    manifest = bundled("manifest_order80.json")
    lists = [c for spec in manifest["elements"].values() for _, c in spec.get("coeffs", ())
             if isinstance(c, list) and all(isinstance(x, str) for x in c)]
    distinct = {tuple(c) for c in lists}
    assert len(lists) == 388 and len(distinct) == 138
    calls = _list_reads(monkeypatch)
    ManifestRunner(manifest)
    assert sorted(tuple(c) for c in calls) == sorted(distinct)


def test_each_table_load_reads_each_distinct_value_once(monkeypatch):
    doc, group = bundled("table_order80.json"), group_from_spec(bundled("group_order80.json"))
    distinct = {json.dumps(v, sort_keys=True) for row in doc["chars"] for v in row}
    assert len(distinct) == 13
    calls = _list_reads(monkeypatch)
    table_from_json(group, doc)
    assert len(calls) == 13
    table_from_json(group, doc)  # a memo lives for one call
    assert len(calls) == 26


def test_equal_fields_written_apart_keep_their_own_values():
    # the manifest field again with a minpoly of JSON ints: an equal field,
    # read as a second object, whose values its automorphisms must accept
    manifest = bundled("manifest_order80.json")
    l_ints = dict(manifest["field"], minpoly=[144, 0, -16, 0, 1])
    spec = manifest["elements"]["eW"]
    manifest["elements"] = {
        "e": spec, "f": dict(spec, field=l_ints),
        "gf": {"derive": {"op": "galois", "arg": "f", "auto": 1}}}
    runner = ManifestRunner(manifest)
    e, f = runner._elements["e"], runner._elements["f"]
    assert e.domain.field == f.domain.field and e.domain.field is not f.domain.field
    for el in (e, f):
        assert all(c.field is el.domain.field for c in el.coeffs.values())
    assert runner._elements["gf"] == e.apply_galois(1)
