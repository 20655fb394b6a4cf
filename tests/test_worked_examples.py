"""The bundled data files are the transcription of ``worked_examples.py``
written by the library's writers, byte for byte; the loaders of
``isotypic.fixtures`` read it back; and the transcription's three
corrections hold where the literal readings of the print fail."""

import pytest

import worked_examples as we
from isotypic import ValidationError, compute_character_table, fixtures
from isotypic.serialize import dumps, element_to_json, field_to_json, group_from_spec, table_to_json
from serialize_reference import rep_to_json

NAMES80 = ["eV", "eW", "l1", "u11", "u21", "k1", "f1", "f2"]

CHECKS80 = [
    {"check": "idempotent", "of": "eV", "label": "central element of the degree-4 pair"},
    {"check": "central", "of": "eV"},
    {"check": "idempotent", "of": "eW", "label": "rational central element"},
    {"check": "central", "of": "eW"},
    {"check": "rational", "of": "eW"},
    {"check": "idempotent", "of": "l1", "label": "first diagonal idempotent"},
    {"check": "ideal_dim", "of": "l1", "dim": 4},
    {"check": "idempotent", "of": "u11", "label": "primitive block idempotent u11"},
    {"check": "idempotent", "of": "u21", "label": "primitive block idempotent u21"},
    {"check": "orthogonal", "left": "u11", "right": "u21"},
    {"check": "orthogonal", "left": "u11", "right": "u12"},
    {"check": "orthogonal", "left": "u11", "right": "u22"},
    {"check": "orthogonal", "left": "u21", "right": "u12"},
    {"check": "orthogonal", "left": "u21", "right": "u22"},
    {"check": "equal", "label": "u-grid sums to the central element",
     "left": {"op": "add", "args": ["u11", "u12", "u21", "u22"]}, "right": "eV"},
    {"check": "equal", "label": "k1 is the galois sum of u11",
     "left": "k1", "right": {"op": "add", "args": ["u11", "u12"]}},
    {"check": "subfield_fixed", "of": "k1"},
    {"check": "idempotent", "of": "k1"},
    {"check": "ideal_dim", "of": "k1", "dim": 8},
    {"check": "equal", "label": "central element = k1 + k2",
     "left": {"op": "add", "args": ["k1", "k2"]}, "right": "eV"},
    {"check": "equal", "label": "f1 is the full galois sum of k1",
     "left": "f1", "right": {"op": "add", "args": ["k1", {"op": "galois", "auto": 2, "arg": "k1"}]}},
    {"check": "rational", "of": "f1"},
    {"check": "rational", "of": "f2"},
    {"check": "idempotent", "of": "f1"},
    {"check": "idempotent", "of": "f2"},
    {"check": "orthogonal", "left": "f1", "right": "f2"},
    {"check": "equal", "label": "f1 + f2 = rational central element",
     "left": {"op": "add", "args": ["f1", "f2"]}, "right": "eW"},
    {"check": "ideal_dim", "of": "f1", "dim": 16, "over": "Q"},
    {"check": "ideal_dim", "of": "f2", "dim": 16, "over": "Q"},
    {"check": "idempotent", "of": "pHeW", "label": "subgroup-invariant idempotent"},
    {"check": "bi_invariant", "of": "pHeW", "subgroup": "x*y^2"},
]

W, W1 = {"degree": 2, "orbit_size": 1}, {"degree": 2, "orbit_size": 2}
CHECKS24 = [
    {"check": "idempotent", "of": "eW", "label": "rational central element"},
    {"check": "central", "of": "eW"},
    {"check": "rational", "of": "eW"},
    {"check": "rho_identity", "label": "rho_1 - rho_<x^2> = W + 2 W1",
     "minuend": "1", "subtrahend": "x^2", "exact": [[W, 1], [W1, 2]]},
    {"check": "rho_identity", "label": "rho_<z> - rho_<z,x^2> = W1",
     "minuend": "z", "subtrahend": "z,x^2", "exact": [[W1, 1]]},
    {"check": "rho_component", "label": "rho_1 - rho_<z> contains W + W1",
     "minuend": "1", "subtrahend": "z", "contains": [[W, 1], [W1, 1]]},
]


def documents():
    """Every bundled data file, by name, built from the transcription."""
    docs = {f"group_{name.lower()}.json": spec for name, spec in we.SPECS.items()}
    g80 = group_from_spec(we.SPECS["order80"])
    docs["table_order80.json"] = table_to_json(we.order80_table_transcription(g80))
    for name in ["S3", "S4", "Q8", "SL23"]:
        docs[f"table_{name.lower()}.json"] = table_to_json(we.classical_table(name)[1])
    nf = we.order80_field()
    docs["rep_order80.json"] = rep_to_json(we.order80_rep(g80, compute_character_table(g80), nf))
    field = field_to_json(nf)
    elements = {}
    for name in NAMES80:
        el = element_to_json(we.order80_element(g80, nf, name))
        elements[name] = dict(el, field="L") if el["field"] == field else el
    elements["pHeW"] = element_to_json(we.order80_pHeW(g80))
    elements["u12"] = {"derive": {"op": "galois", "auto": 1, "arg": "u11"}}
    elements["u22"] = {"derive": {"op": "galois", "auto": 1, "arg": "u21"}}
    elements["k2"] = {"derive": {"op": "add", "args": ["u21", "u22"]}}
    docs["manifest_order80.json"] = {"group": we.SPECS["order80"], "field": field,
                                     "elements": elements, "checks": CHECKS80}
    ew24 = we.order24_eW(group_from_spec(we.SPECS["order24"]))
    docs["manifest_order24.json"] = {"group": we.SPECS["order24"],
                                     "elements": {"eW": element_to_json(ew24)},
                                     "checks": CHECKS24}
    return docs


def test_bundled_files_are_the_transcription():
    docs = documents()
    assert sorted(docs) == sorted(p.name for p in fixtures.DATA.glob("*.json"))
    for name, doc in docs.items():
        assert dumps(doc).encode() == (fixtures.DATA / name).read_bytes(), name


def test_loaders_read_the_transcription():
    for name, spec in we.SPECS.items():
        assert fixtures.presentation_spec(name) == spec
    with pytest.raises(ValidationError, match="no bundled group named s3"):
        fixtures.presentation_spec("s3")
    g80, nf = fixtures.order80_group(), we.order80_field()
    for name in NAMES80:
        el = fixtures.order80_element(g80, nf, name)
        assert el == we.order80_element(g80, nf, name)
        assert el.domain.field is nf
    assert fixtures.order80_element(g80, nf, "pHeW") == we.order80_pHeW(g80)


@pytest.mark.parametrize("name", ["k1", "f1", "l1", "u21"])
def test_corrections_are_idempotent_and_the_printed_readings_are_not(g80, field80, name):
    corrected = we.order80_element(g80, field80, name)
    printed = we.order80_element(g80, field80, name, we.printed_terms(name))
    assert corrected.is_idempotent()
    assert printed != corrected and not printed.is_idempotent()


def test_k1_correction_is_the_galois_sum_of_u11(g80, field80):
    u11 = we.order80_element(g80, field80, "u11")
    printed = we.order80_element(g80, field80, "k1", we.printed_terms("k1"))
    assert we.order80_element(g80, field80, "k1") == u11 + u11.apply_galois(1) != printed
