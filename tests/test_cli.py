import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from builders import evaluate_word
from isotypic import RATIONALS, ValidationError, compute_character_table
from isotypic.cli import main
from isotypic.fixtures import bundled, presentation_spec
from isotypic.serialize import (
    dumps,
    element_from_json,
    element_to_json,
    field_from_json,
    field_to_json,
    group_from_spec,
    rep_from_json,
    table_from_json,
    table_to_json,
)
from isotypic.verify import ManifestRunner, parse_subgroup, parse_word
from serialize_reference import rep_to_json
from worked_examples import order80_element, order80_field


# -- serialization round trips -----------------------------------------------------


def test_group_spec_round_trip(tmp_path):
    spec = presentation_spec("order24")
    g = group_from_spec(spec)
    assert g.order == 24
    again = group_from_spec({"cayley": g.export()["cayley"]})
    assert again._mul == g._mul


def test_group_spec_exactly_one_source():
    with pytest.raises(ValidationError, match="exactly one"):
        group_from_spec({"permutations": [[0]], "cayley": [[0]]})


def test_field_round_trip(field80):
    blob = field_to_json(field80)
    again = field_from_json(blob)
    assert again == field80


def test_element_round_trip(g80, field80):
    el = order80_element(g80, field80, "k1")
    blob = element_to_json(el)
    again = element_from_json(g80, blob)
    assert again == el
    # rational elements too
    q = el.to_domain(RATIONALS) if el.is_rational() else order80_element(
        g80, field80, "f1").to_domain(RATIONALS)
    assert element_from_json(g80, element_to_json(q)) == q


def test_table_round_trip(small_tables, small_groups):
    t = small_tables["S4"]
    again = table_from_json(small_groups["S4"], table_to_json(t))
    assert [c.values for c in again.chars] == [c.values for c in t.chars]


def test_rep_round_trip(g80, t80, rep80):
    blob = rep_to_json(rep80)
    again = rep_from_json(g80, t80, blob)
    assert again.char_index == rep80.char_index
    assert again.matrices == rep80.matrices


def test_dumps_deterministic(small_tables):
    a = dumps(table_to_json(small_tables["S3"]))
    b = dumps(table_to_json(small_tables["S3"]))
    assert a == b


# -- word parsing --------------------------------------------------------------------


def test_parse_word(g80):
    x, y = g80.generators
    assert parse_word(g80, "x") == x
    assert parse_word(g80, "x*y^2") == evaluate_word(g80, [1, 2, 2])
    assert parse_word(g80, "x^-1*x") == 0
    assert parse_word(g80, "1") == 0
    with pytest.raises(ValidationError):
        parse_word(g80, "q^2")


def test_parse_subgroup(g80):
    members = parse_subgroup(g80, "x^10")
    assert len(members) == 2


# -- manifests --------------------------------------------------------------------------


def test_bundled_manifests_pass():
    runner = ManifestRunner(bundled("manifest_order24.json"))
    results = runner.run()
    assert results and all(ok for _, ok in results)


def test_manifest_field_is_certified_once(monkeypatch):
    from isotypic import numberfield

    calls = []
    original = numberfield.is_irreducible

    def counting(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(numberfield, "is_irreducible", counting)
    manifest = bundled("manifest_order80.json")
    assert sum(spec.get("field") == "L" for spec in manifest["elements"].values()) > 1
    runner = ManifestRunner(manifest)
    assert len(calls) == 1
    assert all(el.domain.field is runner.field for el in runner._elements.values()
               if el.domain.kind == "numberfield")


def test_rep_degree_must_match_the_character(capsys, tmp_path):
    rep = bundled("rep_order80.json")
    rep["degree"] = 2
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, _, err = run_cli(capsys, "idempotents", "primitive", "--group",
                           "bundled:group_order80.json", "--rep", str(path))
    assert code == 2
    assert err.startswith("error: ") and "'degree'" in err


def test_manifest_detects_corruption():
    blob = bundled("manifest_order24.json")
    coeffs = blob["elements"]["eW"]["coeffs"]
    coeffs[0][1] = "1/7"
    runner = ManifestRunner(blob)
    results = runner.run()
    assert not results[0][1]  # the idempotency check fails first


# -- CLI ------------------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_group_info(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(presentation_spec("order80")))
    code, out, _ = run_cli(capsys, "group-info", "--group", str(path))
    assert code == 0
    assert "order 80, 14 classes" in out


def test_cli_group_info_trivial(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"presentation": {"generators": 1, "relators": [[1]]}}))
    code, out, _ = run_cli(capsys, "group-info", "--group", str(path))
    assert code == 0
    assert "order 1" in out


def test_cli_broken_table_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cayley": [[0, 1], [1, 1]]}))
    code, _, err = run_cli(capsys, "group-info", "--group", str(path))
    assert code == 2
    assert "error" in err


MALFORMED_GROUPS = {
    "not-json": "{not json",
    "missing-relators": '{"presentation": {"generators": 1}}',
    "list-generators": '{"presentation": {"generators": ["x"], "relators": []}}',
    "letter-out-of-range": '{"presentation": {"generators": 1, "relators": [[2]]}}',
    "not-an-object": "[1, 2]",
    "permutations-not-a-list": '{"permutations": 5}',
    "permutation-entry-string": '{"permutations": [[0, "a"]]}',
    "cayley-entry-string": '{"cayley": [[0, "a"], ["a", 0]]}',
}
MALFORMED_MANIFESTS = {
    "not-json": "{not json",
    "no-group": '{"checks": []}',
    "missing-relators": '{"group": {"presentation": {"generators": 1}}, "checks": []}',
}
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(*argv, timeout=60):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "isotypic.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("command,text", [
    *[("group-info", t) for t in MALFORMED_GROUPS.values()],
    *[("verify", t) for t in MALFORMED_MANIFESTS.values()],
], ids=[*(f"group-info-{k}" for k in MALFORMED_GROUPS),
        *(f"verify-{k}" for k in MALFORMED_MANIFESTS)])
def test_cli_malformed_input_exit_2(tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = ["group-info", "--group", str(path)] if command == "group-info" else ["verify", str(path)]
    proc = run_cli_process(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


S3_SPEC = {"permutations": [[1, 0, 2], [1, 2, 0]]}


def _s3_table_with(coeff, **first_class):
    """The S3 table document with one coefficient of its second character
    replaced, and the entries of its first class updated by first_class."""
    blob = table_to_json(compute_character_table(group_from_spec(S3_SPEC)))
    blob["chars"][1][0]["coeffs"][0] = coeff
    blob["classes"][0].update(first_class)
    return blob


def _q_element_manifest(coeff, **derived):
    """An S3 manifest with one element over Q whose coefficient is given."""
    elements = {"b": {"field": "Q", "coeffs": [[0, coeff]]}}
    elements.update({name: {"derive": expr} for name, expr in derived.items()})
    return {"group": S3_SPEC, "elements": elements, "checks": [{"check": "zero", "of": "b"}]}


L80 = field_to_json(order80_field())
FIRST_LIST = ["1", "0", "-1/80", "0"]


def _l_element_manifest(repeat, first=FIRST_LIST):
    """An S3 manifest with one element over the order-80 field L whose first
    coefficients are a valid coordinate list, in strings and with JSON ints,
    and whose last repeats it in the form given."""
    ints = [json.loads(x) if "/" not in x else x for x in first]
    return {"group": S3_SPEC, "field": L80, "elements": {"e": {
        "field": "L", "coeffs": [[0, first], [1, ints], [2, repeat]]}}, "checks": []}


def _s3_table_repeating(level):
    """The S3 table document whose trivial degree is written at level 1 and
    whose second character's degree repeats it at the level given."""
    blob = table_to_json(compute_character_table(group_from_spec(S3_SPEC)))
    blob["chars"][0][0] = {"level": 1, "coeffs": ["1"]}
    blob["chars"][1][0] = {"level": level, "coeffs": ["1"]}
    return blob


MALFORMED_DOCUMENTS = {
    # name: (command, document, key or text the message must name)
    "check-without-of": ("verify", {"group": S3_SPEC, "checks": [{"check": "idempotent"}]},
                         "'of'"),
    "check-without-check": ("verify", {"group": S3_SPEC, "checks": [{"of": "e"}]},
                            "'check'"),
    "element-without-field": ("verify", {"group": S3_SPEC, "elements": {"e": {"coeffs": 5}},
                                         "checks": []}, "'field'"),
    "element-not-an-object": ("verify", {"group": S3_SPEC, "elements": {"e": 5}, "checks": []},
                              "manifest elements"),
    "element-field-L-without-field": ("verify", {"group": S3_SPEC, "elements": {
        "e": {"field": "L", "coeffs": []}}, "checks": []}, "'field'"),
    "rep-field-not-an-object": ("primitive", {"field": "L"}, "field descriptor"),
    "table-without-classes": ("chartable", {"level": 6}, "'classes'"),
    "field-minpoly-not-a-number": ("verify", {"group": S3_SPEC, "field": {
        "minpoly": ["x", 1], "automorphisms": [[0, 1]]}, "checks": []}, "manifest field"),
    "field-without-minpoly": ("verify", {"group": S3_SPEC, "field": {
        "automorphisms": [[0, 1]]}, "checks": []}, "'minpoly'"),
    "derived-add-without-args": ("verify", {"group": S3_SPEC, "elements": {
        "e": {"derive": {"op": "add", "args": []}}}, "checks": []}, "derived element 'e'"),
    "derived-scale-by-non-number": ("verify", {"group": S3_SPEC, "elements": {
        "b": {"field": "Q", "coeffs": [[0, "1"]]},
        "e": {"derive": {"op": "scale", "arg": "b", "by": "x"}}}, "checks": []},
        "derived element 'e'"),
    "derived-cycle": ("verify", {"group": S3_SPEC, "elements": {
        "a": {"derive": "b"}, "b": {"derive": {"op": "add", "args": ["a"]}}}, "checks": []},
        "derived elements ['a', 'b'] form a cycle"),
    "derived-unknown-name": ("verify", {"group": S3_SPEC, "elements": {
        "a": {"derive": "zz"}}, "checks": []}, "unknown element 'zz'"),
    "presentation-bound-below-1": ("group-info", {"presentation": {
        "generators": 1, "relators": [[1, 1]], "bound": -5}}, "bound must be at least 1"),
    # scalars: a JSON int or a "p/q" string with a nonzero denominator, nothing else
    "table-coefficient-zero-denominator": ("chartable", _s3_table_with("1/0"),
                                           "malformed character table: zero denominator in "
                                           "the scalar '1/0'"),
    "table-coefficient-float": ("chartable", _s3_table_with(1.0), "1.0 is not an exact scalar"),
    "element-coefficient-zero-denominator": ("verify", _q_element_manifest("1/0"),
                                             "malformed algebra element: zero denominator"),
    "element-coefficient-float": ("verify", _q_element_manifest(0.5),
                                  "0.5 is not an exact scalar"),
    "element-coefficient-bool": ("verify", _q_element_manifest(True),
                                 "true is not an exact scalar"),
    "element-coefficient-decimal-string": ("verify", _q_element_manifest("0.5"),
                                           '"0.5" is not an exact scalar'),
    "element-coefficient-padded-string": ("verify", _q_element_manifest(" 1"),
                                          '" 1" is not an exact scalar'),
    "scale-by-float": ("verify", _q_element_manifest(
        "1", e={"op": "scale", "arg": "b", "by": 0.5}), "0.5 is not an exact scalar"),
    "field-element-coefficients-not-a-list": ("verify", {"group": S3_SPEC, "elements": {
        "e": {"field": {"cyclotomic": 3}, "coeffs": [[0, {"level": 3, "coeffs": "12"}]]}},
        "checks": []}, 'not "12"'),
    "field-minpoly-zero-denominator": ("verify", {"group": S3_SPEC, "field": {
        "minpoly": ["1/0", "1"], "automorphisms": [[0]]}, "checks": []},
        "malformed manifest field: zero denominator in the scalar '1/0'"),
    "field-automorphism-bool": ("verify", {"group": S3_SPEC, "field": {
        "minpoly": [0, 1], "automorphisms": [[False]]}, "checks": []},
        "false is not an exact scalar"),
    # a coefficient read once is reused only for the same text of the same
    # type: a repeat that differs in type is read, and refused, on its own
    "repeated-list-with-bool": ("verify", _l_element_manifest([True, "0", "-1/80", "0"]),
                                "error: malformed algebra element: true is not an exact "
                                'scalar (an integer or a "p/q" string)\n'),
    "repeated-list-with-float": ("verify", _l_element_manifest([1.0, "0", "-1/80", "0"]),
                                 "error: malformed algebra element: 1.0 is not an exact "
                                 'scalar (an integer or a "p/q" string)\n'),
    "repeated-list-nested": ("verify", _l_element_manifest([FIRST_LIST]),
                             'error: malformed algebra element: ["1", "0", "-1/80", "0"] '
                             'is not an exact scalar (an integer or a "p/q" string)\n'),
    "repeated-list-with-unhashable-entry": (
        "verify", _l_element_manifest([{"1": 1}, "0", "-1/80", "0"]),
        'error: malformed algebra element: {"1": 1} is not an exact scalar '
        '(an integer or a "p/q" string)\n'),
    "repeated-list-as-bare-string": (
        "verify", _l_element_manifest("1000", ["1", "0", "0", "0"]),
        'error: malformed algebra element: a list of scalars is expected, not "1000"\n'),
    "table-repeated-value-level-bool": ("chartable", _s3_table_repeating(True),
                                        "error: malformed character table: level must be an "
                                        "integer, not true\n"),
    "table-repeated-value-level-float": ("chartable", _s3_table_repeating(1.0),
                                         "error: malformed character table: level must be an "
                                         "integer, not 1.0\n"),
    # integer fields: a JSON int, never a float (6.9 was read as 6) or a bool
    "table-level-float": ("chartable", dict(_s3_table_with("1"), level=6.9),
                          "malformed character table: level must be an integer, not 6.9"),
    # cyclotomic levels: positive (a level-0 value was a ZeroDivisionError traceback)
    "table-value-level-zero": ("chartable", dict(_s3_table_with("1"), chars=[
        [{"level": 0, "coeffs": []}]]), "cyclotomic level must be positive"),
    "element-field-level-negative": ("verify", {"group": S3_SPEC, "elements": {
        "b": {"field": {"cyclotomic": -2}, "coeffs": []}}, "checks": []},
        "cyclotomic level must be positive"),
    "table-class-size-bool": ("chartable", _s3_table_with("1", size=True),
                              "malformed character table: class size must be an integer, "
                              "not true"),
    "element-index-float": ("verify", {"group": S3_SPEC, "elements": {
        "b": {"field": "Q", "coeffs": [[0.0, "1"]]}}, "checks": []},
        "malformed algebra element: element index must be an integer, not 0.0"),
    # checks: a list, never null, a number or a bool (each was a TypeError traceback)
    "checks-null": ("verify", {"group": S3_SPEC, "checks": None},
                    "manifest checks must be a list, not null"),
    "checks-number": ("verify", {"group": S3_SPEC, "checks": 5},
                      "manifest checks must be a list, not 5"),
    "checks-bool": ("verify", {"group": S3_SPEC, "checks": True},
                    "manifest checks must be a list, not true"),
    # a check: a JSON object, named in JSON spelling when it is not one
    "check-null": ("verify", {"group": S3_SPEC, "checks": [None]},
                   "a manifest check is a JSON object, not null"),
    "check-string": ("verify", {"group": S3_SPEC, "checks": ["x"]},
                     'a manifest check is a JSON object, not "x"'),
    "check-number": ("verify", {"group": S3_SPEC, "checks": [5]},
                     "a manifest check is a JSON object, not 5"),
}


@pytest.mark.parametrize("name", MALFORMED_DOCUMENTS)
def test_cli_malformed_document_exit_2(tmp_path, name):
    command, document, named = MALFORMED_DOCUMENTS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    gpath = tmp_path / "s3.json"
    gpath.write_text(json.dumps(S3_SPEC))
    argv = {
        "verify": ["verify", str(path)],
        "primitive": ["idempotents", "primitive", "--group", str(gpath), "--rep", str(path)],
        "chartable": ["chartable", "--group", str(gpath), "--table", str(path)],
        "group-info": ["group-info", "--group", str(path)],
    }[command]
    proc = run_cli_process(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert named in proc.stderr


def test_repeated_list_as_json_ints_reads_the_same_value():
    runner = ManifestRunner(_l_element_manifest(FIRST_LIST))
    first, ints, repeat = (runner._elements["e"].coeffs[g] for g in (0, 1, 2))
    assert first == ints == repeat and first is repeat and ints is not first
    assert (ints.num, ints.den) == ((80, 0, -1, 0), 80)


def test_one_list_under_two_fields_reads_as_two_values(tmp_path):
    # ["0", "1"] is sqrt(2) in the manifest field and i in the inline one
    sqrt2 = {"minpoly": ["-2", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]]}
    qi = {"minpoly": ["1", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]]}
    manifest = {"group": S3_SPEC, "field": sqrt2, "elements": {
        "r": {"field": "L", "coeffs": [[0, ["0", "1"]]]},
        "i": {"field": qi, "coeffs": [[0, ["0", "1"]]]},
        "two": {"field": "Q", "coeffs": [[0, "2"]]},
        "minus_one": {"field": "Q", "coeffs": [[0, "-1"]]},
        "r2": {"derive": {"op": "mul", "args": ["r", "r"]}},
        "i2": {"derive": {"op": "mul", "args": ["i", "i"]}},
    }, "checks": [{"check": "equal", "left": "r2", "right": "two"},
                  {"check": "equal", "left": "i2", "right": "minus_one"}]}
    path = tmp_path / "two_fields.json"
    path.write_text(json.dumps(manifest))
    proc = run_cli_process("verify", str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[pass]") == 2, proc.stdout


def test_galois_of_a_sum_over_equal_fields_written_apart(tmp_path):
    # f's field is the manifest field with its minpoly in JSON ints: an equal
    # field read as a second object, so e + f carries values of both, and
    # the automorphism must accept each
    manifest = bundled("manifest_order80.json")
    l_ints = dict(manifest["field"], minpoly=[144, 0, -16, 0, 1])
    t = ["0", "1", "0", "0"]
    manifest["elements"] = {
        "e": {"field": "L", "coeffs": [[0, t]]},
        "f": {"field": l_ints, "coeffs": [[1, t]]},
        "f_in_L": {"field": "L", "coeffs": [[1, t]]},
        "g": {"derive": {"op": "galois", "arg": {"op": "add", "args": ["e", "f"]}, "auto": 1}},
        "h": {"derive": {"op": "galois", "arg": {"op": "add", "args": ["e", "f_in_L"]},
                         "auto": 1}}}
    manifest["checks"] = [{"check": "equal", "left": "g", "right": "h"}]
    path = tmp_path / "equal_fields.json"
    path.write_text(json.dumps(manifest))
    proc = run_cli_process("verify", str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[pass]") == 1, proc.stdout


BAD_ARGUMENTS = {
    # name: (command words, options, text the message must name)
    "schur-m-not-an-integer": (["decompose", "jacobian"], ["--assert-schur", "2=x"], "2=x"),
    "exponent-not-an-integer": (["decompose", "intermediate"], ["--H", "x^a"], "exponent 'a'"),
    "exponent-missing": (["decompose", "intermediate"], ["--H", "y*x^"], "exponent ''"),
    "exponent-in-float-form": (["decompose", "intermediate"], ["--H", "x^1e9"], "exponent '1e9'"),
    "intermediate-without-H": (["decompose", "intermediate"], [], "--H"),
    "prym-without-H": (["decompose", "prym"], ["--N", "x"], "--H"),
    "prym-without-N": (["decompose", "prym"], ["--H", "x"], "--N"),
    "central-without-irrep": (["idempotents", "central"], [], "--irrep"),
    "subgroup-without-irrep": (["idempotents", "subgroup"], ["--H", "x"], "--irrep"),
    "negative-lattice-bound": (["group-info"], ["--lattice-bound", "-1"], "--lattice-bound"),
    "negative-intersection-arity": (["full-report"], ["--max-intersection-arity", "-1"],
                                    "--max-intersection-arity"),
    "irrep-not-an-orbit": (["classify"], ["--irrep", "99"], "selector 99"),
    "schur-selector-not-an-orbit": (["decompose", "jacobian"], ["--assert-schur", "2-3=1"],
                                    "selector 2-3"),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_cli_bad_arguments_exit_2(name):
    words, options, named = BAD_ARGUMENTS[name]
    proc = run_cli_process(*words, "--group", "bundled:group_s4.json", *options)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert named in proc.stderr


def test_word_exponents_are_powers(g80, capsys):
    x, y = g80.generators
    huge = 99999999999999999999
    assert parse_word(g80, f"x^{huge}") == g80.power(x, huge % g80.elem_orders[x])
    assert parse_word(g80, "y^-1000000001*x^3") == g80.mul(g80.power(y, -1000000001),
                                                          g80.power(x, 3))
    assert parse_word(g80, " x ^ 2 * y ") == evaluate_word(g80, [1, 1, 2])
    s4 = "bundled:group_s4.json"
    g = group_from_spec(bundled("group_s4.json"))
    order = g.elem_orders[g.generators[0]]
    huge_run = run_cli(capsys, "decompose", "intermediate", "--group", s4, "--H", f"x^{huge}")
    small_run = run_cli(capsys, "decompose", "intermediate", "--group", s4,
                        "--H", f"x^{huge % order}")
    assert huge_run[0] == 0 and huge_run == small_run


def test_cli_json_error_names_file_and_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"cayley":\n  [[0], oops]}')
    code, _, err = run_cli(capsys, "group-info", "--group", str(path))
    assert code == 2
    assert str(path) in err and "line 2, column 9" in err


def test_cli_bound_exit_4(capsys, tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"presentation": {"generators": 2, "relators": []}}))
    code, _, err = run_cli(capsys, "group-info", "--group", str(path))
    assert code == 4


def test_cli_verify_kronecker_bound_exit_4(tmp_path):
    blob = bundled("manifest_order80.json")
    blob["field"]["minpoly"] = ["720720", "0", "0", "0", "0", "0", "0", "0", "1"]
    path = tmp_path / "big_field.json"
    path.write_text(json.dumps(blob))
    proc = run_cli_process("verify", str(path))
    assert proc.returncode == 4, proc.stderr
    assert "307200 Kronecker candidates > 100000" in proc.stderr


@pytest.mark.parametrize("coeff", ["1e999999999", "0.5"])
def test_cli_exponent_and_decimal_strings_exit_2_at_once(tmp_path, coeff):
    # read as a number, "1e999999999" is 10**999999999: far too long to build in 2 s
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(_q_element_manifest(coeff)))
    proc = run_cli_process("verify", str(path), timeout=2)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and json.dumps(coeff) in proc.stderr


def test_cli_kronecker_value_bound_exit_4(tmp_path):
    # t^2 + c with c near 2^64: listing the divisors of c by trial division takes minutes
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"group": S3_SPEC, "field": {
        "minpoly": [str(2**64 - 59), "0", "1"], "automorphisms": [[0, 1], [0, -1]]},
        "checks": []}))
    proc = run_cli_process("verify", str(path), timeout=2)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr and "a node value of 64 bits > 36" in proc.stderr


@pytest.mark.parametrize("command,level", [("chartable", 10**8), ("verify", 10**7)])
def test_cli_level_bound_exit_4_at_once(tmp_path, command, level):
    # Euler's phi is linear in the level: 10^8 did not finish in 20 s, 10^7 took 2.2 s
    path = tmp_path / "input.json"
    if command == "chartable":
        blob = bundled("table_s4.json")
        blob["chars"][1][1] = {"level": level, "coeffs": ["1"]}
        argv = ["chartable", "--group", "bundled:group_s4.json", "--table", str(path)]
    else:
        blob = {"group": S3_SPEC, "elements": {"b": {"field": {"cyclotomic": level},
                                                     "coeffs": []}}, "checks": []}
        argv = ["verify", str(path)]
    path.write_text(json.dumps(blob))
    proc = run_cli_process(*argv, timeout=2)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"cyclotomic level {level} exceeds the level bound 1000" in proc.stderr


def test_cli_chartable(capsys, tmp_path):
    gpath = tmp_path / "s3.json"
    gpath.write_text(json.dumps(presentation_spec("S3")))
    out_path = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "chartable", "--group", str(gpath),
                           "--out", str(out_path))
    assert code == 0
    assert "V3 (deg 2)" in out
    # reload through --table
    code2, out2, _ = run_cli(capsys, "chartable", "--group", str(gpath),
                             "--table", str(out_path))
    assert code2 == 0 and "V3 (deg 2)" in out2


def test_cli_idempotents_central(capsys, tmp_path):
    gpath = tmp_path / "q8.json"
    gpath.write_text(json.dumps(presentation_spec("Q8")))
    code, out, _ = run_cli(capsys, "idempotents", "central", "--group", str(gpath),
                           "--irrep", "5")
    assert code == 0
    assert "[pass]" in out and "FAIL" not in out


def test_cli_idempotents_subgroup_zero(capsys, tmp_path):
    gpath = tmp_path / "g80.json"
    gpath.write_text(json.dumps(presentation_spec("order80")))
    code, out, _ = run_cli(capsys, "idempotents", "subgroup", "--group", str(gpath),
                           "--irrep", "11-12", "--H", "x^10")
    assert code == 0
    assert "f_H = 0" in out


def test_cli_idempotents_primitive_s3(capsys, tmp_path):
    from isotypic import MatrixRep, RATIONAL_FIELD, compute_character_table

    gpath = tmp_path / "s3.json"
    gpath.write_text(json.dumps(presentation_spec("S3")))
    group = group_from_spec(presentation_spec("S3"))
    table = compute_character_table(group)
    std = next(i for i, c in enumerate(table.chars) if c.degree == 2)
    rep = MatrixRep(group, RATIONAL_FIELD,
                    [[[-1, 1], [0, 1]], [[0, -1], [1, -1]]], table, std)
    rpath = tmp_path / "rep.json"
    rpath.write_text(dumps(rep_to_json(rep)))
    code, out, _ = run_cli(capsys, "idempotents", "primitive", "--group", str(gpath),
                           "--rep", str(rpath))
    assert code == 0
    assert "FAIL" not in out
    assert "f1 =" in out and "f2 =" in out


def test_cli_decompose_and_classify(capsys, tmp_path):
    gpath = tmp_path / "g80.json"
    gpath.write_text(json.dumps(presentation_spec("order80")))
    code, out, _ = run_cli(capsys, "decompose", "jacobian", "--group", str(gpath),
                           "--assert-schur", "11-12=2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    exps = sorted(f["exponent"] for f in payload["factors"])
    assert exps == sorted([1, 1, 1, 1, 1, 1, 2, 4, 4, 2])

    code, out, _ = run_cli(capsys, "decompose", "prym", "--group", str(gpath),
                           "--H", "1", "--N", "x,y", "--assert-schur", "11-12=2")
    assert code == 0

    code, out, _ = run_cli(capsys, "decompose", "intermediate", "--group", str(gpath),
                           "--H", "x*y^2", "--assert-schur", "11-12=2", "--format", "json")
    assert code == 0
    inter = json.loads(out)
    quad = next(f for f in inter["factors"] if f["irrep"].startswith("2("))
    assert quad["exponent"] == 1

    code, out, _ = run_cli(capsys, "classify", "--group", str(gpath),
                           "--irrep", "11-12", "--assert-schur", "11-12=2")
    assert code == 0
    assert "intersection" in out


def test_cli_every_schur_assertion_is_checked_in_order(capsys):
    g80 = "bundled:group_order80.json"
    code, _, err = run_cli(capsys, "decompose", "jacobian", "--group", g80,
                           "--assert-schur", "11=3", "--assert-schur", "11-12=2")
    assert code == 2 and "asserted Schur index 3" in err
    code, out, _ = run_cli(capsys, "decompose", "jacobian", "--group", g80, "--format", "json",
                           "--assert-schur", "11-12=2", "--assert-schur", "12=1")
    assert code == 0
    assert {"irrep": "(V11 + V12)", "schur": "exact", "exponent": 4,
            "conditional": False} in json.loads(out)["factors"]


PRIMITIVE_80 = ["idempotents", "primitive", "--group", "bundled:group_order80.json",
                "--table", "bundled:table_order80.json"]


def _rep80_with_embedding(tmp_path, generator, image):
    """A copy of the bundled order-80 rep file with the embedding replaced."""
    doc = bundled("rep_order80.json")
    doc["embedding"] = {"generator": generator, "image": image}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_embedding_generator_at_a_divisor_level(capsys, tmp_path, fmt):
    """sqrt(-5) written at level 20, where the table's values are at level
    40, embeds as the bundled level-40 generator does."""
    sqrt_minus5_at_20 = {"level": 20, "coeffs": ["0", "0", "0", "2", "0", "-1", "0", "2"]}
    path = _rep80_with_embedding(tmp_path, sqrt_minus5_at_20,
                                 bundled("rep_order80.json")["embedding"]["image"])
    outs = []
    for rep in ("bundled:rep_order80.json", path):
        code, out, err = run_cli(capsys, *PRIMITIVE_80, "--rep", rep, "--format", fmt)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("generator,image,message", [
    (None, ["0", "1", "0", "0"],
     "declared embedding is inconsistent: image is not a conjugate of the generator"),
    ({"level": 1, "coeffs": ["1"]}, ["1", "0", "0", "0"],
     "value lies outside the declared embedded subfield"),
    ({"level": 40, "coeffs": ["1"] + ["0"] * 15}, ["1", "0", "0", "0"],
     "value lies outside the declared embedded subfield"),
], ids=["image-t", "generator-1-level-1", "generator-1-level-40"])
def test_cli_embedding_refusals_exit_2(tmp_path, generator, image, message):
    """The image t is not a square root of -5; the generator 1 embeds only
    Q, and the character's value sqrt(-5) lies outside it."""
    if generator is None:
        generator = bundled("rep_order80.json")["embedding"]["generator"]
    proc = run_cli_process(*PRIMITIVE_80, "--rep", _rep80_with_embedding(tmp_path, generator, image))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n" and "Traceback" not in proc.stderr


def test_cli_full_report_order80(capsys, tmp_path):
    gpath = tmp_path / "g80.json"
    gpath.write_text(json.dumps(presentation_spec("order80")))
    code, out, _ = run_cli(capsys, "full-report", "--group", str(gpath),
                           "--assert-schur", "11-12=2")
    assert code == 0
    assert "JW ~ JW_G" in out
    assert out.count("prym") + out.count("intersection") == 9
    assert "conditional" not in out  # the assertion removes the conditional flag


def test_cli_full_report_json(capsys, tmp_path):
    gpath = tmp_path / "s4.json"
    gpath.write_text(json.dumps(presentation_spec("S4")))
    code, out, _ = run_cli(capsys, "full-report", "--group", str(gpath),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["subject"] == "JW"
    assert all("verdict" in f for f in payload["factors"])


def test_cli_verify_bundled(capsys):
    code, out, _ = run_cli(capsys, "verify", "bundled:manifest_order24.json")
    assert code == 0
    assert "FAIL" not in out


def test_cli_verify_corrupted_exit_3(capsys, tmp_path):
    blob = bundled("manifest_order24.json")
    blob["elements"]["eW"]["coeffs"][0][1] = "1/7"
    path = tmp_path / "bad_manifest.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert "FAIL" in out


def test_cli_byte_identical_reruns(capsys, tmp_path):
    gpath = tmp_path / "s4.json"
    gpath.write_text(json.dumps(presentation_spec("S4")))
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "full-report", "--group", str(gpath),
                               "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


LATTICE_BOUND_COMMANDS = {
    "group-info": ["group-info"],
    "chartable": ["chartable"],
    "idempotents": ["idempotents", "central", "--irrep", "2"],
    "decompose": ["decompose", "jacobian"],
    "classify": ["classify", "--irrep", "1"],
    "full-report": ["full-report"],
}


@pytest.mark.parametrize("bound,code", [(10, 4), (24, 0)])
@pytest.mark.parametrize("name", LATTICE_BOUND_COMMANDS)
def test_cli_lattice_bound_applies_to_every_command(name, bound, code):
    proc = run_cli_process(*LATTICE_BOUND_COMMANDS[name], "--group", "bundled:group_s4.json",
                           "--lattice-bound", str(bound))
    assert proc.returncode == code, proc.stderr
    if code == 4:
        assert "subgroup lattice bound exceeded: |G| = 24 > 10" in proc.stderr
