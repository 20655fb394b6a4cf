"""Class functions evaluated once per conjugacy class, checked against the
per-element code in ``class_function_reference.py``."""

import json
from fractions import Fraction as F

import pytest

from builders import basis
from class_function_reference import (
    reference_central_idempotent,
    reference_central_idempotent_over_field,
    reference_fixed_dim,
    reference_matrices,
    reference_rational_central_idempotent,
)
from isotypic import (
    AlgebraElement,
    FiniteGroup,
    InvariantError,
    MatrixRep,
    NumField,
    RATIONAL_FIELD,
    ValidationError,
    averaging_idempotent,
    central_idempotent,
    central_idempotent_over_field,
    compute_character_table,
    fixed_dim,
    from_permutations,
    galois_orbits,
    rational_central_idempotent,
)
from isotypic.cli import main
from isotypic.fixtures import corpus
from isotypic.numberfield import CycEmbedding
from isotypic.serialize import element_to_json, table_from_json, table_to_json
from worked_examples import order80_rep


def _d4_x_s3():
    # D4 on the points 0..3 and S3 on the points 4..6
    return from_permutations([
        [1, 2, 3, 0, 4, 5, 6], [0, 3, 2, 1, 4, 5, 6],
        [0, 1, 2, 3, 5, 4, 6], [0, 1, 2, 3, 5, 6, 4],
    ])


GROUPS = ["S3", "S4", "Q8", "SL23", "D4xS3", "order80"]


@pytest.fixture(scope="module")
def tables(g80, t80):
    groups = {name: g for name, g in corpus().items() if name in GROUPS}
    out = {name: compute_character_table(g) for name, g in groups.items()}
    out["D4xS3"] = compute_character_table(_d4_x_s3())
    out["order80"] = t80
    return out


def _same(new, ref):
    assert new == ref
    assert element_to_json(new) == element_to_json(ref)


def q8_rep(table):
    QI = NumField([1, 0, 1], [[0, 1], [0, -1]], subfield_fixers=(0, 1))
    i = QI.gen()
    two = next(idx for idx, c in enumerate(table.chars) if c.degree == 2)
    return MatrixRep(table.group, QI, [[[i, 0], [0, -i]], [[0, 1], [-1, 0]]], table, two)


@pytest.mark.parametrize("name", GROUPS)
def test_central_idempotents_match_reference(tables, name):
    table = tables[name]
    for ci in range(len(table.chars)):
        _same(central_idempotent(table, ci), reference_central_idempotent(table, ci))
    for orbit in galois_orbits(table):
        _same(rational_central_idempotent(table, orbit),
              reference_rational_central_idempotent(table, orbit))


@pytest.mark.parametrize("name", GROUPS)
def test_fixed_dim_matches_reference(tables, name):
    table = tables[name]
    for sub in table.group.subgroup_classes():
        for char in table.chars:
            assert fixed_dim(table, char, sub.members) == \
                reference_fixed_dim(table, char, sub.members)


C4 = [[1, 2, 3, 0]]


def _c4_swapped():
    """The C4 table with its order-2 and order-4 columns swapped, as JSON.

    It passes both orthogonality relations and Galois closure, but on
    {1, g^2} one row sums to 1 - z4, whose top coordinate is negative."""
    group = from_permutations(C4)
    blob = table_to_json(compute_character_table(group))
    orders = [group.elem_orders[c["representative"]] for c in blob["classes"]]
    a, b = orders.index(2), orders.index(4)
    for row in blob["chars"]:
        row[a], row[b] = row[b], row[a]
    return group, blob, blob["classes"][a]["representative"]


def test_fixed_dim_keeps_its_exact_checks(small_tables):
    s3, sl23 = small_tables["S3"], small_tables["SL23"]
    std = next(c for c in s3.chars if c.degree == 2)
    cycle = s3.group.generators[1]
    irrational = next((c, k) for c in sl23.chars for k, v in enumerate(c.values)
                      if not v.is_rational())
    c4_group, c4_blob, involution = _c4_swapped()
    c4 = table_from_json(c4_group, c4_blob)
    galois_orbits(c4)  # validated and Galois-closed, yet its fixed dimensions fail
    cases = [
        (s3, std, (0, cycle)),                                   # (2 - 1) / 2
        (s3, std, (cycle,)),                                     # -1
        (sl23, irrational[0], (sl23.classes[irrational[1]].representative,)),
        (c4, c4.chars[0], (0, involution)),                      # (1 - z4) / 2
    ]
    for table, char, members in cases:
        with pytest.raises(InvariantError) as new:
            fixed_dim(table, char, members)
        with pytest.raises(InvariantError) as ref:
            reference_fixed_dim(table, char, members)
        assert str(new.value) == str(ref.value)


def test_swapped_c4_table_fails_the_rationality_check(tmp_path, capsys):
    _, blob, _ = _c4_swapped()
    group_path = tmp_path / "group.json"
    group_path.write_text(json.dumps({"permutations": C4}))
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(blob))
    assert main(["full-report", "--group", str(group_path), "--table", str(table_path)]) == 3
    assert "fixed dimension not rational" in capsys.readouterr().err


def _rep_cases(rep80, small_tables):
    return {"order80": rep80, "Q8": q8_rep(small_tables["Q8"])}


@pytest.mark.parametrize("name", ["order80", "Q8"])
def test_rep_matrices_and_field_idempotent_match_reference(rep80, small_tables, name):
    rep = _rep_cases(rep80, small_tables)[name]
    char = rep.table.chars[rep.char_index]
    assert rep.matrices == reference_matrices(rep.group, rep.field, rep.gen_matrices, char,
                                              rep.embedding)
    assert rep.char_values == tuple(rep.embedding.embed(v) for v in char.values)
    _same(central_idempotent_over_field(rep), reference_central_idempotent_over_field(rep))


def _corrupted(gens, gi, nf):
    mats = [list(map(list, m)) for m in gens]
    mats[gi][0][0] = mats[gi][0][0] + nf.one()
    return mats


@pytest.mark.parametrize("name", ["order80", "Q8"])
@pytest.mark.parametrize("gi", [0, 1])
def test_corrupted_generator_raises_the_reference_message(rep80, small_tables, name, gi):
    rep = _rep_cases(rep80, small_tables)[name]
    char = rep.table.chars[rep.char_index]
    bad = _corrupted(rep.gen_matrices, gi, rep.field)
    with pytest.raises(ValidationError) as new:
        MatrixRep(rep.group, rep.field, bad, rep.table, rep.char_index, rep.embedding)
    with pytest.raises(ValidationError) as ref:
        reference_matrices(rep.group, rep.field, bad, char, rep.embedding)
    assert str(new.value) == str(ref.value)
    assert "multiplicativity fails" in str(new.value)


def test_trace_mismatch_raises_the_reference_message(small_tables):
    # the sign representation is a homomorphism, but not the trivial character
    table = small_tables["S3"]
    trivial = next(i for i, c in enumerate(table.chars) if all(v == 1 for v in c.values))
    gens = [[[-1]], [[1]]]
    with pytest.raises(ValidationError) as new:
        MatrixRep(table.group, RATIONAL_FIELD, gens, table, trivial)
    with pytest.raises(ValidationError) as ref:
        reference_matrices(table.group, RATIONAL_FIELD, gens, table.chars[trivial],
                           CycEmbedding(RATIONAL_FIELD, None, None))
    assert str(new.value) == str(ref.value)
    assert "trace mismatch" in str(new.value)


def test_trace_checked_once_per_class_fails_like_the_reference(small_tables):
    # each rational linear character as a 1-dim rep, against every character
    # of its degree: the first failing element is the reference's
    compared = 0
    for table in small_tables.values():
        group = table.group
        linear = [c for c in table.chars
                  if c.degree == 1 and all(v.is_rational() for v in c.values)]
        for rep in linear:
            gens = [[[rep.values[group.class_index(g)].as_rational()]] for g in group.generators]
            for k, char in enumerate(table.chars):
                if char.degree != 1:
                    continue
                try:
                    MatrixRep(group, RATIONAL_FIELD, gens, table, k)
                    new = None
                except ValidationError as exc:
                    new = str(exc)
                try:
                    reference_matrices(group, RATIONAL_FIELD, gens, char,
                                       CycEmbedding(RATIONAL_FIELD, None, None))
                    old = None
                except ValidationError as exc:
                    old = str(exc)
                assert new == old
                compared += new is not None
    assert compared > 10


def test_rep_needs_breadth_first_numbering():
    # C4 generated by 3: element 1 = 3*3*3 is reached only after element 2
    c4 = FiniteGroup([[(a + b) % 4 for b in range(4)] for a in range(4)],
                     labels=[(), (0, 0, 0), (0, 0), (0,)], generators=[3])
    table = compute_character_table(c4)
    with pytest.raises(InvariantError, match="breadth-first"):
        MatrixRep(c4, RATIONAL_FIELD, [[[1]]], table, 0)


def test_rep_and_field_idempotent_embed_once_per_class(monkeypatch, g80, t80, field80):
    calls = []
    original = CycEmbedding.embed

    def counting(self, v):
        calls.append(v)
        return original(self, v)

    monkeypatch.setattr(CycEmbedding, "embed", counting)
    rep = order80_rep(g80, t80, field80)
    central_idempotent_over_field(rep)
    assert len(calls) == len(t80.classes)


def test_bi_invariance_predicate(small_groups):
    S4 = small_groups["S4"]
    sub = S4.subgroup_classes()[3].members
    p = averaging_idempotent(S4, sub)
    assert p.is_bi_invariant(sub)
    assert AlgebraElement.zero(S4).is_bi_invariant(sub)
    assert not basis(S4, 0).is_bi_invariant(sub)
    assert (p * F(1, 2)).is_bi_invariant(sub)
    assert not (p + basis(S4, 0)).is_bi_invariant(sub)
