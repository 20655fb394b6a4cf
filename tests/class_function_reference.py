"""Reference class-function code: one evaluation per group element.

These are ``central_idempotent``, ``rational_central_idempotent``,
``central_idempotent_over_field``, ``fixed_dim`` and the ``MatrixRep``
matrix construction as they stood before class functions were evaluated
once per conjugacy class.  Matrices are built along the group's BFS words
and every (element, generator) pair is checked afterwards; character values
are embedded into L once per element.  ``test_class_functions.py`` uses
them as oracles.
"""

from fractions import Fraction as Rat

from algebra_reference import reference_mat_mul
from builders import evaluate_word
from character_table_reference import trace_to_rational
from isotypic.cyclotomic import CycValue
from isotypic.errors import InvariantError, ValidationError
from isotypic.groupalgebra import (
    RATIONALS,
    AlgebraElement,
    CyclotomicDomain,
    FieldDomain,
)
from isotypic.numberfield import NumFieldValue


def reference_central_idempotent(table, char_index):
    group = table.group
    char = table.chars[char_index]
    dom = CyclotomicDomain(table.level)
    scale = Rat(char.degree, group.order)
    coeffs = {}
    for g in range(group.order):
        v = char.values[group.class_index(group.inv(g))]
        coeffs[g] = v * scale
    return AlgebraElement(group, dom, coeffs)


def reference_rational_central_idempotent(table, orbit):
    group = table.group
    char = table.chars[orbit.char_indices[0]]
    scale = Rat(char.degree, group.order)
    coeffs = {}
    for g in range(group.order):
        v = char.values[group.class_index(group.inv(g))]
        coeffs[g] = trace_to_rational(v, orbit.stabilizer) * scale
    return AlgebraElement(group, RATIONALS, coeffs)


def reference_central_idempotent_over_field(rep):
    group = rep.group
    char = rep.table.chars[rep.char_index]
    dom = FieldDomain(rep.field)
    scale = Rat(rep.degree, group.order)
    coeffs = {}
    for g in range(group.order):
        v = rep.embedding.embed(char.values[group.class_index(group.inv(g))])
        coeffs[g] = v * scale
    return AlgebraElement(group, dom, coeffs)


def reference_fixed_dim(table, char, members):
    group = table.group
    total = CycValue.zero(table.level)
    for h in members:
        total = total + char.values[group.class_index(h)]
    total = total * Rat(1, len(members))
    if not total.is_rational():
        raise InvariantError("invalid character/subgroup data: fixed dimension not rational")
    q = total.as_rational()
    if q.denominator != 1 or q < 0:
        raise InvariantError(
            f"invalid character/subgroup data: fixed dimension {q} not a non-negative integer"
        )
    return int(q)


def reference_matrices(group, nf, gen_matrices, char, embedding):
    """Matrices of every element, with the multiplicativity and trace checks."""
    n = char.degree
    gens = tuple(
        tuple(tuple(x if isinstance(x, NumFieldValue) else nf.from_rational(Rat(x))
                    for x in row) for row in m)
        for m in gen_matrices
    )
    ident = tuple(
        tuple(nf.one() if i == j else nf.zero() for j in range(n)) for i in range(n)
    )
    matrices = [None] * group.order
    matrices[0] = ident
    order_of = sorted(range(group.order), key=lambda g: len(group.labels[g]))
    for g in order_of:
        if matrices[g] is not None:
            continue
        word = group.labels[g]
        prev = evaluate_word(group, [w + 1 for w in word[:-1]])
        if matrices[prev] is None:
            raise InvariantError("group words are not prefix closed")
        matrices[g] = reference_mat_mul(matrices[prev], gens[word[-1]])

    for a in range(group.order):
        for gi, gelem in enumerate(group.generators):
            prod = reference_mat_mul(matrices[a], gens[gi])
            if prod != matrices[group.mul(a, gelem)]:
                raise ValidationError(
                    f"representation inconsistent with character: "
                    f"multiplicativity fails at element {a}, generator {gi}"
                )

    for g in range(group.order):
        tr = nf.zero()
        for i in range(n):
            tr = tr + matrices[g][i][i]
        want = embedding.embed(char.values[group.class_index(g)])
        if tr != want:
            raise ValidationError(
                f"representation inconsistent with character: trace mismatch at element {g}"
            )
    return tuple(matrices)
