import itertools
import random

import pytest

from builders import evaluate_word
from isotypic import (
    BoundExceededError,
    FiniteGroup,
    ValidationError,
    from_cayley_table,
    from_permutations,
    from_presentation,
)
import lattice_reference
from group_table_reference import ReferenceFiniteGroup

# latin square with identity and self-inverse elements, but not associative
_LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

def test_presentation_order80(g80):
    assert g80.order == 80
    assert len(g80.conjugacy_classes()) == 14
    assert g80.exponent == 40


def test_presentation_trivial():
    T = from_presentation(1, [[1]])
    assert T.order == 1
    assert len(T.rational_fusion_classes()) == 1


def test_presentation_order24(g24):
    assert g24.order == 24
    x, y = g24.generators[0], g24.generators[1]
    sub = g24.subgroup_generated([x, y])
    assert sub.order == 8
    assert g24.power(x, 2) == g24.power(y, 2)


def test_presentation_infinite_rejected():
    with pytest.raises(BoundExceededError, match="too large or infinite"):
        from_presentation(1, [])
    with pytest.raises(BoundExceededError, match="too large or infinite"):
        from_presentation(2, [[1, 2, -1, -2]], bound=40)  # Z x Z


def test_permutation_groups():
    S3 = from_permutations([[1, 0, 2], [1, 2, 0]])
    assert S3.order == 6
    Z4 = from_permutations([[1, 2, 3, 0]])
    assert Z4.order == 4
    S4 = from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    assert S4.order == 24
    assert len(S4.conjugacy_classes()) == 5


def test_permutation_validation():
    with pytest.raises(ValidationError, match="bijection"):
        from_permutations([[0, 0, 1]])


def test_cayley_table_valid():
    Z2 = from_cayley_table([[0, 1], [1, 0]])
    assert Z2.order == 2
    assert Z2.inv(1) == 1


def test_cayley_table_broken_associativity():
    with pytest.raises(ValidationError, match="associativity fails at"):
        from_cayley_table(_LOOP5)


def _reduced_latin_squares(n):
    """Every n x n latin square whose first row and column are 0, 1, ..., n-1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [list(r) for r in rows]
            return
        i, j = cells[k]
        for x in range(n):
            if x not in rows[i] and all(rows[r][j] != x for r in range(n)):
                rows[i][j] = x
                yield from fill(k + 1)
                rows[i][j] = None

    return list(fill(0))


def _is_group_table(table):
    n = len(table)
    inverses = all(any(table[a][b] == 0 == table[b][a] for b in range(n)) for a in range(n))
    return inverses and all(table[table[a][b]][c] == table[a][table[b][c]]
                            for a in range(n) for b in range(n) for c in range(n))


def test_cayley_tables_accepted_exactly_when_groups():
    squares = _reduced_latin_squares(5)
    assert len(squares) == 56
    accepted = 0
    for table in squares:
        if _is_group_table(table):
            assert from_cayley_table(table)._mul == tuple(map(tuple, table))
            accepted += 1
        else:
            with pytest.raises(ValidationError, match="not a group table"):
                from_cayley_table(table)
    assert accepted == 6  # the labellings of C5: 4! / |Aut(C5)|


def test_tables_that_are_not_latin_end_in_a_verdict():
    # the closure of the generators on such a table once looped forever
    with pytest.raises(ValidationError, match="associativity fails"):
        from_cayley_table([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    tables = []
    for cells in itertools.product(range(3), repeat=4):
        tables.append([[0, 1, 2], [1, *cells[:2]], [2, *cells[2:]]])
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(4, 7)
        table = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
        for i in range(1, n):
            for j in range(i + 1, n):
                table[i][j] = table[j][i] = rng.randrange(1, n)
        tables.append(table)
    accepted = 0
    for table in tables:
        if _is_group_table(table):
            from_cayley_table(table)
            accepted += 1
        else:
            with pytest.raises(ValidationError, match="not a group table"):
                from_cayley_table(table)
    assert accepted >= 1


def _verdict(build, table, generators):
    """The message of the ValidationError that build raises, or the
    inverses and generators of the group it certifies."""
    try:
        group = build(table, generators=generators)
    except ValidationError as err:
        return str(err)
    return group._inv, group.generators


def _intercalate_swapped(table, rng):
    """The table with one 2 x 2 latin subsquare away from the identity
    row and column flipped: a latin square again, and rarely a group."""
    n = len(table)
    quads = [(i, k, j, m) for i in range(1, n) for k in range(i + 1, n)
             for j in range(1, n) for m in range(j + 1, n)
             if table[i][j] == table[k][m] and table[i][m] == table[k][j]]
    i, k, j, m = rng.choice(quads)
    out = [list(row) for row in table]
    out[i][j], out[i][m] = out[i][m], out[i][j]
    out[k][j], out[k][m] = out[k][m], out[k][j]
    return out


def _random_generators(rng, n):
    return None if rng.random() < 0.5 else tuple(rng.sample(range(n), rng.randint(0, 2)))


def test_certification_matches_the_per_entry_reference():
    """Every verdict and message of FiniteGroup, the (a,g,b) triple of a
    failed Light's test included, equals that of the per-entry reference."""
    rng = random.Random(20)
    cases = [([[0]], gens) for gens in (None, (), (0,))]
    # every table of order 2 with 0 as identity or not
    cases += [([[0, x], [y, z]], gens) for x, y, z in itertools.product(range(2), repeat=3)
              for gens in (None, (), (0,), (1,), (1, 0))]
    # the reduced latin squares of order 5: 50 of the 56 are not groups
    cases += [(table, None) for table in _reduced_latin_squares(5)]
    groups = [from_permutations(p)._mul for p in (
        [[1, 2, 0], [1, 0, 2]],                        # S3
        [[1, 2, 3, 0], [3, 2, 1, 0]],                  # D8
        [[1, 0, 3, 2, 5, 4, 7, 6], [2, 3, 0, 1, 6, 7, 4, 5], [4, 5, 6, 7, 0, 1, 2, 3]],  # C2^3
    )]
    for _ in range(120):
        table = _intercalate_swapped(rng.choice(groups), rng)
        cases.append((table, _random_generators(rng, len(table))))
    # tables with an identity but not latin: missing and one-sided inverses
    for _ in range(300):
        n = rng.randint(3, 6)
        table = [list(range(n))] + [[i] + [rng.randrange(n) for _ in range(n - 1)]
                                    for i in range(1, n)]
        cases.append((table, _random_generators(rng, n)))
    verdicts = []
    for table, generators in cases:
        got = _verdict(FiniteGroup, table, generators)
        assert got == _verdict(ReferenceFiniteGroup, table, generators), (table, generators)
        verdicts.append(got if isinstance(got, str) else "a group")
    for kind in ("a group", "is not a two-sided identity", "has no inverse",
                 "right but not left inverse", "generators reach", "associativity fails at"):
        assert any(kind in v for v in verdicts), kind


@pytest.mark.parametrize("generators", [(), (1,), (4,)])
def test_generators_must_generate_the_table(generators):
    # Light's test over these generators passes or is vacuous; the table is no group
    with pytest.raises(ValidationError, match="generators reach"):
        FiniteGroup(_LOOP5, generators=generators)
    c4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    with pytest.raises(ValidationError, match="generators reach 2 of 4 elements"):
        FiniteGroup(c4, generators=(2,))
    assert FiniteGroup(c4, generators=(3,)).generators == (3,)


def test_cayley_table_missing_identity():
    with pytest.raises(ValidationError, match="identity"):
        from_cayley_table([[1, 0], [0, 1]])


@pytest.mark.parametrize("build,named", [
    # 1.9 and 1.2 were truncated to 1: the table was accepted as C2
    (lambda: from_cayley_table([[0, 1.9], [1.2, 0]]), "entry 1.9 is not an integer"),
    (lambda: from_cayley_table([[0, True], [1, 0]]), "entry True is not an integer"),
    (lambda: from_cayley_table([[0, 1], [1, "0"]]), "entry '0' is not an integer"),
    (lambda: from_cayley_table([[0, 1], [1, -1]]), "entry -1 out of range"),
    # floats equal to ints passed the bijection check and then met tuple indexing
    (lambda: from_permutations([[1.0, 0.0]]), r"not \(1.0, 0.0\)"),
    (lambda: from_permutations([[0, 1], [False, True]]), r"not \(False, True\)"),
    (lambda: from_presentation(2.0, [[1, 1]]), "generator count 2.0"),
    (lambda: from_presentation(1, [[1, 1]], bound=10.0), "bound 10.0"),
    (lambda: FiniteGroup([[0, 1], [1, 0]], generators=[1.0]), "generator 1.0 is not"),
    (lambda: FiniteGroup([[0, 1], [1, 0]], generators=[2]), "generator 2 is not"),
    (lambda: FiniteGroup([[0, 1], [1, 0]], generators=[-1]), "generator -1 is not"),
])
def test_group_entries_must_be_integers(build, named):
    with pytest.raises(ValidationError, match=named):
        build()


def test_cayley_round_trip(g80):
    again = from_cayley_table(g80.export()["cayley"])
    assert again.order == g80.order
    assert again._mul == g80._mul
    assert again.elem_orders == g80.elem_orders


def test_conjugacy_classes_s4():
    S4 = from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    sizes = sorted(len(c.members) for c in S4.conjugacy_classes())
    assert sizes == [1, 3, 6, 6, 8]


def test_conjugacy_abelian_singletons():
    Z6 = from_permutations([[1, 2, 3, 4, 5, 0]])
    assert all(len(c.members) == 1 for c in Z6.conjugacy_classes())


def test_class_partition_invariants(small_groups):
    for group in small_groups.values():
        classes = group.conjugacy_classes()
        members = sorted(m for c in classes for m in c.members)
        assert members == list(range(group.order))
        for c in classes:
            assert c.representative == c.members[0]
            assert group.order % len(c.members) == 0


def test_subgroup_classes_q8(small_groups):
    sc = small_groups["Q8"].subgroup_classes()
    assert len(sc) == 6
    assert sorted(s.order for s in sc) == [1, 2, 4, 4, 4, 8]


def test_subgroup_classes_trivial():
    T = from_presentation(1, [[1]])
    assert [s.members for s in T.subgroup_classes()] == [(0,)]


def test_subgroup_classes_contain_worked_example_list(g80):
    words = [
        [[1, 1], [1, 2]], [[1, 1], [2]], [[2, 2], [1]], [[1, 1], [1, 2, 2]],
        [[1]], [[1, 1, 1, 1], [1, 2, 2]], [[1, 1, 1, 2, 2], [1, 2]], [[1, 2]],
        [[1, 2, 2]], [[1, 2, 2], [1] * 10],
    ]
    classes = g80.subgroup_classes()
    for gens in words:
        sub = g80.subgroup_generated([evaluate_word(g80, w) for w in gens])
        found = classes[g80.find_class_of_subgroup(sub.members)]
        assert found.members == lattice_reference.canonical_form(g80, sub.members)


def test_subgroup_classes_closed_under_conjugation(small_groups):
    for group in small_groups.values():
        classes = group.subgroup_classes()
        for i, s in enumerate(classes):
            for a in range(group.order):
                conj = lattice_reference.conjugate_subgroup(group, s.members, a)
                assert group.find_class_of_subgroup(conj) == i


def test_lattice_bound():
    S4 = from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    with pytest.raises(BoundExceededError):
        S4.subgroup_classes(bound=10)


def test_subgroup_generated(g80):
    x = g80.generators[0]
    y = g80.generators[1]
    x10 = g80.power(x, 10)
    central = g80.subgroup_generated([x10])
    assert central.order == 2
    assert all(g80.mul(x10, a) == g80.mul(a, x10) for a in range(g80.order))
    H = g80.subgroup_generated([x])
    assert g80.subgroup_generated(H.members + H.members).members == H.members
    assert g80.subgroup_generated([x, y]).order == 80


def test_lagrange_for_all_subgroup_classes(small_groups):
    for group in small_groups.values():
        for s in group.subgroup_classes():
            assert group.order % s.order == 0
            members = set(s.members)
            assert 0 in members
            for a in s.members:
                assert group.inv(a) in members
                for b in s.members:
                    assert group.mul(a, b) in members


def test_exponent_divides_order(small_groups, g80, g24):
    for group in list(small_groups.values()) + [g80, g24]:
        assert group.order % group.exponent == 0
        assert group.elem_orders[0] == 1


def test_fusion_classes():
    Z5 = from_permutations([[1, 2, 3, 4, 0]])
    assert len(Z5.rational_fusion_classes()) == 2
    S4 = from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    assert len(S4.rational_fusion_classes()) == len(S4.conjugacy_classes()) == 5


def test_fusion_partition(small_groups):
    for group in small_groups.values():
        fused = group.rational_fusion_classes()
        members = sorted(m for c in fused for m in c)
        assert members == list(range(group.order))


def test_exhaustive_associativity_order80(g80):
    mul, n = g80._mul, g80.order
    for a in range(n):
        row_a = mul[a]
        for b in range(n):
            row_ab = mul[row_a[b]]
            row_b = mul[b]
            for c in range(n):
                assert row_ab[c] == row_a[row_b[c]], (a, b, c)


def test_labels_and_words(g24):
    assert g24.label_of(0) == "1"
    x = g24.generators[0]
    assert g24.label_of(x) == "x"
    assert evaluate_word(g24, [1, 1]) == g24.power(x, 2)
    assert evaluate_word(g24, [-1, 1]) == 0


def test_sl23_equals_order24(small_groups, g24):
    assert small_groups["SL23"].order == g24.order == 24
