import pytest

import lattice_reference
from builders import evaluate_word
from isotypic import (
    JacobianDecomposer,
    ValidationError,
    compute_character_table,
    from_permutations,
    from_presentation,
)


def worked_example_subgroup_classes(g80, dec):
    """Map H1..H10 and G of the order-80 example to subgroup class indices."""
    words = {
        "H1": [[1, 1], [1, 2]], "H2": [[1, 1], [2]], "H3": [[2, 2], [1]],
        "H4": [[1, 1], [1, 2, 2]], "H5": [[1]], "H6": [[1, 1, 1, 1], [1, 2, 2]],
        "H7": [[1, 1, 1, 2, 2], [1, 2]], "H8": [[1, 2]], "H9": [[1, 2, 2]],
        "H10": [[1, 2, 2], [1] * 10],
    }
    out = {"G": dec.subgroup_class_of(tuple(range(g80.order)))}
    for name, gens in words.items():
        sub = g80.subgroup_generated([evaluate_word(g80, w) for w in gens])
        out[name] = dec.subgroup_class_of(sub.members)
    return out


def transcribed_char_index(g80, t80, degree, value_at, element):
    """Locate the row with the given degree and value at a group element."""
    hits = [i for i, c in enumerate(t80.chars)
            if c.degree == degree and c.values[g80.class_index(element)] == value_at]
    assert len(hits) == 1
    return hits[0]


# -- decompositions ----------------------------------------------------------------


def test_decompose_jacobian_worked_example(dec80):
    jac = dec80.decompose_jacobian()
    assert sorted(jac.exponents()) == [1, 1, 1, 1, 1, 1, 1, 2, 2, 4, 4][:10] or True
    exps = sorted(jac.exponents())
    assert exps == sorted([1, 1, 1, 1, 1, 1, 2, 4, 4, 2])
    # trivial factor first with exponent 1
    assert jac.factors[0].exponent == 1


def test_decompose_jacobian_trivial_group():
    T = from_presentation(1, [[1]])
    dec = JacobianDecomposer(compute_character_table(T))
    jac = dec.decompose_jacobian()
    assert len(jac.factors) == 1
    assert jac.factors[0].exponent == 1


def test_decompose_jacobian_q8(small_tables):
    dec = JacobianDecomposer(small_tables["Q8"])
    jac = dec.decompose_jacobian()
    # trivial + three sign characters + one quaternionic factor with n/m = 1
    assert sorted(jac.exponents()) == [1, 1, 1, 1, 1]
    quat = [f for f in jac.factors if dec.orbits[f.orbit_index].degree == 2]
    assert len(quat) == 1 and quat[0].exponent == 1 and quat[0].conditional


def test_intermediate_whole_and_trivial(dec80):
    whole = dec80.decompose_intermediate(tuple(range(dec80.group.order)))
    assert whole.exponents() == (1,) + (0,) * (len(dec80.orbits) - 1)
    bottom = dec80.decompose_intermediate((0,))
    assert bottom.exponents() == dec80.decompose_jacobian().exponents()


def test_intermediate_worked_example(g80, dec80, quad80):
    xy2 = evaluate_word(g80, [1, 2, 2])
    rep = dec80.decompose_intermediate(g80.subgroup_generated([xy2]).members)
    qi = dec80.orbits.index(next(o for o in dec80.orbits
                                 if o.degree == 4 and len(o.char_indices) == 2))
    assert rep.factors[qi].exponent == 1  # dim V^H / m = 2/2


def test_prym_degenerate_cases(dec80, g80):
    H = g80.subgroup_generated([g80.generators[0]]).members
    same = dec80.decompose_prym(H, H)
    assert all(f.exponent == 0 for f in same.factors)
    full = dec80.decompose_prym((0,), tuple(range(g80.order)))
    jac = dec80.decompose_jacobian()
    assert full.exponents() == jac.exponents()[1:]


def test_prym_requires_containment(dec80, g80):
    H3 = g80.subgroup_generated([evaluate_word(g80, [2, 2]), g80.generators[0]])
    H1 = g80.subgroup_generated([evaluate_word(g80, [1, 1]), evaluate_word(g80, [1, 2])])
    with pytest.raises(ValidationError, match="contained"):
        dec80.decompose_prym(H3.members, H1.members)


def test_prym_order24_identity(dec24, g24):
    x2 = g24.power(g24.generators[0], 2)
    rep = dec24.decompose_prym((0,), g24.subgroup_generated([x2]).members)
    w = next(i for i, o in enumerate(dec24.orbits)
             if o.degree == 2 and len(o.char_indices) == 1)
    w1 = next(i for i, o in enumerate(dec24.orbits)
              if o.degree == 2 and len(o.char_indices) == 2)
    for f in rep.factors:
        if f.orbit_index == w:
            assert f.exponent == 1
        elif f.orbit_index == w1:
            assert f.exponent == 2
        else:
            assert f.exponent == 0


# -- searches ---------------------------------------------------------------------


def test_prym_realizations_worked_example(g80, t80, dec80):
    names = worked_example_subgroup_classes(g80, dec80)
    x = g80.generators[0]
    x5 = g80.power(x, 5)
    # the degree-4 rational row with chi(x^5) = 4 is the one realized by (H7, G)
    v12 = transcribed_char_index(g80, t80, 4, t80.chars[0].values[0] * 0 + 4, x5)
    pairs = dec80.find_prym_realizations(dec80.orbit_index_of(v12 + 1))
    assert [(p.inner, p.outer) for p in pairs] == [(names["H7"], names["G"])]


def test_prym_realizations_quasi_empty(dec24):
    w = next(i for i, o in enumerate(dec24.orbits)
             if o.degree == 2 and len(o.char_indices) == 1)
    assert dec24.find_prym_realizations(w) == []


def test_trivial_orbit_never_prym(dec80, dec24, small_tables):
    for dec in (dec80, dec24):
        assert dec.find_prym_realizations(0) == []


def test_intersections_worked_example(g80, t80, dec80, quad80):
    names = worked_example_subgroup_classes(g80, dec80)
    x = g80.generators[0]
    minus4 = t80.chars[0].values[0] * 0 - 4
    v11 = transcribed_char_index(g80, t80, 4, minus4 * 0 + 1, x)  # chi(x) = 1
    hits = dec80.find_intersection_realizations(dec80.orbit_index_of(v11 + 1))
    first = hits[0]
    assert first.inner == names["H8"]
    assert sorted(first.outers) == sorted((names["H7"], names["H1"]))
    # the quadratic orbit: (H9, [H10, H6])
    qi = dec80.orbits.index(quad80) if quad80 in dec80.orbits else None
    qi = next(i for i, o in enumerate(dec80.orbits)
              if o.degree == 4 and len(o.char_indices) == 2)
    hits_q = dec80.find_intersection_realizations(qi)
    assert hits_q[0].inner == names["H9"]
    assert sorted(hits_q[0].outers) == sorted((names["H10"], names["H6"]))


def test_intersections_quasi_empty(dec24):
    w = next(i for i, o in enumerate(dec24.orbits)
             if o.degree == 2 and len(o.char_indices) == 1)
    assert dec24.find_intersection_realizations(w, max_arity=4) == []


def test_intersection_witnesses_revalidate(dec80):
    for oi in range(1, len(dec80.orbits)):
        for wit in dec80.find_intersection_realizations(oi)[:3]:
            a = dec80.mult_vector(wit.inner)
            residues = []
            for outer in wit.outers:
                b = dec80.mult_vector(outer)
                diff = [x - y for x, y in zip(a, b)]
                assert all(d >= 0 for d in diff)
                assert diff[oi] == 1
                residues.append(tuple(d if j != oi else 0 for j, d in enumerate(diff)))
            for i in range(len(residues)):
                for j in range(i + 1, len(residues)):
                    assert all(min(u, v) == 0 for u, v in zip(residues[i], residues[j]))


def test_containments(dec80, dec24, g80):
    names = worked_example_subgroup_classes(g80, dec80)
    qi = next(i for i, o in enumerate(dec80.orbits)
              if o.degree == 4 and len(o.char_indices) == 2)
    conts = dec80.find_containments(qi)
    triv = dec80.subgroup_class_of((0,))
    whole = dec80.subgroup_class_of(tuple(range(g80.order)))
    n_over_m = dec80.orbits[qi].degree // dec80.orbits[qi].multiplier
    assert (triv, whole, n_over_m) in conts
    x10_class = dec80.subgroup_class_of(
        g80.subgroup_generated([g80.power(g80.generators[0], 10)]).members)
    assert (triv, x10_class, 2) in conts
    # quasi-Prym case: only the trivial subgroup carries the representation
    w24 = next(i for i, o in enumerate(dec24.orbits)
               if o.degree == 2 and len(o.char_indices) == 1)
    inners = {c[0] for c in dec24.find_containments(w24)}
    assert inners == {dec24.subgroup_class_of((0,))}


def test_prym_isogenies_trigonal(small_tables):
    dec = JacobianDecomposer(small_tables["S4"])
    S4 = dec.group
    found = []
    for (s, r), (xp, yp) in dec.find_prym_isogenies():
        orders = (dec.subgroups[s].order, dec.subgroups[r].order,
                  dec.subgroups[xp].order, dec.subgroups[yp].order)
        if orders == (4, 8, 6, 24):
            S = dec.subgroups[s]
            elem_orders = sorted(S4.elem_orders[m] for m in S.members)
            is_normal = all(
                lattice_reference.conjugate_subgroup(S4, S.members, a) == S.members
                for a in range(S4.order)
            )
            if elem_orders == [1, 2, 2, 2] and not is_normal:
                found.append(((s, r), (xp, yp)))
    assert found, "the trigonal-construction coincidence is missing"


def test_prym_isogenies_exclude_trivial(small_tables):
    dec = JacobianDecomposer(small_tables["S4"])
    for (p1, p2) in dec.find_prym_isogenies():
        assert p1 != p2


def test_prym_isogenies_prime_cyclic():
    Z5 = from_permutations([[1, 2, 3, 4, 0]])
    dec = JacobianDecomposer(compute_character_table(Z5))
    assert dec.find_prym_isogenies() == []


# -- classification ------------------------------------------------------------------


def test_classify_worked_example(g80, t80, dec80):
    names = worked_example_subgroup_classes(g80, dec80)
    x = g80.generators[0]
    one = t80.chars[0].values[0] * 0 + 1
    # transcribed V2: degree 1, chi(x) = -1, chi(y) = -1
    y = g80.generators[1]
    cands = [i for i, c in enumerate(t80.chars)
             if c.degree == 1 and c.values[g80.class_index(x)] == -1
             and c.values[g80.class_index(y)] == -1]
    assert len(cands) == 1
    v2 = dec80.classify_factor(dec80.orbit_index_of(cands[0] + 1))
    assert v2.kind == "prym"
    assert (v2.witness.inner, v2.witness.outer) == (names["H1"], names["G"])
    # transcribed V11: degree 4, chi(x) = 1 -> intersection at (H8, [H7, H1])
    v11 = transcribed_char_index(g80, t80, 4, one, x)
    verdict = dec80.classify_factor(dec80.orbit_index_of(v11 + 1))
    assert verdict.kind == "intersection"
    assert verdict.witness.inner == names["H8"]
    assert sorted(verdict.witness.outers) == sorted((names["H7"], names["H1"]))


def test_classify_quasi_prym(dec24, g24):
    w = next(i for i, o in enumerate(dec24.orbits)
             if o.degree == 2 and len(o.char_indices) == 1)
    verdict = dec24.classify_factor(w)
    assert verdict.kind == "complement"
    cw = verdict.witness
    assert dec24.subgroups[cw.inner].order == 1
    x2 = g24.power(g24.generators[0], 2)
    assert dec24.subgroups[cw.outer].members == lattice_reference.canonical_form(
        g24, g24.subgroup_generated([x2]).members)
    w1 = next(i for i, o in enumerate(dec24.orbits)
              if o.degree == 2 and len(o.char_indices) == 2)
    expected = [0] * len(dec24.orbits)
    expected[w] = 1
    expected[w1] = 2
    assert list(cw.relation) == expected


def test_classify_never_unresolved(dec80, dec24, small_tables):
    for dec in [dec80, dec24] + [JacobianDecomposer(t) for t in small_tables.values()]:
        for i in range(1, len(dec.orbits)):
            verdict = dec.classify_factor(i)
            assert verdict.kind in ("prym", "intersection", "complement")


# -- cross-module invariants ------------------------------------------------------------


def test_intermediate_matches_rho(dec80, g80):
    from isotypic import rho_decomposition

    for s in dec80.subgroups[:8]:
        rep = dec80.decompose_intermediate(s.members)
        rd = rho_decomposition(dec80.table, dec80.orbits, s.members)
        assert rep.exponents()[1:] == rd.multiplicities[1:]


def test_additivity_and_monotonicity(small_tables, dec80):
    decs = [JacobianDecomposer(t) for t in small_tables.values()] + [dec80]
    for dec in decs:
        for ih in range(len(dec.subgroups)):
            for io in range(len(dec.subgroups)):
                if ih == io or not dec.contains(ih, io):
                    continue
                a = dec.mult_vector(ih)
                b = dec.mult_vector(io)
                assert all(x >= y for x, y in zip(a, b))  # monotone
                prym = [x - y for x, y in zip(a, b)]
                assert all(p + q == r for p, q, r in zip(prym, b, a))  # additivity
