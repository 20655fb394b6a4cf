import itertools
import random
from fractions import Fraction as F

import pytest

import worked_examples as we
from algebra_reference import row_echelon
from builders import basis, evaluate_word, left_translates, root_of_unity
from isotypic import (
    AlgebraElement,
    FieldDomain,
    MatrixRep,
    NumField,
    RATIONAL_FIELD,
    RATIONALS,
    ValidationError,
    assert_schur,
    averaging_idempotent,
    central_idempotent,
    central_idempotent_over_field,
    construct_primitive_system,
    diagonal_idempotent,
    diagonal_idempotents,
    galois_orbits,
    ideal_dim,
    invariant_idempotent,
    orbit_module_check,
    rational_central_idempotent,
    symmetrize_to_rational,
    symmetrize_to_subfield,
    system_grid_checks,
    validate_schur_from_rep,
)
from isotypic import groupalgebra as ga
from isotypic.linalg import Echelon
from test_class_functions import q8_rep


def s3_standard_rep(small_groups, small_tables):
    S3 = small_groups["S3"]
    t = small_tables["S3"]
    std = next(i for i, c in enumerate(t.chars) if c.degree == 2)
    return MatrixRep(
        S3, RATIONAL_FIELD,
        [[[-1, 1], [0, 1]], [[0, -1], [1, -1]]],
        t, std,
    )


# -- arithmetic ---------------------------------------------------------------


def test_averaging_is_idempotent(small_groups):
    for group in small_groups.values():
        for s in group.subgroup_classes():
            p = averaging_idempotent(group, s.members)
            assert p.is_idempotent()
            for h in s.members:
                b = basis(group, h)
                assert b * p == p and p * b == p


def test_central_involution_halves(small_groups):
    Q8 = small_groups["Q8"]
    z = Q8.power(Q8.generators[0], 2)
    plus = AlgebraElement(Q8, RATIONALS, {0: F(1, 2), z: F(1, 2)})
    minus = AlgebraElement(Q8, RATIONALS, {0: F(1, 2), z: F(-1, 2)})
    assert (plus * minus).is_zero() and (minus * plus).is_zero()


def test_algebra_ring_axioms_randomized(small_groups):
    S4 = small_groups["S4"]
    rng = random.Random(31)

    def rand():
        return AlgebraElement(
            S4, RATIONALS,
            {rng.randrange(24): F(rng.randint(-3, 3)) for _ in range(5)},
        )

    one = AlgebraElement.one(S4)
    for _ in range(10):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert one * a == a * one == a


def test_full_table_multiplicativity_spot_check(rep80, g80):
    rng = random.Random(5)
    from isotypic.groupalgebra import _mat_mul

    for _ in range(20):
        a = rng.randrange(g80.order)
        b = rng.randrange(g80.order)
        assert (_mat_mul(rep80.matrix(a), rep80.matrix(b), rep80.field.zero())
                == rep80.matrix(g80.mul(a, b)))


# -- central idempotents ------------------------------------------------------------


def test_trivial_central_idempotent(small_tables):
    t = small_tables["S3"]
    orbits = galois_orbits(t)
    ev = central_idempotent(t, orbits[0].char_indices[0])
    assert ev.to_domain(RATIONALS) == averaging_idempotent(t.group, range(t.group.order))


def test_q8_central_idempotent(small_tables, small_groups):
    t = small_tables["Q8"]
    Q8 = small_groups["Q8"]
    two = next(i for i, c in enumerate(t.chars) if c.degree == 2)
    z = Q8.power(Q8.generators[0], 2)
    expected = AlgebraElement(Q8, RATIONALS, {0: F(1, 2), z: F(-1, 2)})
    assert central_idempotent(t, two).to_domain(RATIONALS) == expected


def test_rational_central_idempotents_sum_to_one(small_tables):
    for t in small_tables.values():
        orbits = galois_orbits(t)
        total = AlgebraElement.zero(t.group)
        es = [rational_central_idempotent(t, o) for o in orbits]
        for e in es:
            assert e.is_idempotent()
            assert e.is_central()
            total = total + e
        assert total == AlgebraElement.one(t.group)
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                assert es[i].is_orthogonal_to(es[j])


def test_transcribed_central_elements(g80, t80, quad80, g24, t24):
    L = we.order80_field()
    eW = we.order80_element(g80, L, "eW")
    assert eW.to_domain(RATIONALS) == rational_central_idempotent(t80, quad80)
    orbits24 = galois_orbits(t24)
    w = next(o for o in orbits24 if o.degree == 2 and len(o.char_indices) == 1)
    assert we.order24_eW(g24) == rational_central_idempotent(t24, w)


def test_central_idempotents_of_conjugate_rows_annihilate(t80, quad80):
    i, j = quad80.char_indices
    a = central_idempotent(t80, i)
    b = central_idempotent(t80, j)
    assert (a * b).is_zero()
    assert a.is_idempotent() and b.is_idempotent()


# -- subgroup-invariant idempotents -----------------------------------------------------


def test_invariant_idempotent_worked_example(g80, t80, quad80):
    xy2 = evaluate_word(g80, [1, 2, 2])
    members = g80.subgroup_generated([xy2]).members
    f = invariant_idempotent(t80, quad80, members)
    assert f == we.order80_pHeW(g80)
    assert f.is_idempotent()
    # vanishes exactly when the subgroup has no fixed vectors
    x10 = g80.power(g80.generators[0], 10)
    f0 = invariant_idempotent(t80, quad80, g80.subgroup_generated([x10]).members)
    assert f0.is_zero()


def test_invariant_idempotent_ideal_dim_s3(small_tables, small_groups):
    t = small_tables["S3"]
    S3 = small_groups["S3"]
    std = next(o for o in galois_orbits(t) if o.degree == 2)
    members = S3.subgroup_generated([S3.generators[0]]).members
    f = invariant_idempotent(t, std, members)
    assert ideal_dim(f) == 1 * 2 * 1  # dim V^H * n * [K:Q]


def test_invariant_idempotents_sum_to_averaging(small_tables):
    for t in small_tables.values():
        orbits = galois_orbits(t)
        for s in t.group.subgroup_classes():
            total = AlgebraElement.zero(t.group)
            p = averaging_idempotent(t.group, s.members)
            for o in orbits:
                f = invariant_idempotent(t, o, s.members)
                assert (f * f) == f
                total = total + f
            assert total == p


def test_invariant_idempotent_kills_other_blocks(small_tables):
    # f_H annihilates the central idempotents of every other rational irrep
    t = small_tables["SL23"]
    orbits = galois_orbits(t)
    for s in t.group.subgroup_classes():
        for o in orbits:
            f = invariant_idempotent(t, o, s.members)
            if f.is_zero():
                continue
            for other in orbits:
                if other is o:
                    continue
                e_other = rational_central_idempotent(t, other)
                assert (f * e_other).is_zero()


def test_zero_iff_no_fixed_vectors(small_tables):
    from isotypic import fixed_dim

    for t in small_tables.values():
        orbits = galois_orbits(t)
        for s in t.group.subgroup_classes():
            for o in orbits:
                f = invariant_idempotent(t, o, s.members)
                d = fixed_dim(t, t.chars[o.char_indices[0]], s.members)
                assert f.is_zero() == (d == 0)


# -- ideal dimensions ----------------------------------------------------------------


def test_ideal_dim_identity(small_groups):
    S3 = small_groups["S3"]
    assert ideal_dim(AlgebraElement.one(S3)) == 6


def test_ideal_dim_of_block(small_groups, small_tables):
    rep = s3_standard_rep(small_groups, small_tables)
    ev = central_idempotent_over_field(rep)
    assert ideal_dim(ev) == 4  # n^2 over the splitting field


def test_transcribed_ideal_dims(g80):
    L = we.order80_field()
    l1 = we.order80_element(g80, L, "l1")
    assert ideal_dim(l1) == 4
    f1 = we.order80_element(g80, L, "f1").to_domain(RATIONALS)
    assert ideal_dim(f1) == 16  # m * n * [K:Q] = 2*4*2


def test_trace_formula_matches_echelon_rank(small_groups, small_tables, g80, field80):
    S3 = small_groups["S3"]
    t = small_tables["S3"]
    std = next(o for o in galois_orbits(t) if o.degree == 2)
    rep = s3_standard_rep(small_groups, small_tables)
    s3_system = construct_primitive_system(rep, std)
    q8_two = next(i for i, c in enumerate(small_tables["Q8"].chars) if c.degree == 2)
    idempotents = [
        AlgebraElement.one(S3),
        central_idempotent(t, std.char_indices[0]),                # e_V over Q(zeta_3)
        central_idempotent(small_tables["Q8"], q8_two),            # e_V over Q(zeta_4)
        we.order80_element(g80, field80, "l1"),
        we.order80_element(g80, field80, "k1"),
        we.order80_element(g80, field80, "f1"),
        we.order80_element(g80, field80, "f1").to_domain(RATIONALS),
        we.order80_pHeW(g80),                                       # f_H
        invariant_idempotent(t, std, S3.subgroup_generated([S3.generators[0]]).members),
    ] + symmetrize_to_rational(s3_system)                          # the S3 f_s
    for e in idempotents:
        assert e.is_idempotent()
        ech = Echelon(e.domain.zero(), e.domain.one())
        for vec in left_translates(e):
            ech.add(vec)
        assert ga._trace_dim(e) == ech.rank == ideal_dim(e)


def test_ideal_dim_of_non_idempotent_uses_echelon(small_groups, small_tables, monkeypatch):
    calls = []
    real = ga._translate_echelon
    monkeypatch.setattr(ga, "_translate_echelon", lambda a: calls.append(a) or real(a))
    S3 = small_groups["S3"]
    rep = s3_standard_rep(small_groups, small_tables)
    twice_ev = central_idempotent_over_field(rep) * 2
    one_plus_g = AlgebraElement.one(S3) + basis(S3, S3.generators[0])
    assert not twice_ev.is_idempotent() and not one_plus_g.is_idempotent()
    assert ga.ideal_dim(twice_ev) == 4
    assert ga.ideal_dim(one_plus_g) == 3      # (1 + g)/2 projects onto |G|/2 dimensions
    assert calls == [twice_ev, one_plus_g]
    assert ga.ideal_dim(AlgebraElement.zero(S3)) == 0


# -- diagonal idempotents and the primitive system ------------------------------------------


def test_s3_diagonal_idempotents(small_groups, small_tables):
    rep = s3_standard_rep(small_groups, small_tables)
    ells = diagonal_idempotents(rep)
    assert len(ells) == 2
    assert ells[0].is_orthogonal_to(ells[1])
    assert ells[0] + ells[1] == central_idempotent_over_field(rep)
    assert all(ideal_dim(e) == 2 for e in ells)


def test_one_dimensional_rep_gives_central(small_groups, small_tables):
    t = small_tables["S3"]
    S3 = small_groups["S3"]
    sgn = next(i for i, c in enumerate(t.chars)
               if c.degree == 1 and not all(v == 1 for v in c.values))
    rep = MatrixRep(S3, RATIONAL_FIELD, [[[-1]], [[1]]], t, sgn)
    (ell,) = diagonal_idempotents(rep)
    assert ell == central_idempotent_over_field(rep)


def test_wrong_matrices_rejected(small_groups, small_tables):
    t = small_tables["S3"]
    S3 = small_groups["S3"]
    std = next(i for i, c in enumerate(t.chars) if c.degree == 2)
    with pytest.raises(ValidationError, match="inconsistent with character"):
        MatrixRep(S3, RATIONAL_FIELD, [[[1, 0], [0, 1]], [[0, -1], [1, -1]]], t, std)


def test_transcribed_l1_equals_rep_diagonal(g80, rep80, field80):
    l1 = we.order80_element(g80, field80, "l1")
    assert l1 == diagonal_idempotent(rep80, 0)


def test_orbit_module_check_worked_example(rep80):
    ells = diagonal_idempotents(rep80)
    verdict = orbit_module_check(ells[0])
    assert verdict["stabilizer_trivial"] and verdict["direct"]
    assert verdict["dim"] == 8 and verdict["block_dim"] == 4


def test_orbit_module_check_m_one(small_groups, small_tables):
    rep = s3_standard_rep(small_groups, small_tables)
    ells = diagonal_idempotents(rep)
    verdict = orbit_module_check(ells[0])
    assert verdict == {"stabilizer_trivial": True, "direct": True,
                       "dim": 2, "block_dim": 2}


def _orbit_module_reference(element):
    """orbit_module_check with one Echelon pass per Galois translate."""
    fixers = element.domain.field.subfield_fixers
    zero, one = element.domain.zero(), element.domain.one()
    bases = []
    for h in fixers:
        ech = Echelon(zero, one)
        for vec in left_translates(element.apply_galois(h)):
            ech.add(vec)
        bases.append(ech.rows)
    stab_trivial = True
    for rows in bases[1:]:
        ech = Echelon(zero, one)
        for v in bases[0]:
            ech.add(list(v))
        if not any([ech.add(list(v)) for v in rows]):
            stab_trivial = False
    ech = Echelon(zero, one)
    for rows in bases:
        for v in rows:
            ech.add(list(v))
    return bases, {"stabilizer_trivial": stab_trivial,
                   "direct": ech.rank == sum(len(rows) for rows in bases),
                   "dim": ech.rank, "block_dim": len(bases[0])}


def test_orbit_module_check_matches_per_translate_reference(rep80, small_groups, small_tables,
                                                            monkeypatch):
    l1 = diagonal_idempotents(rep80)[0]
    q8_ell = diagonal_idempotents(q8_rep(small_tables["Q8"]))[0]
    for element in (l1, l1.apply_galois(1), q8_ell):
        bases, want = _orbit_module_reference(element)
        # the transported rows are the rows of each translate's own Echelon pass
        transported = [[[element.domain.field.apply_auto(h, c) for c in row] for row in bases[0]]
                       for h in element.domain.field.subfield_fixers]
        assert transported == bases
        passes = []
        real = ga._translate_echelon
        monkeypatch.setattr(ga, "_translate_echelon", lambda a: passes.append(a) or real(a))
        assert orbit_module_check(element) == want
        monkeypatch.undo()
        assert passes == [element]   # one set of |G| translates, whatever m is


def _count_products(monkeypatch):
    calls = []
    real = ga._packed_product
    monkeypatch.setattr(ga, "_packed_product", lambda a, b: calls.append(1) or real(a, b))
    return calls


def test_primitive_path_makes_each_product_once(small_groups, small_tables, monkeypatch,
                                                capsys):
    from isotypic.cli import main

    # order 80, n = 4, m = 2: the 2x2 grid's 16 products and the f suite's 4
    # (2 squares, 1 orthogonal pair both ways); the diagonal suite, a second
    # grid pass and the k suite would add 16, 16 and 4
    calls = _count_products(monkeypatch)
    assert main(["idempotents", "primitive", "--group", "bundled:group_order80.json",
                 "--rep", "bundled:rep_order80.json"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 20
    monkeypatch.undo()

    # Q8, n = m = 2: the 1x2 grid's 4 products and f_1 * f_1, on the same
    # calls as the command line's primitive path
    rep = q8_rep(small_tables["Q8"])
    orbit = next(o for o in galois_orbits(small_tables["Q8"]) if o.degree == 2)
    calls = _count_products(monkeypatch)
    orbit = assert_schur(orbit, validate_schur_from_rep(rep, orbit))
    system = construct_primitive_system(rep, orbit)
    symmetrize_to_subfield(system)
    symmetrize_to_rational(system)
    assert all(ok for _, ok in system_grid_checks(system))
    assert len(calls) == 5
    assert diagonal_idempotents(rep) == list(system.ells)
    assert system.e_central == central_idempotent_over_field(rep)


def _idempotent_suite(elems, target, want_dim):
    """The product checks that Schur orthogonality and the grid relations
    prove: orthogonal idempotents summing to target, of ideal dimension want_dim."""
    assert all(e.is_idempotent() for e in elems)
    for e, f in itertools.combinations(elems, 2):
        assert e.is_orthogonal_to(f)
    assert sum(elems[1:], elems[0]) == target
    assert all(ga._trace_dim(e) == want_dim for e in elems)


def _primitive_cases(small_groups, small_tables, rep80, quad80):
    q8_orbit = next(o for o in galois_orbits(small_tables["Q8"]) if o.degree == 2)
    s3_orbit = next(o for o in galois_orbits(small_tables["S3"]) if o.degree == 2)
    return [(s3_standard_rep(small_groups, small_tables), assert_schur(s3_orbit, 1)),
            (q8_rep(small_tables["Q8"]), assert_schur(q8_orbit, 2)),
            (rep80, assert_schur(quad80, 2))]


def test_diagonal_idempotents_satisfy_the_suite_schur_proves(small_groups, small_tables,
                                                               rep80, quad80):
    for rep, _ in _primitive_cases(small_groups, small_tables, rep80, quad80):
        _idempotent_suite(diagonal_idempotents(rep), central_idempotent_over_field(rep),
                          rep.degree)


def test_k_elements_satisfy_the_suite_the_grid_proves(small_groups, small_tables,
                                                       rep80, quad80):
    for rep, orbit in _primitive_cases(small_groups, small_tables, rep80, quad80):
        system = construct_primitive_system(rep, orbit)
        _idempotent_suite(symmetrize_to_subfield(system), system.e_central,
                          system.schur_m * rep.degree)


def test_hash_agrees_with_equality_across_domains(small_groups):
    S3 = small_groups["S3"]
    one_q, one_cyc = AlgebraElement.one(S3), AlgebraElement.one(S3, ga.CyclotomicDomain(4))
    assert one_q == one_cyc and hash(one_q) == hash(one_cyc)
    assert len({one_q, one_cyc}) == 1
    assert len({one_q, basis(S3, S3.generators[0])}) == 2


def test_zero_element_hashes_as_the_int_it_equals(small_groups):
    S3 = small_groups["S3"]
    zero_q, zero_cyc = AlgebraElement.zero(S3), AlgebraElement.zero(S3, ga.CyclotomicDomain(4))
    assert zero_q == 0 and hash(zero_q) == hash(0)
    assert len({zero_q, 0}) == 1
    assert zero_q == zero_cyc and hash(zero_q) == hash(zero_cyc)
    assert len({zero_q, zero_cyc, 0}) == 1


def test_galois_translate_generates_same_module(rep80, field80):
    # tau(l1) generates a different minimal ideal inside the same M
    ells = diagonal_idempotents(rep80)
    l1 = ells[0]
    tau_l1 = l1.apply_galois(1)
    assert orbit_module_check(tau_l1)["dim"] == orbit_module_check(l1)["dim"]


def _unit_vectors(rep, j):
    """Dense vectors of E_1j..E_nj times |G|/n, from the entries the library reads."""
    entries = ga._unit_entries(rep, j)
    return [[entries(g)[i] for g in range(rep.group.order)] for i in range(rep.degree)]


def _unit_elements(rep, j):
    scale = F(rep.degree, rep.group.order)
    return [AlgebraElement(rep.group, FieldDomain(rep.field), dict(enumerate(vec))) * scale
            for vec in _unit_vectors(rep, j)]


def test_matrix_units_multiply_as_matrix_units(small_groups, small_tables):
    for rep in (s3_standard_rep(small_groups, small_tables), q8_rep(small_tables["Q8"])):
        n = rep.degree
        # units[j][i] = E_ij
        units = [_unit_elements(rep, j) for j in range(n)]
        zero = AlgebraElement.zero(rep.group, FieldDomain(rep.field))
        for i, j, k, l in itertools.product(range(n), repeat=4):
            want = units[l][i] if j == k else zero
            assert units[j][i] * units[l][k] == want
        for j in range(n):
            assert units[j][j] == diagonal_idempotent(rep, j)


def test_matrix_unit_column_spans_the_ideal_of_ell(rep80, small_groups, small_tables):
    reps = (rep80, q8_rep(small_tables["Q8"]), s3_standard_rep(small_groups, small_tables))
    for rep in reps:
        dom = FieldDomain(rep.field)
        for j, ell in enumerate(diagonal_idempotents(rep)):
            column = _unit_vectors(rep, j)
            translates = row_echelon(dom, left_translates(ell))
            assert row_echelon(dom, column).rank == translates.rank == rep.degree
            assert row_echelon(dom, translates.rows + column).rank == rep.degree  # the union
            verdict = ga._orbit_verdict(rep.field, rep.degree, rep.group.order,
                                        ga._unit_entries(rep, j))
            assert verdict == orbit_module_check(ell)


def test_primitive_pipeline_never_calls_left_translates(g80, t80, field80, quad80,
                                                        small_groups, small_tables,
                                                        monkeypatch):
    def refuse(a, hs):
        raise AssertionError("left translates echelonized")

    monkeypatch.setattr(ga, "_translate_entries", refuse)
    q8 = q8_rep(small_tables["Q8"])
    q8_orbit = next(o for o in galois_orbits(small_tables["Q8"]) if o.degree == 2)
    for rep, orbit in ((q8, q8_orbit), (we.order80_rep(g80, t80, field80), quad80)):
        m = validate_schur_from_rep(rep, orbit)
        assert m == 2
        system = construct_primitive_system(rep, assert_schur(orbit, m))
        assert all(ok for _, ok in system_grid_checks(system))


def test_orbit_module_check_edge_cases(g80, rep80, field80):
    # L[G]e_V is the whole simple block, which tau maps to itself
    assert orbit_module_check(central_idempotent_over_field(rep80)) == {
        "stabilizer_trivial": False, "direct": False, "dim": 16, "block_dim": 16}
    # the zero ideal: the sum is direct, but tau fixes it
    assert orbit_module_check(AlgebraElement.zero(g80, FieldDomain(field80))) == {
        "stabilizer_trivial": False, "direct": True, "dim": 0, "block_dim": 0}


def test_construct_primitive_system_takes_only_the_reps_ells(small_groups, small_tables):
    rep = q8_rep(small_tables["Q8"])
    orbit = assert_schur(next(o for o in galois_orbits(small_tables["Q8"]) if o.degree == 2), 2)
    ells = diagonal_idempotents(rep)
    with pytest.raises(ValidationError, match="not the diagonal idempotents"):
        construct_primitive_system(rep, orbit, ells=ells[::-1])
    system = construct_primitive_system(rep, orbit, ells=ells)
    assert list(system.ells) == ells


def test_s3_primitive_system(small_groups, small_tables):
    rep = s3_standard_rep(small_groups, small_tables)
    orbit = next(o for o in galois_orbits(small_tables["S3"]) if o.degree == 2)
    system = construct_primitive_system(rep, orbit)
    assert system.blocks == 2 and system.schur_m == 1
    assert all(ok for _, ok in system_grid_checks(system))
    ks = symmetrize_to_subfield(system)
    fs = symmetrize_to_rational(system)
    assert len(ks) == len(fs) == 2
    assert all(ideal_dim(f) == 2 for f in fs)
    # m = 1: the k elements are the selected diagonal idempotents themselves
    for k, s in zip(ks, system.selected):
        assert k == system.ells[s]


def test_q8_primitive_system(small_groups, small_tables):
    rep = q8_rep(small_tables["Q8"])
    orbit = next(o for o in galois_orbits(small_tables["Q8"]) if o.degree == 2)
    m = validate_schur_from_rep(rep, orbit)
    assert m == 2
    system = construct_primitive_system(rep, assert_schur(orbit, m))
    assert system.blocks == 1
    ks = symmetrize_to_subfield(system)
    fs = symmetrize_to_rational(system)
    assert ks[0] == system.e_central          # n/m = 1 forces k1 = e_V
    assert fs[0] == system.e_rational
    assert all(ok for _, ok in system_grid_checks(system))


def test_galois_product_rule_for_k_elements(small_groups, small_tables):
    rep = q8_rep(small_tables["Q8"])
    orbit = next(o for o in galois_orbits(small_tables["Q8"]) if o.degree == 2)
    system = construct_primitive_system(rep, assert_schur(orbit, 2))
    ks = symmetrize_to_subfield(system)
    nf = system.nf
    # a transversal of the cosets sigma * Gal(L/K), found through the
    # images of the generator
    image = {tuple(nf.apply_auto(i, nf.gen()).coeffs): i for i in range(len(nf.automorphisms))}
    reps_, seen = [], set()
    for i in range(len(nf.automorphisms)):
        if i not in seen:
            reps_.append(i)
            seen.update(image[tuple(nf.apply_auto(i, nf.apply_auto(f, nf.gen())).coeffs)]
                        for f in nf.subfield_fixers)
    for i, ri in enumerate(reps_):
        for j, rj in enumerate(reps_):
            for s, k_s in enumerate(ks):
                for t, k_t in enumerate(ks):
                    prod = k_s.apply_galois(ri) * k_t.apply_galois(rj)
                    if i == j and s == t:
                        assert prod == k_s.apply_galois(ri)
                    else:
                        assert prod.is_zero()


def test_incompatible_fields_need_embedding(g80, small_groups):
    from isotypic import CycValue
    from isotypic.groupalgebra import CyclotomicDomain

    L = we.order80_field()
    a = we.order80_element(g80, L, "eW")
    z = AlgebraElement(g80, CyclotomicDomain(4), {0: root_of_unity(4)})
    with pytest.raises(ValidationError, match="embedding"):
        a * z


def test_coefficient_coercion_table(g80, field80, rep80):
    from isotypic import CycValue
    from isotypic.groupalgebra import CyclotomicDomain, FieldDomain

    L, E = field80, ValidationError
    other = NumField([-2, 0, 1], [[0, 1], [0, -1]])
    i4, z8 = root_of_unity(4), root_of_unity(8)
    Q, C4, C8, FL = RATIONALS, CyclotomicDomain(4), CyclotomicDomain(8), FieldDomain(L)
    table = [  # scalar, {target domain: expected coefficient or E}
        (F(1, 2), {Q: F(1, 2), C4: F(1, 2), C8: F(1, 2), FL: F(1, 2)}),
        (CycValue.from_rational(3, 4), {Q: F(3), C4: F(3), C8: F(3), FL: E}),
        (i4, {Q: E, C4: i4, C8: i4, FL: E}),
        (z8, {Q: E, C4: E, C8: z8, FL: E}),
        (L.from_rational(5), {Q: F(5), C4: E, C8: E, FL: F(5)}),
        (L.gen(), {Q: E, C4: E, C8: E, FL: L.gen()}),
        (other.from_rational(5), {Q: F(5), C4: E, C8: E, FL: E}),
        (other.gen(), {Q: E, C4: E, C8: E, FL: E}),
        (0.5, {Q: E, C4: E, C8: E, FL: E}),
        ("x", {Q: E, C4: E, C8: E, FL: E}),
    ]

    def source(c):
        if isinstance(c, CycValue):
            return CyclotomicDomain(c.level)
        return FieldDomain(c.field) if hasattr(c, "field") else Q

    def in_domain(v, domain):
        if domain is Q:
            return type(v) is F
        if domain is FL:
            return v.field is L
        return isinstance(v, CycValue) and v.level == domain.level

    def attempt(fn, *args):
        try:
            return fn(*args)
        except ValidationError:
            return E

    def scaled(domain, c):
        product = AlgebraElement.one(g80, domain) * c
        assert product.domain == domain
        return product.coefficient(0)

    def moved(domain, c):
        return AlgebraElement(g80, source(c), {1: c}).to_domain(domain).coefficient(1)

    for c, row in table:
        for domain, want in row.items():
            results = [attempt(ga._coerce, domain, c), attempt(scaled, domain, c)]
            if source(c) != domain:  # to_domain returns an element already in domain
                results.append(attempt(moved, domain, c))
            for got in results:
                if want is E:
                    assert got is E, (c, domain)
                else:
                    assert got is not E and got == want and in_domain(got, domain), (c, domain)

    # an int multiplies in every domain; a float or a string is rejected
    for domain in (Q, C4, FL):
        assert (AlgebraElement.one(g80, domain) * 3).coefficient(0) == 3
    # cyclotomic values reach L only through a declared embedding
    emb = rep80.embedding
    assert ga._coerce(FL, emb.generator, emb) == emb.image
    assert ga._coerce(FL, CycValue.from_rational(7, 40), emb) == 7
    el = AlgebraElement(g80, CyclotomicDomain(40), {1: emb.generator, 2: F(1, 3)})
    moved = el.to_domain(FL, emb)
    assert moved.domain == FL and moved.coeffs == {1: emb.image, 2: L.from_rational(F(1, 3))}
    with pytest.raises(ValidationError, match="outside the declared embedded subfield"):
        ga._coerce(FL, root_of_unity(40), emb)
    with pytest.raises(ValidationError, match="embedding required"):
        el.to_domain(FL)
    # rationality looks at every coefficient kind
    assert AlgebraElement(g80, C4, {1: CycValue.from_rational(2, 4), 2: F(1, 2)}).is_rational()
    assert not AlgebraElement(g80, C4, {1: i4}).is_rational()
    assert AlgebraElement(g80, FL, {1: L.from_rational(2)}).is_rational()
    assert not AlgebraElement(g80, FL, {1: L.gen()}).is_rational()
