"""Acceptance criteria, one test per criterion, each with its stated runtime
budget and exact (zero-tolerance) assertions.  Run with -rA (or -s) to see
the one-line pass report per criterion.
"""

import time

import lattice_reference
from builders import evaluate_word, root_of_unity
from character_table_reference import char_field_stabilizer
from isotypic import (
    AlgebraElement,
    JacobianDecomposer,
    assert_schur,
    averaging_idempotent,
    compute_character_table,
    construct_primitive_system,
    diagonal_idempotents,
    fixed_dim,
    from_presentation,
    galois_orbits,
    invariant_idempotent,
    rational_central_idempotent,
    symmetrize_to_rational,
    symmetrize_to_subfield,
    system_grid_checks,
    validate_schur_from_rep,
)
from isotypic.cyclotomic import CycValue
from isotypic.fixtures import bundled
from isotypic.serialize import rep_from_json
from isotypic.verify import ManifestRunner
from worked_examples import order80_element, order80_table_transcription, sqrt_minus5_cyclotomic


def report(n, elapsed, detail):
    print(f"[criterion {n:2d}] PASS ({elapsed:6.1f}s)  {detail}")


def test_criterion_01_group_ingestion():
    t0 = time.monotonic()
    g80 = from_presentation(2, [[1] * 20, [2] * 8, [1] * 10 + [2] * 4,
                                [-2, 1, 2, -1, -1, -1]])
    assert g80.order == 80
    assert len(g80.conjugacy_classes()) == 14
    t80 = time.monotonic() - t0
    assert t80 < 10.0

    t0 = time.monotonic()
    g24 = from_presentation(3, [[1] * 4, [2] * 4, [3] * 3, [-2, 1, 2, 1],
                                [-3, 1, 3, -2], [-3, 2, 3, -2, -1]])
    assert g24.order == 24
    x, y = g24.generators[0], g24.generators[1]
    assert g24.subgroup_generated([x, y]).order == 8
    assert g24.power(x, 2) == g24.power(y, 2)
    t24 = time.monotonic() - t0
    assert t24 < 10.0
    report(1, t80 + t24, "order 80 with 14 classes; order 24 with quaternion subgroup")


def test_criterion_02_character_table(g80):
    t0 = time.monotonic()
    table = compute_character_table(g80)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0

    transcribed = order80_table_transcription(g80)
    assert [c.values for c in table.chars] == [c.values for c in transcribed.chars]

    x = g80.generators[0]
    x19 = g80.power(x, 19)
    x10 = g80.power(x, 10)
    kc = sqrt_minus5_cyclotomic(table.level)
    quad_rows = [c for c in table.chars if c.degree == 4
                 and c.values[g80.class_index(x)] in (kc, -kc)]
    assert len(quad_rows) == 2
    for c in quad_rows:
        assert c.values[g80.class_index(x19)] == -c.values[g80.class_index(x)]
        assert c.values[g80.class_index(x10)] == -4
    report(2, elapsed, "computed table matches the transcription; sqrt(-5) pair checked")


def test_criterion_03_galois_orbits(g80, t80, orbits80):
    t0 = time.monotonic()
    assert len(orbits80) == len(g80.rational_fusion_classes()) == 10
    singles = [o for o in orbits80 if len(o.char_indices) == 1]
    pairs = [o for o in orbits80 if len(o.char_indices) == 2]
    assert len(singles) == 6
    assert len(pairs) == 4
    i4 = root_of_unity(4).to_level(t80.level)
    kc = sqrt_minus5_cyclotomic(t80.level)
    gauss = [o for o in pairs if o.stabilizer == char_field_stabilizer([i4])]
    quad = [o for o in pairs if o.stabilizer == char_field_stabilizer([kc])]
    assert len(gauss) == 3 and len(quad) == 1
    assert quad[0].degree == 4
    report(3, time.monotonic() - t0,
           "6 singletons, 3 pairs over Q(i), 1 quadratic pair over Q(sqrt(-5))")


def test_criterion_04_multiplicities(g80, t80, quad80):
    t0 = time.monotonic()
    chi = t80.chars[quad80.char_indices[0]]
    assert fixed_dim(t80, chi, (0,)) == 4
    x10 = g80.power(g80.generators[0], 10)
    assert fixed_dim(t80, chi, g80.subgroup_generated([x10]).members) == 0
    xy2 = evaluate_word(g80, [1, 2, 2])
    assert fixed_dim(t80, chi, g80.subgroup_generated([xy2]).members) == 2
    report(4, time.monotonic() - t0, "<rho_1,V> = 4, <rho_<x^10>,V> = 0, <rho_<xy^2>,V> = 2")


def test_criterion_05_fixture_verification():
    t0 = time.monotonic()
    runner = ManifestRunner(bundled("manifest_order80.json"))
    results = runner.run()
    elapsed = time.monotonic() - t0
    failed = [name for name, ok in results if not ok]
    assert not failed, failed
    assert elapsed < 60.0
    report(5, elapsed, f"all {len(results)} transcribed-element checks pass")


def test_criterion_06_construction_pipeline(g80, t80, orbits80, quad80,
                                            small_groups, small_tables):
    t0 = time.monotonic()
    rep = rep_from_json(g80, t80, bundled("rep_order80.json"))
    ells = diagonal_idempotents(rep)
    m = validate_schur_from_rep(rep, quad80)
    assert m == 2
    orbit = assert_schur(quad80, m, "validated representation")
    system = construct_primitive_system(rep, orbit, ells=ells)
    assert system.blocks == 2 and system.schur_m == 2
    assert all(ok for _, ok in system_grid_checks(system))
    # the deterministic construction reproduces the transcribed grid exactly
    nf = rep.field
    assert system.u_grid[0][0] == order80_element(g80, nf, "u11")
    assert system.u_grid[1][0] == order80_element(g80, nf, "u21")
    symmetrize_to_subfield(system)   # raises on any failed conclusion
    symmetrize_to_rational(system)
    elapsed80 = time.monotonic() - t0
    assert elapsed80 < 300.0

    # S3 with m = 1
    from isotypic import MatrixRep, RATIONAL_FIELD, NumField

    S3, tS3 = small_groups["S3"], small_tables["S3"]
    std = next(o for o in galois_orbits(tS3) if o.degree == 2)
    repS3 = MatrixRep(S3, RATIONAL_FIELD,
                      [[[-1, 1], [0, 1]], [[0, -1], [1, -1]]],
                      tS3, std.char_indices[0])
    sysS3 = construct_primitive_system(repS3, std)
    assert all(ok for _, ok in system_grid_checks(sysS3))
    symmetrize_to_subfield(sysS3)
    symmetrize_to_rational(sysS3)

    # Q8 over Q(i) with m = 2: the K-symmetrized element must equal e_V
    Q8, tQ8 = small_groups["Q8"], small_tables["Q8"]
    QI = NumField([1, 0, 1], [[0, 1], [0, -1]], subfield_fixers=(0, 1))
    i = QI.gen()
    two = next(o for o in galois_orbits(tQ8) if o.degree == 2)
    repQ8 = MatrixRep(Q8, QI, [[[i, 0], [0, -i]], [[0, 1], [-1, 0]]],
                      tQ8, two.char_indices[0])
    mq = validate_schur_from_rep(repQ8, two)
    sysQ8 = construct_primitive_system(repQ8, assert_schur(two, mq))
    ks = symmetrize_to_subfield(sysQ8)
    symmetrize_to_rational(sysQ8)
    assert ks[0] == sysQ8.e_central
    assert all(ok for _, ok in system_grid_checks(sysQ8))
    report(6, elapsed80, "full invariant suite for the order-80, S3 and Q8 systems")


def test_criterion_07_decomposition_report(g80, t80, dec80):
    t0 = time.monotonic()
    x = g80.generators[0]
    y = g80.generators[1]
    x5 = g80.power(x, 5)
    level = t80.level
    one = CycValue.one(level)
    i4 = root_of_unity(4).to_level(level)
    kc = sqrt_minus5_cyclotomic(level)

    def row(degree, checks):
        hits = [i for i, c in enumerate(t80.chars) if c.degree == degree and all(
            c.values[g80.class_index(g)] == v for g, v in checks)]
        assert len(hits) == 1, (degree, checks, hits)
        return hits[0]

    # identify the transcribed rows by their values
    y2 = evaluate_word(g80, [2, 2])
    printed = {
        "V2": row(1, [(x, -one), (y, -one)]),
        "V3": row(1, [(x, -one), (y, one)]),
        "V4": row(1, [(x, one), (y, -one)]),
        "V5": row(1, [(x, -one), (y, -i4)]),   # the V5+V6 orbit
        "V7": row(1, [(x, one), (y, -i4)]),    # the V7+V8 orbit
        "V9": row(2, [(y2, -2 * i4)]),         # the V9+V10 orbit
        "V11": row(4, [(x, one)]),
        "V12": row(4, [(x, -one)]),
        "V13": row(4, [(x, -kc)]),             # one member of the quadratic pair
    }

    words = {
        "H1": [[1, 1], [1, 2]], "H2": [[1, 1], [2]], "H3": [[2, 2], [1]],
        "H4": [[1, 1], [1, 2, 2]], "H5": [[1]], "H6": [[1, 1, 1, 1], [1, 2, 2]],
        "H7": [[1, 1, 1, 2, 2], [1, 2]], "H8": [[1, 2]], "H9": [[1, 2, 2]],
        "H10": [[1, 2, 2], [1] * 10],
    }
    cls = {"G": dec80.subgroup_class_of(tuple(range(g80.order)))}
    for name, gens in words.items():
        sub = g80.subgroup_generated([evaluate_word(g80, w) for w in gens])
        cls[name] = dec80.subgroup_class_of(sub.members)

    jac, verdicts = dec80.full_report()
    exponents = {f.orbit_index: f.exponent for f in jac.factors}

    def orbit_of_char(ci):
        return next(i for i, o in enumerate(dec80.orbits) if ci in o.char_indices)

    # expected: (transcribed row, exponent, kind, witness)
    expected = [
        ("V2", 1, "prym", ("H1", "G")),
        ("V3", 1, "prym", ("H2", "G")),
        ("V4", 1, "prym", ("H3", "G")),
        ("V5", 1, "prym", ("H4", "H3")),
        ("V7", 1, "prym", ("H5", "H3")),
        ("V9", 2, "prym", ("H6", "H4")),
        ("V12", 4, "prym", ("H7", "G")),
        ("V11", 4, "intersection", ("H8", ("H7", "H1"))),
        ("V13", 2, "intersection", ("H9", ("H10", "H6"))),
    ]
    assert exponents[0] == 1  # the quotient Jacobian factor
    for name, exp, kind, witness in expected:
        oi = orbit_of_char(printed[name])
        assert exponents[oi] == exp, (name, exponents[oi], exp)
        v = verdicts[oi]
        assert v.kind == kind, (name, v.kind)
        if kind == "prym":
            want = (cls[witness[0]], cls[witness[1]])
            assert (v.witness.inner, v.witness.outer) == want, name
        else:
            inner, outers = witness
            assert v.witness.inner == cls[inner], name
            assert sorted(v.witness.outers) == sorted(cls[o] for o in outers), name
    report(7, time.monotonic() - t0,
           "exponents (1,1,1,1,1,1,2,4,4,2) with the printed witnesses, up to conjugacy")


def test_criterion_08_quasi_prym(dec24, g24):
    t0 = time.monotonic()
    w = next(i for i, o in enumerate(dec24.orbits)
             if o.degree == 2 and len(o.char_indices) == 1)
    assert dec24.find_prym_realizations(w) == []
    assert dec24.find_intersection_realizations(w, max_arity=4) == []
    verdict = dec24.classify_factor(w, max_arity=4)
    assert verdict.kind == "complement"
    cw = verdict.witness
    assert dec24.subgroups[cw.inner].members == (0,)
    x2 = g24.power(g24.generators[0], 2)
    assert dec24.subgroups[cw.outer].members == lattice_reference.canonical_form(
        g24, g24.subgroup_generated([x2]).members)
    w1 = next(i for i, o in enumerate(dec24.orbits)
              if o.degree == 2 and len(o.char_indices) == 2)
    want = [0] * len(dec24.orbits)
    want[w] = 1
    want[w1] = 2
    assert list(cw.relation) == want
    report(8, time.monotonic() - t0,
           "no Prym, no intersection (arity <= 4); complement relation = W + 2 W1")


def test_criterion_09_property_suites(small_tables):
    t0 = time.monotonic()
    for name, table in small_tables.items():
        group = table.group
        orbits = galois_orbits(table)
        dec = JacobianDecomposer(table, orbits=orbits)

        es = [rational_central_idempotent(table, o) for o in orbits]
        total = AlgebraElement.zero(group)
        for e in es:
            assert e.is_central(), name
            total = total + e
        assert total == AlgebraElement.one(group), name
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                assert es[i].is_orthogonal_to(es[j]), name

        for s in group.subgroup_classes():
            p = averaging_idempotent(group, s.members)
            acc = AlgebraElement.zero(group)
            for o in orbits:
                acc = acc + invariant_idempotent(table, o, s.members)
            assert acc == p, name

        n_sub = len(dec.subgroups)
        for ih in range(n_sub):
            for io in range(n_sub):
                if ih == io or not dec.contains(ih, io):
                    continue
                a = dec.mult_vector(ih)
                b = dec.mult_vector(io)
                assert all(x - y >= 0 for x, y in zip(a, b)), name
                assert all((x - y) + y == x for x, y in zip(a, b)), name
    report(9, time.monotonic() - t0,
           "e_W partitions of unity, f sums, Prym additivity over the corpus")


def test_criterion_10_trigonal_coincidence(small_tables):
    t0 = time.monotonic()
    dec = JacobianDecomposer(small_tables["S4"])
    S4 = dec.group
    hits = []
    for (s, r), (xp, yp) in dec.find_prym_isogenies():
        orders = (dec.subgroups[s].order, dec.subgroups[r].order,
                  dec.subgroups[xp].order, dec.subgroups[yp].order)
        if orders != (4, 8, 6, 24):
            continue
        S = dec.subgroups[s]
        if sorted(S4.elem_orders[m] for m in S.members) != [1, 2, 2, 2]:
            continue
        if all(lattice_reference.conjugate_subgroup(S4, S.members, a) == S.members
               for a in range(24)):
            continue  # the normal Klein subgroup is not the right witness
        assert dec.subgroups[yp].order == 24
        hits.append(((s, r), (xp, yp)))
    assert hits
    report(10, time.monotonic() - t0,
           "rho_S - rho_R = rho_X - rho_G for (Klein non-normal, D4), (S3, S4)")
