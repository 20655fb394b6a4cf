import pytest

from builders import evaluate_word
from isotypic import (
    CycValue,
    InvariantError,
    ValidationError,
    assert_schur,
    compute_character_table,
    fixed_dim,
    galois_orbits,
    inner_product,
    rational_character,
    rho_decomposition,
    schur_divisor_bound,
)
from worked_examples import (
    classical_table,
    order80_table_transcription,
    sqrt_minus5_cyclotomic,
)


def test_s3_table(small_tables):
    t = small_tables["S3"]
    assert sorted(c.degree for c in t.chars) == [1, 1, 2]
    assert all(v.is_rational() for c in t.chars for v in c.values)


def test_trivial_group_table():
    from isotypic import from_presentation

    t = compute_character_table(from_presentation(1, [[1]]))
    assert len(t.chars) == 1
    assert t.chars[0].degree == 1


def test_order80_degrees(t80):
    degs = sorted(c.degree for c in t80.chars)
    assert degs == [1] * 8 + [2] * 2 + [4] * 4


def test_order80_quadratic_values(g80, t80):
    x = g80.generators[0]
    x10 = g80.power(x, 10)
    x19 = g80.power(x, 19)
    kc = sqrt_minus5_cyclotomic(t80.level)
    hits = 0
    for c in t80.chars:
        if c.degree == 4:
            vx = c.values[g80.class_index(x)]
            if vx in (kc, -kc):
                hits += 1
                assert c.values[g80.class_index(x19)] == -vx
                assert c.values[g80.class_index(x10)] == -4
    assert hits == 2


def test_order80_matches_transcription(g80, t80):
    transcribed = order80_table_transcription(g80)
    assert [c.values for c in transcribed.chars] == [c.values for c in t80.chars]


def test_classical_fixtures_match_computed(small_tables):
    for name in ["S3", "S4", "Q8", "SL23"]:
        group, fixture = classical_table(name)
        computed = small_tables[name]
        assert [c.values for c in fixture.chars] == [c.values for c in computed.chars]


def test_orthogonality_enforced_on_load(g80, t80):
    from isotypic.serialize import table_from_json, table_to_json

    blob = table_to_json(t80)
    # perturb one entry
    blob["chars"][3][2]["coeffs"][0] = "17"
    with pytest.raises(ValidationError):
        table_from_json(g80, blob)


def test_save_load_round_trip(g80, t80):
    from isotypic.serialize import table_from_json, table_to_json

    again = table_from_json(g80, table_to_json(t80))
    assert [c.values for c in again.chars] == [c.values for c in t80.chars]


def test_inner_products(t80, small_tables):
    for t in (small_tables["S3"], small_tables["Q8"]):
        for i, a in enumerate(t.chars):
            for j, b in enumerate(t.chars):
                assert inner_product(t, a.values, b.values) == (1 if i == j else 0)
    # the two degree-4 irrational rows are orthogonal
    quad_rows = [c for c in t80.chars if c.degree == 4 and
                 not all(v.is_rational() for v in c.values)]
    assert inner_product(t80, quad_rows[0].values, quad_rows[1].values) == 0


def test_inner_product_with_rho(small_tables, small_groups):
    # <rho_G, trivial> = 1: averaging over the group leaves only the trivial
    t = small_tables["S3"]
    level = t.level
    rho_vals = [CycValue.from_rational(0, level)] * len(t.classes)
    rho_vals[0] = CycValue.from_rational(6, level)  # regular character of S3
    trivial = next(c for c in t.chars if all(v == 1 for v in c.values))
    assert inner_product(t, rho_vals, trivial.values) == 1


def test_fixed_dim_worked_example(g80, t80, quad80):
    chi = t80.chars[quad80.char_indices[0]]
    assert fixed_dim(t80, chi, (0,)) == 4
    x10 = g80.power(g80.generators[0], 10)
    assert fixed_dim(t80, chi, g80.subgroup_generated([x10]).members) == 0
    xy2 = evaluate_word(g80, [1, 2, 2])
    assert fixed_dim(t80, chi, g80.subgroup_generated([xy2]).members) == 2


def test_fixed_dim_general_identities(small_tables, small_groups):
    for name, t in small_tables.items():
        group = small_groups[name]
        trivial = next(c for c in t.chars if all(v == 1 for v in c.values))
        for c in t.chars:
            assert fixed_dim(t, c, (0,)) == c.degree
        for s in group.subgroup_classes():
            assert fixed_dim(t, trivial, s.members) == 1


def test_galois_orbits_order80(orbits80, g80):
    sizes = sorted(len(o.char_indices) for o in orbits80)
    assert sizes == [1, 1, 1, 1, 1, 1, 2, 2, 2, 2]
    assert len(orbits80) == len(g80.rational_fusion_classes())
    quads = [o for o in orbits80 if o.degree == 4 and len(o.char_indices) == 2]
    assert len(quads) == 1


def test_galois_orbits_rational_group(small_tables, small_groups):
    t = small_tables["S4"]
    orbits = galois_orbits(t)
    assert all(len(o.char_indices) == 1 for o in orbits)
    assert len(orbits) == len(small_groups["S4"].rational_fusion_classes())


def test_orbit_count_matches_fusion_everywhere(small_tables, small_groups):
    for name, t in small_tables.items():
        assert len(galois_orbits(t)) == len(small_groups[name].rational_fusion_classes())


def test_trivial_orbit_first(small_tables):
    for t in small_tables.values():
        orbits = galois_orbits(t)
        c = t.chars[orbits[0].char_indices[0]]
        assert c.degree == 1 and all(v == 1 for v in c.values)


def test_orbit_size_equals_field_degree(orbits80):
    for o in orbits80:
        assert o.field_degree == len(o.char_indices)


def test_schur_divisor_bounds(t80, orbits80, quad80, small_tables):
    assert quad80.schur.kind == "bounded"
    assert quad80.schur.divisor_bound == 2
    # Q8: bound 2 on the quaternionic character
    tq = small_tables["Q8"]
    two = next(i for i, c in enumerate(tq.chars) if c.degree == 2)
    assert schur_divisor_bound(tq, two) == 2
    # SL(2,3): <rho_H, V> vanishes off the trivial subgroup for the
    # quaternionic character, so the bound is its degree
    ts = small_tables["SL23"]
    orb = [o for o in galois_orbits(ts) if o.degree == 2 and len(o.char_indices) == 1][0]
    group = ts.group
    chi = ts.chars[orb.char_indices[0]]
    nonzero = [s for s in group.subgroup_classes() if fixed_dim(ts, chi, s.members)]
    assert [s.order for s in nonzero] == [1]
    assert orb.schur.divisor_bound == 2


def test_multiplicity_one_certifies_schur_one(small_orbits):
    for name in ["S3", "D4", "A4", "S4"]:
        for o in small_orbits[name]:
            assert o.schur.kind == "exact" and o.schur.m == 1


def test_assert_schur_validations(quad80):
    upgraded = assert_schur(quad80, 2, "declared")
    assert upgraded.schur.kind == "asserted" and upgraded.schur.m == 2
    with pytest.raises(ValidationError):
        assert_schur(quad80, 3, "bad")  # does not divide the degree 4... it divides? no: 3 does not divide 4
    with pytest.raises(ValidationError):
        assert_schur(quad80, 4, "bad")  # divides the degree but not the gcd bound


def test_rational_character_scaling(t80, quad80, small_tables):
    vals, scaled = rational_character(t80, quad80)
    assert not scaled  # still bounded
    upgraded = assert_schur(quad80, 2)
    vals2, scaled2 = rational_character(t80, upgraded)
    assert scaled2
    assert vals2[0] == 16  # 2 * (4 + 4)
    # trivial character of any group
    ts = small_tables["S3"]
    triv = galois_orbits(ts)[0]
    tv, ok = rational_character(ts, triv)
    assert ok and all(v == 1 for v in tv)
    # Q8 quaternionic: 2 * chi after assertion
    tq = small_tables["Q8"]
    oq = [o for o in galois_orbits(tq) if o.degree == 2][0]
    vq, okq = rational_character(tq, assert_schur(oq, 2))
    assert okq and vq[0] == 4


def test_rho_decomposition_examples(g80, t80, orbits80, quad80):
    # H = G: only the trivial orbit appears
    whole = tuple(range(g80.order))
    rd = rho_decomposition(t80, orbits80, whole)
    assert rd.multiplicities[0] == 1
    assert all(m == 0 for m in rd.multiplicities[1:])
    # H = 1 with asserted m = 2: the quadratic orbit has multiplicity 2
    upgraded = tuple(assert_schur(o, 2) if o is quad80 else o for o in orbits80)
    rd1 = rho_decomposition(t80, upgraded, (0,))
    qi = next(i for i, o in enumerate(upgraded) if o.degree == 4 and len(o.char_indices) == 2)
    assert rd1.multiplicities[qi] == 2


def test_rho_dimension_count(small_tables, small_orbits):
    for name, t in small_tables.items():
        orbits = small_orbits[name]
        for s in t.group.subgroup_classes():
            rd = rho_decomposition(t, orbits, s.members)
            total = sum(
                a * o.rational_dim() for a, o in zip(rd.multiplicities, orbits)
            )
            assert total == t.group.order // s.order


def test_rho_inconsistent_schur_detected(g80, t80, orbits80, quad80):
    from isotypic.characters import SchurStatus

    # force an impossible m = 4 without the divisor check; the subgroup with
    # <rho_H, V> = 2 exposes the non-exact division
    bad = quad80._replace(schur=SchurStatus("asserted", 4, 2, "forced"))
    bad_orbits = tuple(bad if o is quad80 else o for o in orbits80)
    xy2 = evaluate_word(g80, [1, 2, 2])
    members = g80.subgroup_generated([xy2]).members
    with pytest.raises(InvariantError, match="Schur index inconsistent"):
        rho_decomposition(t80, bad_orbits, members)
