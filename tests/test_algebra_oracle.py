"""The linear algebra against the row-echelon code it replaced.

``algebra_reference`` keeps the dense matrix product, the scaled matrix
units, the orbit verdict by row echelons over all |G| columns, and the block
selection and coordinates of ``construct_primitive_system`` by one
``CoordinateSpan``.  On the benchmark's dicyclic representations, Q8 and the
order-80 example, and on a dense conjugate P M P^-1 of each (so that
skipping zero entries is not the only path taken), the library must give
the same matrices, orbit verdicts, Schur index, selected blocks, u grid and
checks; on each failure input, the same exception and message.  The one
exception is pinned last: a rep whose diagonal entries were altered after
certification, where the rank-n^2 stop, a theorem only for certified
matrices, ends the scan before the reference does.  ``ideal_dim`` and
``orbit_module_check`` of elements that are not idempotent, over Q, a
cyclotomic field and L, must equal the rank and the verdict of the row
echelon of all |G| dense left translates.  The grid and idempotent-family
checks, which multiply pairs only when a square or the sum fails (the trace
lemma), must give the pairwise suite's results and messages on seeded
perturbations of the Q8 and order-80 systems.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

import algebra_reference as ref
from builders import basis, root_of_unity
from class_function_reference import reference_matrices
from isotypic import (
    RATIONALS,
    AlgebraElement,
    FieldDomain,
    InvariantError,
    MatrixRep,
    NumField,
    ValidationError,
    assert_schur,
    averaging_idempotent,
    central_idempotent,
    central_idempotent_over_field,
    compute_character_table,
    construct_primitive_system,
    diagonal_idempotents,
    from_permutations,
    galois_orbits,
    ideal_dim,
    orbit_module_check,
    rational_central_idempotent,
    symmetrize_to_rational,
    system_grid_checks,
    validate_schur_from_rep,
)
from isotypic import groupalgebra as ga
from isotypic.serialize import rep_from_json

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def dicyclic_case(n):
    """The benchmark's degree-2 rep of Dic_n over Q(zeta_2n), and its orbit."""
    base = bench.dicyclic(n)
    group = from_permutations(base)
    table = compute_character_table(group)
    words = [group.labels[c.representative] for c in group.conjugacy_classes()]
    rep = rep_from_json(group, table, bench.dicyclic_rep(n, base, words, group.exponent))
    orbit = next(o for o in galois_orbits(table) if rep.char_index in o.char_indices)
    return rep, orbit


def q8_case(small_groups, small_tables):
    table = small_tables["Q8"]
    qi = NumField([1, 0, 1], [[0, 1], [0, -1]], subfield_fixers=(0, 1))
    i = qi.gen()
    two = next(k for k, c in enumerate(table.chars) if c.degree == 2)
    rep = MatrixRep(small_groups["Q8"], qi, [[[i, 0], [0, -i]], [[0, 1], [-1, 0]]], table, two)
    return rep, next(o for o in galois_orbits(table) if two in o.char_indices)


def _product(a, b, zero):
    n = len(a)
    return [[sum((a[i][t] * b[t][j] for t in range(n)), zero) for j in range(n)]
            for i in range(n)]


def dense_conjugate(rep):
    """The rep conjugated by P = U^T U, U upper unitriangular with every entry
    above the diagonal 1, so P^-1 = (1 - N)(1 - N^T), N the superdiagonal."""
    n, zero = rep.degree, rep.field.zero()
    upper = [[int(j >= i) for j in range(n)] for i in range(n)]
    lower = [list(col) for col in zip(*upper)]
    bidiag = [[int(i == j) - int(j == i + 1) for j in range(n)] for i in range(n)]
    p = _product(lower, upper, 0)
    p_inv = _product(bidiag, [list(col) for col in zip(*bidiag)], 0)
    gens = [_product(_product(p, m, zero), p_inv, zero) for m in rep.gen_matrices]
    return MatrixRep(rep.group, rep.field, gens, rep.table, rep.char_index, rep.embedding)


@pytest.fixture(scope="module")
def cases(small_groups, small_tables, rep80, quad80):
    base = {f"Dic{n}": dicyclic_case(n) for n in (2, 3, 5, 7)}
    base["Q8"] = q8_case(small_groups, small_tables)
    base["order80"] = (rep80, quad80)
    out = dict(base)
    out.update({f"{name}-dense": (dense_conjugate(rep), orbit)
                for name, (rep, orbit) in base.items()})
    return out


NAMES = [f"{name}{kind}" for name in ("Dic2", "Dic3", "Dic5", "Dic7", "Q8", "order80")
         for kind in ("", "-dense")]


def _outcome(fn):
    """The call's result, or the type and message of what it raised."""
    try:
        return "ok", fn()
    except (InvariantError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _construct(rep, orbit):
    system = construct_primitive_system(rep, orbit)
    return system.selected, system.u_grid, tuple(system_grid_checks(system))


@pytest.mark.parametrize("name", NAMES)
def test_matrices_match_the_dense_product(cases, name):
    rep, _ = cases[name]
    if name.endswith("-dense"):  # more nonzero entries than a monomial rep has
        nonzero = sum(not c.is_zero() for m in rep.matrices for row in m for c in row)
        assert nonzero > len(rep.matrices) * rep.degree
    char = rep.table.chars[rep.char_index]
    assert rep.matrices == reference_matrices(rep.group, rep.field, rep.gen_matrices, char,
                                              rep.embedding)


@pytest.mark.parametrize("name", NAMES)
def test_orbit_verdicts_match_the_row_echelons(cases, name):
    rep, orbit = cases[name]
    nf, n, order = rep.field, rep.degree, rep.group.order
    for j in range(n):
        assert (ga._orbit_verdict(nf, n, order, ga._unit_entries(rep, j))
                == ref.reference_orbit_verdict(nf, ref.reference_matrix_units(rep, j)))
    assert _outcome(lambda: validate_schur_from_rep(rep, orbit)) == \
        _outcome(lambda: ref.reference_validate_schur(rep, orbit))


@pytest.mark.parametrize("name", ["Dic2", "Dic3-dense", "Q8", "Q8-dense"])
def test_orbit_module_check_matches_the_row_echelons(cases, name):
    rep, _ = cases[name]
    for ell in diagonal_idempotents(rep):
        for element in (ell, ell.apply_galois(1), ell + ell.apply_galois(1)):
            assert orbit_module_check(element) == ref.reference_orbit_module_check(element)


@pytest.mark.parametrize("name", NAMES)
def test_grid_and_checks_match_the_coordinate_span(cases, name):
    rep, orbit = cases[name]
    orbit = assert_schur(orbit, len(rep.field.subfield_fixers))
    new, old = _outcome(lambda: _construct(rep, orbit)), _outcome(
        lambda: ref.reference_construct(rep, orbit))
    assert new[0] == "ok" and new == old


# -- failure inputs -----------------------------------------------------------


def _zeta8(fixers):
    """Q(zeta_8) = Q[t]/(t^4 + 1) with the automorphisms t -> t, t^3, t^5, t^7."""
    return NumField([1, 0, 0, 0, 1], [[0, 1], [0, 0, 0, 1], [0, -1], [0, 0, 0, -1]],
                    subfield_fixers=fixers)


def _q8_over(nf, small_groups, small_tables):
    table = small_tables["Q8"]
    i = nf.gen() ** 2 if nf.degree == 4 else nf.gen()
    two = next(k for k, c in enumerate(table.chars) if c.degree == 2)
    rep = MatrixRep(small_groups["Q8"], nf, [[[i, 0], [0, -i]], [[0, 1], [-1, 0]]], table, two)
    return rep, next(o for o in galois_orbits(table) if two in o.char_indices)


def _s3_over_qi(small_groups, small_tables):
    """The rational standard rep of S3 declared over Q(i), with m = 2."""
    table = small_tables["S3"]
    qi = NumField([1, 0, 1], [[0, 1], [0, -1]], subfield_fixers=(0, 1))
    std = next(k for k, c in enumerate(table.chars) if c.degree == 2)
    rep = MatrixRep(small_groups["S3"], qi, [[[-1, 1], [0, 1]], [[0, -1], [1, -1]]], table, std)
    return rep, next(o for o in galois_orbits(table) if std in o.char_indices)


def _same_failure(new_fn, old_fn, message):
    new, old = _outcome(new_fn), _outcome(old_fn)
    assert new == old and new[0] != "ok" and message in new[1]


def test_not_direct_orbit_module_fails_alike(small_groups, small_tables):
    # t -> -t fixes i = t^2, so it fixes every ideal of the Q(i)-rational rep
    rep, orbit = _q8_over(_zeta8((0, 2)), small_groups, small_tables)
    _same_failure(lambda: validate_schur_from_rep(rep, orbit),
                  lambda: ref.reference_validate_schur(rep, orbit), "orbit analysis failed")
    for ell in diagonal_idempotents(rep):
        verdict = orbit_module_check(ell)
        assert verdict == ref.reference_orbit_module_check(ell)
        assert not verdict["direct"] and not verdict["stabilizer_trivial"]
    _same_failure(lambda: _construct(rep, orbit), lambda: ref.reference_construct(rep, orbit),
                  "declared field degree 4")


@pytest.mark.parametrize("name", ["Dic2", "Dic5", "Dic7", "Q8", "order80"])
@pytest.mark.parametrize("gi", [0, 1])
def test_corrupted_generator_fails_at_the_same_pair(cases, name, gi):
    rep, _ = cases[name]
    char = rep.table.chars[rep.char_index]
    bad = [list(map(list, m)) for m in rep.gen_matrices]
    bad[gi][0][1] = bad[gi][0][1] + rep.field.one()
    _same_failure(
        lambda: MatrixRep(rep.group, rep.field, bad, rep.table, rep.char_index, rep.embedding),
        lambda: reference_matrices(rep.group, rep.field, bad, char, rep.embedding),
        "multiplicativity fails")


@pytest.mark.parametrize("name", ["Dic5", "Dic7"])
def test_trace_mismatch_fails_alike(cases, name):
    # the rep against the other faithful character of its Galois orbit
    rep, orbit = cases[name]
    other = next(k for k in orbit.char_indices if k != rep.char_index)
    _same_failure(
        lambda: MatrixRep(rep.group, rep.field, rep.gen_matrices, rep.table, other,
                          rep.embedding),
        lambda: reference_matrices(rep.group, rep.field, rep.gen_matrices,
                                   rep.table.chars[other], rep.embedding),
        "trace mismatch")


def test_schur_index_not_dividing_the_degree_fails_alike(small_groups, small_tables):
    rep, orbit = _q8_over(_zeta8((0, 1, 2, 3)), small_groups, small_tables)
    _same_failure(lambda: _construct(rep, orbit), lambda: ref.reference_construct(rep, orbit),
                  "field degree inconsistent with Schur index")


def test_too_many_blocks_fail_alike(small_groups, small_tables):
    # tau fixes the rational matrix units: each block has rank n, not m n,
    # and the membership test runs on dependent rows
    rep, orbit = _s3_over_qi(small_groups, small_tables)
    _same_failure(lambda: _construct(rep, orbit), lambda: ref.reference_construct(rep, orbit),
                  "field degree inconsistent with Schur index")


def _altered(rep, matrices):
    """The rep with its certified matrices replaced, as no constructor allows."""
    rep.matrices = tuple(tuple(map(tuple, m)) for m in matrices)
    return rep


def test_span_short_of_the_block_fails_alike(small_groups, small_tables):
    # r_11 := r_00 puts ell_2 in the rank-2 span of the first block
    rep, orbit = _s3_over_qi(small_groups, small_tables)
    _altered(rep, [[m[0], (m[1][0], m[0][0])] for m in rep.matrices])
    _same_failure(lambda: _construct(rep, orbit), lambda: ref.reference_construct(rep, orbit),
                  "basis assembly failed: span does not fill the simple block")


@pytest.mark.parametrize("swap, message", [
    ((1, 3), "basis assembly failed: central idempotent not expressible"),
    ((2, 3), "basis assembly failed: central idempotent not expressible"),
    ((1, 2), "basis assembly failed: grid product rule at (1,1)x(1,1)"),
    ((4, 6), "basis assembly failed: grid product rule at (1,1)x(1,1)"),
])
def test_altered_matrices_fail_alike(small_groups, small_tables, swap, message):
    rep, orbit = _q8_over(NumField([1, 0, 1], [[0, 1], [0, -1]], subfield_fixers=(0, 1)),
                          small_groups, small_tables)
    orbit = assert_schur(orbit, 2)
    mats = list(rep.matrices)
    mats[swap[0]], mats[swap[1]] = mats[swap[1]], mats[swap[0]]
    _altered(rep, mats)
    _same_failure(lambda: _construct(rep, orbit), lambda: ref.reference_construct(rep, orbit),
                  message)


@pytest.mark.parametrize("g", range(8))
@pytest.mark.parametrize("i", [0, 1])
def test_the_rank_stop_rests_on_certified_matrices(small_groups, small_tables, g, i):
    """The scan stops at rank n^2 because the matrix units of a certified rep
    lie in L[G]e_V.  A diagonal entry altered after certification breaks
    that: where the reference goes on to select ell_2 and finds too many
    blocks, the library stops, and either finds e_V outside the span or
    returns a system whose every grid relation it proved by exact checks."""
    rep, orbit = _q8_over(NumField([1, 0, 1], [[0, 1], [0, -1]], subfield_fixers=(0, 1)),
                          small_groups, small_tables)
    orbit = assert_schur(orbit, 2)
    mats = [list(map(list, m)) for m in rep.matrices]
    mats[g][i][i] = mats[g][i][i] + rep.field.one()
    _altered(rep, mats)
    old = _outcome(lambda: ref.reference_construct(rep, orbit))
    assert old == ("InvariantError", "field degree inconsistent with Schur index")
    new = _outcome(lambda: _construct(rep, orbit))
    if i == 0:
        assert new == ("InvariantError",
                       "basis assembly failed: central idempotent not expressible")
    else:
        assert new[0] == "ok" and new[1][0] == (0,) and all(ok for _, ok in new[1][2])


# -- the trace lemma against the pairwise suite ------------------------------------------


@pytest.fixture(scope="module")
def lemma_cases(cases):
    """name -> (system, family (name, elements, target, ideal dim)).  Q8 has
    one f_s, so its family is its two u cells, against e_V over L."""
    out = {}
    for name in ("Q8", "order80"):
        rep, orbit = cases[name]
        m = len(rep.field.subfield_fixers)
        system = construct_primitive_system(rep, assert_schur(orbit, m))
        if system.blocks == 1:
            family = ("u", system.u_grid[0], system.e_central, rep.degree)
        else:
            want = system.blocks * m * len(rep.field.automorphisms)
            family = ("f", symmetrize_to_rational(system), system.e_rational, want)
        out[name] = system, family
    return out


def _perturbed(cells, kind, rng):
    """A copy of the cells with one seeded perturbation: swap two cells,
    double one, u_a + n and u_b - n with n = u_a x u_b (sum and squares
    kept), u_a + x u_b and u_b - x u_b (sum kept), or u_b := u_a."""
    cells = list(cells)
    a, b = rng.sample(range(len(cells)), 2)
    u, v = cells[a], cells[b]
    group, domain = u.group, u.domain
    x = basis(group, rng.randrange(group.order), domain) * rng.choice([-2, -1, 1, 3])
    if domain.kind == "numberfield":
        x = x * (domain.field.gen() + rng.randint(-1, 1))
    if kind == "swap":
        cells[a], cells[b] = v, u
    elif kind == "double":
        cells[a] = u * 2
    elif kind == "nilpotent":
        nil = u * x * v
        cells[a], cells[b] = u + nil, v - nil
    elif kind == "shift":
        cells[a], cells[b] = u + x * v, v - x * v
    else:
        cells[b] = u
    return cells


PERTURBATIONS = ["swap", "double", "nilpotent", "shift", "duplicate"]


@pytest.mark.parametrize("name", ["Q8", "order80"])
@pytest.mark.parametrize("kind", PERTURBATIONS)
def test_grid_checks_match_the_pairwise_suite(lemma_cases, name, kind):
    system, _ = lemma_cases[name]
    grid, fixers, e_central = system.u_grid, system.nf.subfield_fixers, system.e_central
    rng = random.Random(f"{name}-{kind}")
    width = len(grid[0])
    grids = [grid]
    for _ in range(2):
        cells = _perturbed([u for row in grid for u in row], kind, rng)
        grids.append(tuple(tuple(cells[i:i + width]) for i in range(0, len(cells), width)))
    for g in grids:
        assert ga._grid_checks(g, fixers, e_central) == ref.reference_grid_checks(
            g, fixers, e_central)


@pytest.mark.parametrize("name", ["Q8", "order80"])
@pytest.mark.parametrize("kind", PERTURBATIONS + ["drop"])
def test_idempotent_family_fails_as_the_pairwise_suite(lemma_cases, name, kind):
    _, (label, elems, target, want) = lemma_cases[name]
    rng = random.Random(f"{name}-family-{kind}")
    family = list(elems[1:]) if kind == "drop" else _perturbed(elems, kind, rng)
    new = _outcome(lambda: ga._check_idempotent_family(family, target, want, label))
    assert new == _outcome(
        lambda: ref.reference_check_idempotent_family(family, target, want, label))
    if kind == "duplicate":
        # idempotent, summing wrong, and not orthogonal: the pair is named first
        assert new == ("InvariantError", f"{label}_1 and {label}_2 are not orthogonal")


# -- the columns the early stop reads ---------------------------------------------------


def _count_column_reads(monkeypatch):
    calls = []
    real = ga._translates
    monkeypatch.setattr(ga, "_translates", lambda *a: calls.append(1) or real(*a))
    return calls


def test_schur_reads_five_of_28_columns_per_ell_on_dic7(cases, monkeypatch):
    rep, orbit = cases["Dic7"]
    calls = _count_column_reads(monkeypatch)
    assert validate_schur_from_rep(rep, orbit) == 2
    assert rep.group.order == 28 and len(calls) == 5 * rep.degree


def test_schur_reads_eight_of_80_columns_per_ell_on_order80(rep80, quad80, monkeypatch):
    calls = _count_column_reads(monkeypatch)
    assert validate_schur_from_rep(rep80, quad80) == 2
    assert rep80.group.order == 80 and len(calls) == 8 * rep80.degree


# -- left ideals of elements that are not idempotent ------------------------------------


def _top_degree(table):
    return max(range(len(table.chars)), key=lambda k: table.chars[k].degree)


def _involution(group):
    return next(g for g in range(1, group.order) if group.power(g, 2) == 0)


def _under(group, e_v):
    """p_t e_V for an involution t, or p_t where that is zero."""
    p_t = averaging_idempotent(group, [0, _involution(group)])
    return p_t if (p_t * e_v).is_zero() else p_t * e_v


@pytest.fixture(scope="module")
def ideal_cases(small_groups, small_tables, t24, rep80):
    """name -> (group, domain, random nonzero scalar, e_V, an idempotent f),
    f the first diagonal idempotent l1 over L."""
    out = {}
    for name, table in (("S3", small_tables["S3"]), ("Q8", small_tables["Q8"]),
                        ("order24", t24)):
        orbit = next(o for o in galois_orbits(table) if _top_degree(table) in o.char_indices)
        e_v = rational_central_idempotent(table, orbit)
        out[f"Q-{name}"] = (table.group, RATIONALS,
                            lambda rng: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                                 rng.randint(1, 2)),
                            e_v, _under(table.group, e_v))
    for name, level in (("S3", 3), ("Q8", 4)):
        table = small_tables[name]
        e_v = central_idempotent(table, _top_degree(table))
        out[f"cyclotomic-{name}"] = (
            table.group, e_v.domain,
            lambda rng, level=level: root_of_unity(level, rng.randrange(level)) * rng.randint(1, 3),
            e_v, _under(table.group, e_v))
    for name, rep in (("order80", rep80), ("Q8", q8_case(small_groups, small_tables)[0])):
        nf = rep.field
        out[f"L-{name}"] = (rep.group, FieldDomain(nf),
                            lambda rng, nf=nf: nf.gen() * rng.randint(1, 3) + rng.randint(-2, 2),
                            central_idempotent_over_field(rep), diagonal_idempotents(rep)[0])
    return out


IDEAL_CASES = ["Q-S3", "Q-Q8", "Q-order24", "cyclotomic-S3", "cyclotomic-Q8", "L-order80",
               "L-Q8"]


@pytest.mark.parametrize("name", IDEAL_CASES)
def test_ideal_dims_and_orbit_verdicts_match_the_row_echelon(ideal_cases, name):
    """The zero element, a unit 2 + x, three seeded sparse elements
    (1 + t)(c + d y), y not 1 or t, whose ideals lie in the one of 1 + t,
    2e_V and 3f + e_V."""
    group, domain, scalar, e_v, f = ideal_cases[name]
    rng = random.Random(name)

    def b(g):
        return basis(group, g, domain)

    t = _involution(group)
    others = [g for g in range(1, group.order) if g != t]
    elements = [AlgebraElement.zero(group, domain), b(0) * 2 + b(group.generators[0])]
    elements += [(b(0) + b(t)) * (b(0) * scalar(rng) + b(rng.choice(others)) * scalar(rng))
                 for _ in range(3)]
    elements += [e_v * 2, f * 3 + e_v]
    dims = []
    for a in elements:
        assert a.is_zero() or not a.is_idempotent()
        dims.append(ref.reference_ideal_dim(a))
        assert ideal_dim(a) == dims[-1]
        if domain.kind == "numberfield":
            assert orbit_module_check(a) == ref.reference_orbit_module_check(a)
    assert dims[:2] == [0, group.order] and all(0 < d <= group.order // 2 for d in dims[2:5])
