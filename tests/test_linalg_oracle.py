"""The solve on a nonsingular minor (``ColumnEchelon.coordinates``) checked
against the solver it replaced (``linalg_reference.solve_in_span``),
``CycEmbedding`` against the embedding it replaced on ``CoordinateSpan``
(``linalg_reference.CoordinateSpanEmbedding``), and the Krylov walk and the
spectral projectors of the Dixon split against the restricted action and
the eigenspaces of the split they replaced (``_solve_action`` and
``_nullspace_mod`` of ``character_table_reference.py``)."""

import random
from fractions import Fraction

import pytest

import character_table_reference as ref
from algebra_reference import reference_matrix_units
from builders import root_of_unity
from isotypic import RATIONAL_FIELD
from isotypic import characters
from isotypic.cyclotomic import CycValue, cyclotomic_polynomial, euler_phi, unit_group
from isotypic.errors import ValidationError
from isotypic.linalg import column_echelon
from isotypic.numberfield import CycEmbedding, NumField
from linalg_reference import CoordinateSpanEmbedding, solve_in_span
from worked_examples import order80_field, order80_k_and_l, sqrt_minus5_cyclotomic

F = Fraction
Q = RATIONAL_FIELD.from_rational


def _columns(basis):
    """(g, column g) of the matrix whose rows are the basis vectors."""
    return [(g, [vec[g] for vec in basis]) for g in range(len(basis[0]))]


def _rank(basis, zero):
    return column_echelon(_columns(basis), len(basis), zero).rank


def _coordinates(basis, target, zero):
    """The coordinates of target in the independent basis, solved on the
    pivot minor of its column echelon and checked on every column, or None
    outside the span."""
    columns = _columns(basis)
    ech = column_echelon(columns, len(basis), zero)
    assert ech.rank == len(basis)
    return ech.coordinates(target, columns)


def _rejects_at(basis, zero):
    """The index of the first vector that depends on those before it, read
    off the ranks of the column echelons of the leading vectors (None if the
    basis is independent)."""
    return next((i for i in range(len(basis)) if _rank(basis[:i + 1], zero) == i), None)


def _reference_rejects_at(basis, zero, one):
    """The index at which solve_in_span first finds the basis dependent."""
    for i in range(1, len(basis) + 1):
        try:
            solve_in_span(basis[:i], basis[0], zero, one)
        except ValueError:
            return i - 1
    return None


def _random_vec(rng, width):
    return [F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(width)]


def _combination(rng, basis, zero):
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in basis]
    vec = [zero] * len(basis[0])
    for c, b in zip(coeffs, basis):
        vec = [x + c * y for x, y in zip(vec, b)]
    return vec


def _over_q(vec):
    return [Q(c) for c in vec]


@pytest.mark.parametrize("seed", range(12))
def test_coordinates_match_solve_in_span_on_fractions(seed):
    rng = random.Random(seed)
    width = rng.randint(2, 7)
    zero, one = F(0), F(1)
    while True:
        basis = [_random_vec(rng, width) for _ in range(rng.randint(1, width))]
        if _reference_rejects_at(basis, zero, one) is None:
            break
    basis_q = [_over_q(vec) for vec in basis]
    assert _rejects_at(basis_q, Q(0)) is None
    targets = [_combination(rng, basis, zero) for _ in range(4)]
    targets += [_random_vec(rng, width) for _ in range(4)]
    targets.append([zero] * width)
    for t in targets:
        coords = _coordinates(basis_q, _over_q(t), Q(0))
        expected = solve_in_span(basis, t, zero, one)
        assert (None if coords is None else [c.as_rational() for c in coords]) == expected
    if len(basis) < width:
        # a vector outside the span exists; both must answer None on one
        assert any(_coordinates(basis_q, _over_q(t), Q(0)) is None for t in
                   [[one if j == k else zero for j in range(width)] for k in range(width)])


@pytest.mark.parametrize("seed", range(8))
def test_dependent_basis_rejected_where_solve_in_span_raised(seed):
    rng = random.Random(100 + seed)
    width = rng.randint(3, 6)
    zero, one = F(0), F(1)
    basis = [_random_vec(rng, width) for _ in range(rng.randint(1, width - 1))]
    at = rng.randint(1, len(basis))
    basis.insert(at, _combination(rng, basis[:at], zero))
    basis += [_random_vec(rng, width) for _ in range(2)]
    expected = _reference_rejects_at(basis, zero, one)
    assert expected is not None
    basis_q = [_over_q(vec) for vec in basis]
    assert _rejects_at(basis_q, Q(0)) == expected
    assert _rank(basis_q[:expected], Q(0)) == expected


def test_coordinates_match_solve_in_span_over_order80_field(rep80):
    """The block-selection basis of the order-80 example: the matrix units
    E_i1 spanning the ideal of ell_1 and their Gal(L/K) translates, vectors
    of length 80 over L."""
    nf = rep80.field
    column = reference_matrix_units(rep80, 0)
    vecs = [[nf.apply_auto(h, c) for c in vec] for h in nf.subfield_fixers for vec in column]
    zero, one = nf.zero(), nf.one()
    assert _rejects_at(vecs, zero) is None
    rng = random.Random(7)
    t = nf.gen()
    inside = [sum((v[j] * (t * rng.randint(-2, 2) + rng.randint(-2, 2)) for v in vecs), zero)
              for j in range(len(vecs[0]))]
    outside = list(inside)
    outside[0] = outside[0] + one
    for target in (inside, outside, vecs[3], [zero] * len(inside)):
        assert _coordinates(vecs, target, zero) == solve_in_span(vecs, target, zero, one)
    assert _coordinates(vecs, outside, zero) is None


def _cyclotomic_field(m):
    """Q(zeta_m) declared as L = Q[t]/(Phi_m), t -> t^k for the units k."""
    return NumField(cyclotomic_polynomial(m),
                    [root_of_unity(m, k).coeffs for k in unit_group(m)])


def _outcome(make, *args):
    """What make(*args) returns, or the message of the ValidationError it raises."""
    try:
        return make(*args)
    except ValidationError as exc:
        return str(exc)


def _assert_embeddings_agree(field, generator, image, values):
    """The embedding and its CoordinateSpan reference are refused with one
    message or built with one degree, and give each value one image or one
    refusal; returns the embedding (None if refused)."""
    new = _outcome(CycEmbedding, field, generator, image)
    old = _outcome(CoordinateSpanEmbedding, field, generator, image)
    if isinstance(old, str):
        assert new == old
        return None
    assert len(new._pivots) == len(old._images)
    for v in values:
        assert _outcome(new.embed, v) == _outcome(old.embed, v)
    return new


# declared fields L = Q(zeta_m) for generators written at level n: all of
# Q(zeta_n) when m = n, a subfield otherwise
EMBEDDING_LEVELS = [(8, 8), (12, 12), (20, 20), (40, 40), (40, 8), (105, 7), (105, 15),
                    (105, 21)]


@pytest.mark.parametrize("level,m", EMBEDDING_LEVELS, ids=lambda x: str(x))
def test_embedding_matches_coordinate_span(level, m):
    """Generators a*eta + b, eta the period of zeta_m over a random subgroup
    of units (zeta_m itself for the trivial one, which generates Q(zeta_m),
    and a rational for the whole group), embedded by t -> t^k, or by a
    damaged image.  Values: polynomials in the generator, zeta_level and
    random values of Q(zeta_level)."""
    rng = random.Random(level * 1000 + m)
    field = _cyclotomic_field(m)
    units = unit_group(m)
    zeta = root_of_unity(level)
    for subgroup_generator in (1, units[-1], *rng.sample(units, min(3, len(units))), None):
        if subgroup_generator is None:  # the whole group: a rational generator
            subgroup = units
        else:
            subgroup = {pow(subgroup_generator, i, m) for i in range(euler_phi(m))}
        eta = sum((root_of_unity(m, h) for h in subgroup), CycValue.zero(m))
        g = eta * rng.randint(1, 3) + rng.randint(-2, 2)
        k = rng.choice(units)
        image = field.value(g.galois(k).coeffs)
        g = g.to_level(level)
        polys = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)] for _ in range(3)]
        values = [sum((g ** i * c for i, c in enumerate(cs)), CycValue.zero(level))
                  for cs in polys]
        values += [zeta, zeta ** 3 + 1, CycValue(level, _random_vec(rng, euler_phi(level)))]
        emb = _assert_embeddings_agree(field, g, image, values)
        assert emb is not None
        degree = len(emb._pivots)
        if subgroup_generator == 1 and m == level:
            assert degree == euler_phi(level)
        if subgroup is units:
            assert degree == 1
        for v, cs in zip(values, polys):  # a polynomial in g maps to one in the image
            assert emb.embed(v) == sum((image ** i * c for i, c in enumerate(cs)), field.zero())
        if degree < euler_phi(level):
            assert _outcome(emb.embed, zeta) == "value lies outside the declared embedded subfield"
        assert _assert_embeddings_agree(field, g, image + 1, values) is None


def test_sqrt_minus5_embedding_matches_coordinate_span():
    """sqrt(-5) at level 40 into the order-80 field, by its image k = sqrt(-5)
    and by l = sqrt(-2), which is not a conjugate."""
    field = order80_field()
    k, l = order80_k_and_l(field)
    g = sqrt_minus5_cyclotomic(40)
    zeta = root_of_unity(40)
    values = [g, g * 3 - 7, g ** 5, CycValue.from_rational(F(5, 3)), zeta, zeta ** 4 + g]
    emb = _assert_embeddings_agree(field, g, k, values)
    assert [emb.embed(v) for v in values[:4]] == [k, k * 3 - 7, k ** 5, field.from_rational(F(5, 3))]
    assert _assert_embeddings_agree(field, g, l, values) is None
    assert _outcome(CycEmbedding, field, g, l) == (
        "declared embedding is inconsistent: image is not a conjugate of the generator")


def _similar(rng, diagonal, p, jordan=False):
    """A random matrix similar over F_p to diag(diagonal), as dense rows: a
    1 above each repeated diagonal entry when jordan, then random
    elementary similarities E mat E^-1, E = 1 + c e_ij."""
    d = len(diagonal)
    mat = [[diagonal[i] if i == j else 0 for j in range(d)] for i in range(d)]
    if jordan:
        for i in range(d - 1):
            if diagonal[i] == diagonal[i + 1]:
                mat[i][i + 1] = 1
    for _ in range(3 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.randrange(1, p)
        mat[i] = [(a + c * b) % p for a, b in zip(mat[i], mat[j])]
        for row in mat:
            row[j] = (row[j] - c * row[i]) % p
    return mat


def _sparse(mat):
    return [[(j, c) for j, c in enumerate(row) if c] for row in mat]


def _apply(mat, vec, p):
    return [sum(a * x for a, x in zip(row, vec)) % p for row in mat]


def _spectrum(rng, d, p):
    """d eigenvalues from a few, so that most repeat, in random order."""
    few = rng.sample(range(p), rng.randint(1, min(d, 4)))
    return [rng.choice(few) for _ in range(d)]


@pytest.mark.parametrize("seed", range(12))
def test_krylov_vectors_span_an_invariant_space(seed):
    """The Krylov vectors of a start vector span a space the matrix keeps,
    and its action there, solved by the reference, is the companion matrix
    of the minimal polynomial the walk returns; Jordan blocks included."""
    rng = random.Random(200 + seed)
    p = rng.choice((31, 101, 241, 1009))
    d = rng.randint(1, 7)
    mat = _similar(rng, _spectrum(rng, d, p), p, jordan=seed % 2 == 1)
    start = [rng.randrange(p) for _ in range(d)]
    if not any(start):
        start[0] = 1
    vectors, poly = characters._krylov_mod(_sparse(mat), start, p)
    k = len(vectors)
    assert vectors[0] == start and len(poly) == k + 1 and poly[k] == 1
    for a in range(1, k):
        assert vectors[a] == _apply(mat, vectors[a - 1], p)
    images = [_apply(mat, v, p) for v in vectors]
    # raises InvariantError when the vectors are dependent or the images
    # leave their span
    action = ref._solve_action(vectors, images, p)
    companion = [[int(b == a + 1) for b in range(k)] for a in range(k - 1)]
    companion.append([-c % p for c in poly[:k]])
    assert action == companion


@pytest.mark.parametrize("seed", range(12))
def test_projections_lie_in_eigenspaces_and_sum_to_start(seed):
    """The spectral projections of a start vector under a diagonalizable
    matrix with repeated eigenvalues: one per eigenvalue, in increasing
    order, each in the eigenspace that the reference nullspace spans, and
    summing to the start vector."""
    rng = random.Random(300 + seed)
    p = rng.choice((31, 101, 241, 1009))
    d = rng.randint(1, 7)
    spectrum = _spectrum(rng, d, p)
    mat = _similar(rng, spectrum, p)
    start = [rng.randrange(p) for _ in range(d)]
    if not any(start):
        start[0] = 1
    vectors, poly = characters._krylov_mod(_sparse(mat), start, p)
    parts = characters._projections(vectors, poly, p)
    roots = characters._roots_mod(poly, p)
    assert len(parts) == len(roots) == len(poly) - 1
    assert [sum(xs) % p for xs in zip(*parts)] == start
    for mu, part in zip(roots, parts):
        assert mu in spectrum and any(part)
        assert _apply(mat, part, p) == [mu * x % p for x in part]
        null = ref._nullspace_mod([[(a - (mu if i == j else 0)) % p for j, a in enumerate(row)]
                                   for i, row in enumerate(mat)], p)
        ref._solve_action(null, [part], p)  # raises InvariantError outside the span
