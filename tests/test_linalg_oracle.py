"""CoordinateSpan checked against the solver it replaced
(``linalg_reference.solve_in_span``), and the Krylov walk and the spectral
projectors of the Dixon split against the restricted action and the
eigenspaces of the split they replaced (``_solve_action`` and
``_nullspace_mod`` of ``character_table_reference.py``)."""

import random
from fractions import Fraction

import pytest

import character_table_reference as ref
from algebra_reference import reference_matrix_units
from isotypic import characters
from isotypic.linalg import CoordinateSpan
from linalg_reference import solve_in_span

F = Fraction


def _span(basis, zero, one):
    """A CoordinateSpan of the basis, and the index of the first vector it
    rejects (None if it accepts them all)."""
    span = CoordinateSpan(zero, one)
    for i, vec in enumerate(basis):
        if not span.add(vec):
            return span, i
    return span, None


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


@pytest.mark.parametrize("seed", range(12))
def test_coordinates_match_solve_in_span_on_fractions(seed):
    rng = random.Random(seed)
    width = rng.randint(2, 7)
    zero, one = F(0), F(1)
    while True:
        basis = [_random_vec(rng, width) for _ in range(rng.randint(1, width))]
        if _reference_rejects_at(basis, zero, one) is None:
            break
    span, rejected = _span(basis, zero, one)
    assert rejected is None and span.rank == len(basis)
    targets = [_combination(rng, basis, zero) for _ in range(4)]
    targets += [_random_vec(rng, width) for _ in range(4)]
    targets.append([zero] * width)
    for t in targets:
        assert span.coordinates(t) == solve_in_span(basis, t, zero, one)
    if len(basis) < width:
        # a vector outside the span exists; both must answer None on one
        assert any(span.coordinates(t) is None for t in
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
    span, rejected = _span(basis, zero, one)
    assert rejected == expected
    assert span.rank == expected  # a rejected vector leaves the span as it was


def test_coordinates_match_solve_in_span_over_order80_field(rep80):
    """The block-selection basis of the order-80 example: the matrix units
    E_i1 spanning the ideal of ell_1 and their Gal(L/K) translates, vectors
    of length 80 over L."""
    nf = rep80.field
    column = reference_matrix_units(rep80, 0)
    vecs = [[nf.apply_auto(h, c) for c in vec] for h in nf.subfield_fixers for vec in column]
    zero, one = nf.zero(), nf.one()
    span, rejected = _span(vecs, zero, one)
    assert rejected is None
    rng = random.Random(7)
    t = nf.gen()
    inside = [sum((v[j] * (t * rng.randint(-2, 2) + rng.randint(-2, 2)) for v in vecs), zero)
              for j in range(len(vecs[0]))]
    outside = list(inside)
    outside[0] = outside[0] + one
    for target in (inside, outside, vecs[3], [zero] * len(inside)):
        assert span.coordinates(target) == solve_in_span(vecs, target, zero, one)
    assert span.coordinates(outside) is None


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
def test_solve_action_matches_reference(seed):
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
def test_nullspace_matches_reference_as_a_space(seed):
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
