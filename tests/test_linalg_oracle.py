"""CoordinateSpan checked against the solver it replaced
(``linalg_reference.solve_in_span``), and the restricted action and the
nullspaces of the Dixon split against the ``_solve_action`` and
``_nullspace_mod`` they replaced (``character_table_reference.py``)."""

import random
from fractions import Fraction

import pytest

import character_table_reference as ref
from isotypic import characters
from isotypic.groupalgebra import _matrix_units
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
    column = _matrix_units(rep80, 0)
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


def _echelon_basis(rng, count, width, p):
    """A random reduced echelon basis and its pivot columns."""
    pivots = sorted(rng.sample(range(width), count))
    basis = []
    for piv in pivots:
        vec = [0] * width
        vec[piv] = 1
        for j in range(piv + 1, width):
            if j not in pivots:
                vec[j] = rng.randrange(p)
        basis.append(vec)
    return basis, pivots


@pytest.mark.parametrize("seed", range(12))
def test_solve_action_matches_reference(seed):
    """The restricted action read off the pivots of an echelon basis, from
    the sparse rows of a matrix that keeps its span, against the solver it
    replaced."""
    rng = random.Random(200 + seed)
    p = rng.choice((31, 101, 241, 1009))
    d = rng.randint(1, 6)
    width = d + rng.randint(0, 4)
    basis, pivots = _echelon_basis(rng, d, width, p)
    action = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
    images = [[sum(c * b[t] for c, b in zip(row, basis)) % p for t in range(width)]
              for row in action]
    # M x = sum_b x[pivots[b]] images[b] + R (x - sum_b x[pivots[b]] basis[b]):
    # M basis[b] = images[b], and the random R acts off the span
    noise = [[rng.randrange(p) for _ in range(width)] for _ in range(width)]
    at_pivot = {piv: b for b, piv in enumerate(pivots)}
    matrix = []
    for k in range(width):
        row = []
        for j in range(width):
            b = at_pivot.get(j)
            off = [int(t == j) - (basis[b][t] if b is not None else 0) for t in range(width)]
            x = sum(r * y for r, y in zip(noise[k], off))
            row.append((x + (images[b][k] if b is not None else 0)) % p)
        matrix.append(row)
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in matrix]
    got = characters._restricted_action(rows, basis, pivots, p)
    assert got == [list(col) for col in zip(*ref._solve_action(basis, images, p))]
    assert got == [list(col) for col in zip(*action)]


@pytest.mark.parametrize("seed", range(12))
def test_nullspace_matches_reference_as_a_space(seed):
    rng = random.Random(300 + seed)
    p = rng.choice((31, 101, 241, 1009))
    d = rng.randint(1, 7)
    rank = rng.randint(0, d)
    # a d x d matrix of rank at most `rank`, as a product of random factors
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(d)]
    right = [[rng.randrange(p) for _ in range(d)] for _ in range(rank)]
    matrix = [[sum(left[i][k] * right[k][j] for k in range(rank)) % p for j in range(d)]
              for i in range(d)]
    new = characters._nullspace_mod(matrix, p)
    old = ref._nullspace_mod(matrix, p)
    assert len(new) == len(old)
    for vec in new:
        assert all(sum(a * x for a, x in zip(row, vec)) % p == 0 for row in matrix)
    if old:
        # every new vector is a combination of the old basis (the old solver
        # raises InvariantError otherwise), and the new basis is independent
        ref._solve_action(old, new, p)
        ref._solve_action(new, old, p)
    # the tail of a dependent column is 1 there, 0 at the other dependent
    # columns: the reduced basis that Gauss-Jordan reads off, so even the
    # vectors agree
    assert new == old
