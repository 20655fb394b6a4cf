"""Solvers the library no longer uses, kept as differential oracles.

``solve_in_span`` is ``linalg.solve_in_span`` as it was before
``CoordinateSpan`` read coordinates off one echelon form, kept verbatim.
``CoordinateSpan`` is that echelon form as ``linalg`` had it before
``CycEmbedding`` read its coordinates on a nonsingular minor through
``column_echelon``: the augmented-matrix method (Cohen, GTM 138, 2.3), in
which the k-th accepted vector is echelonized with the k-th unit vector
appended, so the tail of a residual is minus the coordinates of what its
head removed.  ``CoordinateSpanEmbedding`` is that ``CycEmbedding``.
``test_linalg_oracle.py`` compares the library's solve on a minor with
``solve_in_span`` and the embedding with ``CoordinateSpanEmbedding``;
``algebra_reference.py`` builds its block selection on ``CoordinateSpan``.
"""

from __future__ import annotations

from fractions import Fraction

from isotypic.cyclotomic import CycValue
from isotypic.errors import ValidationError
from isotypic.linalg import Echelon


def solve_in_span(basis, target, zero, one):
    """Coefficients expressing target in the given (independent) basis, or None.

    Returns None when the target is outside the span; raises ValueError when
    the supplied basis is linearly dependent.
    """
    n = len(basis)
    rows = []       # pivot-normalized reductions of the basis vectors
    pivots = []
    combos = []     # each stored row as a combination of the original basis

    def reduce(vec, combo):
        vec = list(vec)
        for row, piv, rc in zip(rows, pivots, combos):
            c = vec[piv]
            if c != zero:
                for j, rj in enumerate(row):
                    if rj != zero:
                        vec[j] = vec[j] - c * rj
                for j, rj in enumerate(rc):
                    if rj != zero:
                        combo[j] = combo[j] - c * rj
        return vec

    for i, vec in enumerate(basis):
        combo = [zero] * n
        combo[i] = one
        red = reduce(vec, combo)
        piv = next((j for j, c in enumerate(red) if c != zero), None)
        if piv is None:
            raise ValueError("dependent basis in solve_in_span")
        inv = one / red[piv]
        rows.append([c * inv for c in red])
        pivots.append(piv)
        combos.append([c * inv for c in combo])

    combo = [zero] * n
    red = reduce(target, combo)
    if any(c != zero for c in red):
        return None
    return [zero - c for c in combo]


class CoordinateSpan:
    """Span of independent vectors that also gives coordinates in them.

    The k-th accepted vector is stored with a unit tail of length k + 1, so
    every stored row is its head written as a combination of the accepted
    vectors, and heads keep the pivots that Echelon would give them.
    """

    def __init__(self, zero, one):
        self.ech = Echelon(zero, one)

    @property
    def rank(self) -> int:
        return self.ech.rank

    def add(self, vec) -> bool:
        """Accept a vector outside the span (True); reject one inside it."""
        ech = self.ech
        res = ech.residual(list(vec) + [ech.zero] * ech.rank)
        if all(c == ech.zero for c in res[:len(vec)]):
            return False
        return ech.add(res + [ech.one])

    def coordinates(self, vec):
        """Coefficients of vec in the accepted vectors, or None outside the span."""
        ech = self.ech
        res = ech.residual(list(vec) + [ech.zero] * ech.rank)
        if any(c != ech.zero for c in res[:len(vec)]):
            return None
        return [ech.zero - c for c in res[len(vec):]]


class CoordinateSpanEmbedding:
    """``numberfield.CycEmbedding`` as it stood on ``CoordinateSpan``: the
    degree found by multiplying powers of the generator until one falls in
    the span of those before it, and every coordinate read off the
    augmented echelon form."""

    def __init__(self, field, generator, image):
        self.field = field
        self.generator = generator
        self.image = image
        self._span = span = CoordinateSpan(Fraction(0), Fraction(1))
        top = CycValue.one(generator.level)
        while span.add(list(top.coeffs)):
            top = top * generator
        images = [field.one()]
        for _ in range(span.rank):
            images.append(images[-1] * image)
        self._images = images[:-1]
        coords = span.coordinates(list(top.coeffs))
        acc = images[-1]
        for c, p in zip(coords, images):
            acc = acc - p * c
        if not acc.is_zero():
            raise ValidationError(
                "declared embedding is inconsistent: image is not a conjugate of the generator"
            )

    def embed(self, v):
        if v.is_rational():
            return self.field.from_rational(v.as_rational())
        target = v.to_level(self.generator.level)
        coords = self._span.coordinates(list(target.coeffs))
        if coords is None:
            raise ValidationError("value lies outside the declared embedded subfield")
        acc = self.field.zero()
        for c, p in zip(coords, self._images):
            if c:
                acc = acc + p * c
        return acc
