"""Exact row-echelon accumulation over any exact field-like scalar type.

Scalars must support +, -, *, /, and ==.  Pivoting is first-nonzero only,
so every result is deterministic for a fixed insertion order.

Echelon keeps the pivot-normalized rows of a span and answers rank and
membership.  CoordinateSpan also reads coordinates off the same echelon
form by the augmented-matrix method (Cohen, GTM 138, 2.3): the k-th
accepted vector is echelonized with the k-th unit vector appended, so the
tail of a residual is minus the coordinates of what its head removed.
"""

from __future__ import annotations


class Echelon:
    """Incremental pivot-normalized row store; rows are lists of scalars."""

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one
        self.rows = []
        self.pivot_cols = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, vec):
        vec = list(vec)
        for row, piv in zip(self.rows, self.pivot_cols):
            c = vec[piv]
            if c != self.zero:
                for j, rj in enumerate(row):
                    if rj != self.zero:
                        vec[j] = vec[j] - c * rj
        return vec

    def contains(self, vec) -> bool:
        return all(c == self.zero for c in self.residual(vec))

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it increased the rank."""
        vec = self.residual(vec)
        piv = next((j for j, c in enumerate(vec) if c != self.zero), None)
        if piv is None:
            return False
        inv = self.one / vec[piv]
        self.rows.append([c * inv for c in vec])
        self.pivot_cols.append(piv)
        return True


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
