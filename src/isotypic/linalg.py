"""Exact row-echelon accumulation over any exact field-like scalar type.

Scalars must support +, -, *, /, and ==.  Pivoting is first-nonzero only,
so every result is deterministic for a fixed insertion order.
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
