"""``linalg.solve_in_span`` as it was before ``CoordinateSpan`` read
coordinates off one echelon form, kept verbatim as the differential oracle
of ``test_linalg_oracle.py``."""

from __future__ import annotations


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
