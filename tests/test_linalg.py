"""CoordinateSpan.add: a vector inside the span is rejected before any row is
inserted, and accepted vectors are stored exactly as the unit-tail method
stores them."""

import random
from fractions import Fraction

from isotypic.linalg import CoordinateSpan, Echelon


def unit_tail_add(ech, vec):
    """The insertion that CoordinateSpan.add replaced: insert every vector
    with a unit tail, then pop the row again if its pivot is in the tail."""
    ech.add(list(vec) + [ech.zero] * ech.rank + [ech.one])
    if ech.pivot_cols[-1] < len(vec):
        return True
    ech.rows.pop()
    ech.pivot_cols.pop()
    return False


def test_rejected_vector_makes_no_echelon_insertion(monkeypatch):
    span = CoordinateSpan(Fraction(0), Fraction(1))
    assert span.add([1, 2, 3]) and span.add([0, 1, 1])
    rows = [list(row) for row in span.ech.rows]
    calls = []
    real_add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda ech, vec: calls.append(vec) or real_add(ech, vec))
    assert not span.add([2, 5, 7])  # 2 (1, 2, 3) + (0, 1, 1)
    assert not span.add([0, 0, 0])
    assert calls == [] and span.ech.rows == rows and span.rank == 2
    assert span.coordinates([2, 5, 7]) == [2, 1]
    assert span.add([0, 0, 1])
    assert len(calls) == 1 and span.rank == 3


def test_rows_match_the_unit_tail_insertion():
    rng = random.Random(7)
    for _ in range(40):
        width = rng.randrange(1, 6)
        span, ech = CoordinateSpan(Fraction(0), Fraction(1)), Echelon(Fraction(0), Fraction(1))
        kept = []
        for _ in range(rng.randrange(1, 9)):
            if kept and rng.random() < 0.4:  # a combination of accepted vectors
                vec = [sum(rng.randrange(-2, 3) * v[j] for v in kept) for j in range(width)]
            else:
                vec = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(width)]
            added = span.add(vec)
            assert added == unit_tail_add(ech, vec)
            if added:
                kept.append(vec)
        assert span.ech.rows == ech.rows and span.ech.pivot_cols == ech.pivot_cols
