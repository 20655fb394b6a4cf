"""CoordinateSpan.add: a vector inside the span is rejected before any row is
inserted, and accepted vectors are stored exactly as the unit-tail method
stores them.  ColumnEchelon: its rank is the row rank, its solve on the
pivot minor decides row-space membership as Echelon does, and it reads no
column after the rank reaches the row count."""

import random
from fractions import Fraction

from isotypic import RATIONAL_FIELD, NumField
from isotypic.linalg import CoordinateSpan, Echelon, column_echelon


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


def test_column_echelon_reads_row_rank_and_row_space_membership():
    """Seeded matrices over Q(i) with planted dependent rows and zero
    entries: the column echelon's rank is the row rank, a solve on the pivot
    minor decides row-space membership by comparing every column, and on
    independent rows it is the unique solution."""
    qi = NumField([1, 0, 1], [[0, 1], [0, -1]])
    zero, one, i = qi.zero(), qi.one(), qi.gen()
    rng = random.Random(11)

    def scalar():
        return zero if rng.random() < 0.4 else qi.value([rng.randint(-3, 3), rng.randint(-3, 3)])

    for _ in range(60):
        height, width = rng.randint(1, 5), rng.randint(1, 7)
        rows = [[scalar() for _ in range(width)] for _ in range(height)]
        if height > 1 and rng.random() < 0.5:  # a combination of the others
            rows[-1] = [sum((r[j] * (i + k) for k, r in enumerate(rows[:-1])), zero)
                        for j in range(width)]
        coeffs = [qi.from_rational(rng.randint(-2, 2)) for _ in rows]
        inside = [sum((c * r[j] for c, r in zip(coeffs, rows)), zero) for j in range(width)]
        outside = [scalar() for _ in range(width)]
        row_echelon = Echelon(zero, one)
        for row in rows:
            row_echelon.add(row)
        columns = [[row[g] for row in rows] for g in range(width)]
        ech = column_echelon(enumerate(columns), height, zero)
        assert ech.rank == row_echelon.rank
        for target in (inside, outside):
            x = ech.solve([target[g] for g in ech.keys])
            member = all(sum((a * b for a, b in zip(x, col)), zero) == target[g]
                         for g, col in enumerate(columns))
            assert member == row_echelon.contains(target)
        if ech.rank == height:  # independent rows: the solution is the only one
            assert ech.solve([inside[g] for g in ech.keys]) == coeffs


def test_column_echelon_stops_at_the_row_count():
    """No column is drawn once the rank reaches the stop, the row count by
    default."""
    reads = []

    def columns():
        for g in range(10):
            reads.append(g)
            yield g, [RATIONAL_FIELD.from_rational(g), RATIONAL_FIELD.from_rational(g * g)]

    ech = column_echelon(columns(), 2, RATIONAL_FIELD.zero())
    assert ech.rank == 2 and ech.keys == [1, 2] and reads == [0, 1, 2]
    assert column_echelon(columns(), 2, RATIONAL_FIELD.zero(), stop=1).keys == [1]
    assert column_echelon(iter([]), 0, RATIONAL_FIELD.zero()).rank == 0
