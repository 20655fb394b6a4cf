"""ColumnEchelon: its rank is the row rank, its solve on the pivot minor
decides row-space membership as Echelon does, and it reads no column after
the rank reaches the row count.  Echelon is the row-echelon reference here
and no module of the package but ``linalg`` names it."""

import ast
import random
from pathlib import Path

from isotypic import RATIONAL_FIELD, NumField
from isotypic.linalg import Echelon, column_echelon


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
            assert (ech.coordinates(target, enumerate(columns)) is not None) == member
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


def test_only_linalg_names_echelon():
    """Every elimination over Q, Q(zeta) or L goes through column_echelon:
    no other module imports, calls or mentions the row Echelon in its code."""
    package = Path(__file__).resolve().parents[1] / "src" / "isotypic"
    naming = sorted(path.name for path in package.glob("*.py")
                    if any(isinstance(node, ast.Name) and node.id == "Echelon"
                           or isinstance(node, ast.Attribute) and node.attr == "Echelon"
                           or isinstance(node, ast.alias) and node.name == "Echelon"
                           or isinstance(node, ast.ClassDef) and node.name == "Echelon"
                           for node in ast.walk(ast.parse(path.read_text(), str(path)))))
    assert naming == ["linalg.py"]
