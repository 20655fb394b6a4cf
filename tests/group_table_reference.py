"""Reference certification of a group table, one entry at a time.

This is the certification in ``FiniteGroup.__init__`` as it was before it
compared whole rows: the identity checked entry by entry, each inverse
found by a scan of its row, and Light's associativity test as one
comparison per triple (a, g, b).  The generator closure is the shared
``FiniteGroup._closure_of``.  ``test_groups.py`` uses it as the oracle of
every verdict and message.
"""

from isotypic.errors import ValidationError
from isotypic.groups import FiniteGroup


class ReferenceFiniteGroup(FiniteGroup):
    """A certified table, with the inverses and the generators, and nothing else."""

    def __init__(self, mul_table, generators=None):
        n = len(mul_table)
        if n == 0 or any(len(row) != n for row in mul_table):
            raise ValidationError("not a group table: table is not square")
        self.order = n
        self._mul = tuple(map(tuple, mul_table))
        for row in self._mul:
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
                x = next(x for x in row if type(x) is not int or not 0 <= x < n)
                raise ValidationError(f"not a group table: entry {x!r} " + (
                    "out of range" if type(x) is int else "is not an integer"))

        if any(self._mul[0][j] != j for j in range(n)) or any(
            self._mul[i][0] != i for i in range(n)
        ):
            raise ValidationError("not a group table: index 0 is not a two-sided identity")

        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self._mul[a][b] == 0:
                    if self._mul[b][a] != 0:
                        raise ValidationError(
                            f"not a group table: {b} is a right but not left inverse of {a}"
                        )
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValidationError(f"not a group table: element {a} has no inverse")
        self._inv = tuple(inv)
        self._bit = tuple(1 << g for g in range(n))

        generators = None if generators is None else tuple(generators)
        for g in generators or ():
            if type(g) is not int or not 0 <= g < n:
                raise ValidationError(f"generator {g!r} is not an element index below {n}")
        members, _, greedy = self._closure_of(range(1, n) if generators is None else generators)
        if len(members) != n:
            raise ValidationError(
                f"not a group table: the generators reach {len(members)} of {n} elements"
            )
        self.generators = greedy if generators is None else generators
        self._check_associativity_light()

    def _check_associativity_light(self):
        for g in self.generators:
            row_g = self._mul[g]
            for a in range(self.order):
                row_a = self._mul[a]
                row_ag = self._mul[row_a[g]]
                for b in range(self.order):
                    if row_ag[b] != row_a[row_g[b]]:
                        raise ValidationError(
                            f"not a group table: associativity fails at ({a},{g},{b})"
                        )
