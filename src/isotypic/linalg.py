"""Exact echelon forms over any exact field-like scalar type.

ColumnEchelon, the package's one elimination over Q, Q(zeta) or L, reads a
matrix by columns, for callers that want a rank, a basis among the rows or
the coordinates of one vector: column rank equals row rank and neither
exceeds the row count, so the reading stops there.  A pivot entry is
inverted only when a later column or a solve uses it, and the pivot columns
it accepts are a nonsingular minor when the rows are independent, on which
``solve`` finds coordinates by one back substitution.  ``coordinates`` then
compares them with the target on every column: a vector lies in the row
space exactly when its solution on the minor reproduces it there (with
dependent rows the solution vanishes off the pivot rows, and restriction to
the pivot columns is still one-to-one on the row space).

Echelon keeps the pivot-normalized rows of a span (scalars with +, -, *, /
and ==, first-nonzero pivots).  No library path calls it: it is the tests'
row-echelon reference and the benchmark's linalg hook.
"""

from __future__ import annotations


class Echelon:
    """Incremental pivot-normalized row store, kept for the tests and the benchmark."""

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


class ColumnEchelon:
    """Column echelon of a matrix with ``height`` rows, fed one column at a time.

    Scalars are field values with ``is_zero()`` and ``inverse()``.  A column
    c meeting a stored column p with pivot entry p[r] becomes
    c - (c[r] / p[r]) p.  Columns are stored as reduced, not divided by their
    pivot entries, and the inverse of a pivot entry is computed the first
    time it is used, so a rank costs no inverse for a pivot that no later
    column meets.  Each accepted column is kept with its pivot row, the key
    it was read under and the (index, c[r] / p[r]) steps that reduced it,
    so ``solve`` can replay them on a right-hand side.
    """

    def __init__(self, height, zero):
        self.height = height
        self.zero = zero
        self.cols = []
        self.pivot_rows = []
        self.keys = []
        self._steps = []
        self._inverses = []

    @property
    def rank(self) -> int:
        return len(self.cols)

    def _inverse(self, k):
        """1 / (pivot entry of column k), computed once."""
        if self._inverses[k] is None:
            self._inverses[k] = self.cols[k][self.pivot_rows[k]].inverse()
        return self._inverses[k]

    def add(self, key, col) -> bool:
        """Insert a column; returns True if it increased the rank."""
        steps = []
        for k, (p, r) in enumerate(zip(self.cols, self.pivot_rows)):
            if not col[r].is_zero():
                f = col[r] * self._inverse(k)
                col = [x if y.is_zero() else x - f * y for x, y in zip(col, p)]
                steps.append((k, f))
        piv = next((i for i, c in enumerate(col) if not c.is_zero()), None)
        if piv is None:
            return False
        self.cols.append(col)
        self.pivot_rows.append(piv)
        self.keys.append(key)
        self._steps.append(steps)
        self._inverses.append(None)
        return True

    def solve(self, rhs):
        """A row vector x with x . (column read under keys[k]) = rhs[k] for
        every k, zero off the pivot rows.

        The reduction steps turn rhs[k] into w[k] = x . cols[k]; cols[k] is
        zero at the pivot rows of the columns before it, so the system is
        triangular and is solved from the last pivot back.  When the rank is
        the height, the pivot columns are a nonsingular minor and x is the
        only solution.
        """
        w = []
        for value, steps in zip(rhs, self._steps):
            for k, f in steps:
                if not w[k].is_zero():
                    value = value - f * w[k]
            w.append(value)
        x = [self.zero] * self.height
        for k in range(self.rank - 1, -1, -1):
            col, acc = self.cols[k], w[k]
            for r in self.pivot_rows[k + 1:]:
                if not x[r].is_zero() and not col[r].is_zero():
                    acc = acc - col[r] * x[r]
            if not acc.is_zero():
                x[self.pivot_rows[k]] = acc * self._inverse(k)
        return x

    def coordinates(self, target, columns):
        """The solution x on the pivot minor of the vector with entries
        target[key], or None if x . column != target[key] for some (key,
        column) pair of columns, that is, if the vector lies outside the row
        space when columns are all the columns of the matrix."""
        x = self.solve([target[key] for key in self.keys])
        if all(dot(x, col, self.zero) == target[key] for key, col in columns):
            return x
        return None


def dot(xs, ys, zero):
    """sum x y over the pairs with no zero factor."""
    acc = None
    for x, y in zip(xs, ys):
        if not x.is_zero() and not y.is_zero():
            acc = x * y if acc is None else acc + x * y
    return zero if acc is None else acc


def column_echelon(columns, height, zero, stop=None) -> ColumnEchelon:
    """The echelon of the (key, column) pairs, read in order until the rank
    reaches stop (the height by default); no pair is drawn after that, so a
    lazy iterable builds only the columns that are read."""
    ech = ColumnEchelon(height, zero)
    stop = height if stop is None else stop
    if stop > 0:
        for key, col in columns:
            if ech.add(key, col) and ech.rank == stop:
                break
    return ech
