"""Galois number fields L = Q[t]/(p) declared by minimal polynomial and
explicit automorphisms, with exact quotient-ring arithmetic.

The toolkit never searches for splitting fields: L is always user supplied,
together with the images of t under every automorphism and the subset of
automorphisms whose fixed field is the distinguished subfield K.
Irreducibility of p is certified by Kronecker's method, a complete decision
procedure, run in integers.  A candidate factor of degree k is a tuple of
divisors of p's values at k + 1 nodes; its leading coefficient is the k-th
divided difference of the tuple, summed over one common denominator while
the tuples are enumerated, and only a tuple whose sum is a nonzero integer
dividing lead(p) is interpolated.  The interpolant must also divide p's value
at one more point before it is trial-divided exactly in Z[t].  The rest of the
declaration is certified by Galois theory (see ``NumField``), so no
composition table is built and no polynomial is divided over Q.  Values share
the integer kernel of ``cyclotomic`` and every operator of its ``_Exact``;
``NumFieldValue`` supplies the four hooks: ``_make``, ``_pair`` (a same-field
check), ``_reduction`` (the rows of t^k mod p) and ``_images`` (the declared
automorphisms other than the identity, whose product over the norm is the
inverse).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod

from .cyclotomic import (
    CycValue,
    _combine,
    _Exact,
    _exact_quotient,
    _fold,
    _integral,
    _new,
    _normal,
    _power_table,
    _render_terms,
    poly_trim,
    unit_group,
)
from .errors import BoundExceededError, ValidationError
from .linalg import column_echelon

Rat = Fraction

# Kronecker candidate tuples enumerated per factor degree: this bounds the
# candidate space, not the interpolations, which the leading-coefficient
# filter cuts to 22 of the 1080 tuples of t^4 - 16t^2 + 144.  The declared
# fields in the bundled data and the golden files need at most 960 for one
# degree (that quartic's quadratic factors)
KRONECKER_CANDIDATE_BOUND = 10**5
# bit length of the largest node value whose divisors are listed: trial
# division runs to its square root, at most 2^18 steps per value
KRONECKER_VALUE_BITS = 36


# ---------------------------------------------------------------------------
# irreducibility over Q by Kronecker's method (desk-scale degrees)
# ---------------------------------------------------------------------------


def _int_divisors(n: int):
    n = abs(n)
    if n.bit_length() > KRONECKER_VALUE_BITS:
        raise BoundExceededError(
            f"irreducibility test bound exceeded: a node value of {n.bit_length()} bits"
            f" > {KRONECKER_VALUE_BITS}"
        )
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _interp_points(ipoly, count):
    """count nodes 0, 1, -1, 2, ... with their values, or None at a rational root."""
    pts = []
    x = 0
    while len(pts) < count:
        for cand in ([x] if x == 0 else [x, -x]):
            val = _evaluate(ipoly, cand)
            if val == 0:
                return None
            pts.append((cand, val))
            if len(pts) == count:
                break
        x += 1
    return pts


def is_irreducible(poly) -> bool:
    """Exact irreducibility test over Q via Kronecker interpolation.

    A factor of degree k of the primitive integer polynomial P may be taken
    primitive and integral (Gauss's lemma), so its values at k + 1 integer
    nodes divide those of P and determine it, and its leading coefficient is
    a nonzero integer dividing lead(P).  That coefficient is the k-th divided
    difference sum_i d_i / w_i with w_i = prod_{j != i} (x_i - x_j), so it
    is known from the tuple (d_i) before any interpolation, and only tuples
    that pass are interpolated.  The filter drops every candidate of degree
    below k; those degrees were searched at their own k, and the loop returns
    at the first factor found, so none is missed.  A survivor q must also
    satisfy q(x0) | P(x0) at one more point x0; only then is it
    trial-divided, exactly in integers.  A node value longer than
    KRONECKER_VALUE_BITS bits raises BoundExceededError before its divisors
    are searched, and more than KRONECKER_CANDIDATE_BOUND candidate tuples
    for one factor degree before any is enumerated.
    """
    num = poly_trim(_integral(poly)[0])
    deg = len(num) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    content = gcd(*num)
    ipoly = [c // content for c in num]
    lead = ipoly[-1]
    for k in range(1, deg // 2 + 1):
        pts = _interp_points(ipoly, k + 2)
        if pts is None:
            return False
        (x0, y0), pts = pts[-1], pts[:-1]
        xs = [p[0] for p in pts]
        divisor_lists = []
        for idx, (_, val) in enumerate(pts):
            divs = _int_divisors(val)
            if idx == 0:
                divisor_lists.append(divs)  # sign fixed: -q divides iff q does
            else:
                divisor_lists.append([d for dd in divs for d in (dd, -dd)])
        count = prod(map(len, divisor_lists))
        if count > KRONECKER_CANDIDATE_BOUND:
            raise BoundExceededError(
                f"irreducibility test bound exceeded: {count} Kronecker candidates"
                f" > {KRONECKER_CANDIDATE_BOUND}"
            )
        # the x^k coefficient of the interpolant, sum d_i / w_i, summed over
        # the common denominator den while the tuples are enumerated
        weights = [prod(x - y for y in xs if y != x) for x in xs]
        den = lcm(*weights)
        stack = [(0, ())]
        for divs, w in zip(divisor_lists, weights):
            scale = den // w
            stack = [(top + d * scale, tup + (d,)) for top, tup in stack for d in divs]
        for top, values in stack:
            top, rem = divmod(top, den)
            if rem or not top or lead % top:
                continue
            cand = _integer_interpolant(xs, values)
            if cand is None:
                continue
            at_x0 = _evaluate(cand, x0)
            if at_x0 == 0 or y0 % at_x0:
                continue
            if _exact_quotient(ipoly, cand) is not None:
                return False
    return True


def _evaluate(ipoly, x: int) -> int:
    val = 0
    for c in reversed(ipoly):
        val = val * x + c
    return val


def _integer_interpolant(xs, ys):
    """Integer coefficients of the polynomial through the points, or None.

    Divided differences of an integer polynomial at integer nodes are
    integers, so the first one that is not rules the candidate out.
    """
    n = len(xs)
    diffs = list(ys)
    newton = [diffs[0]]
    for level in range(1, n):
        for i in range(n - level):
            num, den = diffs[i + 1] - diffs[i], xs[i + level] - xs[i]
            if num % den:
                return None
            diffs[i] = num // den
        newton.append(diffs[0])
    # c0 + (x - x0)(c1 + (x - x1)(c2 + ...)), expanded from the inside out
    acc = [newton[-1]]
    for k in range(n - 2, -1, -1):
        nxt = [0] + acc
        for i, c in enumerate(acc):
            nxt[i] -= xs[k] * c
        nxt[0] += newton[k]
        acc = nxt
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------


class NumField:
    """Galois extension of Q with declared automorphisms.

    minpoly: monic rational coefficients, low degree first.
    automorphisms: images of t, each a polynomial reduced mod p on input; the
        identity need not come first in the input but is reordered to index 0.
    subfield_fixers: indices of the automorphisms generating Gal(L/K).

    Certificate: once p is irreducible, L is a field of degree d = deg p, and
    each root F of p in L defines the automorphism t -> F.  Since
    |Aut(L/Q)| <= [L:Q] = d, d pairwise-distinct declared roots are all of
    Aut(L/Q): L/Q is Galois, the identity (the image equal to t) is among
    them and they are closed under composition.  Only the subfield fixers,
    an arbitrary subset, are checked for closure.
    """

    def __init__(self, minpoly, automorphisms, subfield_fixers=(0,)):
        minpoly = [Rat(c) for c in minpoly]
        poly_trim(minpoly)
        if not minpoly or minpoly[-1] != 1:
            raise ValidationError("minimal polynomial must be monic")
        self.degree = len(minpoly) - 1
        if self.degree < 1:
            raise ValidationError("minimal polynomial must have positive degree")
        if not is_irreducible(minpoly):
            raise ValidationError("not a field: minimal polynomial is reducible over Q")
        self.minpoly = tuple(minpoly)

        images = [NumFieldValue(self, img) for img in automorphisms]
        if len(images) != self.degree:
            raise ValidationError(
                f"L/Q not Galois as declared: need {self.degree} automorphisms, got {len(images)}"
            )
        if len({(v.num, v.den) for v in images}) != len(images):
            raise ValidationError("L/Q not Galois as declared: repeated automorphism")
        for image in images:
            acc = self.zero()
            for c in reversed(minpoly):
                acc = acc * image + c
            if not acc.is_zero():
                raise ValidationError(
                    "L/Q not Galois as declared: image is not a root of the minimal polynomial"
                )
        identity = self.gen()
        images.remove(identity)
        self._image_values = images = (identity, *images)
        self.automorphisms = tuple(tuple(poly_trim(list(v.coeffs))) for v in images)

        fixers = tuple(sorted(set(int(i) for i in subfield_fixers) | {0}))
        for i in fixers:
            if not 0 <= i < len(images):
                raise ValidationError("subfield fixer index out of range")
        fixed = {(images[i].num, images[i].den) for i in fixers}
        for i in fixers[1:]:
            for j in fixers[1:]:
                image = self.apply_auto(j, images[i])
                if (image.num, image.den) not in fixed:
                    raise ValidationError("subfield fixers are not closed under composition")
        self.subfield_fixers = fixers
        # equality and hashing read one key of integers, built once
        num, den = _integral(self.minpoly)
        self._key = (tuple(num), den, tuple((v.num, v.den) for v in images), fixers)
        self._hash = hash(self._key)

    # -- integer tables, built on first use ------------------------------------

    def _powers(self, count):
        """(rows, D): rows[k] is D * (t^k mod p) for k < count."""
        low, low_den = _integral(self.minpoly[:self.degree])
        return _power_table(low, low_den, count)

    @cached_property
    def _power_rows(self):
        """(rows, deg, D): rows[k] is D * (t^k mod p) for k < 2 deg - 1."""
        rows, scale = self._powers(2 * self.degree - 1)
        return rows, self.degree, scale

    @cached_property
    def _auto_maps(self):
        """Per automorphism (rows, D): rows[j] is D * sigma(t^j) mod p."""
        maps = []
        for image in self._image_values:
            powers = [self.one()]
            for _ in range(self.degree - 1):
                powers.append(powers[-1] * image)
            den = lcm(*(v.den for v in powers))
            maps.append(([tuple((j, x * (den // v.den)) for j, x in enumerate(v.num) if x)
                          for v in powers], den))
        return tuple(maps)

    # -- element constructors ----------------------------------------------

    def value(self, coeffs) -> "NumFieldValue":
        return NumFieldValue(self, coeffs)

    def zero(self) -> "NumFieldValue":
        return _nfv(self, (0,) * self.degree, 1)

    def one(self) -> "NumFieldValue":
        return _nfv(self, (1,) + (0,) * (self.degree - 1), 1)

    def gen(self) -> "NumFieldValue":
        return NumFieldValue(self, (0, 1))  # in degree 1, t mod p is the root

    def from_rational(self, q) -> "NumFieldValue":
        q = Rat(q)
        return _nfv(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    # -- Galois action -------------------------------------------------------

    def apply_auto(self, index: int, v: "NumFieldValue") -> "NumFieldValue":
        """The image of v, a value of this field or of an equal one, under
        automorphism index, as a value of this field."""
        if v.field is not self and v.field != self:
            raise ValidationError("value belongs to a different field")
        rows, den = self._auto_maps[index]
        return _nfv(self, *_normal(_combine(v.num, rows, self.degree), v.den * den))

    def __eq__(self, other):
        return self is other or isinstance(other, NumField) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NumField(deg {self.degree}, {len(self.automorphisms)} autos)"


class NumFieldValue(_Exact):
    """Element of a NumField: polynomial in t of degree < [L:Q], coeffs / den."""

    __slots__ = ("field",)

    def __init__(self, field: NumField, coeffs, den: int = 1):
        num, scale = _integral(coeffs)
        den *= scale
        deg = field.degree
        if len(num) > deg:  # rare: products fold through _power_rows
            rows, scale = field._powers(len(num))
            num, den = _fold(num, rows, deg, scale), den * scale
        num += [0] * (deg - len(num))
        self.field = field
        self.num, self.den = _normal(num, den)

    # -- hooks of _Exact -----------------------------------------------------

    def _make(self, num, den) -> "NumFieldValue":
        return _nfv(self.field, num, den)

    def _pair(self, other) -> tuple["NumFieldValue", "NumFieldValue"]:
        """Both values, once they are known to lie in one field."""
        if type(other) is not NumFieldValue or (
                other.field is not self.field and other.field != self.field):
            raise ValidationError(f"cannot combine {self!r} with {other!r}: different fields")
        return self, other

    def _reduction(self):
        return self.field._power_rows

    def _images(self):
        field = self.field
        return (field.apply_auto(i, self) for i in range(1, field.degree))

    # by name in each class's __dict__, where perfbench wraps its counters
    __add__, __sub__, __rsub__, __neg__, __mul__ = (
        _Exact.__add__, _Exact.__sub__, _Exact.__rsub__, _Exact.__neg__, _Exact.__mul__)
    __truediv__, __rtruediv__, __pow__, inverse = (
        _Exact.__truediv__, _Exact.__rtruediv__, _Exact.__pow__, _Exact.inverse)

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            return self._equals_rational(other)
        if not isinstance(other, NumFieldValue):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        if self.is_rational():
            return self._rational_hash()
        return hash((self.num, self.den))

    def __repr__(self):
        return f"NF({render_nf(self)})"


def _nfv(field, num, den) -> NumFieldValue:
    v = _new(NumFieldValue)
    v.field = field
    v.num = num
    v.den = den
    return v


def render_nf(v: NumFieldValue) -> str:
    """Human form: rational combination of powers of the generator t."""
    return _render_terms(v.coeffs, "t")


RATIONAL_FIELD = NumField([Rat(0), Rat(1)], [[Rat(0)]], (0,))
"""Degree-1 field Q itself, for uniform treatment of the split case."""


# ---------------------------------------------------------------------------
# embedding of cyclotomic values into a declared number field
# ---------------------------------------------------------------------------


class CycEmbedding:
    """Q-linear embedding of the field generated by one cyclotomic value.

    Declared by a generator g (a CycValue) and its image in L.  The degree
    d = [Q(g):Q] is the size of the Galois orbit of g, so g^0, ..., g^(d-1)
    are independent; as the rows of the matrix of their cyclotomic
    coordinates, the pivot columns of its column echelon are a nonsingular
    d x d minor.  A value embeds by solving for its coordinates in the power
    basis of g on that minor, checking them on every coordinate, and mapping.
    Validated by checking the minimal polynomial of g, read the same way
    from g^d, annihilates the image.  A value at a level that the level of
    g does not divide promotes g, once, to the lcm of the two levels.
    """

    def __init__(self, field: NumField, generator: CycValue | None, image: NumFieldValue | None):
        self.field = field
        self.generator = generator
        if generator is None:
            self.image = None
            return
        if image is None or image.field != field:
            raise ValidationError("embedding image must live in the target field")
        self.image = image
        degree = len({generator.galois(k) for k in unit_group(generator.level)})
        powers = [CycValue.one(generator.level)]
        for _ in range(degree):
            powers.append(powers[-1] * generator)
        rows = [_rationals(p) for p in powers]
        # column j holds coordinate j of g^0, ..., g^(d-1)
        self._columns = list(enumerate(zip(*rows[:-1])))
        self._ech = column_echelon(self._columns, degree, RATIONAL_FIELD.zero())
        # image^0, ..., image^d: the images of the power basis, then of g^d
        images = [field.one()]
        for _ in range(degree):
            images.append(images[-1] * image)
        self._images = images[:-1]
        acc = images[-1]
        for c, p in zip(self._ech.solve([rows[-1][j] for j in self._ech.keys]), images):
            acc = acc - p * c.as_rational()
        if not acc.is_zero():
            raise ValidationError(
                "declared embedding is inconsistent: image is not a conjugate of the generator"
            )

    def embed(self, v: CycValue) -> NumFieldValue:
        if v.is_rational():
            return self.field.from_rational(v.as_rational())
        if self.generator is None:
            raise ValidationError("no embedding declared for irrational cyclotomic values")
        level = self.generator.level
        if level % v.level:  # declared anew at a level that v's divides
            self.__init__(self.field, self.generator.to_level(lcm(level, v.level)), self.image)
        coords = self._ech.coordinates(_rationals(v.to_level(self.generator.level)),
                                       self._columns)
        if coords is None:
            raise ValidationError("value lies outside the declared embedded subfield")
        acc = self.field.zero()
        for c, p in zip(coords, self._images):
            if not c.is_zero():
                acc = acc + p * c.as_rational()
        return acc


def _rationals(v: CycValue) -> list[NumFieldValue]:
    """The coordinates of v as values of RATIONAL_FIELD."""
    return [_nfv(RATIONAL_FIELD, *_normal((x,), v.den)) for x in v.num]
