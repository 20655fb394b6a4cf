"""Galois number fields L = Q[t]/(p) declared by minimal polynomial and
explicit automorphisms, with exact quotient-ring arithmetic.

The toolkit never searches for splitting fields: L is always user supplied,
together with the images of t under every automorphism and the subset of
automorphisms whose fixed field is the distinguished subfield K.
Irreducibility of p is certified by Kronecker's method, a complete decision
procedure (``is_irreducible``), and the rest of the declaration by Galois
theory (``NumField``), both in integers: no composition table is built and
no polynomial is divided over Q.  Values share the integer kernel of
``cyclotomic`` and every operator of its ``_Exact``; ``NumFieldValue``
supplies the four hooks: ``_make``, ``_pair`` (a same-field check),
``_reduction`` (the rows of t^k mod p) and ``_images`` (the declared
automorphisms other than the identity, whose product over the norm is the
inverse).  ``CycEmbedding`` maps cyclotomic values into L by integer linear
algebra on a nonsingular minor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod

from .cyclotomic import (
    CycValue,
    _combine,
    _convolve,
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
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _interp_points(ipoly, count):
    """count nodes 0, 1, -1, 2, ... with their values, or None at a rational root."""
    nodes = [0] + [s * x for x in range(1, count) for s in (1, -1)]
    pts = [(x, _evaluate(ipoly, x)) for x in nodes[:count]]
    return None if any(val == 0 for _, val in pts) else pts


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
    if deg <= 1:
        return deg == 1
    content = gcd(*num)
    ipoly = [c // content for c in num]
    lead = ipoly[-1]
    for k in range(1, deg // 2 + 1):
        pts = _interp_points(ipoly, k + 2)
        if pts is None:
            return False
        (x0, y0), pts = pts[-1], pts[:-1]
        xs = [x for x, _ in pts]
        # the first sign is fixed: -q divides iff q does
        divisor_lists = [_int_divisors(pts[0][1])] + [
            [d for dd in _int_divisors(val) for d in (dd, -dd)] for _, val in pts[1:]]
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
            at_x0 = None if cand is None else _evaluate(cand, x0)
            if not at_x0 or y0 % at_x0:
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
    for c, x in zip(newton[-2::-1], xs[-2::-1]):
        acc = [c - x * acc[0]] + [a - x * b for a, b in zip(acc, acc[1:])] + [acc[-1]]
    return poly_trim(acc)


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
    an arbitrary subset, are checked for closure.  In integers: F^0, ..., F^d
    are built once per image F, p(F) is read off them, and F^0, ..., F^(d-1)
    are kept as the matrix of the automorphism, which ``apply_auto`` applies.
    """

    def __init__(self, minpoly, automorphisms, subfield_fixers=(0,)):
        self._certify(_integral(minpoly), (_integral(img) for img in automorphisms),
                      subfield_fixers)

    @classmethod
    def from_integers(cls, minpoly, automorphisms, subfield_fixers=(0,)) -> "NumField":
        """``NumField`` with minpoly and each image as (numerators, denominator)."""
        nf = cls.__new__(cls)
        nf._certify(minpoly, automorphisms, subfield_fixers)
        return nf

    def _certify(self, minpoly, automorphisms, subfield_fixers):
        num, den = minpoly
        num = poly_trim(list(num))
        if not num or num[-1] != den:
            raise ValidationError("minimal polynomial must be monic")
        self.degree = d = len(num) - 1
        if d < 1:
            raise ValidationError("minimal polynomial must have positive degree")
        if not is_irreducible(num):
            raise ValidationError("not a field: minimal polynomial is reducible over Q")
        self._minpoly = _normal(num, den)
        rows, scale = self._powers(2 * d - 1)
        self._power_rows = rows, d, scale  # D * (t^k mod p), k < 2d - 1: a product's fold

        images = [NumFieldValue(self, num, den) for num, den in automorphisms]
        if len(images) != d:
            raise ValidationError(
                f"L/Q not Galois as declared: need {d} automorphisms, got {len(images)}"
            )
        if len({(v.num, v.den) for v in images}) != d:
            raise ValidationError("L/Q not Galois as declared: repeated automorphism")
        low, lead = self._minpoly[0][:d], self._minpoly[1]
        maps = []
        for image in images:
            *powers, (top, top_den) = _power_list(image, d + 1)
            scale = lcm(*(den for _, den in powers))
            rows = [tuple((j, x * (scale // den)) for j, x in enumerate(num) if x)
                    for num, den in powers]
            # p(F) lead = sum_{k<d} p_k F^k + lead F^d, p being monic
            if any(x * top_den + lead * y * scale
                   for x, y in zip(_combine(low, rows, d), top)):
                raise ValidationError(
                    "L/Q not Galois as declared: image is not a root of the minimal polynomial"
                )
            maps.append((rows, scale))
        first = images.index(self.gen())
        self._images = images = (images[first], *images[:first], *images[first + 1:])
        self._auto_maps = (maps[first], *maps[:first], *maps[first + 1:])

        fixers = tuple(sorted(set(int(i) for i in subfield_fixers) | {0}))
        for i in fixers:
            if not 0 <= i < d:
                raise ValidationError("subfield fixer index out of range")
        fixed = {(images[i].num, images[i].den) for i in fixers}
        for i in fixers[1:]:
            for j in fixers[1:]:
                image = self.apply_auto(j, images[i])
                if (image.num, image.den) not in fixed:
                    raise ValidationError("subfield fixers are not closed under composition")
        self.subfield_fixers = fixers
        # equality and hashing read one key of integers, built once
        self._key = (*self._minpoly, tuple((v.num, v.den) for v in images), fixers)
        self._hash = hash(self._key)

    @cached_property
    def minpoly(self):
        """The declaration as Fractions, for ``field_to_json``."""
        num, den = self._minpoly
        return tuple(Rat(x, den) for x in num)

    @cached_property
    def automorphisms(self):
        return tuple(tuple(poly_trim(list(v.coeffs))) for v in self._images)

    def _powers(self, count):
        """(rows, D): rows[k] is D * (t^k mod p) for k < count."""
        num, den = self._minpoly
        return _power_table(num[:self.degree], den, count)

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
        return f"NumField(deg {self.degree}, {self.degree} autos)"


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


def _power_list(value: _Exact, count):
    """(num, den) of value^0, ..., value^(count - 1), each normalized."""
    rows, width, scale = value._reduction()
    powers = [((1,) + (0,) * (width - 1), 1)]
    for _ in range(count - 1):
        num, den = powers[-1]
        powers.append(_normal(_fold(_convolve(num, value.num), rows, width, scale),
                              den * value.den * scale))
    return powers


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
    d = [Q(g):Q] is the size of the Galois orbit of g, so the integer rows B
    of the coordinates of g^0, ..., g^(d-1) have a nonsingular minor M.
    Gauss-Jordan turns [B | I], I the rows of their images in L, into
    M^-1 [B | I] once, in integers.  A value v embeds by one product
    v_M M^-1 [B | I]: its B part is checked to be v on every coordinate, its
    I part is the image.  Validated by checking the minimal polynomial of g,
    read the same way from g^d, annihilates the image.  A value at a level
    that the level of g does not divide promotes g, once, to the lcm.
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
        *powers, top = _power_list(generator, degree + 1)
        *images, image_top = _power_list(image, degree + 1)
        s, t = (lcm(*(den for _, den in pairs)) for pairs in (powers, images))
        # rows [s g^k | s t image(g^k)]: for v = num / den in Q(g) the product is D (num | den t v)
        self._pivots, self._rows, self._scale = _gauss_jordan(
            [[x * (s // den) for x in num] + [y * (s * t // image_den) for y in image_num]
             for (num, den), (image_num, image_den) in zip(powers, images)], len(top[0]))
        self._den = self._scale * t
        if self._image(*top) != image_top:
            raise ValidationError(
                "declared embedding is inconsistent: image is not a conjugate of the generator"
            )

    def _image(self, num, den):
        """(num, den) in L of num / den at g's level, refused outside Q(g)."""
        out = [0] * len(self._rows[0])
        for j, row in zip(self._pivots, self._rows):
            if num[j]:
                out = [a + num[j] * b for a, b in zip(out, row)]
        if any(a != self._scale * x for a, x in zip(out, num)):
            raise ValidationError("value lies outside the declared embedded subfield")
        return _normal(out[len(num):], den * self._den)

    def embed(self, v: CycValue) -> NumFieldValue:
        if v.is_rational():
            return self.field.from_rational(v.as_rational())
        if self.generator is None:
            raise ValidationError("no embedding declared for irrational cyclotomic values")
        level = self.generator.level
        if level % v.level:  # declared anew at a level that v's divides
            self.__init__(self.field, self.generator.to_level(lcm(level, v.level)), self.image)
        v = v.to_level(self.generator.level)
        return _nfv(self.field, *self._image(v.num, v.den))


def _gauss_jordan(rows, width):
    """(pivots, rows, D) for integer rows independent on their first width
    columns: the first of those that raise the rank, and the combinations of
    the rows that are D at pivots[i] and 0 at the others (fraction-free)."""
    free, pivots = list(range(len(rows))), []
    for j in range(width):
        r = next((i for i in free if rows[i][j]), None)
        if r is not None:
            free.remove(r)
            pivots.append((j, r))
            for i, row in enumerate(rows):
                a, c = rows[r][j], row[j]
                if c and i != r:
                    row = [a * x - c * y for x, y in zip(row, rows[r])]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row]
    den = lcm(*(rows[r][j] for j, r in pivots))
    return ([j for j, _ in pivots],
            [[x * (den // rows[r][j]) for x in rows[r]] for j, r in pivots], den)
