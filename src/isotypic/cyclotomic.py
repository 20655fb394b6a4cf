"""Exact arithmetic in cyclotomic fields Q(zeta_e), and the integer kernel
and operators it shares with the declared number fields of ``numberfield``.

An element is a tuple of integer numerators over one positive common
denominator, normalized by their gcd, so every value has exactly one form
(Cohen, GTM 138, section 4.2).  In Q(zeta_e) the numerators are coordinates
in the power basis {zeta^0, ..., zeta^(phi(e)-1)}.  Phi_e is monic with
integer coefficients, so every zeta^i mod Phi_e is an integer vector; these
rows are built once per level, on first use, and a product, a Galois image
or a change of level is a convolution or an index map followed by a fold
through them.  The Galois group of Q(zeta_e)/Q is identified with the units
of Z/e acting by zeta -> zeta^k; subfields are represented implicitly by
their stabilizer inside that unit group.

Every operator (+, -, *, / and their reflected forms, ** and inverse) is
written once, on ``_Exact``, against four hooks of each value class:
``_make(num, den)`` builds a value of the same field; ``_pair(other)``
brings two values into one field (the lcm level here, the same field in
``numberfield``) or raises ValidationError; ``_reduction()`` is the
field's product reduction (rows, width, scale); ``_images()`` yields the
images sigma(a), sigma != 1, of a value.

Both kinds of field are Galois and every automorphism is known, so an
inverse has a closed form: a^-1 = c / N(a) with c the product of the images
sigma(a), sigma != 1, and N(a) = a * c, which is rational (Cohen, GTM 138,
chapter 4).  ``_inverse`` computes it for both classes with products and
Galois images only, and checks exactly that N(a) is a nonzero rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import BoundExceededError, InvariantError, ValidationError

Rat = Fraction

DEFAULT_LEVEL_BOUND = 1000
"""Largest level e whose reduction table (O(e * phi(e)) entries) is built."""

# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _exact_quotient(a, b):
    """a / b for integer polynomials, or None when b does not divide a in Z[t]."""
    a = list(a)
    n, lead = len(b) - 1, b[-1]
    q = [0] * (len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        c, rest = divmod(a[i + n], lead)
        if rest:
            return None
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return None if any(a) else q


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n); every constructor of a value at level n asks it first, so a
    level below 1 is refused here."""
    if n < 1:
        raise ValidationError("cyclotomic level must be positive")
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValidationError("cyclotomic level must be positive")
    # x^n - 1 divided by the product of cyclotomic polynomials of proper divisors
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_quotient(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def unit_group(e: int):
    """Units of Z/e in increasing order; the Galois group of Q(zeta_e)/Q."""
    return tuple(k for k in range(1, max(e, 2)) if gcd(k, e) == 1) or (1,)


# ---------------------------------------------------------------------------
# integer kernel: numerators over one common denominator
# ---------------------------------------------------------------------------
#
# A value is (num, den): a tuple of ints and an int den > 0 with
# gcd(den, *num) == 1.  A reduction table ``rows`` holds, for each power
# t^i, the sparse integer vector ((j, c), ...) of D * (t^i mod p), where D is
# the table's common denominator (1 for cyclotomic fields).


def _normal(num, den):
    """(num, den) divided by their gcd, as (tuple, int)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple([x // g for x in num]), den // g
    return tuple(num), den


def _integral(coeffs):
    """Integer numerators over one positive common denominator."""
    coeffs = list(coeffs)
    if all(type(c) is int for c in coeffs):
        return coeffs, 1
    coeffs = [Rat(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _sum(an, ad, bn, bd):
    if ad == bd:
        return _normal([x + y for x, y in zip(an, bn)], ad)
    return _normal([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)


def _difference(an, ad, bn, bd):
    if ad == bd:
        return _normal([x - y for x, y in zip(an, bn)], ad)
    return _normal([x * bd - y * ad for x, y in zip(an, bn)], ad * bd)


def _rational(q):
    return q if isinstance(q, (int, Rat)) else Rat(q)


def _scaled(num, den, q):
    """num/den times a rational q."""
    if type(q) is int:
        return _normal([q * x for x in num], den)
    q = _rational(q)
    n = q.numerator
    return _normal([n * x for x in num], den * q.denominator)


def _shifted(num, den, q):
    """num/den plus a rational q on the constant coordinate."""
    if type(q) is int:
        return (num[0] + q * den,) + num[1:], den
    q = _rational(q)
    d = q.denominator
    return _normal([num[0] * d + q.numerator * den] + [x * d for x in num[1:]], den * d)


def _convolve(a, b):
    """Coefficients of the product of two integer polynomials."""
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                out[i + j] += x * y
    return out


def _fold(vec, rows, width, scale=1):
    """Reduce vec (len >= width) through the table rows; scale is its denominator."""
    out = vec[:width] if scale == 1 else [scale * c for c in vec[:width]]
    for i in range(width, len(vec)):
        c = vec[i]
        if c:
            for j, r in rows[i]:
                out[j] += c * r
    return out


def _pack(vec, bits: int) -> int:
    """sum_i vec[i] * 2^(bits*i): the vector in bits-wide signed slots."""
    packed = 0
    for x in reversed(vec):
        packed = (packed << bits) + x
    return packed


def _unpacker(bits: int, slots: int, rows, width: int, scale=1):
    """Reader of a packed sum of `slots` signed slots, each below 2^(bits-1)
    in absolute value: it returns the slots folded through rows (Kronecker
    substitution, read back)."""
    half, mask, end = 1 << (bits - 1), (1 << bits) - 1, bits * slots
    # a bias of 2^(bits-1) in every slot makes each slot a nonnegative field
    bias = half * (((1 << end) - 1) // mask)

    def unpack(total):
        total += bias
        if total >> end:  # pragma: no cover - the caller's slot width rules it out
            raise InvariantError("packed sum overflowed its slots")
        return _fold([(total >> s & mask) - half for s in range(0, end, bits)],
                     rows, width, scale)

    return unpack


def _combine(vec, rows, width):
    """sum_i vec[i] * rows[i]: an integer linear map given by sparse rows."""
    out = [0] * width
    for i, c in enumerate(vec):
        if c:
            for j, r in rows[i]:
                out[j] += c * r
    return out


def _power_table(low, low_den, count):
    """(rows, D): rows[k] is the sparse integer vector D * (t^k mod p) for
    k < count, where p = t^n + (low[0] + ... + low[n-1] t^(n-1)) / low_den
    and D is the common denominator of the rows (1 when low_den is 1)."""
    n = len(low)
    powers = [(tuple(int(j == k) for j in range(n)), 1) for k in range(n)]
    num, den = powers[-1]
    for _ in range(n, count):
        # t^k = t * t^(k-1), with t^n = -low / low_den
        top = num[-1]
        num, den = _normal([low_den * x - top * y for x, y in zip((0,) + num[:-1], low)],
                           den * low_den)
        powers.append((num, den))
    scale = lcm(*(d for _, d in powers))
    rows = [tuple((j, x * (scale // d)) for j, x in enumerate(num) if x) for num, d in powers]
    return rows, scale


def _inverse(value, images, one):
    """1 / value as c / N(value), where c is the product of the images of
    value under every automorphism but the identity of its Galois field.

    value * c is the norm N(value), a rational number, so no polynomial
    division is needed; that it is a nonzero rational is checked exactly.
    """
    if value.is_zero():
        raise ZeroDivisionError(f"division by zero: {value!r}")
    if value.is_rational():
        return one * (1 / value.as_rational())
    c = one
    for image in images:
        c = c * image
    n = value * c
    if n.is_zero() or not n.is_rational():
        raise InvariantError(f"norm of {value!r} is not a nonzero rational")
    return c * (1 / n.as_rational())


def _render_terms(coeffs, gen: str) -> str:
    """Human form of sum_i coeffs[i] * gen^i, e.g. "1/2-3*t+t^2"."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mon = "1" if i == 0 else (gen if i == 1 else f"{gen}^{i}")
        if c == 1 and i > 0:
            term = mon
        elif c == -1 and i > 0:
            term = "-" + mon
        else:
            term = str(c) if i == 0 else f"{c}*{mon}"
        parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts) or "0"


class _Exact:
    """Storage, read-only views and every operator of a field value, written
    against the four hooks the module docstring names.  A rational operand
    (int or Fraction) needs no hook."""

    __slots__ = ("num", "den")

    @property
    def coeffs(self):
        """Coordinates as a tuple of Fractions."""
        den = self.den
        return tuple([Rat(x, den) for x in self.num])

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Rat:
        if not self.is_rational():
            raise ValidationError(f"value {self!r} is not rational")
        return Rat(self.num[0], self.den)

    def _equals_rational(self, q) -> bool:
        # normalized: a rational value n/d has num[0] = n and den = d in lowest terms
        if type(q) is int:
            return self.den == 1 and self.num[0] == q and self.is_rational()
        return (self.num[0] == q.numerator and self.den == q.denominator
                and self.is_rational())

    def _rational_hash(self):
        return hash(Rat(self.num[0], self.den))

    def _one(self):
        return self._make((1,) + (0,) * (len(self.num) - 1), 1)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _Exact):
            a, b = self._pair(other)
            return a._make(*_sum(a.num, a.den, b.num, b.den))
        return self._make(*_shifted(self.num, self.den, other))

    __radd__ = __add__

    def __neg__(self):
        return self._make(tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        if isinstance(other, _Exact):
            a, b = self._pair(other)
            return a._make(*_difference(a.num, a.den, b.num, b.den))
        return self._make(*_shifted(self.num, self.den, -_rational(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Exact):
            a, b = self._pair(other)
            rows, width, scale = a._reduction()
            num = _fold(_convolve(a.num, b.num), rows, width, scale)
            return a._make(*_normal(num, a.den * b.den * scale))
        return self._make(*_scaled(self.num, self.den, other))

    __rmul__ = __mul__

    def inverse(self):
        return _inverse(self, self._images(), self._one())

    def __truediv__(self, other):
        if isinstance(other, _Exact):
            a, b = self._pair(other)
            return a * b.inverse()
        return self * (1 / Rat(other))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        """self ** k by square and multiply; a negative k inverts first."""
        value = self.inverse() if k < 0 else self
        k = abs(k)
        result = self._one()
        while k:
            if k & 1:
                result = result * value
            value = value * value
            k >>= 1
        return result


# ---------------------------------------------------------------------------
# reduction tables of Q(zeta_e)
# ---------------------------------------------------------------------------


class _Level:
    """Reduction data of Q(zeta_e), built once per level on first use.

    rows[i] is zeta^i mod Phi_e for i < max(e, 2 phi(e) - 1), which covers
    products, Galois images and values lifted from a divisor level.  The
    index maps of each Galois action and each lift are built on first use.
    """

    __slots__ = ("level", "phi", "rows", "galois_rows", "lift_rows",
                 "trace_weights", "trace_den")

    def __init__(self, e: int):
        if e > DEFAULT_LEVEL_BOUND:
            raise BoundExceededError(
                f"cyclotomic level {e} exceeds the level bound {DEFAULT_LEVEL_BOUND}"
            )
        phi = euler_phi(e)
        self.level = e
        self.phi = phi
        self.rows, _ = _power_table(cyclotomic_polynomial(e)[:phi], 1, max(e, 2 * phi - 1))
        self.galois_rows = {}
        self.lift_rows = {}
        # Tr(zeta^i) / phi(e) = mu(d) / phi(d) with d = e / gcd(i, e)
        orders = [e // gcd(i, e) for i in range(phi)]
        self.trace_den = lcm(*(euler_phi(d) for d in orders))
        self.trace_weights = tuple(
            _mobius(d) * (self.trace_den // euler_phi(d)) for d in orders
        )

    def galois_map(self, k: int):
        rows = self.galois_rows.get(k)
        if rows is None:
            e = self.level
            rows = self.galois_rows[k] = [self.rows[i * k % e] for i in range(self.phi)]
        return rows

    def lift_map(self, level: int):
        rows = self.lift_rows.get(level)
        if rows is None:
            step = self.level // level
            rows = self.lift_rows[level] = [
                self.rows[i * step] for i in range(euler_phi(level))
            ]
        return rows


_LEVELS: dict[int, _Level] = {}


def _level(e: int) -> _Level:
    lv = _LEVELS.get(e)
    if lv is None:
        lv = _LEVELS[e] = _Level(e)
    return lv


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------


class CycValue(_Exact):
    """Element of Q(zeta_e) in reduced power-basis form: coeffs / den."""

    __slots__ = ("level",)

    def __init__(self, level: int, coeffs, den: int = 1):
        phi = euler_phi(level)
        num, scale = _integral(coeffs)
        den *= scale
        if len(num) > phi:
            rows = _level(level).rows
            if len(num) > level:  # zeta^level = 1
                wrapped = [0] * level
                for i, c in enumerate(num):
                    wrapped[i % level] += c
                num = wrapped
            num = _fold(num, rows, phi)
        else:
            num += [0] * (phi - len(num))
        self.level = level
        self.num, self.den = _normal(num, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q, level: int = 1) -> "CycValue":
        q = Rat(q)
        return _cyc(level, (q.numerator,) + (0,) * (euler_phi(level) - 1), q.denominator)

    @staticmethod
    def zero(level: int = 1) -> "CycValue":
        return _cyc(level, (0,) * euler_phi(level), 1)

    @staticmethod
    def one(level: int = 1) -> "CycValue":
        return _cyc(level, (1,) + (0,) * (euler_phi(level) - 1), 1)

    # -- structure ---------------------------------------------------------

    def to_level(self, new_level: int) -> "CycValue":
        """Re-express at a level that the current level divides."""
        if new_level == self.level:
            return self
        if new_level % self.level != 0:
            raise ValidationError(
                f"cannot promote level {self.level} to non-multiple {new_level}"
            )
        lv = _level(new_level)
        num = _combine(self.num, lv.lift_map(self.level), lv.phi)
        return _cyc(new_level, *_normal(num, self.den))

    def galois(self, k: int) -> "CycValue":
        """Image under the automorphism zeta -> zeta^k, gcd(k, level) = 1."""
        e = self.level
        k %= e if e > 1 else 1
        if e > 1 and gcd(k, e) != 1:
            raise ValidationError(f"{k} is not a unit mod {e}")
        lv = _level(e)
        return _cyc(e, *_normal(_combine(self.num, lv.galois_map(k), lv.phi), self.den))

    def conjugate(self) -> "CycValue":
        return self.galois(-1)

    # -- hooks of _Exact -----------------------------------------------------

    def _make(self, num, den) -> "CycValue":
        return _cyc(self.level, num, den)

    def _pair(self, other) -> tuple["CycValue", "CycValue"]:
        """Both values at the lcm of their levels."""
        if type(other) is not CycValue:
            raise ValidationError(f"cannot combine {self!r} with {other!r}: different fields")
        if other.level == self.level:
            return self, other
        lev = lcm(self.level, other.level)
        return self.to_level(lev), other.to_level(lev)

    def _reduction(self):
        lv = _level(self.level)
        return lv.rows, lv.phi, 1

    def _images(self):
        return (self.galois(k) for k in unit_group(self.level)[1:])

    # by name in each class's __dict__, where perfbench wraps its counters
    __add__, __sub__, __rsub__, __neg__, __mul__ = (
        _Exact.__add__, _Exact.__sub__, _Exact.__rsub__, _Exact.__neg__, _Exact.__mul__)
    __truediv__, __rtruediv__, __pow__, inverse = (
        _Exact.__truediv__, _Exact.__rtruediv__, _Exact.__pow__, _Exact.inverse)

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            return self._equals_rational(other)
        if not isinstance(other, CycValue):
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # Tr(v) / phi(e) does not depend on the level and is q for a rational q
        if self.is_rational():
            return self._rational_hash()
        lv = _level(self.level)
        trace = sum(x * w for x, w in zip(self.num, lv.trace_weights))
        return hash(Rat(trace, self.den * lv.trace_den))

    def sort_key(self):
        # ints and Fractions compare numerically: the order of self.coeffs
        return self.num if self.den == 1 else self.coeffs

    def __repr__(self):
        return f"CycValue({self.level}, {render_cyc(self)!r})"


_new = object.__new__


def _cyc(level, num, den) -> CycValue:
    v = _new(CycValue)
    v.level = level
    v.num = num
    v.den = den
    return v


def render_cyc(v: CycValue) -> str:
    """Human form: integer/rational combination of powers of z<level>."""
    return _render_terms(v.coeffs, f"z{v.level}")

