"""Reference scalar arithmetic: one Fraction per coefficient, reduction by
polynomial long division.

This is the representation the package used before its integer kernel.  It
is slow and simple, and it shares no code with ``isotypic``, so the
differential tests in ``test_scalar_oracle.py`` use it as an oracle.
"""

from fractions import Fraction as Rat
from functools import lru_cache
from math import gcd


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [Rat(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Rat(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return poly_trim(out)


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Rat(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod(a, b):
    b = poly_trim(list(b))
    a = poly_trim(list(a))
    q = [Rat(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        coef = a[-1] / lead
        q[shift] = coef
        for i, cb in enumerate(b):
            a[shift + i] -= coef * cb
        poly_trim(a)
    return poly_trim(q), a


def poly_mod(a, b):
    return poly_divmod(a, b)[1]


def poly_compose_mod(p, q, modulus):
    """p(q(t)) reduced mod modulus."""
    acc = []
    for c in reversed(p):
        acc = poly_mod(poly_add(poly_mul(acc, q), [Rat(c)] if c else []), modulus)
    return acc


def poly_ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic unless zero."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Rat(1)], []
    t0, t1 = [], [Rat(1)]
    while poly_trim(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


@lru_cache(maxsize=None)
def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    num = [Rat(-1)] + [Rat(0)] * (n - 1) + [Rat(1)]
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


class CycValue:
    """Element of Q(zeta_e) as phi(e) Fractions in the power basis."""

    def __init__(self, level, coeffs):
        phi = euler_phi(level)
        coeffs = [Rat(c) for c in coeffs]
        if len(coeffs) > phi:
            coeffs = poly_mod(coeffs, list(cyclotomic_polynomial(level)))
        coeffs += [Rat(0)] * (phi - len(coeffs))
        self.level = level
        self.coeffs = tuple(coeffs[:phi])

    def to_level(self, new_level):
        step = new_level // self.level
        out = [Rat(0)] * (max(len(self.coeffs), 1) * step)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return CycValue(new_level, out)

    def galois(self, k):
        e = self.level
        out = [Rat(0)] * e
        for i, c in enumerate(self.coeffs):
            out[(i * k) % e] += c
        return CycValue(e, out)

    def conjugate(self):
        return self.galois(-1)

    def _common(self, other):
        if not isinstance(other, CycValue):
            other = CycValue(1, [Rat(other)])
        if self.level == other.level:
            return self, other
        lev = self.level * other.level // gcd(self.level, other.level)
        return self.to_level(lev), other.to_level(lev)

    def __add__(self, other):
        a, b = self._common(other)
        return CycValue(a.level, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return CycValue(self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycValue) else CycValue(1, [-Rat(other)]))

    def __mul__(self, other):
        a, b = self._common(other)
        return CycValue(a.level, poly_mul(list(a.coeffs), list(b.coeffs)))

    def inverse(self):
        g, s, _ = poly_ext_gcd(list(self.coeffs), list(cyclotomic_polynomial(self.level)))
        return CycValue(self.level, [c / g[0] for c in s])

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            return all(c == 0 for c in self.coeffs[1:]) and self.coeffs[0] == other
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def sort_key(self):
        return self.coeffs


class NumFieldValue:
    """Element of Q[t]/(minpoly) as deg Fractions; autos are images of t."""

    def __init__(self, minpoly, autos, coeffs):
        deg = len(minpoly) - 1
        coeffs = [Rat(c) for c in coeffs]
        if len(coeffs) > deg:
            coeffs = poly_mod(coeffs, list(minpoly))
        coeffs += [Rat(0)] * (deg - len(coeffs))
        self.minpoly = tuple(minpoly)
        self.autos = autos
        self.coeffs = tuple(coeffs[:deg])

    def _new(self, coeffs):
        return NumFieldValue(self.minpoly, self.autos, coeffs)

    def _coerce(self, other):
        return other if isinstance(other, NumFieldValue) else self._new([Rat(other)])

    def __add__(self, other):
        other = self._coerce(other)
        return self._new([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return self._new(poly_mul(list(self.coeffs), list(other.coeffs)))

    def apply_auto(self, index):
        img = list(self.autos[index])
        return self._new(poly_compose_mod(list(self.coeffs), img, list(self.minpoly)))

    def inverse(self):
        g, s, _ = poly_ext_gcd(list(self.coeffs), list(self.minpoly))
        return self._new([c / g[0] for c in s])

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            return all(c == 0 for c in self.coeffs[1:]) and self.coeffs[0] == other
        return self.minpoly == other.minpoly and self.coeffs == other.coeffs
