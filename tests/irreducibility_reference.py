"""Reference irreducibility test: Kronecker's method with every candidate
factor trial-divided over Q by Fraction polynomial long division.

This is ``numberfield.is_irreducible`` as it was before the integer
divisibility filters.  It shares no code with ``isotypic``, so
``test_numberfield.py`` uses it as an oracle.
"""

from fractions import Fraction as Rat
from math import gcd, isqrt

from fraction_reference import poly_divmod, poly_trim


def _int_divisors(n):
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _to_primitive_int(poly):
    denom = 1
    for c in poly:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in poly]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def _interp_points(ipoly, count):
    pts = []
    x = 0
    while len(pts) < count:
        for cand in ([x] if x == 0 else [x, -x]):
            val = 0
            for c in reversed(ipoly):
                val = val * cand + c
            if val == 0:
                return None, cand
            pts.append((cand, val))
            if len(pts) == count:
                break
        x += 1
    return pts, None


def _integer_interpolant(xs, ys):
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


def reference_is_irreducible(poly):
    """Exact irreducibility over Q, one Fraction division per candidate."""
    poly = [Rat(c) for c in poly]
    poly_trim(poly)
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    ipoly = _to_primitive_int(poly)
    for k in range(1, deg // 2 + 1):
        pts, root = _interp_points(ipoly, k + 1)
        if pts is None:
            return False
        xs = [p[0] for p in pts]
        divisor_lists = []
        for idx, (_, val) in enumerate(pts):
            divs = _int_divisors(val)
            if idx == 0:
                divisor_lists.append(divs)
            else:
                divisor_lists.append([d for dd in divs for d in (dd, -dd)])
        stack = [()]
        for divs in divisor_lists:
            stack = [tup + (d,) for tup in stack for d in divs]
        for values in stack:
            cand = _integer_interpolant(xs, values)
            if cand is None or len(cand) - 1 < 1:
                continue
            q, r = poly_divmod(poly, [Rat(c) for c in cand])
            if not r and len(q) - 1 >= 1:
                return False
    return True
