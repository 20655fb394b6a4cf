"""Seeded benchmark inputs: permutation generators and matrix representations.

Everything here is built from integers by the benchmark itself, not by the
library.  The seed relabels the points every permutation group acts on and
permutes the order of each sweep.  Relabelling conjugates the generators,
so the abstract groups, and with them every invariant the benchmark checks,
are the same for every seed.
"""

from __future__ import annotations

import random
from math import gcd


# -- permutation generators ------------------------------------------------------


def symmetric(n):
    """S_n on n points: an n-cycle and a transposition."""
    return [[(i + 1) % n for i in range(n)], [1, 0] + list(range(2, n))]


def dihedral(n):
    """The dihedral group of order 2n acting on the n-gon."""
    return [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]]


def semidirect(p, q):
    """C_p x| C_q on Z/p: x -> x + 1 and x -> a x with a of order q mod p."""
    a = next(a for a in range(2, p) if pow(a, q, p) == 1)
    return [[(i + 1) % p for i in range(p)], [(a * i) % p for i in range(p)]]


def elementary_abelian2(n):
    """C2^n as n disjoint transpositions on 2n points."""
    return [[j ^ 1 if j // 2 == i else j for j in range(2 * n)] for i in range(n)]


def gl2_3():
    """GL(2,3) acting on the eight non-zero vectors of F_3^2."""
    pts = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    index = {p: i for i, p in enumerate(pts)}

    def act(m):
        return [index[((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3)]
                for a, b in pts]

    return [act([[1, 1], [0, 1]]), act([[0, 1], [2, 0]]), act([[2, 0], [0, 1]])]


def direct_product(a, b):
    """Generators of A x B acting on the disjoint union of their points."""
    na, nb = len(a[0]), len(b[0])
    return ([list(p) + list(range(na, na + nb)) for p in a]
            + [list(range(na)) + [na + x for x in p] for p in b])


def dicyclic(n):
    """Dic_n = <x, y : x^2n, y^2 = x^n, y^-1 x y = x^-1> acting on itself.

    Point a + 2n*b is the element x^a y^b; the generators act by right
    multiplication, so x^a y * x = x^(a-1) y and x^a y * y = x^(a+n).
    """
    m = 2 * n
    x = [((a + 1) % m) if b == 0 else ((a - 1) % m) + m for b in (0, 1) for a in range(m)]
    y = [a + m if b == 0 else (a + n) % m for b in (0, 1) for a in range(m)]
    return [x, y]


def relabel(perms, rng):
    """Conjugate the generators by a random relabelling of the points."""
    n = len(perms[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    for p in perms:
        q = [0] * n
        for i in range(n):
            q[sigma[i]] = sigma[p[i]]
        out.append(q)
    return out


def apply_word(perms, word, point=0):
    """Image of a point under a generator word ("p then q" convention)."""
    for gi in word:
        point = perms[gi][point]
    return point


# -- integer polynomials for the fields Q(zeta_2n) ------------------------------------


def _poly_divexact(a, b):
    """Quotient of integer polynomials (low degree first), b monic."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def cyclotomic_poly(m):
    """Phi_m as integer coefficients, low degree first."""
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            p = _poly_divexact(p, cyclotomic_poly(d))
    return p


def power_mod(k, modulus):
    """t^k reduced modulo a monic integer polynomial."""
    deg = len(modulus) - 1
    r = [0] * max(k + 1, deg)
    r[k] = 1
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            for j, mj in enumerate(modulus):
                r[i - deg + j] -= c * mj
    return r[:deg]


def _cyc_json(level, exponents):
    """Sum of zeta_level^a over the exponents, as an unreduced coefficient list."""
    coeffs = [0] * level
    for a in exponents:
        coeffs[a % level] += 1
    return {"level": level, "coeffs": [str(c) for c in coeffs]}


def dicyclic_rep(n, perms, labels_of_classes, exponent):
    """Degree-2 representation of Dic_n over L = Q(zeta_2n), in the JSON
    format of the bundled representation file.

    x -> diag(t, t^-1) and y -> [[0, 1], [-1, 0]] with t = zeta_2n.  The
    character is quaternionic, so its Schur index over Q is 2 and
    Gal(L/K) = {t -> t, t -> t^-1} with K = Q(t + t^-1).  Character values
    are computed from the element x^a y^b that each class representative
    word moves the base point to.
    """
    m = 2 * n
    phi = cyclotomic_poly(m)
    units = [1, m - 1] + [k for k in range(2, m - 1) if gcd(k, m) == 1]
    autos = [power_mod(k, phi) for k in units]
    zero = ["0"] * (len(phi) - 1)
    one = ["1"] + zero[1:]
    t = [str(c) for c in power_mod(1, phi)]
    t_inv = [str(c) for c in power_mod(m - 1, phi)]
    step = exponent // m
    values = []
    for word in labels_of_classes:
        point = apply_word(perms, word)
        a, b = point % m, point // m
        values.append(_cyc_json(exponent, [a * step, -a * step]) if b == 0
                      else {"level": 1, "coeffs": ["0"]})
    doc = {
        "field": {
            "minpoly": [str(c) for c in phi],
            "automorphisms": [[str(c) for c in img] for img in autos],
            "subfield_fixers": [0, 1],
        },
        "degree": 2,
        "generators": [[[t, zero], [zero, t_inv]], [[zero, one], [["-1"] + zero[1:], zero]]],
        "character_values": values,
    }
    if len(units) > 2:  # the character field K is not Q: declare K -> L
        doc["embedding"] = {
            "generator": _cyc_json(exponent, [step, -step]),
            "image": [str(a + b) for a, b in zip(power_mod(1, phi), power_mod(m - 1, phi))],
        }
    return doc


def shuffled(items, rng):
    items = list(items)
    rng.shuffle(items)
    return items


def rng_for(seed):
    return random.Random(seed)
