"""Differential tests of the integer scalar kernel against the Fraction
reference in ``fraction_reference.py``, on seeded random values."""

import random
from fractions import Fraction as F

import pytest

import fraction_reference as ref
from builders import root_of_unity
from isotypic import CycValue, NumField
from isotypic import cyclotomic
from isotypic.cyclotomic import euler_phi, unit_group
from isotypic.errors import InvariantError
from worked_examples import order80_field


def _coeff(rng):
    r = rng.random()
    if r < 0.3:
        return 0
    if r < 0.7:
        return rng.randint(-9, 9)
    return F(rng.randint(-9, 9), rng.randint(1, 12))


def _coeffs(rng, n):
    return [_coeff(rng) for _ in range(n)]


def _same(new, old):
    assert all(type(c) is F for c in new.coeffs)
    assert new.coeffs == old.coeffs
    if isinstance(new, CycValue):
        assert new.level == old.level
        assert new.sort_key() == old.sort_key()


def _ref_power(base, k, one):
    out = one
    for _ in range(k):
        out = out * base
    return out


def _check_mixed_operators(a, ra, b, rb, q, one, invert):
    """Rationals on the left, division and powers, against the reference's
    products and inverses; ``invert`` allows reference inverses of a and b."""
    _same(q + a, ra + q)
    _same(q - a, -ra + q)
    _same(q * a, ra * q)
    if q != 0:
        _same(a / q, ra * (1 / F(q)))
    for k in range(4):
        _same(a ** k, _ref_power(ra, k, one))
    if not invert:
        return
    if not b.is_zero():
        _same(a / b, ra * rb.inverse())
    if not a.is_zero():
        inv = ra.inverse()
        _same(q / a, inv * q)
        for k in (1, 2):
            _same(a ** -k, _ref_power(inv, k, one))


def _cyc_pair(level, coeffs):
    return CycValue(level, coeffs), ref.CycValue(level, coeffs)


@pytest.mark.parametrize("level", range(1, 121))
def test_cyclotomic_kernel_matches_reference(level):
    rng = random.Random(level)
    phi = euler_phi(level)
    divisors = [d for d in range(1, level + 1) if level % d == 0]
    for _ in range(2):
        # lengths beyond phi and beyond the level exercise the reduction
        a, ra = _cyc_pair(level, _coeffs(rng, rng.choice((phi, rng.randint(0, 2 * level + 1)))))
        b, rb = _cyc_pair(level, _coeffs(rng, rng.randint(0, phi)))
        d = rng.choice(divisors)
        c, rc = _cyc_pair(d, _coeffs(rng, euler_phi(d)))
        q = _coeff(rng)
        k = rng.choice(unit_group(level))
        _same(a, ra)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(-a, -ra)
        _same(a * b, ra * rb)
        _same(a * c, ra * rc)
        _same(c - a, rc - ra)
        _same(a + q, ra + q)
        _same(a - q, ra - q)
        _same(a * q, ra * q)
        _same(a.galois(k), ra.galois(k))
        _same(a.conjugate(), ra.conjugate())
        _same(a.to_level(2 * level), ra.to_level(2 * level))
        _same(c.to_level(level), rc.to_level(level))
        if phi <= 16 and not a.is_zero():
            _same(a.inverse(), ra.inverse())
        _check_mixed_operators(a, ra, b, rb, q, ref.CycValue(level, [1]), phi <= 16)
        assert (a == b) == (ra == rb)
        assert (a == c) == (ra == rc)
        assert (a == q) == (ra == q)
        assert (c.to_level(level) == c) and (rc.to_level(level) == rc)
        assert (a * b - b * a) == 0
    # Euclid over Q blows up on dense values of high degree: invert a binomial
    sparse = [0] * level
    sparse[0] = rng.randint(1, 5)
    sparse[rng.randrange(level)] += rng.choice((-1, 1, F(1, 2)))
    s, rs = _cyc_pair(level, sparse)
    if not s.is_zero():
        _same(s.inverse(), rs.inverse())


def _fields():
    return {
        "order80": order80_field(),
        # t = (sqrt 2 + sqrt 3) / 2: a minimal polynomial with non-integral coefficients
        "nonintegral": NumField(
            [F(1, 16), 0, F(-5, 2), 0, 1],
            [[0, 1], [0, -1], [0, 10, 0, -4], [0, -10, 0, 4]],
        ),
    }


@pytest.mark.parametrize("name", ["order80", "nonintegral"])
def test_number_field_kernel_matches_reference(name):
    nf = _fields()[name]
    rng = random.Random(name)
    deg = nf.degree

    def pair(coeffs):
        return nf.value(coeffs), ref.NumFieldValue(nf.minpoly, nf.automorphisms, coeffs)

    for _ in range(40):
        a, ra = pair(_coeffs(rng, rng.randint(0, 2 * deg + 2)))
        b, rb = pair(_coeffs(rng, rng.randint(0, deg)))
        q = _coeff(rng)
        _same(a, ra)
        _same(a + b, ra + rb)
        _same(a - b, ra - rb)
        _same(-a, -ra)
        _same(a * b, ra * rb)
        _same(a + q, ra + q)
        _same(a - q, ra - q)
        _same(a * q, ra * q)
        for i in range(len(nf.automorphisms)):
            _same(nf.apply_auto(i, a), ra.apply_auto(i))
        if not a.is_zero():
            _same(a.inverse(), ra.inverse())
        _check_mixed_operators(a, ra, b, rb, q, ra._new([1]), True)
        assert (a == b) == (ra == rb)
        assert (a == q) == (ra == q)
        assert (a * b - b * a) == 0


@pytest.mark.parametrize("level", range(1, 121))
def test_cyclotomic_inverse_of_dense_values(level):
    # every coordinate nonzero; beyond phi = 16 the reference Euclid is too slow
    rng = random.Random(-level)
    phi = euler_phi(level)
    a = CycValue(level, [rng.choice((-2, -1, 1, 2)) for _ in range(phi - 1)] + [F(1, 3)])
    assert a * a.inverse() == 1
    q = CycValue.from_rational(F(-3, 7), level)
    assert q.inverse() == F(-7, 3) and q.inverse().level == level


@pytest.mark.parametrize("name", ["order80", "nonintegral"])
def test_number_field_inverse_of_random_values(name):
    nf = _fields()[name]
    rng = random.Random(name)
    for _ in range(40):
        a = nf.value(_coeffs(rng, nf.degree))
        if not a.is_zero():
            assert a * a.inverse() == 1
            assert a / a == 1 and (1 / a) * a == 1
    with pytest.raises(ZeroDivisionError):
        nf.zero().inverse()


def test_inverse_checks_the_norm_is_rational():
    # with one conjugate of zeta_5 left out, the product is not the norm
    z = root_of_unity(5)
    with pytest.raises(InvariantError, match="norm"):
        cyclotomic._inverse(z, [z.galois(2), z.galois(3)], CycValue.one(5))
    assert cyclotomic._inverse(z, [z.galois(k) for k in (2, 3, 4)], CycValue.one(5)) == z ** 4


def test_sort_key_orders_values_as_their_coordinates():
    rng = random.Random(8)
    values = [CycValue(8, _coeffs(rng, 4)) for _ in range(3000)]
    assert sum(v.den != 1 for v in values) > 500
    by_key = sorted(range(len(values)), key=lambda i: values[i].sort_key())
    assert by_key == sorted(range(len(values)), key=lambda i: values[i].coeffs)
