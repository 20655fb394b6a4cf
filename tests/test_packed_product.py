"""Differential tests of the packed group-algebra product against the
term-by-term loop in ``algebra_reference.py``, on seeded random elements."""

import random
from fractions import Fraction as F

import pytest

from algebra_reference import reference_product
from builders import root_of_unity
from isotypic import AlgebraElement, CycValue, NumField, RATIONALS
from isotypic.cyclotomic import euler_phi
from isotypic.groupalgebra import CyclotomicDomain, FieldDomain
from isotypic.numberfield import NumFieldValue
from isotypic.serialize import element_to_json
from worked_examples import order80_element, order80_field


def _nonintegral_field():
    # t = (sqrt 2 + sqrt 3) / 2: a minimal polynomial with non-integral coefficients
    return NumField([F(1, 16), 0, F(-5, 2), 0, 1],
                    [[0, 1], [0, -1], [0, 10, 0, -4], [0, -10, 0, 4]])


def _rational(rng):
    r = rng.random()
    if r < 0.2:
        return 0
    if r < 0.6:
        return rng.randint(-9, 9)
    if r < 0.85:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    return F(rng.choice((-1, 1)) * rng.getrandbits(230), rng.randint(1, 12))  # 200+ bits


def _domains():
    return {
        "L80": FieldDomain(order80_field()),
        "nonintegral": FieldDomain(_nonintegral_field()),
        "zeta8": CyclotomicDomain(8),
        "zeta40": CyclotomicDomain(40),
        "Q": RATIONALS,
    }


def _width(domain):
    if domain.kind == "Q":
        return 1
    if domain.kind == "cyclotomic":
        return euler_phi(domain.level)
    return domain.field.degree


def _value(domain, coords):
    if domain.kind == "Q":
        return F(coords[0])
    if domain.kind == "cyclotomic":
        return CycValue(domain.level, coords)
    return domain.field.value(coords)


def _random_element(group, domain, rng, size):
    width = _width(domain)
    support = rng.sample(range(group.order), size)
    return AlgebraElement(group, domain, {
        g: _value(domain, [_rational(rng) for _ in range(width)]) for g in support
    })


def _saturated(group, domain, top):
    """Every coordinate of every coefficient equal to top: each slot of the
    product reaches the bound the slot width is chosen from."""
    return AlgebraElement(group, domain, {
        g: _value(domain, [top] * _width(domain)) for g in range(group.order)
    })


def _native(value, domain):
    if domain.kind == "Q":
        return type(value) is F
    if domain.kind == "cyclotomic":
        return isinstance(value, CycValue) and value.level == domain.level
    return isinstance(value, NumFieldValue) and value.field is domain.field


def _check(a, b):
    got, want = a * b, reference_product(a, b)
    assert got.domain == want.domain and got.coeffs == want.coeffs
    assert all(_native(c, got.domain) for c in got.coeffs.values())
    assert element_to_json(got) == element_to_json(want)
    return got


@pytest.mark.parametrize("name", ["L80", "nonintegral", "zeta8", "zeta40", "Q"])
def test_packed_product_matches_reference(name, g24):
    domain, group = _domains()[name], g24
    rng = random.Random(name)
    sizes = [0, 1, 2, 5, group.order // 3, group.order]
    for _ in range(6):
        a = _random_element(group, domain, rng, rng.choice(sizes))
        b = _random_element(group, domain, rng, rng.choice(sizes))
        _check(a, b)
        _check(b, a)
        _check(a, a)
    zero = AlgebraElement.zero(group, domain)
    one = AlgebraElement.one(group, domain)
    a = _random_element(group, domain, rng, group.order)
    assert _check(zero, a).is_zero() and _check(a, zero).is_zero()
    assert _check(one, a) == a and _check(a, one) == a
    for top in (1, 7, -(2 ** 210) - 3):
        s = _saturated(group, domain, top)
        _check(s, s)
        _check(s, a)


def test_packed_product_of_transcribed_elements(g80, field80):
    names = ("u11", "u21", "eW")
    elements = [order80_element(g80, field80, n) for n in names]
    for a in elements:
        for b in elements:
            _check(a, b)


def test_packed_product_across_domains(g24):
    rng = random.Random(80)
    L, N = FieldDomain(order80_field()), FieldDomain(_nonintegral_field())
    c8, c40 = CyclotomicDomain(8), CyclotomicDomain(40)
    joins = [(L, RATIONALS, L), (RATIONALS, L, L), (N, RATIONALS, N),
             (c8, c40, c40), (c40, c8, c40), (RATIONALS, c8, c8)]
    for left, right, joined in joins:
        for _ in range(3):
            a = _random_element(g24, left, rng, rng.randint(1, 12))
            b = _random_element(g24, right, rng, rng.randint(1, 12))
            assert _check(a, b).domain == joined
    # coefficients that are not native to the element's domain
    ints = AlgebraElement(g24, RATIONALS, {1: 3, 2: -5, 5: F(1, 2)})
    low = AlgebraElement(g24, c40, {1: root_of_unity(8), 3: F(2, 3), 4: 5})
    for a in (ints, low):
        got, want = a * a, reference_product(a, a)
        assert got.coeffs == want.coeffs
        assert all(_native(c, a.domain) for c in got.coeffs.values())


def test_field_product_makes_no_scalar_products(g80, field80, monkeypatch):
    u = order80_element(g80, field80, "u11")
    want = reference_product(u, u)
    calls = []
    original = NumFieldValue.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(NumFieldValue, "__mul__", counting)
    monkeypatch.setattr(NumFieldValue, "__rmul__", counting)
    assert "__mul__" in AlgebraElement.__dict__
    assert u * u == want
    assert calls == []
