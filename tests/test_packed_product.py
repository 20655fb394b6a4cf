"""Differential tests of the packed group-algebra product, and of the
idempotency and orthogonality predicates that read its packed sums, against
the term-by-term loop in ``algebra_reference.py``, on seeded random elements,
seeded idempotents and their near misses."""

import random
from fractions import Fraction as F

import pytest

from algebra_reference import reference_product
from builders import root_of_unity
from isotypic import (AlgebraElement, CycValue, NumField, RATIONALS, averaging_idempotent,
                      galois_orbits, rational_central_idempotent)
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


# -- the idempotency and orthogonality predicates ------------------------------


def _reference_idempotent(a):
    return reference_product(a, a) == a


def _reference_orthogonal(a, b):
    return reference_product(a, b).is_zero() and reference_product(b, a).is_zero()


def _generator(domain):
    """A value of the domain off the rational line, or None over Q."""
    if domain.kind == "Q":
        return None
    if domain.kind == "cyclotomic":
        return root_of_unity(domain.level)
    return domain.field.gen()


def _lifted(e, a):
    """e + (1 - e) a e, an idempotent for every a when e is one; it kills
    1 - e on the right but not, in general, on the left."""
    one = AlgebraElement.one(e.group, e.domain)
    return e + reference_product(reference_product(one - e, a), e)


def _near_misses(a, rng):
    """a with one coefficient moved by +1, -1 or a 200-bit integer, with one
    support element dropped, doubled, zero, and (off Q) a times the domain's
    generator and one coefficient moved by it, which leave the first
    coordinate of every coefficient as it was."""
    g = rng.choice(sorted(a.coeffs))
    c = a.coeffs[g]

    def moved(value):
        return AlgebraElement(a.group, a.domain, {**a.coeffs, g: value})

    dropped = AlgebraElement(a.group, a.domain, {h: v for h, v in a.coeffs.items() if h != g})
    out = [moved(c + 1), moved(c - 1), moved(c + 2 ** 200 + 1), dropped, a * 2,
           AlgebraElement.zero(a.group, a.domain)]
    gen = _generator(a.domain)
    if gen is not None:
        out += [a * gen, moved(c + gen)]
    return out


def _predicate_cases(group, table, domain, rng):
    """(seeded idempotents, partners): the averaging idempotents of three
    subgroup classes, the rational central idempotents and two lifts by
    random elements with 200-bit numerators, all over domain; the partners
    are each seed's complement over Q or over domain, and the lifts' one-sided
    complements, which _pair must promote or which kill one side only."""
    rational = [averaging_idempotent(group, s.members) for s in group.subgroup_classes()[1:4]]
    rational += [rational_central_idempotent(table, o) for o in galois_orbits(table)[:3]]
    one_q = AlgebraElement.one(group, RATIONALS)
    seeds = [e.to_domain(domain) for e in rational]
    partners = [one_q - e for e in rational]
    for e in rational[:2]:
        e = e.to_domain(domain)
        big = _random_element(group, domain, rng, 4) * (2 ** 200 + 1)
        seeds.append(_lifted(e, big))
        partners.append(AlgebraElement.one(group, domain) - e)
    return seeds, partners


def _check_predicates(elements, partners, verdicts):
    """Each predicate equals the reference on every element and pair; the
    (predicate, verdict) pairs seen are added to verdicts."""
    idempotent = [a.is_idempotent() for a in elements]
    assert idempotent == [_reference_idempotent(a) for a in elements]
    pairs = [(a, b) for a in elements for b in partners]
    orthogonal = [a.is_orthogonal_to(b) for a, b in pairs]
    assert orthogonal == [_reference_orthogonal(a, b) for a, b in pairs]
    verdicts.update(("idempotent", v) for v in idempotent)
    verdicts.update(("orthogonal", v) for v in orthogonal)


BOTH_VERDICTS = {(p, v) for p in ("idempotent", "orthogonal") for v in (True, False)}


@pytest.mark.parametrize("name", ["L80", "nonintegral", "zeta8", "zeta40", "Q"])
def test_predicates_match_reference(name, g24, t24):
    domain = _domains()[name]
    rng = random.Random(f"predicates-{name}")
    seeds, partners = _predicate_cases(g24, t24, domain, rng)
    if name == "zeta40":  # a partner over Q(zeta_8), promoted to level 40
        low = CyclotomicDomain(8)
        e = seeds[0].to_domain(RATIONALS).to_domain(low)
        partners.append(_lifted(e, _random_element(g24, low, rng, 3)))
    verdicts = set()
    for seed, partner in zip(seeds, partners):
        _check_predicates([seed, *_near_misses(seed, rng)], [seed, partner], verdicts)
    _check_predicates(seeds, partners, verdicts)
    assert verdicts == BOTH_VERDICTS


def test_predicates_match_reference_on_transcribed_elements(g80, field80):
    rng = random.Random(80)
    u11, u21, l1, f1, f2 = (order80_element(g80, field80, n)
                            for n in ("u11", "u21", "l1", "f1", "f2"))
    f1, f2 = f1.to_domain(RATIONALS), f2.to_domain(RATIONALS)  # promoted to L in each pair
    one = AlgebraElement.one(g80, u11.domain)
    verdicts = set()
    for seed, partner in ((u11, u21), (l1, one - l1), (f1, f2)):
        _check_predicates([seed, *_near_misses(seed, rng)], [partner], verdicts)
    assert verdicts == BOTH_VERDICTS
