"""``is_central`` and ``is_bi_invariant`` read coefficient permutations; the
product-based predicates of ``algebra_reference.py`` are the oracle.

Each group is checked over Q, Q(zeta_8) and the order-80 field L, on class
functions and double-coset functions (which hold), on near-misses of them
(one coefficient off by one, one support element dropped, so the support is
not closed), on functions constant on one-sided cosets, on seeded random
elements and on the zero element.
"""

import random
from fractions import Fraction as F

import pytest

from algebra_reference import reference_is_bi_invariant, reference_is_central
from isotypic import AlgebraElement, CycValue, RATIONALS
from isotypic.groupalgebra import CyclotomicDomain, FieldDomain
from worked_examples import order80_field

GROUPS = ["S3", "S4", "order24", "order80"]
DOMAINS = ["Q", "zeta8", "L"]


@pytest.fixture(scope="module")
def groups(small_groups, g24, g80):
    return {"S3": small_groups["S3"], "S4": small_groups["S4"], "order24": g24, "order80": g80}


def _domain(name):
    if name == "Q":
        return RATIONALS
    if name == "zeta8":
        return CyclotomicDomain(8)
    return FieldDomain(order80_field())


def _scalar(domain, rng):
    coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
    if domain.kind == "Q":
        return coords[0] or F(1)
    if domain.kind == "cyclotomic":
        return CycValue(domain.level, coords)
    return domain.field.value(coords)


def _blocks_function(group, domain, blocks, rng):
    """An element constant on each block, zero on about a third of them."""
    coeffs = {}
    for block in blocks:
        if rng.random() < 0.35:
            continue
        value = _scalar(domain, rng)
        coeffs.update(dict.fromkeys(block, value))
    return AlgebraElement(group, domain, coeffs)


def _near_misses(element, blocks, rng):
    """The element with one coefficient off by one, and with one element of a
    block of two or more dropped: neither is constant on that block."""
    wide = [b for b in blocks if len(b) > 1 and b[0] in element.coeffs]
    block = rng.choice(wide)
    g = rng.choice(block)
    off = dict(element.coeffs)
    off[g] = off[g] + element.domain.one()
    dropped = dict(element.coeffs)
    del dropped[g]
    return [AlgebraElement(element.group, element.domain, c) for c in (off, dropped)]


def _random_element(group, domain, rng):
    size = rng.choice((1, 2, group.order // 4, group.order))
    return AlgebraElement(group, domain, {
        g: _scalar(domain, rng) for g in rng.sample(range(group.order), size)})


def _cosets(group, left, right):
    """The sets left*x*right that partition G, for left, right each H or {1}."""
    mul, seen, blocks = group._mul, set(), []
    for x in range(group.order):
        if x not in seen:
            block = sorted({mul[mul[h][x]][k] for h in left for k in right})
            seen.update(block)
            blocks.append(block)
    return blocks


def _subgroups(group, rng):
    """The trivial group, G, and a few generated by one or two random elements."""
    subs = [(0,), tuple(range(group.order))]
    for count in (1, 1, 2):
        subs.append(group.subgroup_generated(rng.sample(range(1, group.order), count)).members)
    return subs


@pytest.mark.parametrize("domain_name", DOMAINS)
@pytest.mark.parametrize("group_name", GROUPS)
def test_is_central_matches_products(groups, group_name, domain_name):
    group, domain = groups[group_name], _domain(domain_name)
    rng = random.Random(f"central {group_name} {domain_name}")
    classes = [c.members for c in group.conjugacy_classes()]
    zero = AlgebraElement.zero(group, domain)
    assert zero.is_central() and reference_is_central(zero)
    for _ in range(3):
        central = _blocks_function(group, domain, classes, rng)
        if not any(len(c) > 1 and c[0] in central.coeffs for c in classes):
            continue
        assert central.is_central() and reference_is_central(central)
        for miss in _near_misses(central, classes, rng):
            assert not miss.is_central() and not reference_is_central(miss)
    for _ in range(4):
        a = _random_element(group, domain, rng)
        assert a.is_central() == reference_is_central(a)


@pytest.mark.parametrize("domain_name", DOMAINS)
@pytest.mark.parametrize("group_name", GROUPS)
def test_is_bi_invariant_matches_products(groups, group_name, domain_name):
    group, domain = groups[group_name], _domain(domain_name)
    rng = random.Random(f"bi-invariant {group_name} {domain_name}")
    classes = [c.members for c in group.conjugacy_classes()]
    for members in _subgroups(group, rng):
        zero = AlgebraElement.zero(group, domain)
        assert zero.is_bi_invariant(members) and reference_is_bi_invariant(zero, members)
        blocks = _cosets(group, members, members)
        invariant = _blocks_function(group, domain, blocks, rng)
        assert invariant.is_bi_invariant(members)
        assert reference_is_bi_invariant(invariant, members)
        if len(members) > 1 and invariant.coeffs:
            for miss in _near_misses(invariant, blocks, rng):
                assert not miss.is_bi_invariant(members)
                assert not reference_is_bi_invariant(miss, members)
        # constant on the cosets Hx or xH: invariant on one side only unless H is normal
        others = [_random_element(group, domain, rng),
                  _blocks_function(group, domain, classes, rng),
                  _blocks_function(group, domain, _cosets(group, members, (0,)), rng),
                  _blocks_function(group, domain, _cosets(group, (0,), members), rng)]
        for a in others:
            assert a.is_bi_invariant(members) == reference_is_bi_invariant(a, members)
