import operator
import random
from fractions import Fraction as F

import pytest

from builders import root_of_unity
from isotypic import (
    BoundExceededError,
    CycEmbedding,
    CycValue,
    NumField,
    NumFieldValue,
    RATIONAL_FIELD,
    ValidationError,
    is_irreducible,
)
from isotypic import numberfield
from isotypic.cyclotomic import _Exact
from worked_examples import order80_field, order80_k_and_l, sqrt_minus5_cyclotomic


def test_irreducibility_decision():
    assert is_irreducible([F(1), F(1)])                       # t + 1
    assert is_irreducible([F(1), F(1), F(1)])                 # t^2 + t + 1
    assert is_irreducible([F(144), F(0), F(-16), F(0), F(1)])
    assert is_irreducible([F(-2), F(0), F(1)])                # t^2 - 2
    assert not is_irreducible([F(-1), F(0), F(1)])            # (t-1)(t+1)
    assert not is_irreducible([F(6), F(5), F(1)])             # (t+2)(t+3)
    assert not is_irreducible([F(4), F(0), F(-5), F(0), F(1)])
    assert not is_irreducible([F(1), F(2), F(1)])             # (t+1)^2
    assert not is_irreducible([F(2)])                         # constant


def test_reducible_minpoly_rejected():
    with pytest.raises(ValidationError, match="not a field"):
        NumField([F(-1), F(0), F(1)], [[0, 1], [0, -1]])


def test_non_monic_rejected():
    with pytest.raises(ValidationError, match="monic"):
        NumField([F(1), F(0), F(2)], [[0, 1], [0, -1]])


def test_bad_automorphism_rejected():
    # t -> t + 1 is not a root of t^2 - 2
    with pytest.raises(ValidationError, match="not Galois as declared"):
        NumField([F(-2), F(0), F(1)], [[0, 1], [1, 1]])


def test_wrong_automorphism_count_rejected():
    with pytest.raises(ValidationError, match="not Galois as declared"):
        NumField([F(-2), F(0), F(1)], [[0, 1]])


def test_quadratic_inverse():
    L = NumField([-2, 0, 1], [[0, 1], [0, -1]])
    t = L.gen()
    assert 1 / t == t / 2
    assert t * t == 2


def test_cyclotomic_cubic_field():
    L = NumField([1, 1, 1], [[0, 1], [-1, -1]])
    g = L.gen()
    assert g * g + g + 1 == 0
    # the nontrivial automorphism is inversion
    assert L.apply_auto(1, g) == g ** 2


def test_field_axioms_randomized():
    L = order80_field()
    rng = random.Random(23)

    def rand():
        return L.value([F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(4)])

    for _ in range(15):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_worked_example_field_structure():
    L = order80_field()
    k, l = order80_k_and_l(L)
    assert k * k == -5
    assert l * l == -2
    # Gal(L/K) = <tau>, tau(l) = -l fixing k; the other coset flips k
    assert L.apply_auto(1, k) == k
    assert L.apply_auto(1, l) == -l
    assert L.apply_auto(2, k) == -k
    assert len(L.automorphisms) == 4
    assert L.subfield_fixers == (0, 1)
    # the cosets of Gal(L/K) = {0, 1}: {0, 1} fixes k and {2, 3} negates it
    assert [L.apply_auto(i, k) for i in range(4)] == [k, k, -k, -k]


def test_automorphism_group_closure():
    L = order80_field()
    n = len(L.automorphisms)
    k, l = order80_k_and_l(L)
    seen = set()
    for i in range(n):
        for j in range(n):
            # "apply i, then j" is one of the declared automorphisms
            twice = [L.apply_auto(j, L.apply_auto(i, v)) for v in (k, l, L.gen())]
            (c,) = [c for c in range(n)
                    if twice == [L.apply_auto(c, v) for v in (k, l, L.gen())]]
            seen.add(c)
    assert seen == set(range(n))


def test_degree_one_field():
    assert RATIONAL_FIELD.degree == 1
    one = RATIONAL_FIELD.one()
    assert one + one == 2
    assert RATIONAL_FIELD.apply_auto(0, one * 5) == 5


def test_embedding_of_character_values():
    L = order80_field()
    k, _ = order80_k_and_l(L)
    kc = sqrt_minus5_cyclotomic(40)
    emb = CycEmbedding(L, kc, k)
    assert emb.embed(kc) == k
    assert emb.embed(kc * 3 - 7) == k * 3 - 7
    assert emb.embed(CycValue.from_rational(F(5, 3))) == L.from_rational(F(5, 3))
    # a value outside Q(k) is rejected
    with pytest.raises(ValidationError):
        emb.embed(root_of_unity(40))


def test_embedding_promotes_its_generator_to_a_finer_level():
    """A generator written at level 20 embeds a value written at level 40 as
    the level-40 generator does, and stays promoted."""
    L = order80_field()
    k, _ = order80_k_and_l(L)
    at_20 = CycEmbedding(L, sqrt_minus5_cyclotomic(20), k)
    at_40 = CycEmbedding(L, sqrt_minus5_cyclotomic(40), k)
    for v in (sqrt_minus5_cyclotomic(40), sqrt_minus5_cyclotomic(40) * 3 - 7):
        assert at_20.embed(v) == at_40.embed(v)
    assert at_20.embed(sqrt_minus5_cyclotomic(40)) == k
    assert at_20.generator == sqrt_minus5_cyclotomic(40) and at_20.generator.level == 40
    assert at_20.embed(sqrt_minus5_cyclotomic(20)) == k  # a coarser level needs no promotion


def test_promoted_embedding_refuses_a_value_outside_its_subfield():
    L = order80_field()
    k, _ = order80_k_and_l(L)
    for v in (root_of_unity(40), root_of_unity(40) + 1):
        with pytest.raises(ValidationError,
                           match="value lies outside the declared embedded subfield"):
            CycEmbedding(L, sqrt_minus5_cyclotomic(20), k).embed(v)


def test_embedding_validates_conjugate():
    L = order80_field()
    k, l = order80_k_and_l(L)
    kc = sqrt_minus5_cyclotomic(40)
    with pytest.raises(ValidationError, match="not a conjugate"):
        CycEmbedding(L, kc, l)  # sqrt(-2) is not a square root of -5


def test_rational_value_hash_agrees_with_equality():
    L = order80_field()
    three = L.from_rational(3)
    assert three == 3
    assert hash(three) == hash(3)
    assert len({L.from_rational(F(-2, 5)), F(-2, 5)}) == 1
    t = L.gen()
    assert hash(t * t - 8) == hash(L.value([-8, 0, 1]))


def test_irreducibility_of_products_and_cyclotomic_polynomials():
    from isotypic import cyclotomic_polynomial

    rng = random.Random(23)
    for _ in range(30):
        f = [rng.randint(-4, 4) for _ in range(rng.randint(2, 3))] + [1]
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 2))] + [1]
        product = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                product[i + j] += a * b
        assert not is_irreducible(product)
    for n in (5, 7, 8, 9, 12, 15, 16):
        assert is_irreducible(cyclotomic_polynomial(n))
    assert is_irreducible([F(1, 16), 0, F(-5, 2), 0, 1])


def _poly_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _random_poly(rng, degree, rational=False):
    bound = 6 if degree < 5 else 3  # keeps the reference's enumeration short

    def coeff():
        c = rng.randint(-bound, bound)
        return F(c, rng.randint(1, 5)) if rational else c

    lead = 0
    while lead == 0:
        lead = coeff()
    return [coeff() for _ in range(degree)] + [lead]


def _irreducibility_cases():
    """Seeded polynomials of degree 2-6 and a few named ones."""
    from isotypic import cyclotomic_polynomial

    rng = random.Random(6)
    cases = [
        list(cyclotomic_polynomial(14)),
        [144, 0, -16, 0, 1],                   # the order-80 field
        [4, 0, 0, 0, 1],                       # (t^2+2t+2)(t^2-2t+2), no rational root
        [1, 0, 0, 0, 1],
        [F(1, 16), 0, F(-5, 2), 0, 1],
        [F(3, 2), 0, 0, -2],                   # non-monic, negative lead
        [6, 0, 0, 0, 0, 0, 4],                 # 2(2t^6 + 3)
    ]
    for _ in range(150):
        cases.append(_random_poly(rng, rng.randint(2, 6), rational=rng.random() < 0.3))
    for _ in range(150):
        da = rng.randint(1, 3)
        db = rng.randint(max(1, 2 - da), 6 - da)
        f = _poly_product(_random_poly(rng, da), _random_poly(rng, db))
        scale = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 7))
        cases.append([c * scale for c in f])
    return cases


def test_kronecker_candidate_bound(monkeypatch):
    # t^8 + 720720: 307200 candidates for a quartic factor, raised before any is built
    with pytest.raises(BoundExceededError, match="307200 Kronecker candidates > 100000"):
        is_irreducible([720720, 0, 0, 0, 0, 0, 0, 0, 1])
    # the bundled order-80 field needs 960 for a quadratic factor
    quartic = [144, 0, -16, 0, 1]
    monkeypatch.setattr(numberfield, "KRONECKER_CANDIDATE_BOUND", 959)
    with pytest.raises(BoundExceededError, match="960 Kronecker candidates > 959"):
        is_irreducible(quartic)
    monkeypatch.setattr(numberfield, "KRONECKER_CANDIDATE_BOUND", 960)
    assert is_irreducible(quartic)


def test_kronecker_interpolates_only_leading_coefficient_survivors(monkeypatch):
    # t^4 - 16t^2 + 144 enumerates 120 tuples for a linear factor and 960 for
    # a quadratic one; only those whose divided difference is a unit are built
    degrees = []
    interpolant = numberfield._integer_interpolant

    def counted(xs, ys):
        degrees.append(len(xs) - 1)
        return interpolant(xs, ys)

    monkeypatch.setattr(numberfield, "_integer_interpolant", counted)
    assert is_irreducible([144, 0, -16, 0, 1])
    assert (degrees.count(1), degrees.count(2), len(degrees)) == (3, 19, 22)


def test_kronecker_value_bound():
    from isotypic.numberfield import KRONECKER_VALUE_BITS, _int_divisors

    largest = 2**KRONECKER_VALUE_BITS - 1
    assert _int_divisors(-largest)[-1] == largest
    with pytest.raises(BoundExceededError, match="a node value of 37 bits > 36"):
        _int_divisors(largest + 1)
    # t^2 + 2^44 + 1: about 2^22 trial divisions at the node 0 without the bound
    with pytest.raises(BoundExceededError, match="a node value of 45 bits > 36"):
        is_irreducible([2**44 + 1, 0, 1])


def test_irreducibility_matches_fraction_reference():
    from irreducibility_reference import reference_is_irreducible

    cases = _irreducibility_cases()
    verdicts = [is_irreducible(p) for p in cases]
    assert verdicts == [reference_is_irreducible(p) for p in cases]
    assert 50 < sum(verdicts) < len(cases) - 150  # both kinds, every product reducible


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_values_of_different_fields_do_not_combine(op):
    z, t = root_of_unity(8), order80_field().gen()
    other = NumField([F(-2), F(0), F(1)], [[0, 1], [0, -1]]).gen()
    for a, b in ((z, t), (t, z), (t, other), (other, t)):
        with pytest.raises(ValidationError, match="different"):
            op(a, b)


def test_both_value_classes_share_one_copy_of_each_operator():
    # the names perfbench wraps in each class's own __dict__
    for name in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__",
                 "__rtruediv__", "__pow__", "inverse"):
        shared = _Exact.__dict__[name]
        assert CycValue.__dict__[name] is shared
        assert NumFieldValue.__dict__[name] is shared


# Q(zeta_5): the four automorphisms t -> t^k, k = 1..4
_CYC5 = [1, 1, 1, 1, 1]


@pytest.mark.parametrize("declared, fixers, expected", [
    # identity not first, and t -> t^4 given unreduced
    ([[0, 0, 1], [0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 1]], (0, 2),
     {"minpoly": ["1", "1", "1", "1", "1"],
      "automorphisms": [["0", "1"], ["0", "0", "1"], ["-1", "-1", "-1", "-1"], ["0", "0", "0", "1"]],
      "subfield_fixers": [0, 2]}),
    ([[0, 0, 0, 0, 1], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1]], (),
     {"minpoly": ["1", "1", "1", "1", "1"],
      "automorphisms": [["0", "1"], ["-1", "-1", "-1", "-1"], ["0", "0", "0", "1"], ["0", "0", "1"]],
      "subfield_fixers": [0]}),
])
def test_declared_field_json_is_pinned(declared, fixers, expected):
    from isotypic.serialize import field_from_json, field_to_json

    nf = NumField(_CYC5, declared, fixers)
    assert field_to_json(nf) == expected
    assert field_from_json(expected) == nf


def test_degree_one_field_json_is_pinned():
    from isotypic.serialize import field_to_json

    assert field_to_json(RATIONAL_FIELD) == {
        "minpoly": ["0", "1"], "automorphisms": [[]], "subfield_fixers": [0]}
    assert field_to_json(NumField([F(-3, 2), 1], [[F(3, 2), 0, 0]])) == {
        "minpoly": ["-3/2", "1"], "automorphisms": [["3/2"]], "subfield_fixers": [0]}
    assert field_to_json(NumField([-2, 0, 1], [[0, -1], [0, 1]], (1,))) == {
        "minpoly": ["-2", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]],
        "subfield_fixers": [0, 1]}


@pytest.mark.parametrize("declared, fixers, message", [
    ([[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], (0, 1),
     "subfield fixers are not closed under composition"),  # sigma_2 has order 4
    ([[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], (0, 4),
     "subfield fixer index out of range"),
    ([[0, 1], [0, 0, 1], [0, 0, 0, 1], [-1, -1, -1, -1]], (0, 3), None),
    ([[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0, 0]], (0,),
     "L/Q not Galois as declared: repeated automorphism"),
    ([[0, 1], [0, 0, 1], [0, 0, 0, 1], [1]], (0,),
     "L/Q not Galois as declared: image is not a root of the minimal polynomial"),
    ([[0, 1], [0, 0, 1], [0, 0, 0, 1]], (0,),
     "L/Q not Galois as declared: need 4 automorphisms, got 3"),
])
def test_declared_field_errors_keep_their_messages(declared, fixers, message):
    if message is None:
        assert NumField(_CYC5, declared, fixers).subfield_fixers == (0, 3)
        return
    with pytest.raises(ValidationError) as err:
        NumField(_CYC5, declared, fixers)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["order80", "nonintegral", "cyc5"])
def test_long_coefficient_lists_fold_like_the_reference(name):
    import fraction_reference as ref

    nf = {"order80": order80_field(),
          "nonintegral": NumField([F(1, 16), 0, F(-5, 2), 0, 1],
                                  [[0, 1], [0, -1], [0, 10, 0, -4], [0, -10, 0, 4]]),
          "cyc5": NumField(_CYC5, [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]])}[name]
    rng = random.Random(name)
    for length in range(2 * nf.degree, 5 * nf.degree):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(length)]
        value = nf.value(coeffs)
        assert value.coeffs == ref.NumFieldValue(nf.minpoly, nf.automorphisms, coeffs).coeffs
        assert all(type(c) is F for c in value.coeffs)


def _zeta8(autos=((0, 1), (0, 0, 0, 1), (0, -1), (0, 0, 0, -1)), fixers=(0, 3)):
    """Q(zeta_8) = Q[t]/(t^4 + 1), automorphisms t -> t, t^3, t^5, t^7 by default."""
    return NumField([1, 0, 0, 0, 1], [list(a) for a in autos], fixers)


def test_equal_declarations_give_equal_fields_that_hash_alike():
    a, b = _zeta8(), _zeta8()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # the same field written with Fractions and a different identity position
    c = NumField([F(1), 0, 0, 0, F(1)], [[0, 0, 0, 1], [0, F(1)], [0, -1], [0, 0, 0, -1]],
                 (0, 3))
    assert c == a and hash(c) == hash(a)
    assert a != "L" and a != order80_field()


def test_one_changed_declaration_entry_makes_fields_unequal():
    base = _zeta8()
    # one minimal-polynomial coefficient, with the same automorphisms t -> +-t
    qi = NumField([1, 0, 1], [[0, 1], [0, -1]], (0, 1))
    q_sqrt_minus2 = NumField([2, 0, 1], [[0, 1], [0, -1]], (0, 1))
    assert qi != q_sqrt_minus2 and q_sqrt_minus2 != qi
    # one automorphism entry: t^3 and t^5 listed in the other order
    swapped = _zeta8(autos=((0, 1), (0, -1), (0, 0, 0, 1), (0, 0, 0, -1)), fixers=(0, 3))
    assert swapped != base
    # the fixer set: Gal(L/Q(sqrt 2)) = {t, t^7} against Gal(L/Q(i)) = {t, t^5}
    # and Gal(L/Q(sqrt -2)) = {t, t^3}
    assert _zeta8(fixers=(0, 2)) != base and _zeta8(fixers=(0, 1)) != base
    assert _zeta8(fixers=(0, 3)) == base
