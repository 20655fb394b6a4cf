import random
from fractions import Fraction as F

import pytest

from builders import root_of_unity
from character_table_reference import (
    char_field_stabilizer,
    stabilizer_coset_reps,
    trace_to_rational,
)
from isotypic import CycValue, ValidationError, cyclotomic_polynomial, unit_group
from isotypic.cyclotomic import render_cyc
from worked_examples import sqrt_minus5_cyclotomic


def random_value(rng, level):
    from isotypic.cyclotomic import euler_phi

    return CycValue(level, [F(rng.randint(-9, 9), rng.randint(1, 7))
                            for _ in range(euler_phi(level))])


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [F(-1), F(1)]
    assert list(cyclotomic_polynomial(2)) == [F(1), F(1)]
    assert list(cyclotomic_polynomial(4)) == [F(1), F(0), F(1)]
    assert list(cyclotomic_polynomial(12)) == [F(1), F(0), F(-1), F(0), F(1)]
    # degree is always phi(n)
    from isotypic.cyclotomic import euler_phi
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_fourth_root_squares_to_minus_one():
    z4 = root_of_unity(4)
    assert z4 * z4 == -1


def test_sqrt_minus_five_combination():
    k = sqrt_minus5_cyclotomic(20)
    assert k * k == -5


def test_third_root_product_identity():
    z3 = root_of_unity(3)
    assert (1 + z3) * (1 + z3 ** 2) == 1


def test_division_and_inverse():
    z5 = root_of_unity(5)
    v = 1 + z5 + z5 ** 3
    assert v / v == 1
    with pytest.raises(ZeroDivisionError):
        v / CycValue.zero(5)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(25):
        a = random_value(rng, 12)
        b = random_value(rng, 12)
        c = random_value(rng, 12)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_level_promotion_consistency():
    z3 = root_of_unity(3)
    z6 = root_of_unity(6)
    assert z3 == z6 * z6  # zeta_6^2 = zeta_3
    assert z3 + z6 == z6 * z6 + z6


def test_galois_is_ring_homomorphism():
    rng = random.Random(11)
    for k in (5, 7, 11):
        a = random_value(rng, 12)
        b = random_value(rng, 12)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)


def test_galois_composition_is_multiplicative():
    rng = random.Random(13)
    a = random_value(rng, 20)
    assert a.galois(3).galois(7) == a.galois(21)
    assert a.galois(-1).galois(-1) == a


def test_galois_rejects_non_units():
    z = root_of_unity(12)
    with pytest.raises(ValidationError):
        z.galois(4)


def test_conjugation_is_minus_one():
    z4 = root_of_unity(4)
    assert z4.conjugate() == -z4


# the stabilizer and trace oracles of character_table_reference.py, which
# the character-table and class-function tests compare against


def test_char_field_stabilizer_examples():
    # all-rational values fix the whole unit group
    vals = [CycValue.from_rational(3, 20), CycValue.from_rational(-1, 20)]
    assert char_field_stabilizer(vals, level=20) == unit_group(20)
    # sqrt(-5): index-2 stabilizer in (Z/20)*
    stab = char_field_stabilizer([sqrt_minus5_cyclotomic(20)])
    assert len(unit_group(20)) // len(stab) == 2
    # faithful character of Z/5: trivial stabilizer
    z5 = root_of_unity(5)
    assert char_field_stabilizer([z5]) == (1,)


def test_traces():
    z4 = root_of_unity(4)
    stab4 = char_field_stabilizer([z4])
    assert trace_to_rational(z4, stab4) == 0
    k = sqrt_minus5_cyclotomic(20)
    stab = char_field_stabilizer([k])
    assert trace_to_rational(CycValue.from_rational(4, 20), stab) == 8
    assert trace_to_rational(k, stab) == 0


def test_trace_requires_membership():
    k = sqrt_minus5_cyclotomic(20)
    z20 = root_of_unity(20)
    stab = char_field_stabilizer([k])
    with pytest.raises(ValidationError, match="not in declared subfield"):
        trace_to_rational(z20, stab)


def test_trace_linearity_and_rationality():
    rng = random.Random(17)
    k = sqrt_minus5_cyclotomic(20)
    stab = char_field_stabilizer([k])
    for _ in range(10):
        a = F(rng.randint(-5, 5)) + F(rng.randint(-5, 5)) * k
        b = F(rng.randint(-5, 5)) + F(rng.randint(-5, 5)) * k
        ta = trace_to_rational(a, stab)
        tb = trace_to_rational(b, stab)
        assert trace_to_rational(a + b, stab) == ta + tb
        # the trace is fixed by every unit
        total = CycValue.from_rational(ta, 20)
        for unit in unit_group(20):
            assert total.galois(unit) == total


def test_trace_values_generate_trivial_extension():
    k = sqrt_minus5_cyclotomic(20)
    stab = char_field_stabilizer([k])
    traces = [CycValue.from_rational(trace_to_rational(1 + k, stab), 20)]
    assert char_field_stabilizer(traces, level=20) == unit_group(20)


def test_coset_reps_cover_unit_group():
    k = sqrt_minus5_cyclotomic(20)
    stab = char_field_stabilizer([k])
    reps = stabilizer_coset_reps(stab, 20)
    cover = {(r * s) % 20 for r in reps for s in stab}
    assert cover == set(unit_group(20))
    assert len(reps) * len(stab) == len(unit_group(20))


def test_render_forms():
    z4 = root_of_unity(4)
    assert render_cyc(z4 * 2 + 1) == "1+2*z4"
    assert render_cyc(CycValue.from_rational(F(-3, 2), 4)) == "-3/2"


def test_hash_agrees_with_equality_across_levels():
    a = root_of_unity(3)
    b = a.to_level(6)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    v = random_value(random.Random(19), 12)
    assert len({v, v.to_level(24), v.to_level(60)}) == 1
    assert hash(CycValue.from_rational(F(3, 4), 20)) == hash(F(3, 4))
    assert len({CycValue.from_rational(5, 12), 5}) == 1


@pytest.mark.parametrize("level", [0, -3])
def test_level_must_be_positive(level):
    for build in (lambda: CycValue(level, []), lambda: CycValue.zero(level),
                  lambda: CycValue.one(level), lambda: CycValue.from_rational(2, level),
                  lambda: root_of_unity(level)):
        with pytest.raises(ValidationError, match="cyclotomic level must be positive"):
            build()


def test_level_bound_raises_before_building_a_table(monkeypatch):
    from isotypic import BoundExceededError, cyclotomic

    monkeypatch.setattr(cyclotomic, "DEFAULT_LEVEL_BOUND", 50)
    monkeypatch.setattr(cyclotomic, "_LEVELS", {})
    z = root_of_unity(60)
    with pytest.raises(BoundExceededError, match="level bound 50"):
        z * z
    assert 60 not in cyclotomic._LEVELS
    assert root_of_unity(12) ** 12 == 1


def test_level_bound_exits_4_from_the_cli(monkeypatch, capsys):
    from isotypic import cyclotomic
    from isotypic.cli import main

    monkeypatch.setattr(cyclotomic, "DEFAULT_LEVEL_BOUND", 6)
    monkeypatch.setattr(cyclotomic, "_LEVELS", {})
    assert main(["chartable", "--group", "bundled:group_s4.json"]) == 4
    assert "cyclotomic level 12 exceeds the level bound 6" in capsys.readouterr().err
