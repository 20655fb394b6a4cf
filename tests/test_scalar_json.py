"""The JSON scalar reader and writer of ``serialize`` against Fraction.

The reader turns a JSON int or a "p/q" string straight into integers, and
the writers print a value's numerators over its denominator without building
a Fraction.  Fraction's own parser and printer are the reference: every
accepted literal must read as Fraction reads it, and every value must print
as its Fraction coordinates print.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from isotypic import CycValue
from isotypic.errors import ValidationError
from isotypic.numberfield import NumFieldValue
from isotypic.serialize import (
    cyc_from_json,
    cyc_to_json,
    nfv_from_json,
    nfv_to_json,
    parsing,
    scalar_from_json,
    scalars_from_json,
)
from worked_examples import order80_field


def _literal(rng):
    """A seeded JSON scalar: an int or a "p/q" string, often large, often unreduced."""
    size = rng.choice((3, 9, 70, 200))
    n = rng.randint(-2**size, 2**size)
    kind = rng.randrange(4)
    if kind == 0:
        return n                                   # a JSON int, possibly above 2^64
    if kind == 1:
        return str(n)                              # den == 1
    d = rng.randint(1, 2**rng.choice((3, 9, 70)))
    if kind == 2:
        k = rng.randint(1, 12)
        return f"{n * k}/{d * k}"                  # a common factor to cancel
    return f"{n}/{d}"


def _corpus():
    rng = random.Random(16)
    fixed = ["0", "-0", "007", "-12/8", "0/5", "10/5", "-1/1", str(2**64), f"-{2**65 + 1}/3",
             2**64 + 7, -(2**70), 0, -1]
    return fixed + [_literal(rng) for _ in range(600)]


def test_scalar_reader_equals_fraction():
    for c in _corpus():
        ref = F(c)
        assert scalar_from_json(c) == (ref.numerator, ref.denominator), c


def test_scalar_list_reader_equals_fraction():
    corpus = _corpus()
    rng = random.Random(17)
    for _ in range(200):
        cs = rng.sample(corpus, rng.randint(0, 8))
        nums, den = scalars_from_json(cs)
        assert den > 0 and len(nums) == len(cs)
        assert [F(n, den) for n in nums] == [F(c) for c in cs], cs


REJECTED = [
    0.5, 1.0, True, False, None, [1], {"n": 1},
    "", "-", "+1", " 1", "1 ", "1\n", "0.5", "1e3", "1e999999999", "1E5", "1/0", "-3/00",
    "1/-2", "1/", "/2", "1/2/3", "1_000", "0x10", "inf", "nan", "١", "1/٢",
]


@pytest.mark.parametrize("literal", REJECTED, ids=repr)
def test_rejected_literals_raise_value_error(literal):
    with pytest.raises(ValueError):
        scalar_from_json(literal)
    with pytest.raises(ValueError):
        scalars_from_json(["1", literal])
    with pytest.raises(ValueError):
        cyc_from_json({"level": 4, "coeffs": [literal, "0"]})


def test_scalar_list_must_be_a_list():
    for cs in ("12", 12, {"0": 1}, None):
        with pytest.raises(ValueError, match="a list of scalars"):
            scalars_from_json(cs)


def _per_scalar(cs):
    """The list reader as one scalar read per entry, with no literal table."""
    pairs = [scalar_from_json(c) for c in cs]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


EDGE_LITERALS = ["0", "64", "-64", "65", "-65", "-0", "01", "1/1", "-1", 0, 64, -65, 7]


def test_scalar_list_reader_equals_per_scalar_reader():
    rng = random.Random(26)
    lists = [[], ["0"], ["64", "-64"], ["65"], ["-65", "1"], ["-0"], ["01"], ["1/1"],
             [0, 1, -1], [64, "64"], ["3", 3], ["2", "1/2", "-7"], EDGE_LITERALS]
    for _ in range(300):
        pool = EDGE_LITERALS if rng.random() < 0.5 else [str(k) for k in range(-64, 65)]
        lists.append([rng.choice(pool) for _ in range(rng.randint(1, 9))])
    for cs in lists:
        nums, den = scalars_from_json(cs)
        assert (nums, den) == _per_scalar(cs), cs
        assert all(type(n) is int for n in nums) and type(den) is int


@pytest.mark.parametrize("cs, message", [
    ([[1]], '[1] is not an exact scalar (an integer or a "p/q" string)'),
    ([{}], '{} is not an exact scalar (an integer or a "p/q" string)'),
    ([True], 'true is not an exact scalar (an integer or a "p/q" string)'),
    ([1.5], '1.5 is not an exact scalar (an integer or a "p/q" string)'),
    (["1/0"], "zero denominator in the scalar '1/0'"),
    (["1", [1]], '[1] is not an exact scalar (an integer or a "p/q" string)'),
    (["2", True], 'true is not an exact scalar (an integer or a "p/q" string)'),
], ids=repr)
def test_scalar_list_reader_keeps_its_messages(cs, message):
    with pytest.raises(ValidationError) as err:
        with parsing("coefficients"):
            scalars_from_json(cs)
    assert str(err.value) == f"malformed coefficients: {message}"


def _coords(rng, count):
    out = []
    for _ in range(count):
        n = rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-2**80, 2**80)))
        out.append(F(n, rng.choice((1, 1, rng.randint(1, 12), rng.randint(1, 2**70)))))
    return out


def test_cyclotomic_writer_and_reader_match_fraction():
    rng = random.Random(18)
    for level in (1, 3, 8, 12, 15, 40):
        for _ in range(40):
            v = CycValue(level, _coords(rng, rng.randint(1, level + 2)))
            blob = cyc_to_json(v)
            assert blob == {"level": level, "coeffs": [str(c) for c in v.coeffs]}
            # read back, and through the Fraction path the reader replaced
            for again in (cyc_from_json(blob),
                          CycValue(level, [F(c) for c in blob["coeffs"]])):
                assert (again.level, again.num, again.den) == (v.level, v.num, v.den)


def test_number_field_writer_and_reader_match_fraction():
    rng = random.Random(19)
    field = order80_field()
    for _ in range(200):
        v = field.value(_coords(rng, rng.randint(1, 6)))
        text = nfv_to_json(v)
        assert text == [str(c) for c in v.coeffs]
        for again in (nfv_from_json(field, text), NumFieldValue(field, [F(c) for c in text])):
            assert (again.num, again.den) == (v.num, v.den)
