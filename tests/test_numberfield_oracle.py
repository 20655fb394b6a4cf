"""The integer certificate of a declared field and the integer embedding of
character values, against the value-arithmetic versions they replaced
(``numberfield_reference.py``): the same verdict and message on every
declaration, the same automorphism matrices on every field, and the same
image or refusal for every embedded value."""

import random
from fractions import Fraction as F

import pytest

from builders import root_of_unity
from isotypic import RATIONAL_FIELD, NumField, ValidationError
from isotypic.cyclotomic import CycValue, cyclotomic_polynomial, euler_phi, unit_group
from isotypic.fixtures import bundled
from isotypic.numberfield import CycEmbedding
from isotypic.serialize import field_from_json
from numberfield_reference import ColumnEchelonEmbedding, ReferenceField
from worked_examples import order80_field

_CYC5 = [1, 1, 1, 1, 1]
_ZETA8 = [[0, 1], [0, 0, 0, 1], [0, -1], [0, 0, 0, -1]]


def _cyclotomic(m, fixers=(0,)):
    """Q(zeta_m) = Q[t]/(Phi_m), t -> t^k for the units k, complex
    conjugation second."""
    units = sorted(unit_group(m), key=lambda k: (k != 1, k != m - 1, k))
    return (list(cyclotomic_polynomial(m)), [root_of_unity(m, k).coeffs for k in units],
            fixers)


def _bundled_fields():
    """Every field descriptor in the bundled data, inline ones included."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            if "minpoly" in node:
                found.append(node)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for name in ("rep_order80.json", "manifest_order80.json", "manifest_order24.json"):
        walk(bundled(name))
    return found


# (minpoly, automorphisms, subfield fixers) of the fields the tests, the
# demos and the benchmark declare, refused ones included
DECLARATIONS = {
    "rationals": ([0, 1], [[0]], (0,)),
    "linear-nonintegral": ([F(-3, 2), 1], [[F(3, 2), 0, 0]], (0,)),
    "sqrt2": ([-2, 0, 1], [[0, 1], [0, -1]], (0,)),
    "sqrt2-fixed": ([-2, 0, 1], [[0, -1], [0, 1]], (1,)),
    "qi": ([1, 0, 1], [[0, 1], [0, -1]], (0, 1)),
    "sqrt-2": ([2, 0, 1], [[0, 1], [0, -1]], (0, 1)),
    "zeta3": ([1, 1, 1], [[0, 1], [-1, -1]], (0,)),
    "reducible": ([F(-1), F(0), F(1)], [[0, 1], [0, -1]], (0,)),
    "non-monic": ([F(1), F(0), F(2)], [[0, 1], [0, -1]], (0,)),
    "constant": ([1], [], (0,)),
    "shift-not-a-root": ([-2, 0, 1], [[0, 1], [1, 1]], (0,)),
    "too-few": ([-2, 0, 1], [[0, 1]], (0,)),
    "order80": ([144, 0, -16, 0, 1], [[0, 1], [0, -1], [0, F(4, 3), 0, F(-1, 12)],
                                      [0, F(-4, 3), 0, F(1, 12)]], (0, 1)),
    "nonintegral": ([F(1, 16), 0, F(-5, 2), 0, 1],
                    [[0, 1], [0, -1], [0, 10, 0, -4], [0, -10, 0, 4]], (0,)),
    "cyc5": (_CYC5, [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], (0,)),
    "cyc5-unreduced": (_CYC5, [[0, 0, 1], [0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 1]], (0, 2)),
    "cyc5-not-closed": (_CYC5, [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], (0, 1)),
    "cyc5-out-of-range": (_CYC5, [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]], (0, 4)),
    "cyc5-repeated": (_CYC5, [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0, 0]], (0,)),
    "cyc5-constant-image": (_CYC5, [[0, 1], [0, 0, 1], [0, 0, 0, 1], [1]], (0,)),
    "zeta8": ([1, 0, 0, 0, 1], _ZETA8, (0, 3)),
    "zeta8-fractions": ([F(1), 0, 0, 0, F(1)], [[0, 0, 0, 1], [0, F(1)], [0, -1], [0, 0, 0, -1]],
                        (0, 3)),
    "zeta8-swapped": ([1, 0, 0, 0, 1], [_ZETA8[0], _ZETA8[2], _ZETA8[1], _ZETA8[3]], (0, 3)),
    "zeta8-sqrt2": ([1, 0, 0, 0, 1], _ZETA8, (0, 2)),
    "zeta8-sqrt-2": ([1, 0, 0, 0, 1], _ZETA8, (0, 1)),
    # the fields of the embedding oracle and the benchmark's Dic_n, n = 2..7
    **{f"zeta{m}": _cyclotomic(m, (0, 1)) for m in (4, 6, 8, 10, 12, 14)},
    **{f"zeta{m}-full": _cyclotomic(m) for m in (7, 8, 12, 15, 20, 21, 40)},
}
REFUSED = {"reducible", "non-monic", "constant", "shift-not-a-root", "too-few", "cyc5-not-closed",
           "cyc5-out-of-range", "cyc5-repeated", "cyc5-constant-image"}
for _i, _descriptor in enumerate(_bundled_fields()):
    DECLARATIONS[f"bundled{_i}"] = (_descriptor["minpoly"], _descriptor["automorphisms"],
                                    tuple(_descriptor.get("subfield_fixers", (0,))))


def _verdict(make, minpoly, automorphisms, fixers):
    """The message make(...) is refused with, or the certified field's
    declaration, automorphism matrices and equality key."""
    try:
        nf = make(minpoly, automorphisms, fixers)
    except ValidationError as exc:
        return str(exc)
    return nf.minpoly, nf.automorphisms, nf.subfield_fixers, nf._auto_maps, nf._key


def _read(minpoly, automorphisms, fixers):
    """The field read from the JSON text of the declaration."""
    def text(cs):
        return [str(F(c)) for c in cs]

    return field_from_json({"minpoly": text(minpoly),
                            "automorphisms": [text(img) for img in automorphisms],
                            "subfield_fixers": list(fixers)})


def _assert_certified_alike(minpoly, automorphisms, fixers):
    want = _verdict(ReferenceField, minpoly, automorphisms, fixers)
    assert _verdict(NumField, minpoly, automorphisms, fixers) == want
    assert _verdict(_read, minpoly, automorphisms, fixers) == want
    return want


@pytest.mark.parametrize("name", DECLARATIONS)
def test_declared_field_is_certified_as_by_horner(name):
    verdict = _assert_certified_alike(*DECLARATIONS[name])
    assert isinstance(verdict, str) == (name in REFUSED)


def test_fields_of_the_package_keep_the_reference_matrices():
    for nf in (RATIONAL_FIELD, order80_field()):
        ref = ReferenceField(nf.minpoly, nf.automorphisms, nf.subfield_fixers)
        assert nf._auto_maps == ref._auto_maps and nf._key == ref._key


def _damaged(rng, minpoly, automorphisms, fixers):
    """Seeded damaged copies of a valid declaration: one image coordinate
    moved by +-1, one image replaced by a random polynomial (not a root),
    and random fixer sets, most of them not closed."""
    d = len(minpoly) - 1
    images = [[F(c) for c in img] + [F(0)] * (d - len(img)) for img in automorphisms]
    for _ in range(3):
        moved = [list(img) for img in images]
        i, j = rng.randrange(d), rng.randrange(d)
        moved[i][j] += rng.choice((-1, 1))
        yield minpoly, moved, fixers
        other = [list(img) for img in images]
        other[rng.randrange(d)] = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        yield minpoly, other, fixers
        yield minpoly, images, tuple(rng.sample(range(d), rng.randint(1, d)))


@pytest.mark.parametrize("name", [name for name in DECLARATIONS if name not in REFUSED])
def test_damaged_declarations_are_refused_as_by_horner(name):
    rng = random.Random(name)
    verdicts = [_assert_certified_alike(*declaration)
                for declaration in _damaged(rng, *DECLARATIONS[name])]
    assert any(isinstance(v, str) for v in verdicts)


# -- embeddings ----------------------------------------------------------------


def _outcome(call, *args):
    try:
        return call(*args)
    except ValidationError as exc:
        return str(exc)


def _assert_embedded_alike(field, generator, image, values):
    """Both embeddings are refused alike, or embed every value (promoting
    their generators on the way) to one image or one refusal."""
    new = _outcome(CycEmbedding, field, generator, image)
    old = _outcome(ColumnEchelonEmbedding, field, generator, image)
    if isinstance(old, str):
        assert new == old
        return None
    assert len(new._pivots) == len(old._images)
    for v in values:
        assert _outcome(new.embed, v) == _outcome(old.embed, v)
        assert new.generator == old.generator
    return new


@pytest.mark.parametrize("m", [4, 8, 12, 14, 15, 20])
def test_embedding_matches_the_column_echelon_solve(m):
    """Generators a*eta + b of subfields of Q(zeta_m), eta a Galois period,
    mapped into L = Q(zeta_m) by t -> t^k: values inside Q(g) and outside
    it, at level m and at multiples of m, which promote the generator; and
    the same with a damaged image."""
    rng = random.Random(m)
    field = NumField(*_cyclotomic(m))
    units = unit_group(m)
    for gen in (1, units[-1], *rng.sample(units, min(3, len(units)))):
        subgroup = {pow(gen, i, m) for i in range(euler_phi(m))}
        eta = sum((root_of_unity(m, h) for h in subgroup), CycValue.zero(m))
        g = eta * rng.randint(1, 3) + rng.randint(-2, 2)
        image = field.value(g.galois(rng.choice(units)).coeffs)
        values = []
        for level in (m, 2 * m, 3 * m):
            lifted = g.to_level(level)
            values += [sum((lifted ** i * F(rng.randint(-3, 3), rng.randint(1, 2))
                            for i in range(3)), CycValue.zero(level)),
                       root_of_unity(level), root_of_unity(level) + lifted,
                       CycValue(level, [F(rng.randint(-2, 2), rng.randint(1, 3))
                                        for _ in range(euler_phi(level))]),
                       CycValue.from_rational(F(rng.randint(-5, 5), 7), level)]
        emb = _assert_embedded_alike(field, g, image, values)
        assert emb is not None and emb.generator.level == 6 * m  # lcm(2m, 3m)
        outcomes = [_outcome(emb.embed, v) for v in values]
        assert "value lies outside the declared embedded subfield" in outcomes or gen == 1
        assert _assert_embedded_alike(field, g, image + 1, values) is None
