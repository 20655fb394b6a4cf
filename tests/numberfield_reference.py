"""The certificate of a declared field and the character embedding as they
stood before both ran in integers, kept as differential oracles.

``ReferenceField`` is ``numberfield.NumField`` with its Horner root check:
each declared image F is checked by evaluating p(F) in ``NumFieldValue``
arithmetic, d products per image, and the integer matrix of each
automorphism (``_auto_maps``) is built on first use from the value powers
F^0, ..., F^(d-1).  ``ColumnEchelonEmbedding`` is ``CycEmbedding`` solving
over ``RATIONAL_FIELD`` values on the pivot minor of a ``column_echelon``,
through ``ColumnEchelon.coordinates``.  ``test_numberfield_oracle.py``
compares the library with both, verdicts and messages included.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from functools import cached_property
from math import lcm

from isotypic import RATIONAL_FIELD
from isotypic.cyclotomic import (
    CycValue, _combine, _integral, _normal, _power_table, poly_trim, unit_group,
)
from isotypic.errors import ValidationError
from isotypic.linalg import column_echelon
from isotypic.numberfield import NumFieldValue, _nfv, is_irreducible


class ReferenceField:
    """A declared field certified by Horner evaluation in value arithmetic;
    its values are ``NumFieldValue``s of this object."""

    def __init__(self, minpoly, automorphisms, subfield_fixers=(0,)):
        minpoly = [Rat(c) for c in minpoly]
        poly_trim(minpoly)
        if not minpoly or minpoly[-1] != 1:
            raise ValidationError("minimal polynomial must be monic")
        self.degree = len(minpoly) - 1
        if self.degree < 1:
            raise ValidationError("minimal polynomial must have positive degree")
        if not is_irreducible(minpoly):
            raise ValidationError("not a field: minimal polynomial is reducible over Q")
        self.minpoly = tuple(minpoly)

        images = [NumFieldValue(self, img) for img in automorphisms]
        if len(images) != self.degree:
            raise ValidationError(
                f"L/Q not Galois as declared: need {self.degree} automorphisms, got {len(images)}"
            )
        if len({(v.num, v.den) for v in images}) != len(images):
            raise ValidationError("L/Q not Galois as declared: repeated automorphism")
        for image in images:
            acc = self.zero()
            for c in reversed(minpoly):
                acc = acc * image + c
            if not acc.is_zero():
                raise ValidationError(
                    "L/Q not Galois as declared: image is not a root of the minimal polynomial"
                )
        identity = self.gen()
        images.remove(identity)
        self._image_values = images = (identity, *images)
        self.automorphisms = tuple(tuple(poly_trim(list(v.coeffs))) for v in images)

        fixers = tuple(sorted(set(int(i) for i in subfield_fixers) | {0}))
        for i in fixers:
            if not 0 <= i < len(images):
                raise ValidationError("subfield fixer index out of range")
        fixed = {(images[i].num, images[i].den) for i in fixers}
        for i in fixers[1:]:
            for j in fixers[1:]:
                image = self.apply_auto(j, images[i])
                if (image.num, image.den) not in fixed:
                    raise ValidationError("subfield fixers are not closed under composition")
        self.subfield_fixers = fixers
        num, den = _integral(self.minpoly)
        self._key = (tuple(num), den, tuple((v.num, v.den) for v in images), fixers)

    def _powers(self, count):
        low, low_den = _integral(self.minpoly[:self.degree])
        return _power_table(low, low_den, count)

    @cached_property
    def _power_rows(self):
        rows, scale = self._powers(2 * self.degree - 1)
        return rows, self.degree, scale

    @cached_property
    def _auto_maps(self):
        """Per automorphism (rows, D): rows[j] is D * sigma(t^j) mod p."""
        maps = []
        for image in self._image_values:
            powers = [self.one()]
            for _ in range(self.degree - 1):
                powers.append(powers[-1] * image)
            den = lcm(*(v.den for v in powers))
            maps.append(([tuple((j, x * (den // v.den)) for j, x in enumerate(v.num) if x)
                          for v in powers], den))
        return tuple(maps)

    def zero(self):
        return _nfv(self, (0,) * self.degree, 1)

    def one(self):
        return _nfv(self, (1,) + (0,) * (self.degree - 1), 1)

    def gen(self):
        return NumFieldValue(self, (0, 1))

    def apply_auto(self, index, v):
        rows, den = self._auto_maps[index]
        return _nfv(self, *_normal(_combine(v.num, rows, self.degree), v.den * den))


class ColumnEchelonEmbedding:
    """``numberfield.CycEmbedding`` solving over ``RATIONAL_FIELD`` values on
    the pivot minor of the column echelon of g^0, ..., g^(d-1)."""

    def __init__(self, field, generator, image):
        self.field = field
        self.generator = generator
        if image is None or image.field != field:
            raise ValidationError("embedding image must live in the target field")
        self.image = image
        degree = len({generator.galois(k) for k in unit_group(generator.level)})
        powers = [CycValue.one(generator.level)]
        for _ in range(degree):
            powers.append(powers[-1] * generator)
        rows = [_rationals(p) for p in powers]
        self._columns = list(enumerate(zip(*rows[:-1])))
        self._ech = column_echelon(self._columns, degree, RATIONAL_FIELD.zero())
        images = [field.one()]
        for _ in range(degree):
            images.append(images[-1] * image)
        self._images = images[:-1]
        acc = images[-1]
        for c, p in zip(self._ech.solve([rows[-1][j] for j in self._ech.keys]), images):
            acc = acc - p * c.as_rational()
        if not acc.is_zero():
            raise ValidationError(
                "declared embedding is inconsistent: image is not a conjugate of the generator"
            )

    def embed(self, v):
        if v.is_rational():
            return self.field.from_rational(v.as_rational())
        level = self.generator.level
        if level % v.level:
            self.__init__(self.field, self.generator.to_level(lcm(level, v.level)), self.image)
        coords = self._ech.coordinates(_rationals(v.to_level(self.generator.level)),
                                       self._columns)
        if coords is None:
            raise ValidationError("value lies outside the declared embedded subfield")
        acc = self.field.zero()
        for c, p in zip(coords, self._images):
            if not c.is_zero():
                acc = acc + p * c.as_rational()
        return acc


def _rationals(v):
    """The coordinates of v as values of RATIONAL_FIELD."""
    return [_nfv(RATIONAL_FIELD, *_normal((x,), v.den)) for x in v.num]
