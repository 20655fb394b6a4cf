"""Constructors that only the tests call: roots of unity, basis elements of a
group algebra, words in a group's generators and the dense left translates
of an element.  The package keeps no public function without a caller
outside the tests, so these live here."""

from isotypic.cyclotomic import CycValue, euler_phi
from isotypic.groupalgebra import RATIONALS, AlgebraElement


def root_of_unity(level: int, power: int = 1) -> CycValue:
    """zeta_level ** power."""
    euler_phi(level)  # refuses a level below 1 before it is used as a modulus
    return CycValue(level, [0] * (power % level) + [1])


def basis(group, g: int, domain=RATIONALS) -> AlgebraElement:
    return AlgebraElement(group, domain, {g: domain.one()})


def evaluate_word(group, word) -> int:
    """Word = iterable of signed 1-based generator letters (-2 = y^-1)."""
    g = 0
    for letter in word:
        assert letter != 0
        h = group.generators[abs(letter) - 1]
        g = group.mul(g, h if letter > 0 else group.inv(h))
    return g


def left_translates(element):
    """Dense vectors of g*a for every g, in element order."""
    mul = element.group._mul
    zero = element.domain.zero()
    items = list(element.coeffs.items())
    for g in range(element.group.order):
        row = mul[g]
        vec = [zero] * element.group.order
        for h, c in items:
            vec[row[h]] = c
        yield vec
