"""The paper's two worked examples, transcribed term by term: the reference
oracle for the bundled JSON in ``isotypic/data``.

The order-80 and order-24 examples come with their presentations, character
tables, an explicit degree-4 matrix representation over L = Q(sqrt(10) +
sqrt(-2)), and the printed idempotents.  Each coefficient is a + b*k + c*l +
d*k*l for k = sqrt(-5), l = sqrt(-2), stored as the tuple (a, b, c, d) next
to the monomial exponents of x and y.  ``test_worked_examples.py`` builds
every bundled data file from this module with the library's writers and
compares the bytes.

Transcription note: three coefficients in the printed displays behind these
transcriptions contradict the relations the elements must satisfy.  This
module carries the corrected values, each forced uniquely by the
mathematics; ``printed_terms`` gives the literal readings, and the test
suite pins both the corrections and the failures of the literal readings:
  * k1 and f1: the "x^2 y + x^18 y^3" group is printed under 3; the galois
    sum defining k1, idempotency, and e_V = k1 + k2 all force 6.
  * l1: the printed k*l coefficients all carry the opposite sign from the
    element defined by the displayed matrices (whose a, b*k, c*l parts
    match the print exactly); the print is not idempotent, the corrected
    element is.
  * u21: the x^13 term is printed in the (2k + 3kl) group but belongs in
    the (2k - 3kl) group; the corrected element is the unique primitive
    idempotent of its block ideal and reproduces the printed k2 = u21 +
    tau(u21).
"""

from fractions import Fraction as Rat

from builders import basis, evaluate_word, root_of_unity
from isotypic.characters import CharacterTable, Character, compute_character_table
from isotypic.cyclotomic import CycValue
from isotypic.groups import FiniteGroup
from isotypic.groupalgebra import AlgebraElement, FieldDomain, MatrixRep, RATIONALS
from isotypic.numberfield import CycEmbedding, NumField
from isotypic.serialize import group_from_spec

SPECS = {
    "order80": {"presentation": {"generators": 2, "relators":
        [[1] * 20, [2] * 8, [1] * 10 + [2] * 4, [-2, 1, 2, -1, -1, -1]]}},
    "order24": {"presentation": {"generators": 3, "relators":
        [[1] * 4, [2] * 4, [3] * 3, [-2, 1, 2, 1], [-3, 1, 3, -2], [-3, 2, 3, -2, -1]]}},
    "S3": {"permutations": [[1, 0, 2], [1, 2, 0]]},
    "S4": {"permutations": [[1, 0, 2, 3], [1, 2, 3, 0]]},
    "Q8": {"presentation": {"generators": 2, "relators":
        [[1] * 4, [1, 1, -2, -2], [-2, 1, 2, 1]]}},
}


# ---------------------------------------------------------------------------
# the field L = Q(sqrt(10) + sqrt(-2)) and the degree-4 representation
# ---------------------------------------------------------------------------


def order80_field() -> NumField:
    """t^4 - 16 t^2 + 144 with the four sign automorphisms; Gal(L/K) = <t -> -t>."""
    return NumField(
        [144, 0, -16, 0, 1],
        [[0, 1], [0, -1], [0, Rat(4, 3), 0, Rat(-1, 12)], [0, Rat(-4, 3), 0, Rat(1, 12)]],
        subfield_fixers=(0, 1),
    )


def order80_k_and_l(nf: NumField):
    t = nf.gen()
    k = (t * t - 8) / 4       # sqrt(-5)
    l = (t ** 3 - 4 * t) / 24  # sqrt(-2)
    return k, l


def sqrt_minus5_cyclotomic(level: int = 40) -> CycValue:
    w = root_of_unity(20)
    return (w + w ** 9 - w ** 13 - w ** 17).to_level(level)


def order80_rep(group: FiniteGroup, table: CharacterTable, nf: NumField) -> MatrixRep:
    """The degree-4 representation over nf = L with character value +sqrt(-5) at x."""
    k, l = order80_k_and_l(nf)
    k5 = k / 5
    xmat = [[2 * k5, -k5, k5, -2 * k5],
            [2 * k5, k5, 0, -k5],
            [0, k5, 2 * k5, -2 * k5],
            [k5, -k5, 2 * k5, 0]]
    ymat = [[-1 + l, 0, -1 - l, 1],
            [-2, 1, -l, l],
            [-1, l, -l, -1],
            [-1, -1, 1 - l, 0]]
    kc = sqrt_minus5_cyclotomic(table.level)
    x = group.generators[0]
    char_index = None
    for i, ch in enumerate(table.chars):
        if ch.degree == 4 and ch.values[group.class_index(x)] == kc:
            char_index = i
            break
    assert char_index is not None, "table has no degree-4 row with value sqrt(-5) at x"
    emb = CycEmbedding(nf, kc, k)
    return MatrixRep(group, nf, [xmat, ymat], table, char_index, emb)


# ---------------------------------------------------------------------------
# transcribed idempotents of the order-80 example
# ---------------------------------------------------------------------------
# term format: (x exponent, y exponent, (a, b, c, d)) meaning
# (a + b k + c l + d k l) x^e y^f; the element is scale * (1 - x^10) * sum.

_EV_TERMS = [
    (0, 0, (4, 0, 0, 0)), (1, 0, (0, -1, 0, 0)), (2, 0, (1, 0, 0, 0)),
    (3, 0, (0, -1, 0, 0)), (4, 0, (-1, 0, 0, 0)), (6, 0, (1, 0, 0, 0)),
    (7, 0, (0, -1, 0, 0)), (8, 0, (-1, 0, 0, 0)), (9, 0, (0, -1, 0, 0)),
]

_EW_TERMS = [
    (0, 0, (4, 0, 0, 0)), (2, 0, (1, 0, 0, 0)), (4, 0, (-1, 0, 0, 0)),
    (6, 0, (1, 0, 0, 0)), (8, 0, (-1, 0, 0, 0)),
]

_L1_TERMS = [
    (0, 0, (5, 0, 0, 0)), (0, 1, (5, 0, 0, 0)), (2, 0, (5, 0, 0, 0)),
    (14, 3, (5, 0, 0, 0)), (2, 3, (5, 0, 0, 0)), (4, 1, (5, 0, 0, 0)),
    (12, 2, (10, 0, 0, 0)), (6, 2, (10, 0, 0, 0)),
    (13, 3, (0, 4, 0, 0)), (17, 1, (0, 4, 0, 0)),
    (19, 0, (0, 2, 0, 0)), (13, 0, (0, 2, 0, 0)),
    (15, 0, (0, 1, 0, 0)), (17, 0, (0, 1, 0, 0)),
    (11, 3, (0, 1, 0, -1)), (11, 1, (0, 1, 0, -1)),
    (3, 1, (0, 1, 0, 1)), (15, 3, (0, 1, 0, 1)),
    (19, 1, (0, 1, 0, 2)), (7, 3, (0, 1, 0, 2)),
    (15, 1, (0, 1, 0, -2)), (19, 3, (0, 1, 0, -2)),
    (3, 2, (0, 3, 0, -3)), (5, 2, (0, 3, 0, 3)),
    (17, 2, (0, 4, 0, -2)), (11, 2, (0, 4, 0, 2)),
    (9, 2, (0, 0, 0, -2)), (14, 2, (0, 0, 10, 0)),
    (0, 2, (5, 0, 5, 0)), (16, 3, (5, 0, 5, 0)), (6, 1, (5, 0, 5, 0)),
    (0, 3, (5, 0, -5, 0)), (18, 2, (5, 0, -5, 0)), (18, 1, (5, 0, -5, 0)),
]

_U11_TERMS = [
    (0, 0, (4, 0, 0, 0)), (2, 0, (4, 0, 0, 0)),
    (18, 0, (3, 0, 0, 0)), (4, 0, (3, 0, 0, 0)),
    (2, 1, (6, 0, 0, 0)), (18, 3, (6, 0, 0, 0)),
    (15, 0, (0, 2, 0, 0)), (13, 3, (0, 2, 0, 0)), (17, 1, (0, 2, 0, 0)),
    (17, 0, (0, 2, 0, 0)),
    (13, 0, (0, 1, 0, 0)), (19, 0, (0, 1, 0, 0)),
    (14, 2, (0, 0, 2, 0)), (9, 2, (0, 0, 0, 2)),
    (10, 2, (2, 0, 2, 0)), (8, 2, (2, 0, -2, 0)),
    (4, 1, (4, 0, 3, 0)), (0, 1, (4, 0, -3, 0)),
    (16, 3, (4, 0, 1, 0)), (0, 3, (4, 0, -1, 0)),
    (6, 1, (1, 0, 4, 0)), (18, 1, (1, 0, -4, 0)),
    (14, 3, (1, 0, 3, 0)), (16, 2, (1, 0, 3, 0)),
    (2, 2, (1, 0, -3, 0)), (2, 3, (1, 0, -3, 0)),
    (15, 1, (0, 2, 0, -1)), (15, 3, (0, 2, 0, -1)),
    (11, 3, (0, 2, 0, 1)), (19, 1, (0, 2, 0, 1)),
    (13, 1, (0, 1, 0, -2)), (1, 1, (0, 1, 0, 2)),
    (9, 3, (0, 1, 0, 1)), (7, 2, (0, 1, 0, 1)),
    (1, 2, (0, 1, 0, -1)), (17, 3, (0, 1, 0, -1)),
]

_U21_TERMS = [
    (0, 0, (8, 0, 0, 0)),
    (5, 0, (0, 4, 0, 0)),
    (14, 2, (0, 0, 1, 0)),
    (17, 0, (0, 0, 0, 3)),
    (19, 2, (0, 0, 0, 1)), (13, 2, (0, 0, 0, 1)),
    (14, 0, (10, 0, -5, 0)),
    (10, 1, (8, 0, -2, 0)),
    (10, 3, (8, 0, -6, 0)),
    (14, 1, (8, 0, 5, 0)),
    (6, 3, (8, 0, 3, 0)),
    (6, 0, (4, 0, 5, 0)), (12, 0, (4, 0, 5, 0)),
    (0, 2, (4, 0, 4, 0)),
    (18, 2, (4, 0, 1, 0)),
    (3, 3, (0, 4, 0, -1)),
    (1, 3, (0, 4, 0, 1)), (7, 1, (0, 4, 0, 1)), (11, 0, (0, 4, 0, 1)),
    (9, 1, (0, 4, 0, 3)),
    (5, 3, (0, 4, 0, -2)), (5, 1, (0, 4, 0, -2)),
    (12, 1, (12, 0, 1, 0)),
    (8, 3, (12, 0, -1, 0)),
    (4, 3, (2, 0, 5, 0)),
    (8, 0, (2, 0, -5, 0)),
    (6, 2, (2, 0, 1, 0)),
    (12, 2, (2, 0, -1, 0)),
    (12, 3, (2, 0, -7, 0)), (8, 1, (2, 0, -7, 0)),
    (16, 1, (2, 0, 9, 0)),
    (11, 2, (0, 2, 0, 1)), (17, 2, (0, 2, 0, 1)),
    (19, 0, (0, 2, 0, -1)),
    (7, 3, (0, 2, 0, -3)), (3, 1, (0, 2, 0, -3)), (13, 0, (0, 2, 0, -3)),
    (11, 1, (0, 2, 0, 3)), (19, 3, (0, 2, 0, 3)),
]

# the printed source groups x^2 y and x^18 y^3 under coefficient 3; the value
# forced by k1 = u11 + tau(u11), by idempotency and by e_V = k1 + k2 is 6.
_K1_TERMS = [
    (0, 0, (4, 0, 0, 0)), (2, 0, (4, 0, 0, 0)), (4, 1, (4, 0, 0, 0)),
    (0, 1, (4, 0, 0, 0)), (16, 3, (4, 0, 0, 0)), (0, 3, (4, 0, 0, 0)),
    (18, 0, (3, 0, 0, 0)), (4, 0, (3, 0, 0, 0)),
    (2, 1, (6, 0, 0, 0)), (18, 3, (6, 0, 0, 0)),
    (10, 2, (2, 0, 0, 0)), (8, 2, (2, 0, 0, 0)),
    (6, 1, (1, 0, 0, 0)), (18, 1, (1, 0, 0, 0)), (14, 3, (1, 0, 0, 0)),
    (16, 2, (1, 0, 0, 0)), (2, 2, (1, 0, 0, 0)), (2, 3, (1, 0, 0, 0)),
    (15, 0, (0, 2, 0, 0)), (13, 3, (0, 2, 0, 0)), (17, 1, (0, 2, 0, 0)),
    (17, 0, (0, 2, 0, 0)), (15, 1, (0, 2, 0, 0)), (15, 3, (0, 2, 0, 0)),
    (11, 3, (0, 2, 0, 0)), (19, 1, (0, 2, 0, 0)),
    (13, 0, (0, 1, 0, 0)), (19, 0, (0, 1, 0, 0)), (13, 1, (0, 1, 0, 0)),
    (1, 1, (0, 1, 0, 0)), (9, 3, (0, 1, 0, 0)), (7, 2, (0, 1, 0, 0)),
    (1, 2, (0, 1, 0, 0)), (17, 3, (0, 1, 0, 0)),
]

_F1_TERMS = [
    (0, 0, (4, 0, 0, 0)), (2, 0, (4, 0, 0, 0)), (4, 1, (4, 0, 0, 0)),
    (0, 1, (4, 0, 0, 0)), (16, 3, (4, 0, 0, 0)), (0, 3, (4, 0, 0, 0)),
    (6, 1, (1, 0, 0, 0)), (18, 1, (1, 0, 0, 0)), (14, 3, (1, 0, 0, 0)),
    (16, 2, (1, 0, 0, 0)), (2, 2, (1, 0, 0, 0)), (2, 3, (1, 0, 0, 0)),
    (18, 0, (3, 0, 0, 0)), (4, 0, (3, 0, 0, 0)),
    (2, 1, (6, 0, 0, 0)), (18, 3, (6, 0, 0, 0)),
    (10, 2, (2, 0, 0, 0)), (8, 2, (2, 0, 0, 0)),
]

_F2_TERMS = [
    (0, 0, (4, 0, 0, 0)), (10, 1, (4, 0, 0, 0)), (10, 3, (4, 0, 0, 0)),
    (14, 1, (4, 0, 0, 0)), (6, 3, (4, 0, 0, 0)),
    (14, 0, (5, 0, 0, 0)),
    (12, 1, (6, 0, 0, 0)), (8, 3, (6, 0, 0, 0)),
    (6, 0, (2, 0, 0, 0)), (12, 0, (2, 0, 0, 0)), (0, 2, (2, 0, 0, 0)),
    (18, 2, (2, 0, 0, 0)),
    (4, 3, (1, 0, 0, 0)), (8, 0, (1, 0, 0, 0)), (6, 2, (1, 0, 0, 0)),
    (12, 2, (1, 0, 0, 0)), (12, 3, (1, 0, 0, 0)), (8, 1, (1, 0, 0, 0)),
    (16, 1, (1, 0, 0, 0)),
]

ORDER80_SCALES = {
    "eV": Rat(1, 20), "eW": Rat(1, 10), "l1": Rat(1, 100), "u11": Rat(1, 80),
    "u21": Rat(1, 160), "k1": Rat(1, 40), "f1": Rat(1, 20), "f2": Rat(1, 20),
}

ORDER80_TERMS = {
    "eV": _EV_TERMS, "eW": _EW_TERMS, "l1": _L1_TERMS, "u11": _U11_TERMS,
    "u21": _U21_TERMS, "k1": _K1_TERMS, "f1": _F1_TERMS, "f2": _F2_TERMS,
}


def _xy_element(group: FiniteGroup, xe: int, ye: int) -> int:
    word = [1] * xe + [2] * ye
    return evaluate_word(group, word)


def printed_terms(name: str) -> list:
    """The literal reading of the printed display of k1, f1, l1 or u21,
    before the correction the module docstring records."""
    terms = ORDER80_TERMS[name]
    if name in ("k1", "f1"):
        return [(xe, ye, (3, 0, 0, 0) if (xe, ye) in ((2, 1), (18, 3)) else c)
                for xe, ye, c in terms]
    if name == "l1":
        return [(xe, ye, (a, b, c, -d)) for xe, ye, (a, b, c, d) in terms]
    assert name == "u21"
    return [(xe, ye, (0, 2, 0, 3) if (xe, ye) == (13, 0) else c) for xe, ye, c in terms]


def order80_element(group: FiniteGroup, nf: NumField, name: str,
                    terms: list | None = None) -> AlgebraElement:
    """One transcribed element, built as scale * (1 - x^10) * sum of terms
    (the corrected ones unless ``terms`` is given)."""
    k, l = order80_k_and_l(nf)
    dom = FieldDomain(nf)
    kl = k * l
    acc = AlgebraElement.zero(group, dom)
    for xe, ye, (a, b, c, d) in terms or ORDER80_TERMS[name]:
        coeff = nf.from_rational(a) + k * b + l * c + kl * d
        acc = acc + AlgebraElement(group, dom, {_xy_element(group, xe, ye): coeff})
    x10 = group.power(group.generators[0], 10)
    pref = AlgebraElement.one(group, dom) - basis(group, x10, dom)
    return (pref * acc) * ORDER80_SCALES[name]


def order80_pHeW(group: FiniteGroup) -> AlgebraElement:
    """(1/20)(1 - x^10)(1 + x y^2)(4 + x^2 - x^4 + x^6 - x^8) over Q."""
    x10 = group.power(group.generators[0], 10)
    xy2 = evaluate_word(group, [1, 2, 2])
    one = AlgebraElement.one(group)
    f1 = one - basis(group, x10)
    f2 = one + basis(group, xy2)
    poly = AlgebraElement(group, RATIONALS, {
        0: Rat(4), _xy_element(group, 2, 0): Rat(1), _xy_element(group, 4, 0): Rat(-1),
        _xy_element(group, 6, 0): Rat(1), _xy_element(group, 8, 0): Rat(-1),
    })
    return (f1 * f2 * poly) * Rat(1, 20)


def order24_eW(group: FiniteGroup) -> AlgebraElement:
    """(1/12)(1 - x^2)(2 - z - xz - yz - xyz - z^2 - x^3 z^2 - y^3 z^2 - x^3 y z^2)."""
    words = {
        (): 2,
        (3,): -1, (1, 3): -1, (2, 3): -1, (1, 2, 3): -1,
        (3, 3): -1, (1, 1, 1, 3, 3): -1, (2, 2, 2, 3, 3): -1,
        (1, 1, 1, 2, 3, 3): -1,
    }
    acc = AlgebraElement(group, RATIONALS, {
        evaluate_word(group, w): Rat(c) for w, c in words.items()
    })
    x2 = group.power(group.generators[0], 2)
    pref = AlgebraElement.one(group) - basis(group, x2)
    return (pref * acc) * Rat(1, 12)


# ---------------------------------------------------------------------------
# transcribed character table of the order-80 example
# ---------------------------------------------------------------------------
# columns: identity, x, x^19, y, x^10 y^3, x^2, x y, x^11 y^3, y^2, x^10 y^2,
#          x y^2, x^4, x^10, x^5 ; i = fourth root of unity, K = sqrt(-5).

_ORDER80_COLUMNS = [
    (0, 0), (1, 0), (19, 0), (0, 1), (10, 3), (2, 0), (1, 1),
    (11, 3), (0, 2), (10, 2), (1, 2), (4, 0), (10, 0), (5, 0),
]

_ORDER80_ROWS = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, -1, -1, -1, -1, 1, 1, 1, 1, 1, -1, 1, 1, -1],
    [1, -1, -1, 1, 1, 1, -1, -1, 1, 1, -1, 1, 1, -1],
    [1, 1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1, 1],
    [1, -1, -1, "-i", "i", 1, "i", "-i", -1, -1, 1, 1, 1, -1],
    [1, -1, -1, "i", "-i", 1, "-i", "i", -1, -1, 1, 1, 1, -1],
    [1, 1, 1, "-i", "i", 1, "-i", "i", -1, -1, -1, 1, 1, 1],
    [1, 1, 1, "i", "-i", 1, "i", "-i", -1, -1, -1, 1, 1, 1],
    [2, 0, 0, 0, 0, -2, 0, 0, "-2i", "2i", 0, 2, -2, 0],
    [2, 0, 0, 0, 0, -2, 0, 0, "2i", "-2i", 0, 2, -2, 0],
    [4, 1, 1, 0, 0, -1, 0, 0, 0, 0, 0, -1, 4, -4],
    [4, -1, -1, 0, 0, -1, 0, 0, 0, 0, 0, -1, 4, 4],
    [4, "-K", "K", 0, 0, 1, 0, 0, 0, 0, 0, -1, -4, 0],
    [4, "K", "-K", 0, 0, 1, 0, 0, 0, 0, 0, -1, -4, 0],
]


def order80_table_transcription(group: FiniteGroup) -> CharacterTable:
    """The printed 14x14 table re-expressed on the group's canonical classes."""
    level = group.exponent
    i4 = root_of_unity(4).to_level(level)
    kc = sqrt_minus5_cyclotomic(level)
    lookup = {
        "i": i4, "-i": -i4, "2i": i4 * 2, "-2i": i4 * (-2), "K": kc, "-K": -kc,
    }
    col_class = [group.class_index(_xy_element(group, xe, ye)) for xe, ye in _ORDER80_COLUMNS]
    assert sorted(col_class) == list(range(len(group.conjugacy_classes())))
    chars = []
    for row in _ORDER80_ROWS:
        values = [None] * len(col_class)
        for col, entry in enumerate(row):
            v = lookup[entry] if isinstance(entry, str) else CycValue.from_rational(entry, level)
            values[col_class[col]] = v
        chars.append(Character(tuple(values), int(row[0])))
    chars.sort(key=Character.sort_key)
    return CharacterTable(group, chars)


# ---------------------------------------------------------------------------
# classical small tables (bundled fixtures for the table loader)
# ---------------------------------------------------------------------------


def classical_table(name: str) -> tuple[FiniteGroup, CharacterTable]:
    """Hand-written classical tables for S3, S4 and Q8; computed for SL23."""
    group = group_from_spec(SPECS["order24" if name == "SL23" else name])
    level = group.exponent
    if name == "S3":
        rows = [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
    elif name == "S4":
        rows = [
            [1, 1, 1, 1, 1],
            [1, -1, 1, 1, -1],
            [2, 0, 2, -1, 0],
            [3, 1, -1, 0, -1],
            [3, -1, -1, 0, 1],
        ]
    elif name == "Q8":
        rows = [
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1],
            [2, -2, 0, 0, 0],
        ]
    else:
        return group, compute_character_table(group)
    chars = [
        Character(tuple(CycValue.from_rational(v, level) for v in row), row[0])
        for row in rows
    ]
    chars.sort(key=Character.sort_key)
    return group, CharacterTable(group, chars)
