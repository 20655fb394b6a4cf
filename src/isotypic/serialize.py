"""JSON round-tripping for groups, fields, tables and algebra elements;
matrix representations are only read.

Scalars serialize as exact strings ("3/4"), cyclotomic values as
{"level", "coeffs"}, number-field values as coefficient lists.  All writers
emit sorted, whitespace-stable JSON so identical inputs produce identical
bytes.

A scalar is read as a JSON integer (not a bool) or an ASCII string of the
form ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator; anything else (a
float, a bool, "0.5", "1e3", " 1", "+1", "1/0") is refused with a
ValidationError that names it.  An integer field (a level, a class
representative or size, an element index, a degree, a bound) must be a JSON
integer, not a float or a bool.  The coordinates of cyclotomic and
number-field values go straight between this text and the integer kernel's
numerators over one common denominator, with no Fraction per coordinate.
A list whose entries are all canonical small-integer strings (``str(k)``
for |k| <= 64, every coordinate of the bundled character tables) is read in
one pass through a fixed table of those strings: each matches the grammar
and reads as k over 1, and the table's keys are strings alone, so no bool,
float or JSON int can hit one.  Any other list goes entry by entry through
the one scalar reader, which gives every error message.
Rationals (Q coefficients, a field descriptor's minpoly and automorphism
images, which NumField keeps as Fractions) are read by the same grammar.

The coefficients of a document repeat (the order-80 manifest's 388
coordinate lists hold 138 distinct ones, the bundled order-80 table's 196
values 13), so the readers of algebra elements and character tables read
each distinct coefficient text once per document and reuse the immutable
value they built.  A memo lives exactly as long as its document: one per
``table_from_json`` call, one per ``cache`` that a caller passes to
``element_from_json`` for all elements of one document (``ManifestRunner``
passes one per manifest), and one per ``element_from_json`` call without
it; there is no module-level memo.  Keys are type-exact: a coefficient has
a key only when it is a string (over Q), a list of strings (number-field
coordinates) or an object whose ``level`` is a JSON integer and whose
``coeffs`` is a list of strings (a cyclotomic value).  A tuple of strings
never equals one holding a bool, a float or an int, and ``"1000"`` never
equals ``("1", "0", "0", "0")``, so such coefficients, and nested or
unhashable ones, miss the memo and go through the one reader, which keeps
every refusal; only a successful read is stored.  Keys are domain-qualified:
each coefficient domain of a document (Q, a cyclotomic level, a number
field object) has its own memo, so one text in two fields reads as two
values, and a value is never shared between two field objects.  An
element's memo stores a coefficient that reads as zero as a marker, so the
zero filter runs once per distinct text.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

from .characters import Character, CharacterTable
from .cyclotomic import DEFAULT_LEVEL_BOUND, CycValue
from .errors import BoundExceededError, ValidationError
from .groups import (
    DEFAULT_ENUMERATION_BOUND, FiniteGroup, from_cayley_table, from_permutations, from_presentation,
)
from .groupalgebra import (
    AlgebraElement,
    CyclotomicDomain,
    FieldDomain,
    MatrixRep,
    RATIONALS,
    _element,
)
from .numberfield import CycEmbedding, NumField, NumFieldValue

Rat = Fraction


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@contextmanager
def parsing(what: str):
    """Turn a missing key or an ill-typed value met while reading ``what``
    from JSON into a ValidationError that names it."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{what} lacks the key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from None


def json_int(x, name: str) -> int:
    """x itself when it is a JSON integer (not a bool); a ValueError naming
    the field otherwise, which ``parsing`` turns into a ValidationError."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an integer, not {json.dumps(x)}")
    return x


def json_level(x, name: str) -> int:
    """A cyclotomic level, refused below 1 or above the level bound before any
    value is built at it (Euler's phi alone is linear in the level)."""
    level = json_int(x, name)
    if level < 1:
        raise ValidationError("cyclotomic level must be positive")
    if level > DEFAULT_LEVEL_BOUND:
        raise BoundExceededError(
            f"cyclotomic level {level} exceeds the level bound {DEFAULT_LEVEL_BOUND}")
    return level


# -- scalars -----------------------------------------------------------------

_SCALAR = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def scalar_from_json(c) -> tuple[int, int]:
    """(n, d) in lowest terms with d > 0, from a JSON int or a "p/q" string."""
    if type(c) is int:
        return c, 1
    if type(c) is str and _SCALAR.fullmatch(c):
        num, _, den = c.partition("/")
        if not den:
            return int(num), 1
        n, d = int(num), int(den)
        if d == 0:
            raise ValueError(f"zero denominator in the scalar {c!r}")
        g = gcd(n, d)
        return n // g, d // g
    raise ValueError(f'{json.dumps(c)} is not an exact scalar (an integer or a "p/q" string)')


# the canonical strings of the small integers, each mapped to its value
_LITERALS = {str(k): k for k in range(-64, 65)}


def scalars_from_json(cs) -> tuple[list[int], int]:
    """Integer numerators over one common denominator, from a JSON list of scalars."""
    if type(cs) is not list:
        raise ValueError(f"a list of scalars is expected, not {json.dumps(cs)}")
    try:
        nums = list(map(_LITERALS.get, cs))
    except TypeError:  # an unhashable entry, refused below
        nums = [None]
    if None not in nums:
        return nums, 1
    pairs = [scalar_from_json(c) for c in cs]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def rational_from_json(c) -> Rat:
    return Rat(*scalar_from_json(c))


def _scalar_strings(num, den) -> list[str]:
    """str(Fraction(x, den)) for each x in num, without building the Fraction."""
    if den == 1:
        return [str(x) for x in num]
    out = []
    for x in num:
        g = gcd(x, den)
        out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return out


def cyc_to_json(v: CycValue) -> dict:
    return {"level": v.level, "coeffs": _scalar_strings(v.num, v.den)}


# what an element's memo stores for a coefficient that reads as zero
_ZERO = object()


def _literal_key(c):
    """The memo key of a JSON coefficient, or None when it has none: the
    string itself, the tuple of a list of strings, or (level, tuple of
    coeffs) for an object with a JSON-integer level and a list of strings."""
    if type(c) is str:
        return c
    if type(c) is list:
        return tuple(c) if all(type(x) is str for x in c) else None
    if type(c) is dict:
        level, coeffs = c.get("level"), c.get("coeffs")
        if type(level) is int and type(coeffs) is list and all(type(x) is str for x in coeffs):
            return level, tuple(coeffs)
    return None


def _memoized(memo: dict, c, read):
    """read(c), read once per key: a coefficient without a key, or one whose
    read raises, is never stored."""
    key = _literal_key(c)
    if key is None:
        return read(c)
    value = memo.get(key)
    if value is None:
        value = memo[key] = read(c)
    return value


def cyc_from_json(d) -> CycValue:
    return CycValue(json_level(d["level"], "level"), *scalars_from_json(d["coeffs"]))


def nfv_to_json(v) -> list:
    return _scalar_strings(v.num, v.den)


def nfv_from_json(nf: NumField, cs) -> NumFieldValue:
    return NumFieldValue(nf, *scalars_from_json(cs))


# -- fields ------------------------------------------------------------------


def field_to_json(nf: NumField) -> dict:
    return {
        "minpoly": [str(c) for c in nf.minpoly],
        "automorphisms": [[str(c) for c in img] for img in nf.automorphisms],
        "subfield_fixers": list(nf.subfield_fixers),
    }


def field_from_json(d) -> NumField:
    if not isinstance(d, dict):
        raise ValidationError(f"a field descriptor is an object with a minpoly, not {d!r}")
    return NumField(
        [rational_from_json(c) for c in d["minpoly"]],
        [[rational_from_json(c) for c in img] for img in d["automorphisms"]],
        tuple(json_int(k, "subfield fixer") for k in d.get("subfield_fixers", (0,))),
    )


# -- groups --------------------------------------------------------------------


def group_from_spec(d) -> FiniteGroup:
    """One of {"presentation": ...}, {"permutations": ...}, {"cayley": ...}."""
    keys = [k for k in ("presentation", "permutations", "cayley")
            if isinstance(d, dict) and k in d]
    if len(keys) != 1:
        raise ValidationError(
            "group specification must contain exactly one of "
            "presentation/permutations/cayley"
        )
    kind = keys[0]
    with parsing(f"{kind} group specification"):
        if kind == "presentation":
            p = d[kind]
            args = (json_int(p["generators"], "generators"), [list(w) for w in p["relators"]])
            bound = json_int(p.get("bound", DEFAULT_ENUMERATION_BOUND), "bound")
        else:
            rows = [list(r) for r in d[kind]]
    if kind != "presentation" and any(type(x) is not int for r in rows for x in r):
        raise ValidationError(f"{kind} group specification entries must be integers")
    if kind == "presentation":
        return from_presentation(*args, bound=bound)
    return from_permutations(rows) if kind == "permutations" else from_cayley_table(rows)


# -- character tables -------------------------------------------------------------


def table_to_json(table: CharacterTable) -> dict:
    return {
        "level": table.level,
        "classes": [
            {"representative": c.representative, "size": len(c.members)}
            for c in table.classes
        ],
        "chars": [[cyc_to_json(v) for v in ch.values] for ch in table.chars],
    }


def table_from_json(group: FiniteGroup, d) -> CharacterTable:
    with parsing("character table"):
        level = json_int(d["level"], "level")
        if level != group.exponent:
            raise ValidationError(
                f"table level {level} does not match the group exponent {group.exponent}"
            )
        classes = group.conjugacy_classes()
        if len(d["classes"]) != len(classes):
            raise ValidationError("table class count does not match the group")
        for entry, cls in zip(d["classes"], classes):
            rep = json_int(entry["representative"], "class representative")
            size = json_int(entry["size"], "class size")
            if rep != cls.representative or size != len(cls.members):
                raise ValidationError(
                    f"table class data {entry} does not match the group's class "
                    f"(rep {cls.representative}, size {len(cls.members)})"
                )
        chars = []
        memo = {}  # this document's values, each at the table level

        def read(v):
            return cyc_from_json(v).to_level(level)

        for row in d["chars"]:
            values = tuple([_memoized(memo, v, read) for v in row])
            deg = values[0]
            if not deg.is_rational() or deg.den != 1:
                raise ValidationError("character degree is not an integer")
            chars.append(Character(values, deg.num[0]))
    return CharacterTable(group, chars)  # validates orthogonality


# -- algebra elements ----------------------------------------------------------------


def domain_to_json(domain) -> object:
    if domain.kind == "Q":
        return "Q"
    if domain.kind == "cyclotomic":
        return {"cyclotomic": domain.level}
    return field_to_json(domain.field)


def field_key(d) -> str:
    """The key of a field descriptor in a document's ``cache``."""
    return json.dumps(d, sort_keys=True)


def domain_from_json(d, cache: dict):
    """The coefficient domain a descriptor names; a number field is read
    once per ``cache``, the per-document dict of fields and memos."""
    if d == "Q":
        return RATIONALS
    if isinstance(d, dict) and "cyclotomic" in d:
        return CyclotomicDomain(json_level(d["cyclotomic"], "cyclotomic level"))
    if isinstance(d, dict) and "minpoly" in d:
        key = field_key(d)
        if key not in cache:
            cache[key] = field_from_json(d)
        return FieldDomain(cache[key])
    raise ValidationError(f"unknown coefficient field descriptor {d!r}")


def element_to_json(el: AlgebraElement) -> dict:
    dom = el.domain
    coeffs = []
    for g in sorted(el.coeffs):
        c = el.coeffs[g]
        if dom.kind == "Q":
            coeffs.append([g, str(c)])
        elif dom.kind == "cyclotomic":
            coeffs.append([g, cyc_to_json(c)])
        else:
            coeffs.append([g, nfv_to_json(c)])
    return {"field": domain_to_json(dom), "coeffs": coeffs}


def _domain_memo(cache: dict, dom) -> dict:
    """The memo of dom's coefficients in a document's cache: one for Q, one
    per cyclotomic level and one per field object.  A value read in one of
    two equal fields is not shared with the other, so every coefficient of
    an element lies in its own field object: a field is named by its id,
    and the cache holds every field it names, so no other field takes that
    id while the memo lives."""
    if dom.kind == "numberfield":
        return cache.setdefault(("literals", id(dom.field)), {})
    return cache.setdefault(("literals", dom), {})


def element_from_json(group: FiniteGroup, d, cache: dict | None = None) -> AlgebraElement:
    """An element from JSON; the elements of one document share its ``cache``
    (fields and coefficient memos), a call without one reads alone."""
    cache = {} if cache is None else cache
    with parsing("algebra element"):
        dom = domain_from_json(d["field"], cache)
        memo = _domain_memo(cache, dom)
        zero = dom.zero()
        if dom.kind == "Q":
            read = rational_from_json
        elif dom.kind == "cyclotomic":
            read = cyc_from_json
        else:
            def read(c):
                return nfv_from_json(dom.field, c)

        def read_nonzero(c):
            value = read(c)
            return value if value != zero else _ZERO

        out = {}
        for g, c in d["coeffs"]:
            g = json_int(g, "element index")
            if not 0 <= g < group.order:
                raise ValidationError(f"element index {g} out of range")
            value = _memoized(memo, c, read_nonzero)
            if value is _ZERO:
                out.pop(g, None)
            else:
                out[g] = value
    return _element(group, dom, out)


# -- matrix representations --------------------------------------------------------------


def rep_from_json(group: FiniteGroup, table: CharacterTable, d) -> MatrixRep:
    with parsing("representation"):
        nf = field_from_json(d["field"])
        values = [cyc_from_json(v).to_level(table.level) for v in d["character_values"]]
        char_index = None
        for i, ch in enumerate(table.chars):
            if list(ch.values) == values:
                char_index = i
                break
        if char_index is None:
            raise ValidationError("character values in the file match no row of the table")
        degree = table.chars[char_index].degree
        if "degree" in d and json_int(d["degree"], "degree") != degree:
            raise ValidationError(
                f"representation key 'degree' is {d['degree']}, but the matched "
                f"character has degree {degree}"
            )
        if "embedding" in d:
            gen = cyc_from_json(d["embedding"]["generator"])
            emb = CycEmbedding(nf, gen, nfv_from_json(nf, d["embedding"]["image"]))
        else:
            emb = CycEmbedding(nf, None, None)
        gens = [
            [[nfv_from_json(nf, x) for x in row] for row in mat]
            for mat in d["generators"]
        ]
    return MatrixRep(group, nf, gens, table, char_index, emb)
