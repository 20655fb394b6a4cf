"""Exact group-algebra arithmetic and the primitive rational idempotent
pipeline.

Elements of F[G] carry a coefficient domain tag: the rationals, a cyclotomic
field, or a declared Galois number field L.  On top of the arithmetic this
module builds the central idempotents attached to complex and rational
irreducibles, the subgroup-invariant idempotents p_H and f_H = p_H e_W, the
diagonal idempotents of a matrix representation, and the construction that
turns them into primitive idempotent systems over L, K and Q by Galois
symmetrization.

The block ideal L[G]ell_j of a diagonal idempotent is never echelonized: its
basis is read off the representation's matrices as the matrix units
E_1j..E_nj.  Each identity of the construction is proved once, by a theorem
or by exact products:

(a) A MatrixRep has proved its matrices multiplicative and its trace equal
    to psi = iota o chi, iota a ring embedding of Q(chi) into L; the
    validated table has <chi, chi> = 1, so <psi, psi> = 1 and the rep is
    absolutely irreducible.  Schur orthogonality (Serre, Linear
    Representations of Finite Groups, 2.2) then gives E_ij E_kl =
    delta_jk E_il, so the ell_j = E_jj are orthogonal idempotents, and
    sum_j E_jj = (n/|G|) sum_g psi(g^-1) g = e_V and |G| ell_j(1) = n hold
    by definition.  No product checks them.
(b) The relations of the u grid are checked by exact products once, when
    it is built; the system keeps the named results.
(c) k_s = sum_h u_s^h, so the grid relations give k_s^2 = k_s, k_s k_t = 0
    for s != t and sum k_s = e_V.  Only the Gal(L/K)-fixed check and
    |G| k_s(1) = m n remain.  The f family keeps its full product suite, the
    one check of the rep side against e_W from the table.
(d) Linear algebra over L does only the work its answer needs.  The
    translates tau_h(b_i) of a block's k basis vectors are the m k rows of
    a matrix whose column g holds their entries at g; a column is built
    when it is read, with the factor n/|G| of the matrix units left out, as
    a nonzero scalar changes no rank or span.  Row rank equals column rank
    and neither exceeds the row count, so the column echelon stops once its
    rank equals the row count; if it never does, every column is read and
    the rank is exact.  ideal_dim and orbit_module_check read the matrix
    whose row h is h*a the same way, column g holding a(h^-1 g).  When the
    rows are independent, the accepted (pivot) columns form a nonsingular
    minor B_P, so x B_P = v_P has one solution, and v lies in the row space
    exactly when x B = v on every column (with dependent rows, x vanishes
    off the pivot rows and the test still holds: restriction to P is
    one-to-one on the row space).  For e_V that comparison is the grid
    check "sum of u grid equals the central idempotent", so coordinates on
    the minor give the u grid a full solve would, and the check proves them
    on all |G| columns.  Once every tau_h
    fixes psi, and so e_V, each translate of a matrix unit lies in
    L[G]e_V, by (a); a span of rank n^2 is then all of L[G]e_V, holds every
    later ell_j, and the block scan stops.  A zero entry contributes no
    product, here and in the matrix products of a MatrixRep.

The central idempotents are class functions: e_V = (n/|G|) sum chi(g^-1) g,
e_W with Tr_{K/Q} chi in place of chi, and e_V over L with chi embedded in
L.  One builder takes one value per conjugacy class, scales it once and
spreads it over the class, so chi is traced or embedded r times, not |G|.

A product of two elements runs one packed kernel for every domain, by
Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009).  Each
operand is brought to integer numerator vectors over one common
denominator (Cohen, GTM 138, section 4.2), of width 1 over Q, phi(e) over
Q(zeta_e) and [L:Q] over L, and each vector is packed into one Python int
with B-bit signed slots.  The bigint products of all pairs (g, h) are summed
per output gh, and each sum is unpacked and folded through the domain's
reduction rows once.  A slot of an output sums at most
min(|supp a|, |supp b|) * width products of two numerators, so B is chosen
with 2^(B-1) > min(|supp a|, |supp b|) * width * max|a_i| * max|b_j|: no
slot can overflow, and the packing is exact by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .characters import CharacterTable, RationalIrrep, _checked, _rational_traces, fixed_dims
from .cyclotomic import CycValue, _Exact, _normal, _pack, _unpacker
from .errors import InvariantError, ValidationError
from .groups import FiniteGroup
from .linalg import column_echelon, dot
from .numberfield import RATIONAL_FIELD, CycEmbedding, NumField, NumFieldValue

Rat = Fraction


# ---------------------------------------------------------------------------
# coefficient domains
# ---------------------------------------------------------------------------


class RationalDomain:
    kind = "Q"

    def zero(self):
        return Rat(0)

    def one(self):
        return Rat(1)

    def from_rational(self, q):
        return Rat(q)

    def apply_galois(self, index, value):
        return value

    def numerators(self, c):
        """(integer numerators, denominator) of a coefficient."""
        c = c if isinstance(c, (int, Rat)) else _coerce(self, c)
        return (c.numerator,), c.denominator

    def packing(self):
        """(width, reduction rows, their denominator, value constructor)."""
        return 1, None, 1, _rational_value

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class _ExactDomain:
    """The packed product's view of a field domain: its coefficients as
    integer numerators, and the reduction and constructor of its values."""

    def numerators(self, c):
        c = _coerce(self, c)
        return c.num, c.den

    def packing(self):
        one = self.one()
        rows, width, scale = one._reduction()
        return width, rows, scale, one._make


class CyclotomicDomain(_ExactDomain):
    kind = "cyclotomic"

    def __init__(self, level: int):
        self.level = level

    def zero(self):
        return CycValue.zero(self.level)

    def one(self):
        return CycValue.one(self.level)

    def from_rational(self, q):
        return CycValue.from_rational(q, self.level)

    def apply_galois(self, unit, value):
        return value.galois(unit)

    def __eq__(self, other):
        return isinstance(other, CyclotomicDomain) and self.level == other.level

    def __hash__(self):
        return hash(("cyc", self.level))

    def __repr__(self):
        return f"Q(zeta_{self.level})"


class FieldDomain(_ExactDomain):
    kind = "numberfield"

    def __init__(self, nf: NumField):
        self.field = nf

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def from_rational(self, q):
        return self.field.from_rational(q)

    def apply_galois(self, index, value):
        return self.field.apply_auto(index, value)

    def __eq__(self, other):
        return isinstance(other, FieldDomain) and self.field == other.field

    def __hash__(self):
        return hash(("nf", self.field.minpoly))

    def __repr__(self):
        return f"Field({self.field!r})"


RATIONALS = RationalDomain()


def _rational_value(num, den):
    return Rat(num[0], den)


def _join_domains(a, b):
    if a == b:
        return a
    if a.kind == "Q":
        return b
    if b.kind == "Q":
        return a
    if a.kind == b.kind == "cyclotomic":
        lev = a.level * b.level // gcd(a.level, b.level)
        return CyclotomicDomain(lev)
    raise ValidationError(
        f"incompatible coefficient fields {a!r} and {b!r} without a declared embedding"
    )


def _coerce(domain, c, embedding=None):
    """The scalar c as a coefficient of domain.

    A rational goes anywhere.  A cyclotomic value goes to Q if it is
    rational, to a level its own level divides, or into a number field
    through a declared embedding.  A number-field value goes to Q if it is
    rational, or stays in its own field.  Anything else is rejected.
    """
    if isinstance(c, (int, Rat)):
        return domain.from_rational(c)
    if isinstance(c, CycValue):
        if domain.kind == "Q":
            return c.as_rational()
        if domain.kind == "cyclotomic":
            return c.to_level(domain.level)
        if embedding is None:
            raise ValidationError(
                "embedding required to move cyclotomic coefficients into a number field"
            )
        return embedding.embed(c)
    if isinstance(c, NumFieldValue):
        if domain.kind == "Q":
            return c.as_rational()
        if domain.kind == "numberfield" and (c.field is domain.field or c.field == domain.field):
            return c
    raise ValidationError(f"cannot coerce {c!r} into {domain!r}")


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------


class AlgebraElement:
    """Sparse exact element of F[G]."""

    __slots__ = ("group", "domain", "coeffs")

    def __init__(self, group: FiniteGroup, domain, coeffs):
        self.group = group
        self.domain = domain
        zero = domain.zero()
        self.coeffs = {g: c for g, c in coeffs.items() if c != zero}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(group, domain=RATIONALS):
        return AlgebraElement(group, domain, {})

    @staticmethod
    def one(group, domain=RATIONALS):
        return AlgebraElement(group, domain, {0: domain.one()})

    def to_domain(self, domain, embedding: CycEmbedding | None = None):
        if domain == self.domain:
            return self
        return AlgebraElement(self.group, domain, {
            g: _coerce(domain, c, embedding) for g, c in self.coeffs.items()
        })

    # -- ring operations ---------------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, AlgebraElement):
            raise ValidationError("expected an algebra element")
        if other.group is not self.group:
            raise ValidationError("elements live over different groups")
        dom = _join_domains(self.domain, other.domain)
        return self.to_domain(dom), other.to_domain(dom)

    def __add__(self, other):
        a, b = self._pair(other)
        out = dict(a.coeffs)
        for g, c in b.coeffs.items():
            out[g] = out[g] + c if g in out else c
        return AlgebraElement(a.group, a.domain, out)

    def __sub__(self, other):
        a, b = self._pair(other)
        out = dict(a.coeffs)
        for g, c in b.coeffs.items():
            out[g] = out[g] - c if g in out else -c
        return AlgebraElement(a.group, a.domain, out)

    def __neg__(self):
        return AlgebraElement(self.group, self.domain, {g: -c for g, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return _packed_product(*self._pair(other))
        scalar = other if isinstance(other, (int, Rat)) else _coerce(self.domain, other)
        return AlgebraElement(
            self.group, self.domain, {g: c * scalar for g, c in self.coeffs.items()}
        )

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.coeffs
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.group is not self.group:
            return False
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # __eq__ coerces across domains, which keeps the support, and makes
        # the zero element equal to the int 0
        return hash(tuple(sorted(self.coeffs))) if self.coeffs else hash(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, g: int):
        return self.coeffs.get(g, self.domain.zero())

    # -- predicates -----------------------------------------------------------------

    def is_idempotent(self) -> bool:
        return self * self == self

    def is_orthogonal_to(self, other) -> bool:
        return (self * other).is_zero() and (other * self).is_zero()

    def is_central(self) -> bool:
        """Whether s*self == self*s for every generator s, hence for all of G.

        s*a*s^-1 = sum_x a_x s x s^-1, so s*a = a*s exactly when
        a_{s x s^-1} = a_x for every x: a is constant on the orbits of
        conjugation by s, read from the group's conjugation tables with no
        product built.  Conjugation permutes G, so x may run over the
        support alone: a map of the support into itself is onto it.
        """
        zero, coeffs = self.domain.zero(), self.coeffs
        get = coeffs.get
        return all(get(c[x], zero) == v
                   for _, c in self.group._conjugation_tables() for x, v in coeffs.items())

    def is_bi_invariant(self, members) -> bool:
        """Whether h*self == self == self*h for every h in members.

        h*a = sum_x a_x hx and a*h = sum_x a_x xh, so this holds exactly when
        a_{hx} = a_x = a_{xh} for every x; as in ``is_central``, translation
        permutes G and x runs over the support alone.
        """
        zero, coeffs = self.domain.zero(), self.coeffs
        get, mul = coeffs.get, self.group._mul
        for h in members:
            row = mul[h]
            if not all(get(row[x], zero) == v and get(mul[x][h], zero) == v
                       for x, v in coeffs.items()):
                return False
        return True

    def is_rational(self) -> bool:
        return all(isinstance(c, Rat) or isinstance(c, _Exact) and c.is_rational()
                   for c in self.coeffs.values())

    def apply_galois(self, index):
        """Coefficient-wise Galois action; index is a unit mod level for
        cyclotomic domains and an automorphism index for number fields."""
        return AlgebraElement(
            self.group,
            self.domain,
            {g: self.domain.apply_galois(index, c) for g, c in self.coeffs.items()},
        )

    def fixed_by_galois(self, index) -> bool:
        return self.apply_galois(index) == self

    def __repr__(self):
        return f"AlgebraElement({len(self.coeffs)} terms over {self.domain!r})"


def _element(group, domain, coeffs) -> AlgebraElement:
    """An element from coefficients already known to be nonzero."""
    el = object.__new__(AlgebraElement)
    el.group, el.domain, el.coeffs = group, domain, coeffs
    return el


def _numerators(domain, coeffs):
    """(D, [(g, numerators)]): the coefficients over one common denominator D."""
    parts = [(g, *domain.numerators(c)) for g, c in coeffs.items()]
    den = lcm(*[d for _, _, d in parts])
    return den, [(g, num if d == den else [x * (den // d) for x in num])
                 for g, num, d in parts]


def _packed_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a*b for two elements over one domain, by Kronecker substitution.

    Slot k of the sum for an output x is sum over gh = x and i + j = k of
    a_g[i] * b_h[j]: at most min(|supp a|, |supp b|) * width terms, which
    bounds it as the module docstring says.
    """
    domain = a.domain
    width, rows, scale, build = domain.packing()
    den_a, vecs_a = _numerators(domain, a.coeffs)
    den_b, vecs_b = _numerators(domain, b.coeffs)
    if not vecs_a or not vecs_b:
        return _element(a.group, domain, {})
    top_a = max(abs(x) for _, v in vecs_a for x in v)
    top_b = max(abs(x) for _, v in vecs_b for x in v)
    bits = (min(len(vecs_a), len(vecs_b)) * width * top_a * top_b).bit_length() + 1
    packed_b = [(h, _pack(v, bits)) for h, v in vecs_b]
    mul = a.group._mul
    sums = {}
    for g, v in vecs_a:
        x = _pack(v, bits)
        row = mul[g]
        for h, y in packed_b:
            k = row[h]
            if k in sums:
                sums[k] += x * y
            else:
                sums[k] = x * y
    unpack = _unpacker(bits, 2 * width - 1, rows, width, scale)
    den = den_a * den_b * scale
    coeffs = {}
    for k, total in sums.items():
        num = unpack(total)
        if any(num):
            coeffs[k] = build(*_normal(num, den))
    return _element(a.group, domain, coeffs)


def _trace_dim(e: AlgebraElement) -> int:
    """dim F[G]e = |G|*e(1) for an idempotent e.

    x -> x*e projects F[G] onto F[G]e, and its trace in the group basis is
    |G| times the coefficient of the identity.  Callers have the
    idempotency of e checked exactly or proved first.
    """
    d = e.coefficient(0) * e.group.order
    d = d if isinstance(d, (int, Rat)) else d.as_rational()
    if d.denominator != 1:  # pragma: no cover - the trace of a projection is its rank
        raise InvariantError(f"trace of an idempotent is not an integer: {d}")
    return int(d)


def _translate_entries(a: AlgebraElement, hs):
    """g -> [a(h^-1 g) for h in hs], the entries at g of the translates h*a."""
    get, zero, mul, inv = a.coeffs.get, a.domain.zero(), a.group._mul, a.group.inv
    rows = [mul[inv(h)] for h in hs]
    return lambda g: [get(row[g], zero) for row in rows]


def _translate_echelon(a: AlgebraElement):
    """The column echelon of the matrix whose row h is h*a (docstring, (d))."""
    if a.domain.kind == "Q":  # Fractions have no inverse(); RATIONAL_FIELD values do
        a = a.to_domain(FieldDomain(RATIONAL_FIELD))
    order = a.group.order
    entries = _translate_entries(a, range(order))
    return column_echelon(((g, entries(g)) for g in range(order)), order, a.domain.zero())


def ideal_dim(a: AlgebraElement) -> int:
    """Dimension over the coefficient field of the left ideal F[G]*a.

    An idempotent (checked exactly) gets the closed form |G|*a(1); any
    other element the rank of its left translates, read by columns.
    """
    if a.is_idempotent():
        return _trace_dim(a)
    return _translate_echelon(a).rank


# ---------------------------------------------------------------------------
# central and subgroup-invariant idempotents
# ---------------------------------------------------------------------------


def _class_function_element(group: FiniteGroup, domain, values, scale) -> AlgebraElement:
    """scale * sum_g phi(g^-1) g for the class function phi with one value per class.

    Each class's value is scaled once and spread over the elements whose
    inverses lie in that class.
    """
    scaled = [v * scale for v in values]
    return AlgebraElement(group, domain, {
        g: scaled[group.class_index(group.inv(g))] for g in range(group.order)})


def central_idempotent(table: CharacterTable, char_index: int) -> AlgebraElement:
    """e attached to one complex irreducible: (dim/|G|) sum chi(g^-1) g.

    Lives over the cyclotomic field Q(zeta_e), e the group exponent.
    """
    char = table.chars[char_index]
    return _class_function_element(table.group, CyclotomicDomain(table.level), char.values,
                                   Rat(char.degree, table.group.order))


def rational_central_idempotent(table: CharacterTable, orbit: RationalIrrep) -> AlgebraElement:
    """e attached to a rational irreducible: (dim/|G|) sum Tr_{K/Q}(chi(g^-1)) g."""
    return _class_function_element(table.group, RATIONALS, _rational_traces(table, orbit),
                                   Rat(orbit.degree, table.group.order))


def averaging_idempotent(group: FiniteGroup, members) -> AlgebraElement:
    """p_H = (1/|H|) sum_{h in H} h."""
    members = tuple(members)
    scale = Rat(1, len(members))
    return AlgebraElement(group, RATIONALS, {h: scale for h in members})


def invariant_idempotent(table: CharacterTable, orbit: RationalIrrep, members) -> AlgebraElement:
    """f_H = p_H e_W = e_W p_H: the H-bi-invariant idempotent of the W block."""
    return averaging_idempotent(table.group, members) * rational_central_idempotent(table, orbit)


# ---------------------------------------------------------------------------
# matrix representations over a declared field
# ---------------------------------------------------------------------------


class MatrixRep:
    """Irreducible matrix representation over a declared Galois field L.

    Generator images are extended to all elements in one pass over the
    (element, generator) pairs: the group's elements are numbered
    breadth-first, so the first pair reaching an element defines its matrix
    and every other pair is checked against it, which certifies the full
    multiplication table.  The trace is then a class function, so it is
    checked once per class, at the class's first element, against the linked
    character, embedded into L as ``char_values`` through the declared
    embedding.  Both checks together prove the rep absolutely irreducible,
    so its diagonal idempotents need no check of their own (module
    docstring, (a)).
    """

    def __init__(self, group: FiniteGroup, nf: NumField, gen_matrices,
                 table: CharacterTable, char_index: int,
                 embedding: CycEmbedding | None = None):
        self.group = group
        self.field = nf
        self.table = table
        self.char_index = char_index
        char = table.chars[char_index]
        self.degree = char.degree
        self.embedding = embedding if embedding is not None else CycEmbedding(nf, None, None)

        if group.labels is None:
            raise ValidationError("matrix representations need a group with generator words")
        if len(gen_matrices) != len(group.generators):
            raise ValidationError("one matrix per group generator is required")
        n = self.degree
        mats = []
        for m in gen_matrices:
            if len(m) != n or any(len(row) != n for row in m):
                raise ValidationError("generator matrix has the wrong shape")
            mats.append(tuple(tuple(self._entry(x) for x in row) for row in m))
        self.gen_matrices = tuple(mats)

        zero = nf.zero()
        ident = tuple(tuple(nf.one() if i == j else zero for j in range(n)) for i in range(n))
        # multiplicativity at every (element, generator) pair certifies the table
        matrices = [ident] + [None] * (group.order - 1)
        for a in range(group.order):
            if matrices[a] is None:
                raise InvariantError("group elements are not numbered breadth-first")
            for gi, gelem in enumerate(group.generators):
                b = group.mul(a, gelem)
                prod = _mat_mul(matrices[a], self.gen_matrices[gi], zero)
                if matrices[b] is None:
                    matrices[b] = prod
                elif prod != matrices[b]:
                    raise ValidationError(
                        f"representation inconsistent with character: "
                        f"multiplicativity fails at element {a}, generator {gi}"
                    )
        self.matrices = tuple(matrices)

        # the character embedded into L and checked once per class, at the
        # class's first element: the rep is multiplicative, so its trace is a
        # class function and the first failing element is found all the same
        values = [None] * len(char.values)
        for g, mat in enumerate(self.matrices):
            k = group.class_index(g)
            if values[k] is None:
                values[k] = self.embedding.embed(char.values[k])
                if sum((mat[i][i] for i in range(n)), nf.zero()) != values[k]:
                    raise ValidationError(
                        f"representation inconsistent with character: "
                        f"trace mismatch at element {g}"
                    )
        self.char_values = tuple(values)

    def _entry(self, x):
        if isinstance(x, NumFieldValue):
            if x.field != self.field:
                raise ValidationError("matrix entry from a different field")
            return x
        return self.field.from_rational(Rat(x))

    def matrix(self, g: int):
        return self.matrices[g]


def _mat_mul(a, b, zero):
    """a b for square matrices over L; a zero entry contributes no product."""
    out = []
    for row in a:
        acc = [None] * len(row)
        for x, brow in zip(row, b):
            if not x.is_zero():
                for j, y in enumerate(brow):
                    if not y.is_zero():
                        acc[j] = x * y if acc[j] is None else acc[j] + x * y
        out.append(tuple(zero if c is None else c for c in acc))
    return tuple(out)


def central_idempotent_over_field(rep: MatrixRep) -> AlgebraElement:
    """e_V with coefficients embedded into the representation's field."""
    return _class_function_element(rep.group, FieldDomain(rep.field), rep.char_values,
                                   Rat(rep.degree, rep.group.order))


def _translates(nf: NumField, fixers, entries):
    """The entries followed by their tau_h images for h in fixers[1:], fixers[0]
    being the identity: the column at one element g of the vectors tau_h(b_i),
    given the entries b_i(g)."""
    out = list(entries)
    for h in fixers[1:]:
        out += [c if c.is_zero() else nf.apply_auto(h, c) for c in entries]
    return out


def _unit_entries(rep: MatrixRep, j: int):
    """g -> the entries at g of the matrix units E_1j..E_nj times |G|/n: row j
    of r(g^-1).  The E_ij = (n/|G|) sum_g r_ji(g^-1) g are a basis of
    L[G]ell_j for every MatrixRep, whose matrices are certified
    multiplicative and whose trace is a validated irreducible character
    (module docstring, (a))."""
    matrices, inv = rep.matrices, rep.group.inv
    return lambda g: matrices[inv(g)][j]


def diagonal_idempotent(rep: MatrixRep, j: int) -> AlgebraElement:
    """ell_j = E_jj = (dim/|G|) sum_g r_jj(g^-1) g over L."""
    group = rep.group
    scale = Rat(rep.degree, group.order)
    entries = ((g, rep.matrix(group.inv(g))[j][j]) for g in range(group.order))
    return _element(group, FieldDomain(rep.field),
                    {g: c * scale for g, c in entries if not c.is_zero()})


def diagonal_idempotents(rep: MatrixRep):
    """All ell_j: orthogonal idempotents summing to e_V over L, each with a
    left ideal of dimension n, by Schur orthogonality (module docstring, (a))."""
    return [diagonal_idempotent(rep, j) for j in range(rep.degree)]


# ---------------------------------------------------------------------------
# the primitive idempotent system over L, K and Q
# ---------------------------------------------------------------------------


def orbit_module_check(element: AlgebraElement) -> dict:
    """Galois-orbit analysis of the left ideal of an element over L.

    Computes M = sum of the left ideals generated by the Gal(L/K)-translates
    of the element; reports whether the stabilizer of the ideal is trivial,
    whether the sum is direct, and the dimension of M.  The translates h*a
    at the pivot rows P of their column echelon are a basis of the ideal:
    column operations keep the dependences among the rows, the minor on P
    is nonsingular and |P| is the rank.  tau(g*a) = g*tau(a), so tau maps
    it onto a basis of the ideal of tau(a).
    """
    if element.domain.kind != "numberfield":
        raise ValidationError("orbit analysis needs an element over a declared field")
    pivots = _translate_echelon(element).pivot_rows
    return _orbit_verdict(element.domain.field, len(pivots), element.group.order,
                          _translate_entries(element, pivots))


def _orbit_verdict(nf: NumField, base_dim: int, order: int, entries) -> dict:
    """orbit_module_check for the ideal with base_dim independent basis
    vectors b_i, whose entries at element g are entries(g).

    The rank of the translates tau_h(b_i) is read off the columns of the
    matrix they are the rows of, one column per element, built when it is
    read (module docstring, (d)).  A direct sum of nonzero blocks shows that
    no tau_h fixes the first block, so the pairwise ranks are read only if
    the sum is not direct or is zero; each needs to know only whether it
    exceeds base_dim.
    """
    def rank(fixers, stop):
        columns = ((g, _translates(nf, fixers, entries(g))) for g in range(order))
        return column_echelon(columns, len(fixers) * base_dim, nf.zero(), stop).rank

    fixers = nf.subfield_fixers
    total = rank(fixers, len(fixers) * base_dim)
    direct = total == base_dim * len(fixers)
    # tau_h moves the ideal iff its vectors enlarge the span of the first block
    stab_trivial = (direct and base_dim > 0) or all(
        rank((0, h), base_dim + 1) > base_dim for h in fixers[1:])
    return {"stabilizer_trivial": stab_trivial, "direct": direct, "dim": total,
            "block_dim": base_dim}


class IdempotentSystem:
    """Output of the primitive-system construction for one irreducible.

    u_grid[s][h] is the primitive idempotent in the h-th Galois translate of
    the s-th selected left ideal; e_central is e_V over L and e_rational
    e_W over Q; checks holds the named grid results of the construction.
    The Galois data records Gal(L/K) as automorphism indices of the declared
    field.
    """

    def __init__(self, group: FiniteGroup, nf: NumField, ells, selected, u_grid,
                 e_central: AlgebraElement, e_rational: AlgebraElement, checks):
        self.group = group
        self.nf = nf
        self.ells = ells
        self.selected = selected
        self.u_grid = u_grid
        self.e_central = e_central
        self.e_rational = e_rational
        self.checks = checks

    @property
    def schur_m(self) -> int:
        return len(self.nf.subfield_fixers)

    @property
    def blocks(self) -> int:
        return len(self.u_grid)


def construct_primitive_system(rep: MatrixRep, orbit: RationalIrrep,
                               ells=None) -> IdempotentSystem:
    """Select block ideals greedily and solve for the primitive grid.

    Scans the diagonal idempotents in index order, keeping ell_j whenever it
    lies outside the span accumulated so far; each kept ideal contributes
    its full Galois orbit of left ideals to the span, as the tau_h-images of
    its matrix units.  Once the span has rank n^2 and every tau_h fixes e_V,
    it is all of L[G]e_V and the scan stops (module docstring, (d)).  The
    coordinates of the central idempotent with respect to the assembled
    basis, solved on a nonsingular minor, give the primitive idempotents
    u_s^h; their relations are checked here by exact products, once, and
    the system keeps the named results.  A given ells must be the rep's
    diagonal idempotents.
    """
    nf = rep.field
    group = rep.group
    fixers = nf.subfield_fixers
    m = len(fixers)
    n = rep.degree
    if n % m != 0:
        raise InvariantError("field degree inconsistent with Schur index")
    if len(nf.automorphisms) != m * orbit.field_degree:
        raise ValidationError(
            f"declared field degree {len(nf.automorphisms)} does not equal "
            f"[L:K]*[K:Q] = {m}*{orbit.field_degree}"
        )
    diagonal = diagonal_idempotents(rep)
    if ells is not None and list(ells) != diagonal:
        raise ValidationError("ells are not the diagonal idempotents of the representation")
    e_central = central_idempotent_over_field(rep)
    dom = FieldDomain(nf)
    zero = dom.zero()
    order = group.order

    # tau_h(e_V) = e_V puts every translate of a matrix unit in L[G]e_V
    closed = all(nf.apply_auto(h, v) == v for h in fixers[1:] for v in rep.char_values)
    selected = []
    tables = []  # [s][g] -> the entries at g of the tau_h(E_ij) of block s, times |G|/n
    ech = None
    for j in range(n):
        unit_at = _unit_entries(rep, j)
        if ech is not None:
            if closed and ech.rank == n * n:
                break
            # ell_j times |G|/n, whose entries are the diagonal of the matrices
            ell = [unit_at(g)[j] for g in range(order)]
            if ech.coordinates(ell, _columns(tables, order)) is not None:
                continue
        tables.append([_translates(nf, fixers, unit_at(g)) for g in range(order)])
        selected.append(j)
        ech = column_echelon(_columns(tables, order), len(tables) * m * n, zero)

    if len(selected) != n // m:
        raise InvariantError("field degree inconsistent with Schur index")
    if ech.rank != n * n:
        raise InvariantError("basis assembly failed: span does not fill the simple block")

    # n^2 independent basis vectors: the coordinates on the minor are unique
    coords = ech.solve([e_central.coefficient(g) for g in ech.keys])
    u_grid, pos = [], 0
    for table in tables:
        row = []
        for lo in range(0, m * n, n):
            cs, pos = coords[pos:pos + n], pos + n
            sums = ((g, dot(cs, col[lo:lo + n], zero)) for g, col in enumerate(table))
            row.append(_element(group, dom, {g: c for g, c in sums if not c.is_zero()}))
        u_grid.append(tuple(row))

    checks = _grid_checks(u_grid, fixers, e_central)
    failures = [name for name, ok in checks if not ok]
    # the grid sums to the coordinates' combination of the basis on every
    # column, which misses e_V exactly when e_V lies outside the span
    if _GRID_SUM in failures:
        raise InvariantError("basis assembly failed: central idempotent not expressible")
    if failures:
        raise InvariantError(f"basis assembly failed: {failures[0]}")
    return IdempotentSystem(
        group=group, nf=nf, ells=tuple(diagonal), selected=tuple(selected),
        u_grid=tuple(u_grid), e_central=e_central,
        e_rational=rational_central_idempotent(rep.table, orbit), checks=tuple(checks),
    )


def _columns(tables, order):
    """(g, column g) of the basis whose blocks' columns are the tables."""
    return ((g, [c for table in tables for c in table[g]]) for g in range(order))


_GRID_SUM = "sum of u grid equals the central idempotent"


def _grid_checks(grid, fixers, e_central):
    """Named pass/fail results for the u-grid relations, by exact products."""
    checks = [(f"u[{s+1}][{hi+1}] = tau_{hi+1}(u[{s+1}][1])", row[0].apply_galois(h) == row[hi])
              for s, row in enumerate(grid) for hi, h in enumerate(fixers)]
    cells = [((s + 1, hi + 1), u) for s, row in enumerate(grid) for hi, u in enumerate(row)]
    total = sum((u for _, u in cells), AlgebraElement.zero(e_central.group, e_central.domain))
    checks.append((_GRID_SUM, total == e_central))
    product_failures = [(f"grid product rule at ({a[0]},{a[1]})x({b[0]},{b[1]})", False)
                        for a, u in cells for b, v in cells
                        if u * v != (u if a == b else 0)]
    checks.extend(product_failures)
    checks.append(("grid product rule", not product_failures))
    return checks


def system_grid_checks(system: IdempotentSystem):
    """Named pass/fail results for the u-grid relations, kept from the exact
    products made when the system was built (module docstring, (b))."""
    return list(system.checks)


def _check_idempotent_family(elems, target, want_dim, name):
    """Raise unless elems are orthogonal idempotents summing to target, each
    with a left ideal of dimension want_dim (read off as |G|*e(1))."""
    for s, e in enumerate(elems):
        if not e.is_idempotent():
            raise InvariantError(f"{name}_{s+1} is not idempotent")
    for s in range(len(elems)):
        for t in range(s + 1, len(elems)):
            if not elems[s].is_orthogonal_to(elems[t]):
                raise InvariantError(f"{name}_{s+1} and {name}_{t+1} are not orthogonal")
    if sum(elems, AlgebraElement.zero(target.group, target.domain)) != target:
        raise InvariantError(f"the {name} elements do not sum to the central idempotent")
    for s, e in enumerate(elems):
        d = _trace_dim(e)
        if d != want_dim:
            raise InvariantError(f"{name}_{s+1} is not primitive: ideal dim {d} != {want_dim}")


def symmetrize_to_subfield(system: IdempotentSystem):
    """k_s = sum over Gal(L/K) of tau(u_s^1): primitive idempotents in K[G].

    The grid relations prove them orthogonal idempotents summing to e_V
    (module docstring, (c)); each is checked to be fixed by Gal(L/K) and to
    have |G|*k_s(1) = m*n.
    """
    n = system.blocks * system.schur_m
    want = system.schur_m * n
    ks = [sum(row[1:], row[0]) for row in system.u_grid]
    for s, k in enumerate(ks):
        if not all(k.fixed_by_galois(h) for h in system.nf.subfield_fixers):
            raise InvariantError(f"k_{s+1} is not fixed by Gal(L/K)")
        d = _trace_dim(k)
        if d != want:
            raise InvariantError(f"k_{s+1} is not primitive: ideal dim {d} != {want}")
    return ks


def symmetrize_to_rational(system: IdempotentSystem):
    """f_s = sum over Gal(L/Q) of sigma(u_s^1): primitive idempotents in Q[G],
    checked by the full product suite against e_W (module docstring, (c))."""
    autos = range(len(system.nf.automorphisms))
    fs = []
    for s, row in enumerate(system.u_grid):
        zero = AlgebraElement.zero(system.group, row[0].domain)
        f = sum((row[0].apply_galois(i) for i in autos), zero)
        if not f.is_rational():
            raise InvariantError(f"f_{s+1} has irrational coefficients")
        fs.append(f.to_domain(RATIONALS))
    # m * n * [K:Q] with n = blocks * m and [K:Q] = [L:Q] / m
    want = system.blocks * system.schur_m * len(autos)
    _check_idempotent_family(fs, system.e_rational, want, "f")
    return fs


def validate_schur_from_rep(rep: MatrixRep, orbit: RationalIrrep) -> int:
    """Evidence suite asserting m = [L:K] for the orbit of the representation.

    Checks the orbit analysis of every diagonal idempotent's ideal, on its
    matrix units, and the divisibility of every subgroup multiplicity by m;
    returns m.  The diagonal idempotents themselves need no check (module
    docstring, (a)).
    """
    m = len(rep.field.subfield_fixers)
    for j in range(rep.degree):
        verdict = _orbit_verdict(rep.field, rep.degree, rep.group.order, _unit_entries(rep, j))
        if not (verdict["stabilizer_trivial"] and verdict["direct"]):
            raise InvariantError(
                f"orbit analysis failed for ell_{j+1}: {verdict}"
            )
        if verdict["dim"] != m * rep.degree:
            raise InvariantError(
                f"orbit module of ell_{j+1} has dimension {verdict['dim']} != {m * rep.degree}"
            )
    for sub in rep.group.subgroup_classes():
        d = _checked(fixed_dims(rep.table, sub.members)[rep.char_index])
        if d % m != 0:
            raise InvariantError(
                f"subgroup multiplicity {d} is not divisible by the declared m = {m}"
            )
    return m
