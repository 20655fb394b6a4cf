"""Exact group-algebra arithmetic and the primitive rational idempotent
pipeline.

Elements of F[G] carry a coefficient domain tag: the rationals, a cyclotomic
field (optionally annotated with the stabilizer of a character field K), or
a declared Galois number field L.  On top of the arithmetic this module
builds the central idempotents attached to complex and rational
irreducibles, the subgroup-invariant idempotents p_H and f_H = p_H e_W, the
diagonal idempotents of a matrix representation, and the construction that
turns them into primitive idempotent systems over L, K and Q by Galois
symmetrization.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from .characters import CharacterTable, RationalIrrep, fixed_dim
from .cyclotomic import CycValue, char_field_stabilizer, trace_to_rational
from .errors import InvariantError, ValidationError
from .groups import FiniteGroup
from .linalg import Echelon, solve_in_span
from .numberfield import CycEmbedding, NumField, NumFieldValue

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

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class CyclotomicDomain:
    kind = "cyclotomic"

    def __init__(self, level: int, stabilizer=None):
        self.level = level
        self.stabilizer = tuple(stabilizer) if stabilizer is not None else None

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


class FieldDomain:
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


def _coerce_scalar(domain, value):
    if isinstance(value, (int, Rat)):
        return domain.from_rational(value)
    if domain.kind == "cyclotomic":
        if isinstance(value, CycValue):
            return value.to_level(domain.level) if value.level != domain.level else value
    if domain.kind == "numberfield" and isinstance(value, NumFieldValue):
        if value.field == domain.field:
            return value
    if domain.kind == "Q" and isinstance(value, CycValue) and value.is_rational():
        return value.as_rational()
    raise ValidationError(f"cannot coerce {value!r} into {domain!r}")


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

    @staticmethod
    def basis(group, g: int, domain=RATIONALS):
        return AlgebraElement(group, domain, {g: domain.one()})

    def to_domain(self, domain, embedding: CycEmbedding | None = None):
        if domain == self.domain:
            return self
        out = {}
        for g, c in self.coeffs.items():
            if isinstance(c, Rat):
                out[g] = domain.from_rational(c)
            elif isinstance(c, CycValue):
                if domain.kind == "Q":
                    out[g] = c.as_rational()
                elif domain.kind == "cyclotomic":
                    out[g] = c.to_level(domain.level)
                elif embedding is not None:
                    out[g] = embedding.embed(c)
                else:
                    raise ValidationError(
                        "embedding required to move cyclotomic coefficients into a number field"
                    )
            elif isinstance(c, NumFieldValue):
                if domain.kind == "Q":
                    out[g] = c.as_rational()
                else:
                    raise ValidationError("cannot leave a number field implicitly")
            else:  # pragma: no cover
                raise ValidationError(f"unknown scalar {c!r}")
        return AlgebraElement(self.group, domain, out)

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
            a, b = self._pair(other)
            mul = a.group._mul
            zero = a.domain.zero()
            out = {}
            for g, cg in a.coeffs.items():
                row = mul[g]
                for h, ch in b.coeffs.items():
                    idx = row[h]
                    prod = cg * ch
                    if idx in out:
                        out[idx] = out[idx] + prod
                    else:
                        out[idx] = prod
            return AlgebraElement(a.group, a.domain, out)
        scalar = _coerce_scalar(self.domain, other) if not isinstance(other, (int, Rat)) else other
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

    def __hash__(self):  # pragma: no cover
        return hash((self.domain, tuple(sorted(self.coeffs))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, g: int):
        return self.coeffs.get(g, self.domain.zero())

    def support(self):
        return tuple(sorted(self.coeffs))

    # -- predicates -----------------------------------------------------------------

    def is_idempotent(self) -> bool:
        return self * self == self

    def is_orthogonal_to(self, other) -> bool:
        return (self * other).is_zero() and (other * self).is_zero()

    def is_central(self) -> bool:
        for g in self.group.generators:
            b = AlgebraElement.basis(self.group, g, self.domain)
            if b * self != self * b:
                return False
        return True

    def is_rational(self) -> bool:
        for c in self.coeffs.values():
            if isinstance(c, Rat):
                continue
            if isinstance(c, CycValue) and c.is_rational():
                continue
            if isinstance(c, NumFieldValue) and c.is_rational():
                continue
            return False
        return True

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

    # -- vector view -------------------------------------------------------------------

    def dense(self):
        zero = self.domain.zero()
        vec = [zero] * self.group.order
        for g, c in self.coeffs.items():
            vec[g] = c
        return vec

    def left_translates(self):
        """Dense vectors of g*a for every g, in element order."""
        mul = self.group._mul
        zero = self.domain.zero()
        items = list(self.coeffs.items())
        for g in range(self.group.order):
            row = mul[g]
            vec = [zero] * self.group.order
            for h, c in items:
                vec[row[h]] = c
            yield vec

    def __repr__(self):
        return f"AlgebraElement({len(self.coeffs)} terms over {self.domain!r})"


def ideal_dim(a: AlgebraElement) -> int:
    """Dimension over the coefficient field of the left ideal F[G]*a."""
    ech = Echelon(a.domain.zero(), a.domain.one())
    for vec in a.left_translates():
        ech.add(vec)
    return ech.rank


def ideal_basis(a: AlgebraElement):
    """First linearly independent left translates of a, as elements."""
    ech = Echelon(a.domain.zero(), a.domain.one())
    basis = []
    for g in range(a.group.order):
        elem = AlgebraElement.basis(a.group, g, a.domain) * a
        if ech.add(elem.dense()):
            basis.append(elem)
    return basis


# ---------------------------------------------------------------------------
# central and subgroup-invariant idempotents
# ---------------------------------------------------------------------------


def central_idempotent(table: CharacterTable, char_index: int) -> AlgebraElement:
    """e attached to one complex irreducible: (dim/|G|) sum chi(g^-1) g.

    Lives over the cyclotomic field at the group exponent; the domain is
    annotated with the stabilizer of the character field K.
    """
    group = table.group
    char = table.chars[char_index]
    stab = char_field_stabilizer(list(char.values), level=table.level)
    dom = CyclotomicDomain(table.level, stab)
    scale = Rat(char.degree, group.order)
    coeffs = {}
    for g in range(group.order):
        v = char.values[group.class_index(group.inv(g))]
        coeffs[g] = v * scale
    return AlgebraElement(group, dom, coeffs)


def rational_central_idempotent(table: CharacterTable, orbit: RationalIrrep) -> AlgebraElement:
    """e attached to a rational irreducible: (dim/|G|) sum Tr_{K/Q}(chi(g^-1)) g."""
    group = table.group
    char = table.chars[orbit.char_indices[0]]
    scale = Rat(char.degree, group.order)
    coeffs = {}
    for g in range(group.order):
        v = char.values[group.class_index(group.inv(g))]
        coeffs[g] = trace_to_rational(v, orbit.stabilizer) * scale
    return AlgebraElement(group, RATIONALS, coeffs)


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

    Generator images are extended to all elements along the group's stored
    BFS words; multiplicativity is validated against every (element,
    generator) pair, which by induction over words certifies the full
    multiplication table.  Traces are checked against the linked character
    through the declared embedding of character values into L.
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

        ident = tuple(
            tuple(nf.one() if i == j else nf.zero() for j in range(n)) for i in range(n)
        )
        matrices = [None] * group.order
        matrices[0] = ident
        order_of = sorted(range(group.order), key=lambda g: len(group.labels[g]))
        for g in order_of:
            if matrices[g] is not None:
                continue
            word = group.labels[g]
            prefix = word[:-1]
            prev = group.evaluate_word([w + 1 for w in prefix])
            if matrices[prev] is None:  # pragma: no cover
                raise InvariantError("group words are not prefix closed")
            matrices[g] = _mat_mul(matrices[prev], self.gen_matrices[word[-1]])
        self.matrices = tuple(matrices)

        # multiplicativity on (element, generator) pairs certifies the table
        for a in range(group.order):
            for gi, gelem in enumerate(group.generators):
                prod = _mat_mul(self.matrices[a], self.gen_matrices[gi])
                if prod != self.matrices[group.mul(a, gelem)]:
                    raise ValidationError(
                        f"representation inconsistent with character: "
                        f"multiplicativity fails at element {a}, generator {gi}"
                    )

        for g in range(group.order):
            tr = nf.zero()
            for i in range(n):
                tr = tr + self.matrices[g][i][i]
            want = self.embedding.embed(char.values[group.class_index(g)])
            if tr != want:
                raise ValidationError(
                    f"representation inconsistent with character: trace mismatch at element {g}"
                )

    def _entry(self, x):
        if isinstance(x, NumFieldValue):
            if x.field != self.field:
                raise ValidationError("matrix entry from a different field")
            return x
        return self.field.from_rational(Rat(x))

    def matrix(self, g: int):
        return self.matrices[g]


def _mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for t in range(1, n):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def central_idempotent_over_field(rep: MatrixRep) -> AlgebraElement:
    """e_V with coefficients embedded into the representation's field."""
    group = rep.group
    char = rep.table.chars[rep.char_index]
    dom = FieldDomain(rep.field)
    scale = Rat(rep.degree, group.order)
    coeffs = {}
    for g in range(group.order):
        v = rep.embedding.embed(char.values[group.class_index(group.inv(g))])
        coeffs[g] = v * scale
    return AlgebraElement(group, dom, coeffs)


def diagonal_idempotent(rep: MatrixRep, j: int) -> AlgebraElement:
    """ell_j = (dim/|G|) sum_g r_jj(g^-1) g over L."""
    group = rep.group
    dom = FieldDomain(rep.field)
    scale = Rat(rep.degree, group.order)
    coeffs = {}
    for g in range(group.order):
        coeffs[g] = rep.matrices[group.inv(g)][j][j] * scale
    return AlgebraElement(group, dom, coeffs)


def diagonal_idempotents(rep: MatrixRep, validate: bool = True):
    """All ell_j, with the idempotent/orthogonality/sum/primitivity suite."""
    ells = [diagonal_idempotent(rep, j) for j in range(rep.degree)]
    if validate:
        ev = central_idempotent_over_field(rep)
        total = AlgebraElement.zero(rep.group, FieldDomain(rep.field))
        for j, ell in enumerate(ells):
            if not ell.is_idempotent():
                raise ValidationError(f"representation inconsistent with character: ell_{j+1} not idempotent")
            total = total + ell
        for i in range(len(ells)):
            for j in range(i + 1, len(ells)):
                if not ells[i].is_orthogonal_to(ells[j]):
                    raise ValidationError(
                        f"representation inconsistent with character: ell_{i+1}, ell_{j+1} not orthogonal"
                    )
        if total != ev:
            raise ValidationError("representation inconsistent with character: sum of ell_j is not e")
        for j, ell in enumerate(ells):
            d = ideal_dim(ell)
            if d != rep.degree:
                raise ValidationError(
                    f"representation inconsistent with character: ideal dim of ell_{j+1} is {d}"
                )
    return ells


# ---------------------------------------------------------------------------
# the primitive idempotent system over L, K and Q
# ---------------------------------------------------------------------------


def orbit_module_check(element: AlgebraElement) -> dict:
    """Galois-orbit analysis of the left ideal of a primitive idempotent.

    Computes M = sum of the left ideals generated by the Gal(L/K)-translates
    of the element; reports whether the stabilizer of the ideal is trivial,
    whether the sum is direct, and the dimension of M.
    """
    if element.domain.kind != "numberfield":
        raise ValidationError("orbit analysis needs an element over a declared field")
    nf = element.domain.field
    fixers = nf.subfield_fixers
    bases = []
    for h in fixers:
        img = element.apply_galois(h)
        ech = Echelon(element.domain.zero(), element.domain.one())
        for vec in img.left_translates():
            ech.add(vec)
        bases.append(ech.rows)
    base_dim = len(bases[0])

    stab_trivial = True
    for rows in bases[1:]:
        ech = Echelon(element.domain.zero(), element.domain.one())
        for v in bases[0]:
            ech.add(list(v))
        grew = False
        for v in rows:
            if ech.add(list(v)):
                grew = True
        if not grew:
            stab_trivial = False

    ech = Echelon(element.domain.zero(), element.domain.one())
    for rows in bases:
        for v in rows:
            ech.add(list(v))
    total = ech.rank
    direct = total == sum(len(rows) for rows in bases)
    return {"stabilizer_trivial": stab_trivial, "direct": direct, "dim": total,
            "block_dim": base_dim}


@dataclass
class IdempotentSystem:
    """Output of the primitive-system construction for one irreducible.

    u_grid[s][h] is the primitive idempotent in the h-th Galois translate of
    the s-th selected left ideal; k elements live in K[G], f elements in
    Q[G].  The Galois data records Gal(L/K) as automorphism indices of the
    declared field.
    """

    group: FiniteGroup
    nf: NumField
    ells: tuple
    selected: tuple
    u_grid: tuple
    e_central: AlgebraElement          # e_V over L
    e_rational: AlgebraElement         # e_W over Q
    k_elements: tuple = dc_field(default=())
    f_elements: tuple = dc_field(default=())

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
    its full Galois orbit of left ideals to the span.  The coordinates of
    the central idempotent with respect to the assembled basis give the
    primitive idempotents u_s^h, which are then validated against the whole
    expected relation suite.
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
    if ells is None:
        ells = diagonal_idempotents(rep)
    dom = FieldDomain(nf)
    zero, one = dom.zero(), dom.one()
    e_central = central_idempotent_over_field(rep)

    span = Echelon(zero, one)
    selected = []
    block_bases = []  # [s][h] -> list of basis elements of J_s^h
    for j, ell in enumerate(ells):
        if span.contains(ell.dense()):
            continue
        base = ideal_basis(ell)
        if len(base) != n:
            raise InvariantError("basis assembly failed: block ideal has wrong dimension")
        per_tau = []
        for h in fixers:
            tau_base = [b.apply_galois(h) for b in base]
            for b in tau_base:
                span.add(b.dense())
            per_tau.append(tau_base)
        selected.append(j)
        block_bases.append(per_tau)

    if len(selected) != n // m:
        raise InvariantError("field degree inconsistent with Schur index")
    if span.rank != n * n:
        raise InvariantError("basis assembly failed: span does not fill the simple block")

    flat = []
    for per_tau in block_bases:
        for tau_base in per_tau:
            flat.extend(tau_base)
    coords = solve_in_span([b.dense() for b in flat], e_central.dense(), zero, one)
    if coords is None:
        raise InvariantError("basis assembly failed: central idempotent not expressible")

    u_grid = []
    pos = 0
    for per_tau in block_bases:
        row = []
        for tau_base in per_tau:
            u = AlgebraElement.zero(group, dom)
            for c, b in zip(coords[pos:pos + len(tau_base)], tau_base):
                if c != zero:
                    u = u + b * c
            pos += len(tau_base)
            row.append(u)
        u_grid.append(tuple(row))
    u_grid = tuple(u_grid)

    e_rational = rational_central_idempotent(rep.table, orbit)
    system = IdempotentSystem(
        group=group, nf=nf, ells=tuple(ells), selected=tuple(selected),
        u_grid=u_grid, e_central=e_central, e_rational=e_rational,
    )
    failures = [name for name, ok in system_grid_checks(system) if not ok]
    if failures:
        raise InvariantError(f"basis assembly failed: {failures[0]}")
    return system


def system_grid_checks(system: IdempotentSystem):
    """Named pass/fail results for the u-grid conclusions."""
    checks = []
    fixers = system.nf.subfield_fixers
    grid = system.u_grid
    n_over_m = len(grid)
    for s in range(n_over_m):
        u1 = grid[s][0]
        for hi, h in enumerate(fixers):
            checks.append(
                (f"u[{s+1}][{hi+1}] = tau_{hi+1}(u[{s+1}][1])", u1.apply_galois(h) == grid[s][hi]))
    total = AlgebraElement.zero(system.group, grid[0][0].domain)
    for s in range(n_over_m):
        for hi in range(len(fixers)):
            total = total + grid[s][hi]
    checks.append(("sum of u grid equals the central idempotent", total == system.e_central))
    product_failures = []
    for s in range(n_over_m):
        for hi in range(len(fixers)):
            for t in range(n_over_m):
                for li in range(len(fixers)):
                    prod = grid[s][hi] * grid[t][li]
                    if s == t and hi == li:
                        ok = prod == grid[s][hi]
                    else:
                        ok = prod.is_zero()
                    if not ok:
                        product_failures.append(
                            (f"grid product rule at ({s+1},{hi+1})x({t+1},{li+1})", False))
    checks.extend(product_failures)
    checks.append(("grid product rule", not product_failures))
    return checks


def symmetrize_to_subfield(system: IdempotentSystem):
    """k_s = sum over Gal(L/K) of tau(u_s^1): primitive idempotents in K[G]."""
    fixers = system.nf.subfield_fixers
    m = len(fixers)
    n = system.blocks * m
    ks = []
    for s in range(system.blocks):
        k = AlgebraElement.zero(system.group, system.u_grid[0][0].domain)
        for hi in range(m):
            k = k + system.u_grid[s][hi]
        ks.append(k)
    for s, k in enumerate(ks):
        for h in fixers:
            if not k.fixed_by_galois(h):
                raise InvariantError(f"k_{s+1} is not fixed by Gal(L/K)")
        if not k.is_idempotent():
            raise InvariantError(f"k_{s+1} is not idempotent")
    for s in range(len(ks)):
        for t in range(s + 1, len(ks)):
            if not ks[s].is_orthogonal_to(ks[t]):
                raise InvariantError(f"k_{s+1} and k_{t+1} are not orthogonal")
    total = AlgebraElement.zero(system.group, system.u_grid[0][0].domain)
    for k in ks:
        total = total + k
    if total != system.e_central:
        raise InvariantError("k elements do not sum to the central idempotent")
    for s, k in enumerate(ks):
        d = ideal_dim(k)
        if d != m * n:
            raise InvariantError(
                f"k_{s+1} is not primitive in K[G]: ideal dimension {d} != {m*n}"
            )
    system.k_elements = tuple(ks)
    return list(ks)


def symmetrize_to_rational(system: IdempotentSystem):
    """f_s = sum over Gal(L/Q) of sigma(u_s^1): primitive idempotents in Q[G]."""
    n = system.blocks * system.schur_m
    fs = []
    for s in range(system.blocks):
        u1 = system.u_grid[s][0]
        f = AlgebraElement.zero(system.group, u1.domain)
        for idx in range(len(system.nf.automorphisms)):
            f = f + u1.apply_galois(idx)
        if not f.is_rational():
            raise InvariantError(f"f_{s+1} has irrational coefficients")
        fs.append(f.to_domain(RATIONALS))
    for s, f in enumerate(fs):
        if not f.is_idempotent():
            raise InvariantError(f"f_{s+1} is not idempotent")
    for s in range(len(fs)):
        for t in range(s + 1, len(fs)):
            if not fs[s].is_orthogonal_to(fs[t]):
                raise InvariantError(f"f_{s+1} and f_{t+1} are not orthogonal")
    total = AlgebraElement.zero(system.group, RATIONALS)
    for f in fs:
        total = total + f
    if total != system.e_rational:
        raise InvariantError("f elements do not sum to the rational central idempotent")
    field_degree = len(system.nf.automorphisms) // system.schur_m
    want = system.schur_m * n * field_degree
    for s, f in enumerate(fs):
        d = ideal_dim(f)
        if d != want:
            raise InvariantError(
                f"f_{s+1} is not primitive in Q[G]: ideal dimension {d} != {want}"
            )
    system.f_elements = tuple(fs)
    return list(fs)


def validate_schur_from_rep(rep: MatrixRep, orbit: RationalIrrep) -> int:
    """Evidence suite asserting m = [L:K] for the orbit of the representation.

    Checks the orbit analysis of every diagonal idempotent and the
    divisibility of every subgroup multiplicity by m; returns m on success.
    """
    m = len(rep.field.subfield_fixers)
    ells = diagonal_idempotents(rep)
    for j, ell in enumerate(ells):
        verdict = orbit_module_check(ell)
        if not (verdict["stabilizer_trivial"] and verdict["direct"]):
            raise InvariantError(
                f"orbit analysis failed for ell_{j+1}: {verdict}"
            )
        if verdict["dim"] != m * rep.degree:
            raise InvariantError(
                f"orbit module of ell_{j+1} has dimension {verdict['dim']} != {m * rep.degree}"
            )
    char = rep.table.chars[rep.char_index]
    for sub in rep.group.subgroup_classes():
        d = fixed_dim(rep.table, char, sub.members)
        if d % m != 0:
            raise InvariantError(
                f"subgroup multiplicity {d} is not divisible by the declared m = {m}"
            )
    return m
