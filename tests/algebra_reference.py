"""Reference group-algebra code kept as differential oracles.

``reference_product`` is the loop ``AlgebraElement.__mul__`` ran before the
packed kernel: one scalar product and one scalar sum per pair of terms.  It
multiplies coefficients with their own classes' operators only, so the
differential tests in ``test_packed_product.py`` use it as an oracle.  The
predicates below are ``is_central`` and ``is_bi_invariant`` as they were
before they read coefficient permutations: they build the products, and
``test_translation_predicates.py`` compares the two.

The rest is the linear algebra as it stood before ranks were read off
columns: the dense matrix product, the scaled matrix units, the dimension
of a left ideal and the orbit verdict by row echelons of dense translates
over all |G| columns, and the block selection and coordinates of
``construct_primitive_system`` by one ``CoordinateSpan``.
``test_algebra_oracle.py`` compares them with the library.
"""

from fractions import Fraction

from builders import basis, left_translates
from isotypic.characters import _checked, fixed_dims
from isotypic.errors import InvariantError, ValidationError
from isotypic.groupalgebra import (
    AlgebraElement,
    FieldDomain,
    _grid_checks,
    central_idempotent_over_field,
    diagonal_idempotents,
)
from isotypic.linalg import Echelon
from linalg_reference import CoordinateSpan


def reference_product(left, right):
    """left * right for two algebra elements, term by term."""
    a, b = left._pair(right)
    mul = a.group._mul
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


def reference_is_central(a):
    """Whether s*a == a*s for every generator s, by two products each."""
    for s in a.group.generators:
        b = basis(a.group, s, a.domain)
        if reference_product(b, a) != reference_product(a, b):
            return False
    return True


def reference_is_bi_invariant(a, members):
    """Whether h*a == a == a*h for every h in members, by two products each."""
    for h in members:
        b = basis(a.group, h, a.domain)
        if reference_product(b, a) != a or reference_product(a, b) != a:
            return False
    return True


def reference_mat_mul(a, b):
    """a b for square matrices, every product formed."""
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


def reference_matrix_units(rep, j):
    """Dense vectors of E_ij = (n/|G|) sum_g r_ji(g^-1) g, i = 1..n."""
    group = rep.group
    scale = Fraction(rep.degree, group.order)
    rows = [rep.matrix(group.inv(g))[j] for g in range(group.order)]
    return [[row[i] * scale for row in rows] for i in range(rep.degree)]


def _dense(element):
    """The coefficients of every group element, zeros included."""
    return [element.coefficient(g) for g in range(element.group.order)]


def row_echelon(dom, vectors):
    """The Echelon of the vectors over a field or domain, inserted in order."""
    ech = Echelon(dom.zero(), dom.one())
    for vec in vectors:
        ech.add(vec)
    return ech


def reference_orbit_verdict(nf, rows):
    """The orbit verdict for the ideal with the independent rows as basis,
    by row echelons of the translated rows over all |G| columns."""
    bases = [[[nf.apply_auto(h, c) for c in row] for row in rows] for h in nf.subfield_fixers]
    base_dim = len(rows)
    total = row_echelon(nf, [v for b in bases for v in b]).rank
    direct = total == base_dim * len(bases)
    stab_trivial = (direct and base_dim > 0) or all(
        [row_echelon(nf, bases[0] + b).rank > base_dim for b in bases[1:]])
    return {"stabilizer_trivial": stab_trivial, "direct": direct, "dim": total,
            "block_dim": base_dim}


def reference_ideal_dim(element):
    """dim F[G]a as the rank of the row Echelon of all |G| left translates."""
    return row_echelon(element.domain, left_translates(element)).rank


def reference_orbit_module_check(element):
    rows = row_echelon(element.domain.field, left_translates(element)).rows
    return reference_orbit_verdict(element.domain.field, rows)


def reference_validate_schur(rep, orbit):
    """validate_schur_from_rep on the scaled matrix units and row echelons."""
    m = len(rep.field.subfield_fixers)
    for j in range(rep.degree):
        verdict = reference_orbit_verdict(rep.field, reference_matrix_units(rep, j))
        if not (verdict["stabilizer_trivial"] and verdict["direct"]):
            raise InvariantError(f"orbit analysis failed for ell_{j+1}: {verdict}")
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


def reference_construct(rep, orbit):
    """(selected, u grid, checks) of construct_primitive_system: every ell_j
    tested against one CoordinateSpan of the scaled matrix units and their
    translates, and the coordinates of e_V read off the same echelon."""
    nf, group = rep.field, rep.group
    fixers = nf.subfield_fixers
    m, n = len(fixers), rep.degree
    if n % m != 0:
        raise InvariantError("field degree inconsistent with Schur index")
    if len(nf.automorphisms) != m * orbit.field_degree:
        raise ValidationError(
            f"declared field degree {len(nf.automorphisms)} does not equal "
            f"[L:K]*[K:Q] = {m}*{orbit.field_degree}"
        )
    diagonal = diagonal_idempotents(rep)
    e_central = central_idempotent_over_field(rep)
    dom = FieldDomain(nf)
    zero, one = dom.zero(), dom.one()
    span = CoordinateSpan(zero, one)
    selected, block_bases = [], []
    for j, ell in enumerate(diagonal):
        if span.coordinates(_dense(ell)) is not None:
            continue
        column = reference_matrix_units(rep, j)
        per_tau = [[[nf.apply_auto(h, c) for c in vec] for vec in column] for h in fixers]
        for vec in [v for tau_column in per_tau for v in tau_column]:
            span.add(vec)
        selected.append(j)
        block_bases.append(per_tau)
    if len(selected) != n // m:
        raise InvariantError("field degree inconsistent with Schur index")
    if span.rank != n * n:
        raise InvariantError("basis assembly failed: span does not fill the simple block")
    coords = span.coordinates(_dense(e_central))
    if coords is None:
        raise InvariantError("basis assembly failed: central idempotent not expressible")
    u_grid, pos = [], 0
    for per_tau in block_bases:
        row = []
        for tau_column in per_tau:
            cs, pos = coords[pos:pos + n], pos + n
            row.append(AlgebraElement(group, dom, {
                g: sum((c * vec[g] for c, vec in zip(cs, tau_column)), zero)
                for g in range(group.order)}))
        u_grid.append(tuple(row))
    checks = _grid_checks(u_grid, fixers, e_central)
    failures = [name for name, ok in checks if not ok]
    if failures:
        raise InvariantError(f"basis assembly failed: {failures[0]}")
    return tuple(selected), tuple(u_grid), tuple(checks)
