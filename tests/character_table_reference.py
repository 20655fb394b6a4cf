"""The character-table code as it was before the characteristic-polynomial
split, the packed orthogonality check and the permutation-based Galois
orbits: ``compute_character_table``, ``CharacterTable.validate`` and
``galois_orbits``, kept verbatim (renamed) as the differential oracle of
``test_character_table_oracle.py``.  Only the names and the table class
differ from the library code they were copied from.  The character-field
stabilizer and the trace to Q by coset representatives, which the library
replaced by ``galois_orbits``' stabilizers and its closed-form rational
traces, are kept here too as oracles of those."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from isotypic.characters import (
    Character,
    CharacterTable,
    RationalIrrep,
    SchurStatus,
    schur_divisor_bound,
)
from isotypic.cyclotomic import CycValue, unit_group
from isotypic.errors import InvariantError, ValidationError
from isotypic.groups import FiniteGroup

Rat = Fraction


def char_field_stabilizer(values, level: int | None = None):
    """Units of Z/e fixing every given value: the stabilizer of the field
    they generate.  Gal(K/Q) is the quotient of the unit group by the result."""
    values = list(values)
    if level is None:
        level = 1
        for v in values:
            level = level * v.level // gcd(level, v.level)
    values = [v.to_level(level) for v in values]
    fixers = []
    for k in unit_group(level):
        if all(v.galois(k) == v for v in values):
            fixers.append(k)
    return tuple(fixers)


def stabilizer_coset_reps(stabilizer, level: int):
    """Deterministic coset representatives of the stabilizer in the unit group."""
    stab = set(stabilizer)
    seen = set()
    reps = []
    for k in unit_group(level):
        if k in seen:
            continue
        reps.append(k)
        for s in stab:
            seen.add((k * s) % level if level > 1 else 1)
    return tuple(reps)


def trace_to_rational(a: CycValue, stabilizer) -> Rat:
    """Trace from the fixed field K of the stabilizer down to Q.

    Requires a to lie in K; the result is the sum of the [K:Q] distinct
    conjugates of a and is always rational.
    """
    for k in stabilizer:
        if a.galois(k) != a:
            raise ValidationError("value not in declared subfield")
    total = CycValue.zero(a.level)
    for rep in stabilizer_coset_reps(stabilizer, a.level):
        total = total + a.galois(rep)
    return total.as_rational()


def _inner_with_conjugate(table: CharacterTable, a, conj_b) -> CycValue:
    total = CycValue.zero(table.level)
    for size, x, y in zip(table.class_sizes, a, conj_b):
        total = total + x * y * size
    return total * Rat(1, table.group.order)


class ReferenceCharacterTable(CharacterTable):
    """A character table whose constructor runs the reference validation."""

    def validate(self):
        n = self.group.order
        r = len(self.classes)
        if len(self.chars) != r:
            raise ValidationError(
                f"table has {len(self.chars)} rows but the group has {r} classes"
            )
        if sum(c.degree * c.degree for c in self.chars) != n:
            raise ValidationError("sum of squared degrees does not equal the group order")
        for i, c in enumerate(self.chars):
            if len(c.values) != r:
                raise ValidationError(f"row {i} has wrong length")
            ident = c.values[0]
            if not (ident.is_rational() and ident.as_rational() == c.degree > 0):
                raise ValidationError(f"row {i}: identity value does not match degree")
        sizes = self.class_sizes
        conj = [tuple(v.conjugate() for v in c.values) for c in self.chars]
        for i in range(r):
            for j in range(i, r):
                got = _inner_with_conjugate(self, self.chars[i].values, conj[j])
                want = 1 if i == j else 0
                if got != want:
                    raise ValidationError(
                        f"row orthogonality fails for rows ({i},{j}): <.,.> = {got!r}"
                    )
        for i in range(r):
            for j in range(i, r):
                total = CycValue.zero(self.level)
                for c, cc in zip(self.chars, conj):
                    total = total + c.values[i] * cc[j]
                want = Rat(n, sizes[i]) if i == j else Rat(0)
                if total != want:
                    raise ValidationError(
                        f"column orthogonality fails for classes ({i},{j})"
                    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _dixon_prime(order: int, exponent: int) -> int:
    p = max(2 * isqrt(order), 2)
    while True:
        p += 1
        if (p - 1) % exponent == 0 and _is_prime(p):
            return p


def _primitive_root(p: int) -> int:
    fac = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for w in range(2, p):
        if all(pow(w, (p - 1) // q, p) != 1 for q in fac):
            return w
    raise InvariantError("no primitive root found")  # pragma: no cover


def _nullspace_mod(matrix, p):
    """Row basis of the right nullspace of matrix over F_p."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rows[r][fc]) % p
        basis.append(vec)
    return basis


def reference_compute_character_table(group: FiniteGroup) -> CharacterTable:
    """Exact irreducible character table, rows sorted by (degree, values)."""
    classes = group.conjugacy_classes()
    r = len(classes)
    n = group.order
    e = group.exponent
    p = _dixon_prime(n, e)
    sizes = [len(c.members) for c in classes]
    reps = [c.representative for c in classes]
    inv_class = [group.class_index(group.inv(rep)) for rep in reps]

    # structure constants: mult[i][k][j] = #{u in C_i : u^-1 * w_k in C_j}
    mats = []
    for i in range(r):
        mat = [[0] * r for _ in range(r)]
        for k in range(r):
            wk = reps[k]
            row = mat[k]
            for u in classes[i].members:
                row[group.class_index(group.mul(group.inv(u), wk))] += 1
        mats.append(mat)

    # split F_p^r into common eigenspaces of all class-sum matrices
    subspaces = [[[1 if c == j else 0 for c in range(r)] for j in range(r)]]
    for i in range(1, r):
        if all(len(s) == 1 for s in subspaces):
            break
        mat = mats[i]
        new_spaces = []
        for basis in subspaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            d = len(basis)
            images = []
            for vec in basis:
                img = [sum(mat[k][j] * vec[j] for j in range(r)) % p for k in range(r)]
                images.append(img)
            # restricted action: images[a] = sum_b action[a][b] basis[b], so
            # coordinate vectors transform by the transpose of action
            action = _solve_action(basis, images, p)
            act_t = [[action[b][a] for b in range(d)] for a in range(d)]
            found = 0
            for lam in range(p):
                if found >= d:
                    break
                shifted = [
                    [(act_t[a][b] - (lam if a == b else 0)) % p for b in range(d)]
                    for a in range(d)
                ]
                null = _nullspace_mod(shifted, p)
                if not null:
                    continue
                sub = []
                for coefs in null:
                    vec = [0] * r
                    for c, bvec in zip(coefs, basis):
                        if c:
                            for t in range(r):
                                vec[t] = (vec[t] + c * bvec[t]) % p
                    sub.append(vec)
                new_spaces.append(sub)
                found += len(null)
            if found != d:
                raise InvariantError("splitting failure")  # pragma: no cover
        subspaces = new_spaces
    if any(len(s) != 1 for s in subspaces):
        raise InvariantError("splitting failure")  # pragma: no cover

    # recover normalized character values mod p from eigenvalues
    w = _primitive_root(p)
    z = pow(w, (p - 1) // e, p)  # fixed primitive e-th root of unity mod p
    power_class = []
    for j in range(r):
        g = reps[j]
        o = group.elem_orders[g]
        power_class.append([group.class_index(group.power(g, k)) for k in range(o)])

    chars = []
    for basis in subspaces:
        v = basis[0]
        j0 = next(j for j in range(r) if v[j] % p)
        omegas = []
        for i in range(r):
            num = sum(mats[i][j0][j] * v[j] for j in range(r)) % p
            omegas.append((num * pow(v[j0], p - 2, p)) % p)
        # chi(g_i)/chi(1) = omega_i / |C_i|
        ratio = [
            (omegas[i] * pow(sizes[i] % p, p - 2, p)) % p for i in range(r)
        ]
        denom = sum(
            ratio[i] * ratio[inv_class[i]] * sizes[i] for i in range(r)
        ) % p
        deg_sq = (n * pow(denom, p - 2, p)) % p
        deg = next(
            (s for s in range(1, p // 2 + 1) if (s * s) % p == deg_sq), None
        )
        if deg is None:
            raise InvariantError("splitting failure")  # pragma: no cover
        vals_mod = [(deg * ratio[i]) % p for i in range(r)]

        values = []
        for j in range(r):
            o = len(power_class[j])
            zo = pow(z, e // o, p)
            inv_o = pow(o % p, p - 2, p)
            coeffs = [0] * e
            for i in range(o):
                c = 0
                zoi = pow(zo, (o - i) % o, p)  # zo^{-i}
                acc = 1
                for k in range(o):
                    c = (c + vals_mod[power_class[j][k]] * acc) % p
                    acc = (acc * zoi) % p
                c = (c * inv_o) % p
                if c:
                    coeffs[(i * (e // o)) % e] += c
            values.append(CycValue(e, coeffs))
        chars.append(Character(tuple(values), deg))

    chars.sort(key=Character.sort_key)
    return ReferenceCharacterTable(group, chars)


def _solve_action(basis, images, p):
    """Matrix of the restricted action: images[a] = sum_b action[a][b] basis[b]."""
    d = len(basis)
    r = len(basis[0])
    # gaussian elimination with combo tracking over F_p
    rows = []
    pivots = []
    combos = []
    for idx, vec in enumerate(basis):
        vec = list(vec)
        combo = [0] * d
        combo[idx] = 1
        for row, piv, rc in zip(rows, pivots, combos):
            c = vec[piv] % p
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
                combo = [(a - c * b) % p for a, b in zip(combo, rc)]
        piv = next((j for j in range(r) if vec[j] % p), None)
        if piv is None:
            raise InvariantError("splitting failure")  # pragma: no cover
        inv = pow(vec[piv], p - 2, p)
        rows.append([(x * inv) % p for x in vec])
        combos.append([(x * inv) % p for x in combo])
        pivots.append(piv)
    action = []
    for img in images:
        vec = list(img)
        combo = [0] * d
        for row, piv, rc in zip(rows, pivots, combos):
            c = vec[piv] % p
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
                combo = [(a - c * b) % p for a, b in zip(combo, rc)]
        if any(x % p for x in vec):
            raise InvariantError("splitting failure")  # pragma: no cover
        action.append([(-x) % p for x in combo])
    return action


def reference_galois_orbits(table: CharacterTable):
    """Partition of the irreducibles into Galois orbits, trivial orbit first."""
    e = table.level
    r = len(table.chars)
    by_values = {tuple((v.num, v.den) for v in c.values): i for i, c in enumerate(table.chars)}
    assigned = [False] * r
    orbits = []
    for i in range(r):
        if assigned[i]:
            continue
        members = set()
        for k in unit_group(e):
            img = tuple((w.num, w.den) for w in (v.galois(k) for v in table.chars[i].values))
            j = by_values.get(img)
            if j is None:
                raise ValidationError("table is not closed under the Galois action")
            members.add(j)
        members = tuple(sorted(members))
        for j in members:
            assigned[j] = True
        orbits.append(members)

    units = len(unit_group(e))
    result = []
    for members in orbits:
        stab = char_field_stabilizer(list(table.chars[members[0]].values), level=e)
        for j in members[1:]:
            if char_field_stabilizer(list(table.chars[j].values), level=e) != stab:
                raise InvariantError("orbit members do not share a character field")
        field_degree = units // len(stab)
        if field_degree != len(members):
            raise InvariantError("orbit size does not match the character field degree")
        degrees = {table.chars[j].degree for j in members}
        if len(degrees) != 1:
            raise InvariantError("orbit members have different degrees")
        g = schur_divisor_bound(table, members[0])
        if g == 1:
            status = SchurStatus("exact", 1, 1, "multiplicity-one subgroup")
        else:
            status = SchurStatus("bounded", None, g)
        result.append(
            RationalIrrep(members, stab, degrees.pop(), field_degree, status)
        )

    def is_trivial(w: RationalIrrep) -> bool:
        c = table.chars[w.char_indices[0]]
        return c.degree == 1 and all(v == 1 for v in c.values)

    result.sort(key=lambda w: (not is_trivial(w), w.char_indices[0]))
    return tuple(result)
