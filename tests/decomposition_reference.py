"""Reference decomposition code: each multiplicity vector recomputed.

These are ``rho_decomposition`` and the ``JacobianDecomposer`` methods
``find_prym_realizations``, ``find_intersection_realizations`` and
``decompose_intermediate`` as they stood before the decomposer computed each
subgroup class's multiplicity vector once: ``rho_decomposition`` recounts the
classes of H for every orbit, ``decompose_intermediate`` recomputes rho_H for
the members it is given, the Prym search compares every pair of subgroup
classes, and the intersection search walks each arity separately, comparing
residue vectors entry by entry.  Containment is decided by
``lattice_reference.conjugator_into``, which tries every element in turn.
``test_decomposition_oracle.py`` uses them as oracles.
"""

from collections import Counter
from fractions import Fraction as Rat

from lattice_reference import conjugator_into
from isotypic.characters import RhoDecomposition
from isotypic.cyclotomic import CycValue
from isotypic.decomposition import DecompositionReport, IntersectionWitness, PrymWitness
from isotypic.errors import InvariantError


def reference_fixed_dim(table, char, members):
    counts = Counter(map(table.group.class_index, members))
    total = CycValue.zero(table.level)
    for k, c in counts.items():
        total = total + (char.values[k] if c == 1 else char.values[k] * c)
    total = total * Rat(1, len(members))
    if not total.is_rational():
        raise InvariantError("invalid character/subgroup data: fixed dimension not rational")
    q = total.as_rational()
    if q.denominator != 1 or q < 0:
        raise InvariantError(
            f"invalid character/subgroup data: fixed dimension {q} not a non-negative integer"
        )
    return int(q)


def reference_rho_decomposition(table, orbits, members):
    members = tuple(sorted(members))
    dims = []
    mults = []
    conditional = False
    for orbit in orbits:
        d = reference_fixed_dim(table, table.chars[orbit.char_indices[0]], members)
        m = orbit.multiplier
        if d % m != 0:
            raise InvariantError(
                f"Schur index inconsistent with the rho decomposition: "
                f"multiplicity {d} not divisible by m = {m}"
            )
        dims.append(d)
        mults.append(d // m)
        conditional = conditional or (d != 0 and orbit.schur.conditional)
    index = table.group.order // len(members)
    total = sum(a * orbit.rational_dim() for a, orbit in zip(mults, orbits))
    if total != index:
        raise InvariantError(f"rho decomposition dimension count {total} != index {index}")
    return RhoDecomposition(members, tuple(dims), tuple(mults), conditional)


def reference_decompose_intermediate(dec, members):
    rd = reference_rho_decomposition(dec.table, dec.orbits, members)
    factors = [dec._factor(0, 1, "JW_G")]
    for i in range(1, len(dec.orbits)):
        factors.append(dec._factor(i, rd.multiplicities[i], "dim V^H/m"))
    return DecompositionReport("JW_H", tuple(factors))


def reference_find_prym_realizations(dec, vectors, orbit_index):
    """All-pairs search, given the multiplicity vector of every subgroup class."""
    subgroups = dec.group.subgroup_classes()
    w = orbit_index
    r = len(dec.orbits)
    out = []
    for ih in range(len(subgroups)):
        a = vectors[ih]
        if a[w] == 0:
            continue
        for io in range(len(subgroups)):
            if io == ih:
                continue
            b = vectors[io]
            if not all((a[j] - b[j] == (1 if j == w else 0)) for j in range(r)):
                continue
            conj = conjugator_into(dec.group, subgroups[ih].members, subgroups[io].members)
            if conj is None:
                continue
            out.append(PrymWitness(ih, io, conj))
    out.sort(key=lambda p: (-subgroups[p.inner].order, -subgroups[p.outer].order,
                            p.inner, p.outer))
    return out


def reference_find_intersection_realizations(dec, vectors, orbit_index, max_arity=4):
    subgroups = dec.group.subgroup_classes()
    w = orbit_index
    r = len(dec.orbits)
    out = []
    for ih in range(len(subgroups)):
        a = vectors[ih]
        if a[w] == 0:
            continue
        cands = []
        for io in range(len(subgroups)):
            if io == ih:
                continue
            b = vectors[io]
            diff = [a[j] - b[j] for j in range(r)]
            if any(d < 0 for d in diff) or diff[w] != 1:
                continue
            conj = conjugator_into(dec.group, subgroups[ih].members, subgroups[io].members)
            if conj is None:
                continue
            residue = tuple(d if j != w else 0 for j, d in enumerate(diff))
            cands.append((io, conj, residue))
        cands.sort(key=lambda c: (-subgroups[c[0]].order, c[0]))
        for arity in range(2, max_arity + 1):
            out.extend(_disjoint_tuples(ih, cands, arity))
    out.sort(key=lambda t: (
        -subgroups[t.inner].order,
        len(t.outers),
        tuple(-subgroups[i].order for i in t.outers),
        tuple(-x for x in vectors[t.inner]),
        t.inner,
        t.outers,
    ))
    return out


def _disjoint_tuples(ih, cands, arity):
    found = []

    def disjoint(u, v):
        return all(min(x, y) == 0 for x, y in zip(u, v))

    def extend(start, chosen):
        if len(chosen) == arity:
            found.append(IntersectionWitness(
                ih, tuple(c[0] for c in chosen), tuple(c[1] for c in chosen)
            ))
            return
        for idx in range(start, len(cands)):
            cand = cands[idx]
            if all(disjoint(cand[2], prev[2]) for prev in chosen):
                extend(idx + 1, chosen + [cand])

    extend(0, [])
    return found
