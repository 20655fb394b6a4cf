"""Symbolic isotypical decomposition of Jacobians with a group action.

Everything here works at the multiplicity level: a "variety" is a label and
a factor is (rational irreducible, exponent).  The decomposer computes the
multiplicity vector a(H) of rho_H once per subgroup class and answers the
decomposition of the full Jacobian, of intermediate quotients, and of Pryms
of intermediate covers, plus the lattice searches that recognize each
isotypical factor as a Prym, an intersection of Pryms, or an orthogonal
complement inside a Prym.  The classes are indexed by their vectors, so the
Prym partners N of H for an orbit W are looked up as the classes with
a(N) = a(H) - e_W and only their containment is tested.  The other searches
read, per inner class H, the list of larger classes that contain a
conjugate of H.  Containment is one bit of the poset that the lattice walk
records (``FiniteGroup.overgroup_masks``); a conjugator is looked for only
for the pairs that become witnesses (``FiniteGroup.conjugator_into``), as
the first of H's conjugate masks, ordered by least conjugator, inside N's
mask.  The classification takes the least intersection witness without
building the full list.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, compress, groupby
from operator import sub

from .characters import (
    CharacterTable,
    _rho_columns,
    _rho_from_columns,
    assert_schur,
    galois_orbits,
    orbit_index,
)
from .errors import BoundExceededError, InvariantError, ValidationError

# Partial tuples one intersection search may visit; at arity 4 the largest
# full search on the tested and benchmarked groups (C2^5) visits 1585.
INTERSECTION_SEARCH_BOUND = 10**6


class Factor(namedtuple("Factor", "orbit_index label exponent provenance conditional")):
    """One factor B_W^exponent of a decomposition, W the orbit at orbit_index."""

    __slots__ = ()


class DecompositionReport(namedtuple("DecompositionReport", "subject factors")):
    """The factors of one decomposed variety (JW, JW_H or a Prym)."""

    __slots__ = ()

    def exponents(self):
        return tuple(f.exponent for f in self.factors)


class PrymWitness(namedtuple("PrymWitness", "inner outer conjugator")):
    """Subgroup class indices H and N, and an a with a H a^-1 inside the stored N."""

    __slots__ = ()


class IntersectionWitness(namedtuple("IntersectionWitness", "inner outers conjugators")):
    """A subgroup class H, the classes N_1..N_k and one conjugator per N_i."""

    __slots__ = ()


class ComplementWitness(namedtuple("ComplementWitness", "inner outer conjugator relation")):
    """H, N and a conjugator as in PrymWitness, and the multiplicity vector of
    rho_H - rho_N per orbit."""

    __slots__ = ()


class RealizabilityVerdict(namedtuple("RealizabilityVerdict", "orbit_index kind witness")):
    """kind is "prym", "intersection" or "complement", with its witness."""

    __slots__ = ()


class JacobianDecomposer:
    """Cached multiplicity engine for one group action.

    schur_assertions maps character selectors (see orbit_index) to asserted
    Schur indices, as a dict or as (selector, m) pairs applied in order.
    """

    def __init__(self, table: CharacterTable, orbits=None, schur_assertions=None):
        self.table = table
        self.group = table.group
        orbits = list(orbits if orbits is not None else galois_orbits(table))
        if isinstance(schur_assertions, dict):
            schur_assertions = schur_assertions.items()
        for key, m in schur_assertions or ():
            idx = orbit_index(orbits, key)
            orbits[idx] = assert_schur(orbits[idx], m)
        self.orbits = tuple(orbits)
        self.subgroups = self.group.subgroup_classes()
        columns = _rho_columns(self.orbits)
        self.rho = tuple(_rho_from_columns(table, columns, s.members) for s in self.subgroups)
        self._classes_with_vector = {}
        for i, rd in enumerate(self.rho):
            self._classes_with_vector.setdefault(rd.multiplicities, []).append(i)
        # per subgroup class index: order, the bitset of larger classes
        # containing a conjugate, and the overgroup list, built on first use
        self._orders = tuple(s.order for s in self.subgroups)
        self._above = self.group.overgroup_masks()
        self._overgroups = [None] * len(self.subgroups)

    # -- helpers ---------------------------------------------------------------

    def orbit_index_of(self, key) -> int:
        return orbit_index(self.orbits, key)

    def subgroup_class_of(self, members) -> int:
        return self.group.find_class_of_subgroup(members)

    def contains(self, inner_idx: int, outer_idx: int) -> bool:
        """Whether a conjugate of class rep inner lies in class rep outer,
        read off the lattice walk's bitsets (``overgroup_masks``)."""
        return inner_idx == outer_idx or self._above[inner_idx] >> outer_idx & 1 == 1

    def conjugator(self, inner_idx: int, outer_idx: int):
        """Least element conjugating class rep inner into class rep outer, or None."""
        if not self.contains(inner_idx, outer_idx):
            return None
        a = self.group.conjugator_into(inner_idx, outer_idx)
        if a is None:
            # unreachable: the proof in overgroup_masks gives a conjugate inside
            raise InvariantError("a lattice containment has no conjugator")  # pragma: no cover
        return a

    def overgroups(self, inner_idx: int):
        """Every class N of larger order than H that contains a conjugate of
        H, in class order; built on first use.  The classes are sorted by
        order, so every such N comes after H."""
        found = self._overgroups[inner_idx]
        if found is None:
            bits = bin(self._above[inner_idx])[:1:-1]  # character io is bit io
            found, io = [], bits.find("1")
            while io >= 0:
                found.append(io)
                io = bits.find("1", io + 1)
            found = self._overgroups[inner_idx] = tuple(found)
        return found

    def mult_vector(self, sub_idx: int):
        return self.rho[sub_idx].multiplicities

    def subgroup_name(self, idx: int) -> str:
        s = self.subgroups[idx]
        if s.order == 1:
            return "1"
        if s.order == self.group.order:
            return "G"
        gens = self.group._greedy_generators(s.members)
        return "<" + ",".join(self.group.label_of(g) for g in gens) + ">"

    def _factor(self, orbit_idx: int, exponent: int, provenance: str) -> Factor:
        orbit = self.orbits[orbit_idx]
        return Factor(
            orbit_index=orbit_idx,
            label=orbit.label(),
            exponent=exponent,
            provenance=provenance,
            conditional=orbit.schur.conditional and exponent != 0,
        )

    # -- decompositions -----------------------------------------------------------

    def decompose_jacobian(self) -> DecompositionReport:
        """JW ~ JW_G x prod B_j^(dim V_j / m_j)."""
        factors = []
        for i, orbit in enumerate(self.orbits):
            if i == 0:
                factors.append(self._factor(0, 1, "JW_G"))
                continue
            factors.append(self._factor(i, orbit.degree // orbit.multiplier, "dim V/m"))
        return DecompositionReport("JW", tuple(factors))

    def decompose_intermediate(self, members) -> DecompositionReport:
        """JW_H ~ JW_G x prod B_j^(dim V_j^H / m_j)."""
        a = self.mult_vector(self.subgroup_class_of(members))
        factors = [self._factor(0, 1, "JW_G")]
        for i in range(1, len(self.orbits)):
            factors.append(self._factor(i, a[i], "dim V^H/m"))
        return DecompositionReport("JW_H", tuple(factors))

    def decompose_prym(self, inner_members, outer_members) -> DecompositionReport:
        """P(W_H/W_N) ~ prod B_j^(s_j), s_j = dim V_j^H/m - dim V_j^N/m >= 0."""
        inner_idx = self.subgroup_class_of(inner_members)
        outer_idx = self.subgroup_class_of(outer_members)
        if not self.contains(inner_idx, outer_idx):
            raise ValidationError(
                "no conjugate of the inner subgroup is contained in the outer subgroup"
            )
        a = self.mult_vector(inner_idx)
        b = self.mult_vector(outer_idx)
        factors = []
        for i in range(1, len(self.orbits)):
            s = a[i] - b[i]
            if s < 0:
                raise ValidationError("negative Prym exponent: subgroups not nested")
            factors.append(self._factor(i, s, "dim V^H/m - dim V^N/m"))
        return DecompositionReport("Prym", tuple(factors))

    # -- lattice searches ------------------------------------------------------------

    def _pair_sort_key(self, inner_idx, outer_idx):
        return (-self._orders[inner_idx], -self._orders[outer_idx], inner_idx, outer_idx)

    def find_prym_realizations(self, orbit_index: int):
        """All (H, N) subgroup-class pairs with rho_H = W + rho_N exactly.

        orbit_index is a position in self.orbits; use orbit_index_of to
        resolve character selectors first.
        """
        w = orbit_index
        out = []
        for ih in range(len(self.subgroups)):
            a = self.mult_vector(ih)
            if a[w] == 0:
                continue
            partner = a[:w] + (a[w] - 1,) + a[w + 1:]
            for io in self._classes_with_vector.get(partner, ()):
                conj = self.conjugator(ih, io)
                if conj is not None:
                    out.append(PrymWitness(ih, io, conj))
        out.sort(key=lambda p: self._pair_sort_key(p.inner, p.outer))
        return out

    def _intersection_candidates(self, w: int, inner_idx: int):
        """(N, residue) for each class N above H = inner_idx with rho_H - rho_N
        >= 0 holding W exactly once, residue the bitset of the other orbits
        where it is non-zero; by decreasing order of N, then class index."""
        a = self.mult_vector(inner_idx)
        bits = [1 << j for j in range(len(a))]
        cands = []
        for io in self.overgroups(inner_idx):
            b = self.mult_vector(io)
            if a[w] - b[w] != 1:
                continue
            diff = list(map(sub, a, b))
            if min(diff) < 0:
                continue
            cands.append((io, sum(compress(bits, diff)) ^ bits[w]))
        cands.sort(key=lambda c: (-self._orders[c[0]], c[0]))
        return cands

    def _intersection_tuples(self, w, inners, min_arity, max_arity, out, visited=0):
        """Append (H, outers) to out for each H in inners and each tuple of
        min_arity..max_arity candidates with pairwise disjoint residues.

        Returns the count of partial tuples visited, the empty ones
        included, added to visited; more than INTERSECTION_SEARCH_BOUND
        raise BoundExceededError."""

        def extend(ih, cands, start, chosen, union):
            nonlocal visited
            visited += 1
            if visited > INTERSECTION_SEARCH_BOUND:
                raise BoundExceededError(
                    f"intersection search for orbit {w} visited {visited} partial tuples"
                    f" > {INTERSECTION_SEARCH_BOUND}"
                )
            if len(chosen) >= min_arity:
                out.append((ih, tuple(chosen)))
            if len(chosen) >= max_arity:
                return
            for idx in range(start, len(cands)):
                io, residue = cands[idx]
                if not residue & union:
                    extend(ih, cands, idx + 1, chosen + [io], union | residue)

        for ih in inners:
            if self.mult_vector(ih)[w]:
                extend(ih, self._intersection_candidates(w, ih), 0, [], 0)
        return visited

    def _intersection_key(self, found):
        """The order of intersection witnesses (H, outers): larger H, then
        fewer and larger N_i.  Ties between abstractly symmetric witnesses
        (subgroup classes swapped by an outer automorphism) are broken by
        the inner subgroup whose multiplicity vector is lexicographically
        greatest."""
        ih, outers = found
        return (
            -self._orders[ih],
            len(outers),
            tuple(-self._orders[i] for i in outers),
            tuple(-x for x in self.mult_vector(ih)),
            ih,
            outers,
        )

    def _intersection_witness(self, found):
        ih, outers = found
        return IntersectionWitness(ih, outers, tuple(self.conjugator(ih, io) for io in outers))

    def find_intersection_realizations(self, orbit_index: int, max_arity: int = 4):
        """Tuples (H, [N_1..N_k]): each rho_H - rho_{N_k} contains W exactly
        once and the residues are pairwise disjoint, k from 2 to max_arity.

        More than INTERSECTION_SEARCH_BOUND partial tuples raise
        BoundExceededError."""
        found = []
        self._intersection_tuples(orbit_index, range(len(self.subgroups)), 2, max_arity, found)
        found.sort(key=self._intersection_key)
        return [self._intersection_witness(t) for t in found]

    def least_intersection_realization(self, orbit_index: int, max_arity: int = 4):
        """``find_intersection_realizations(orbit_index, max_arity)[0]``, or
        None when that list is empty, found without building the list.

        The order starts with -|H| and then the arity, so the inner classes
        are visited by decreasing order and, within one order, the tuples of
        arity 2, 3, ..., max_arity in turn; the first order and arity that
        yield a witness hold the least one.  The partial tuples visited are
        bounded as in the full search."""
        visited = 0
        inners = range(len(self.subgroups) - 1, -1, -1)
        for _, same_order in groupby(inners, key=self._orders.__getitem__):
            same_order = list(same_order)
            for k in range(2, max_arity + 1):
                found = []
                visited = self._intersection_tuples(orbit_index, same_order, k, k, found, visited)
                if found:
                    return self._intersection_witness(min(found, key=self._intersection_key))
        return None

    def find_containments(self, orbit_index: int):
        """(H, N, multiplicity): W appears in rho_H, vanishes in rho_N, H <= N."""
        w = orbit_index
        out = []
        for ih in range(len(self.subgroups)):
            mult = self.mult_vector(ih)[w]
            if mult == 0:
                continue
            for io in self.overgroups(ih):
                if self.mult_vector(io)[w] == 0:
                    out.append((ih, io, mult))
        out.sort(key=lambda t: self._pair_sort_key(t[0], t[1]))
        return out

    def find_prym_isogenies(self):
        """Distinct containment pairs with identical rho differences."""
        vectors = [rd.multiplicities for rd in self.rho]
        diffs = {}
        for ih, a in enumerate(vectors):
            for io in self.overgroups(ih):
                diffs.setdefault(tuple(map(sub, a, vectors[io])), []).append((ih, io))
        out = []
        for pairs in diffs.values():
            out.extend(combinations(pairs, 2))
        out.sort()
        return out

    # -- classification -------------------------------------------------------------

    def classify_factor(self, orbit_index: int, max_arity: int = 4) -> RealizabilityVerdict:
        """First matching realization: Prym pair, then intersection, then the
        complement fallback (which always exists via the trivial subgroup)."""
        w = orbit_index
        if not 0 < w < len(self.orbits):
            raise ValidationError("the trivial factor is the quotient Jacobian itself" if w == 0
                                  else f"orbit index {w} is outside 1..{len(self.orbits) - 1}")
        pairs = self.find_prym_realizations(w)
        if pairs:
            return RealizabilityVerdict(w, "prym", pairs[0])
        least = self.least_intersection_realization(w, max_arity=max_arity)
        if least is not None:
            return RealizabilityVerdict(w, "intersection", least)
        # minimal containment: smallest ambient Prym by rho-dimension difference
        best = None
        for ih, io, _ in self.find_containments(w):
            span = self.group.order // self.subgroups[ih].order \
                - self.group.order // self.subgroups[io].order
            key = (span, ih, io)
            if best is None or key < best:
                best = key
        _, ih, io = best
        a = self.mult_vector(ih)
        b = self.mult_vector(io)
        relation = tuple(x - y for x, y in zip(a, b))
        return RealizabilityVerdict(
            w, "complement",
            ComplementWitness(ih, io, self.conjugator(ih, io), relation),
        )

    def full_report(self, max_arity: int = 4):
        """Factor list with exponents and realization witnesses for every
        nontrivial rational irreducible."""
        jac = self.decompose_jacobian()
        verdicts = [None]
        for i in range(1, len(self.orbits)):
            verdicts.append(self.classify_factor(i, max_arity=max_arity))
        return jac, tuple(verdicts)
