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
conjugate of H, built on first use.  Containment is asked by class index:
a pair passes a packed class-count filter (``_may_contain``) before H's
conjugate masks, ordered by least conjugator, are ANDed with N's mask.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, compress
from operator import sub

from .characters import (
    CharacterTable,
    assert_schur,
    class_counts,
    galois_orbits,
    orbit_index,
    rho_decomposition,
)
from .errors import BoundExceededError, ValidationError

# Partial tuples one find_intersection_realizations call may visit; at arity
# 4 the largest search on the tested and benchmarked groups (C2^5) visits 1585.
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
        self.rho = tuple(
            rho_decomposition(table, self.orbits, s.members) for s in self.subgroups
        )
        self._classes_with_vector = {}
        for i, rd in enumerate(self.rho):
            self._classes_with_vector.setdefault(rd.multiplicities, []).append(i)
        # per subgroup class index: order, member mask, packed class counts,
        # and the conjugate masks and overgroup list, built on first use
        self._orders = tuple(s.order for s in self.subgroups)
        self._masks = tuple(self.group._member_mask(s.members) for s in self.subgroups)
        width = max(table.class_sizes).bit_length() + 1
        self._guard = sum(1 << (k * width + width - 1) for k in range(len(table.classes)))
        self._counts = tuple(
            sum(c << (k * width) for k, c in class_counts(table, s.members).items())
            for s in self.subgroups
        )
        self._conjugate_masks = [None] * len(self.subgroups)
        self._overgroups = [None] * len(self.subgroups)

    # -- helpers ---------------------------------------------------------------

    def orbit_index_of(self, key) -> int:
        return orbit_index(self.orbits, key)

    def subgroup_class_of(self, members) -> int:
        return self.group.find_class_of_subgroup(members)

    def _may_contain(self, inner_idx: int, outer_idx: int) -> bool:
        """|H| divides |N| and |H meet C_k| <= |N meet C_k| for every class
        C_k, as a conjugate of H inside N needs.

        Each class count sits in a slot of one integer, below the guard bit
        that tops the slot, so (P_N | guard) - P_H keeps the guard bit of a
        slot exactly when that slot of P_N is not below that of P_H, and no
        slot borrows from the next."""
        guard = self._guard
        return (self._orders[outer_idx] % self._orders[inner_idx] == 0
                and ((self._counts[outer_idx] | guard) - self._counts[inner_idx]) & guard == guard)

    def conjugator(self, inner_idx: int, outer_idx: int):
        """Least element conjugating class rep inner into class rep outer, or None."""
        if not self._may_contain(inner_idx, outer_idx):
            return None
        firsts = self._conjugate_masks[inner_idx]
        if firsts is None:
            firsts = self._conjugate_masks[inner_idx] = \
                self.group._conjugate_masks(self.subgroups[inner_idx].members)
        outer = self._masks[outer_idx]
        for m, a in firsts:
            if m & outer == m:
                return a
        return None

    def overgroups(self, inner_idx: int):
        """(N, conjugator) for every class N of larger order than H that
        contains a conjugate of H, in class order; built on first use.  The
        classes are sorted by order, so every such N comes after H."""
        found = self._overgroups[inner_idx]
        if found is None:
            order, orders = self._orders[inner_idx], self._orders
            found = self._overgroups[inner_idx] = tuple(
                (io, conj) for io in range(inner_idx + 1, len(orders))
                if orders[io] > order and (conj := self.conjugator(inner_idx, io)) is not None
            )
        return found

    def contains(self, inner_idx: int, outer_idx: int) -> bool:
        return self.conjugator(inner_idx, outer_idx) is not None

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

    def find_intersection_realizations(self, orbit_index: int, max_arity: int = 4):
        """Tuples (H, [N_1..N_k]): each rho_H - rho_{N_k} contains W exactly
        once and the residues are pairwise disjoint, k from 2 to max_arity.

        More than INTERSECTION_SEARCH_BOUND partial tuples raise
        BoundExceededError."""
        w = orbit_index
        out = []
        visited = 0

        def extend(ih, cands, start, chosen, union):
            nonlocal visited
            visited += 1
            if visited > INTERSECTION_SEARCH_BOUND:
                raise BoundExceededError(
                    f"intersection search for orbit {w} visited {visited} partial tuples"
                    f" > {INTERSECTION_SEARCH_BOUND}"
                )
            if len(chosen) >= 2:
                out.append(IntersectionWitness(
                    ih, tuple(c[0] for c in chosen), tuple(c[1] for c in chosen)
                ))
            if len(chosen) >= max_arity:
                return
            for idx in range(start, len(cands)):
                if not cands[idx][2] & union:
                    extend(ih, cands, idx + 1, chosen + [cands[idx]], union | cands[idx][2])

        vectors = [rd.multiplicities for rd in self.rho]
        bits = [1 << j for j in range(len(vectors[0]))]
        for ih, a in enumerate(vectors):
            if a[w] == 0:
                continue
            cands = []
            for io, conj in self.overgroups(ih):
                b = vectors[io]
                if a[w] - b[w] != 1:
                    continue
                diff = list(map(sub, a, b))
                if min(diff) < 0:
                    continue
                # the orbits other than W where rho_H - rho_N is non-zero
                residue = sum(compress(bits, diff)) ^ bits[w]
                cands.append((io, conj, residue))
            cands.sort(key=lambda c: (-self.subgroups[c[0]].order, c[0]))
            extend(ih, cands, 0, [], 0)
        # ties between abstractly symmetric witnesses (subgroup classes swapped
        # by an outer automorphism) are broken by the inner subgroup whose
        # multiplicity vector is lexicographically greatest
        out.sort(key=lambda t: (
            -self.subgroups[t.inner].order,
            len(t.outers),
            tuple(-self.subgroups[i].order for i in t.outers),
            tuple(-x for x in self.mult_vector(t.inner)),
            t.inner,
            t.outers,
        ))
        return out

    def find_containments(self, orbit_index: int):
        """(H, N, multiplicity): W appears in rho_H, vanishes in rho_N, H <= N."""
        w = orbit_index
        out = []
        for ih in range(len(self.subgroups)):
            mult = self.mult_vector(ih)[w]
            if mult == 0:
                continue
            for io, _ in self.overgroups(ih):
                if self.mult_vector(io)[w] == 0:
                    out.append((ih, io, mult))
        out.sort(key=lambda t: self._pair_sort_key(t[0], t[1]))
        return out

    def find_prym_isogenies(self):
        """Distinct containment pairs with identical rho differences."""
        vectors = [rd.multiplicities for rd in self.rho]
        diffs = {}
        for ih, a in enumerate(vectors):
            for io, _ in self.overgroups(ih):
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
        inters = self.find_intersection_realizations(w, max_arity=max_arity)
        if inters:
            return RealizabilityVerdict(w, "intersection", inters[0])
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
