"""Finite groups as complete multiplication tables.

Elements are integers 0..order-1 with the identity at 0.  Ingestion paths:
presentations (coset enumeration), permutation generators, or a raw Cayley
table.  Element numbering is always breadth-first over generator words with
generators in input order, so every downstream computation is reproducible.
Every table is certified on construction by Light's associativity test over
a generating set, which is a complete proof (Clifford and Preston, *The
Algebraic Theory of Semigroups* I, 1.2); that the generators generate is
checked by the same closure that finds greedy generators.  The scan of
every entry's type and range runs on the tables a caller hands in
(``FiniteGroup(...)``, ``from_cayley_table``); a table the library builds
holds element indices by construction and goes straight to Light's
certificate.  Permutation and presentation input share one breadth-first
walk (``_bfs_numbering``), over permutation tuples or over live cosets,
whose numbering, words and parents build the table.  One power walk
(``FiniteGroup._powers``) serves the element orders, rational fusion, the
lattice's cyclic extensions and the character table's power map.  Each
conjugacy class is walked from its least element along the generators.

The subgroup layer works on bitmasks: a subset of the group is the Python
int with bit g set for each member g.  Closures are built by Dimino's coset
method (Butler, *Fundamental Algorithms for Permutation Groups*, 1991): a
subgroup in progress keeps a short generating tuple, and <H, g> is the
union of the right cosets H*r that the generators reach.  The lattice grows
by cyclic extensions of class representatives (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, 4.1 and 10.1), trying one g
per N(H)-orbit of right cosets H*g.  The walk's index is kept: it maps the
mask of every conjugate of every class to the class, so the class of a
subgroup is one lookup (``find_class_of_subgroup``), and the
representatives' masks are kept in class order.  Each extension tried is an
edge from the class of H to the class of <H, g>, and the transitive closure
of the edges, one bitset per class, is the containment poset of the classes
(``overgroup_masks``).  Conjugates are walked along the generators, and the
Schreier elements of the walk generate the normalizer; the elements
carrying H onto one conjugate form a coset of it, whose least element is
the least conjugator that ``conjugator_into`` promises.  Conjugates are
compared as masks: for sets of one size, the sorted member tuple of A is
lexicographically below that of B exactly when the lowest set bit of A ^ B
lies in A.  DEFAULT_LATTICE_BOUND bounds the group order and
DEFAULT_SUBGROUP_CLASS_BOUND the number of classes.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import itemgetter

from .errors import BoundExceededError, ValidationError

DEFAULT_ENUMERATION_BOUND = 10000
DEFAULT_LATTICE_BOUND = 2000
# C2^6 has 2825 subgroups, C2^7 29212 and C2^8 417199
DEFAULT_SUBGROUP_CLASS_BOUND = 5000

_GEN_NAMES = ("x", "y", "z", "w", "v", "u")


_TRIVIAL = ((0,), 1, ())  # (members, mask, gens) of the trivial subgroup


def _lex_least(points):
    """The first orbit point whose mask has the least sorted member tuple.

    Each point is a tuple whose second entry is a mask.  For two sets of one
    size, the sorted tuple of A is below that of B exactly when the lowest
    set bit of A ^ B lies in A: below that bit the two agree, and there A has
    a member where B has a larger one.
    """
    best = points[0]
    for p in points:
        m = p[1]
        d = m ^ best[1]
        if d & -d & m:
            best = p
    return best


def _transitive_closure(edges):
    """Bitsets of the transitive closure of edges: edges[s] holds the nodes
    that node s points to, each later than s, and bit r of entry s is set
    when node s reaches node r."""
    reach = [0] * len(edges)
    for s in reversed(range(len(edges))):
        m = 0
        for r in edges[s]:
            m |= reach[r] | 1 << r
        reach[s] = m
    return tuple(reach)


def generator_name(i: int) -> str:
    return _GEN_NAMES[i] if i < len(_GEN_NAMES) else f"g{i}"


class ConjugacyClass(namedtuple("ConjugacyClass", "representative members")):
    """A conjugacy class: its least element and its sorted member tuple."""

    __slots__ = ()


class Subgroup(namedtuple("Subgroup", "members")):
    """A subgroup as its sorted member tuple."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self.members


class FiniteGroup:
    """Immutable finite group with full multiplication table.

    The table is certified on construction: a two-sided identity at 0,
    two-sided inverses, generators (greedy when none are given) whose closure
    is the whole table, and Light's associativity test over them.  A table
    handed in here is first scanned entry by entry (an ``int`` in range); the
    tables the library builds skip the scan (``_built``) and go straight to
    Light's certificate.  Permutation and presentation input are numbered by
    one breadth-first walk, and the conjugacy classes are walked along the
    generators.
    """

    def __init__(self, mul_table, labels=None, generators=None):
        n = len(mul_table)
        if n == 0 or any(len(row) != n for row in mul_table):
            raise ValidationError("not a group table: table is not square")
        mul = tuple(map(tuple, mul_table))
        for row in mul:
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
                x = next(x for x in row if type(x) is not int or not 0 <= x < n)
                raise ValidationError(f"not a group table: entry {x!r} " + (
                    "out of range" if type(x) is int else "is not an integer"))
        self._certify(mul, labels, generators)

    @classmethod
    def _built(cls, mul, labels, generators):
        """The group of a table the library built itself: a square tuple of
        tuples whose entries are element indices by construction, so it goes
        straight to the certificate of ``_certify`` without the entry scan."""
        group = cls.__new__(cls)
        group._certify(mul, labels, generators)
        return group

    def _certify(self, mul, labels, generators):
        """Certify the square table mul of element indices: a two-sided
        identity at 0, two-sided inverses, generators whose closure is the
        whole table and Light's test over them; then the element orders."""
        n = self.order = len(mul)
        self._mul = mul
        identity = tuple(range(n))
        if mul[0] != identity or tuple([row[0] for row in mul]) != identity:
            raise ValidationError("not a group table: index 0 is not a two-sided identity")

        inv = []
        for a, row in enumerate(mul):
            if 0 not in row:
                raise ValidationError(f"not a group table: element {a} has no inverse")
            b = row.index(0)
            if mul[b][a] != 0:
                raise ValidationError(
                    f"not a group table: {b} is a right but not left inverse of {a}"
                )
            inv.append(b)
        self._inv = tuple(inv)
        self._bit = tuple(1 << g for g in range(n))

        generators = None if generators is None else tuple(generators)
        for g in generators or ():
            if type(g) is not int or not 0 <= g < n:
                raise ValidationError(f"generator {g!r} is not an element index below {n}")
        members, _, greedy = self._closure_of(range(1, n) if generators is None else generators)
        if len(members) != n:
            raise ValidationError(
                f"not a group table: the generators reach {len(members)} of {n} elements"
            )
        self.generators = greedy if generators is None else generators
        self._check_associativity_light()

        # one power walk per cyclic subgroup <a> gives every power its
        # order: ord(a^k) = o / gcd(k, o)
        orders = [0] * n
        for a in range(n):
            if not orders[a]:
                powers = self._powers(a)
                o = len(powers)
                for k, x in enumerate(powers):
                    orders[x] = o // gcd(k, o)
        self.elem_orders = tuple(orders)
        exponent = 1
        for o in orders:
            exponent = exponent * o // gcd(exponent, o)
        self.exponent = exponent

        self.labels = tuple(tuple(w) for w in labels) if labels is not None else None
        self._classes = None
        self._class_of = None
        self._subgroup_classes = None
        self._class_of_mask = None  # conjugate mask -> subgroup class
        self._class_masks = None  # the representatives' masks, in class order
        self._overgroup_masks = None
        self._fusion = None
        self._conj_tables = None
        self._first_conjugators = {}

    # -- construction helpers ------------------------------------------------

    def _check_associativity_light(self):
        """Light's test: (a g) b == a (g b) for every generator g.

        The g that pass for all a, b are closed under products, and every
        element is a product of generators, so this proves associativity
        (Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1.2).
        The closure in ``__init__`` only ever multiplies elements it has
        already reached, so it shows generation even of a table that is not
        associative.

        Each (a, g) is one comparison of whole rows: row a g of the table
        against row a read at the entries of row g.  Only on a failure is the
        first failing b looked for.  A one-element table is associative.
        """
        n, mul = self.order, self._mul
        if n == 1:
            return
        for g in self.generators:
            row_g = mul[g]
            times_g = itemgetter(*row_g)  # row a -> the row of a (g b) over b
            for a, row_a in enumerate(mul):
                row_ag = mul[row_a[g]]
                if row_ag != times_g(row_a):
                    b = next(b for b in range(n) if row_ag[b] != row_a[row_g[b]])
                    raise ValidationError(
                        f"not a group table: associativity fails at ({a},{g},{b})"
                    )

    # -- basic operations ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self._inv[a], -k)
        result = 0
        base = a
        while k:
            if k & 1:
                result = self._mul[result][base]
            base = self._mul[base][base]
            k >>= 1
        return result

    def _powers(self, g: int):
        """[g^0, g^1, ..., g^(o-1)] for o = ord g, walked along column g of
        the table; the one power walk behind the element orders, rational
        fusion, the lattice's cyclic extensions and the character table's
        power map."""
        mul = self._mul
        powers, x = [0], g
        while x:
            powers.append(x)
            x = mul[x][g]
        return powers

    def conjugate(self, g: int, by: int) -> int:
        """by * g * by^-1."""
        return self._mul[self._mul[by][g]][self._inv[by]]

    def elements(self):
        return range(self.order)

    # -- words and labels ------------------------------------------------------

    def label_of(self, g: int) -> str:
        if g == 0:
            return "1"
        if self.labels is None:
            return f"e{g}"
        word = self.labels[g]
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = generator_name(word[i])
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)

    # -- conjugacy structure -----------------------------------------------------

    def conjugacy_classes(self):
        """The conjugacy classes, ordered by element order and then by least
        member.  Each class is the orbit of its least element g, walked along
        the generators with the tables of ``_conjugation_tables``: the orbit
        of g under conjugation by the generators is closed under conjugation
        by every product of them, so it is g's whole class.  That is
        |G| * #gens lookups, against |G|^2 conjugations by every element."""
        if self._classes is None:
            tables = [c for _, c in self._conjugation_tables()]
            class_of = [-1] * self.order
            raw = []
            for g in range(self.order):
                if class_of[g] >= 0:
                    continue
                idx = len(raw)
                class_of[g] = idx
                orbit = [g]
                for x in orbit:
                    for c in tables:
                        y = c[x]
                        if class_of[y] < 0:
                            class_of[y] = idx
                            orbit.append(y)
                orbit.sort()
                raw.append(tuple(orbit))
            order_key = sorted(
                range(len(raw)), key=lambda i: (self.elem_orders[raw[i][0]], raw[i][0])
            )
            classes = []
            remap = [0] * len(raw)
            for new_idx, old_idx in enumerate(order_key):
                members = raw[old_idx]
                classes.append(ConjugacyClass(members[0], members))
                remap[old_idx] = new_idx
            self._classes = tuple(classes)
            self._class_of = tuple(map(remap.__getitem__, class_of))
        return self._classes

    def class_index(self, g: int) -> int:
        self.conjugacy_classes()
        return self._class_of[g]

    # -- subgroups ---------------------------------------------------------------
    #
    # A subgroup in progress is a triple (members, mask, gens): the sorted
    # member tuple, the Python int with bit m set for each member m, and a
    # tuple of generators.

    def _extend(self, sub, g):
        """<H, g> for sub = (members, mask, gens) of H, by Dimino's closure.

        <H, g> is the union of right cosets H*r.  Each coset representative
        r is multiplied by gens + (g,); a product outside the mask starts a
        new coset.  That is about |<H, g>| * len(gens) table lookups, not
        |<H, g>| * |H| as when all members generate.

        On a table not yet certified, cosets may overlap: the mask is built by
        "or", so each new r sets its own bit and the loop ends, and repeated
        elements are dropped at the end.
        """
        members, mask, gens = sub
        mul, bit = self._mul, self._bit
        gens = gens + (g,)
        elems = list(members)
        reps = [0]
        for r in reps:
            row = mul[r]
            for s in gens:
                x = row[s]
                if not bit[x] & mask:
                    coset = [mul[h][x] for h in members]
                    elems += coset
                    for y in coset:
                        mask |= bit[y]
                    reps.append(x)
        if len(elems) != mask.bit_count():
            elems = set(elems)
        return elems, mask, gens

    def _closure_of(self, elems):
        """The (members, mask, gens) triple of <elems>, extended one element at a time."""
        sub = _TRIVIAL
        for g in elems:
            if not self._bit[g] & sub[1]:
                sub = self._extend(sub, g)
        return sub

    def _greedy_generators(self, elems):
        """The elements of elems outside the span of those before them."""
        return self._closure_of(elems)[2]

    def _conjugation_tables(self):
        """One (s, c_s) pair per generator s, with c_s[x] = s * x * s^-1;
        built once and shared by the lattice, ``conjugator_into`` and
        ``AlgebraElement.is_central``."""
        if self._conj_tables is None:
            mul, inv = self._mul, self._inv
            self._conj_tables = tuple(
                (s, tuple(mul[mul[s][x]][inv[s]] for x in range(self.order)))
                for s in self.generators
            )
        return self._conj_tables

    def _conjugation_orbit(self, members, tables):
        """The conjugates a*K*a^-1 of the set K = members, walked along the
        generators with the tables of ``_conjugation_tables``.

        Each point is (a, mask, image) with image the members of a*K*a^-1;
        the point that generator s reaches from it has conjugator s*a.  The
        orbit under the generators is the whole conjugacy orbit, found with
        |G:N(K)| * #gens * |K| lookups.  An edge from point i onto a point j
        already found gives the Schreier element a_j^-1 * s * a_i, which
        normalizes K; these elements generate N(K) (Schreier's lemma).
        Returns the points and the Schreier elements.
        """
        mul, inv, bit = self._mul, self._inv, self._bit
        image = list(members)
        mask = sum(map(bit.__getitem__, image))
        points = [(0, mask, image)]
        index = {mask: 0}
        schreier = []
        for a, _, image in points:
            for s, c in tables:
                conj = list(map(c.__getitem__, image))
                mask = sum(map(bit.__getitem__, conj))
                j = index.get(mask)
                if j is None:
                    index[mask] = len(points)
                    points.append((mul[s][a], mask, conj))
                else:
                    schreier.append(mul[inv[points[j][0]]][mul[s][a]])
        return points, schreier

    def _representative(self, sub, points, schreier):
        """The least conjugate R = a*K*a^-1 in the orbit walk of K = sub.

        Returns R as (members, mask, gens), with gens those of K conjugated
        by a, and generators of N(R) = a*N(K)*a^-1: the Schreier elements
        conjugated by a and closed, or those of G when the orbit is one
        point.
        """
        mul, inv = self._mul, self._inv
        a, mask, image = _lex_least(points)
        ai = inv[a]
        rep = (tuple(sorted(image)), mask, tuple(mul[mul[a][s]][ai] for s in sub[2]))
        if len(points) == 1:
            return rep, self.generators
        return rep, self._closure_of(mul[mul[a][x]][ai] for x in schreier)[2]

    def _cyclic_generator_orbit(self, g, normalizer):
        """The generators g^k of <g>, k prime to ord g, and their conjugates
        n g^k n^-1 under the group generated by ``normalizer``."""
        mul, inv = self._mul, self._inv
        powers = self._powers(g)
        orbit = [x for k, x in enumerate(powers) if gcd(k, len(powers)) == 1]
        found = set(orbit)
        for x in orbit:
            for n in normalizer:
                y = mul[mul[n][x]][inv[n]]
                if y not in found:
                    found.add(y)
                    orbit.append(y)
        return orbit

    def subgroup_generated(self, elems) -> Subgroup:
        return Subgroup(tuple(sorted(self._closure_of(elems)[0])))

    def subgroup_classes(self, bound: int = DEFAULT_LATTICE_BOUND):
        """One canonical representative per conjugacy class of subgroups.

        Breadth-first over cyclic extensions <H, g> of the representatives
        found so far, each built by ``_extend``.  A new subgroup's
        conjugates are walked along the generators by
        ``_conjugation_orbit``; the mask of every one maps to the new class
        in the seen dict, and the lexicographically least is kept, with its
        generators conjugated along.  The Schreier elements of the walk,
        conjugated by the same element and closed, give generators of the
        representative's normalizer (G itself when the orbit is one point).

        One g is tried per N(H)-orbit of cyclic extensions.  When H is
        extended by g, every right coset H*x with x = n g^k n^-1 is dropped,
        for k prime to ord g and n in N(H): <H, g^k> = <H, g> and
        n<H, g>n^-1 = <H, n g n^-1>, so each dropped extension is conjugate
        to <H, g> and its class is found by g's.  The x come from
        ``_cyclic_generator_orbit`` over the generators of N(H).

        Every extension tried is an edge from the class of H to the class
        of <H, g>; ``overgroup_masks`` holds their transitive closure.  The
        seen dict, renumbered to class order, is kept as the index that
        ``find_class_of_subgroup`` reads, and the representatives' masks
        for ``conjugator_into``.  More than DEFAULT_SUBGROUP_CLASS_BOUND
        classes raise BoundExceededError.
        """
        if self._subgroup_classes is not None:
            return self._subgroup_classes
        if self.order > bound:
            raise BoundExceededError(
                f"subgroup lattice bound exceeded: |G| = {self.order} > {bound}"
            )
        class_bound = DEFAULT_SUBGROUP_CLASS_BOUND
        mul, bit = self._mul, self._bit
        tables = self._conjugation_tables()
        everything = (1 << self.order) - 1
        seen = {_TRIVIAL[1]: 0}  # conjugate mask -> class, numbered in walk order
        queue = [(_TRIVIAL, self.generators)]  # (members, mask, gens), generators of N(H)
        edges = [set()]  # per class, the classes of the extensions tried from it
        for i, (base, normalizer) in enumerate(queue):
            members, mask = base[0], base[1]
            above = edges[i]
            rest = everything ^ mask
            while rest:
                g = (rest & -rest).bit_length() - 1
                for x in self._cyclic_generator_orbit(g, normalizer):
                    if bit[x] & rest:
                        rest ^= sum(bit[mul[h][x]] for h in members)
                sub = self._extend(base, g)
                j = seen.get(sub[1])
                if j is None:
                    j = len(queue)
                    points, schreier = self._conjugation_orbit(sub[0], tables)
                    for p in points:
                        seen[p[1]] = j
                    queue.append(self._representative(sub, points, schreier))
                    edges.append(set())
                    if len(queue) > class_bound:
                        raise BoundExceededError(
                            f"subgroup class bound exceeded: {len(queue)} classes > {class_bound}"
                        )
                above.add(j)
        ranked = sorted(range(len(queue)), key=lambda i: (len(queue[i][0][0]), queue[i][0][0]))
        position = [0] * len(queue)
        for r, i in enumerate(ranked):
            position[i] = r
        for m, j in seen.items():
            seen[m] = position[j]
        self._class_of_mask = seen
        self._class_masks = tuple(queue[i][0][1] for i in ranked)
        self._subgroup_classes = tuple(Subgroup(queue[i][0][0]) for i in ranked)
        self._overgroup_masks = _transitive_closure([[position[j] for j in edges[i]]
                                                     for i in ranked])
        return self._subgroup_classes

    def overgroup_masks(self):
        """Per subgroup class i (see ``subgroup_classes``), the bitset with
        bit j set exactly when class i lies in a conjugate of the larger
        class j.

        It is the transitive closure of the edges H -> <H, g> of the
        lattice walk.  Every edge is a containment.  Conversely, let H be a
        representative inside a conjugate N' of N with |H| < |N'|, and take
        g in N' outside H.  The walk tried some g' whose extension is
        conjugate to <H, g> (the pruning drops only such extensions), so
        there is an edge from H to the class of K = <H, g> <= N'.  Either
        K = N', or the representative of K lies in a conjugate of N with
        smaller index, and induction on |N : H| ends the proof.
        """
        self.subgroup_classes()
        return self._overgroup_masks

    def find_class_of_subgroup(self, members) -> int:
        """Index of the subgroup class containing the given subgroup: one
        lookup of its mask in the lattice walk's index."""
        self.subgroup_classes()
        index = self._class_of_mask.get(sum(map(self._bit.__getitem__, set(members))))
        if index is None:
            raise ValidationError("subgroup not found in lattice (is it really a subgroup?)")
        return index

    def _conjugate_masks(self, inner: int):
        """(mask, a) for each distinct conjugate a * K * a^-1 of the
        representative K of subgroup class inner, with a the least element
        giving it, in increasing a; kept per class.

        The conjugates are walked along the generators by
        ``_conjugation_orbit``.  The elements carrying K onto the point
        (a, mask) form the coset a*N(K), with N(K) the closure of the
        Schreier elements (all of G when the orbit is one point), so the
        least of them is min(a*n for n in N(K)): |G| lookups over the whole
        orbit, against |G| * |K| for conjugating K by every element.
        """
        firsts = self._first_conjugators.get(inner)
        if firsts is None:
            points, schreier = self._conjugation_orbit(self._subgroup_classes[inner].members,
                                                       self._conjugation_tables())
            if len(points) == 1:
                firsts = ((points[0][1], 0),)
            else:
                normalizer = self._closure_of(schreier)[0]
                mul = self._mul
                least = sorted((min(map(mul[a].__getitem__, normalizer)), mask)
                               for a, mask, _ in points)
                firsts = tuple((mask, a) for a, mask in least)
            self._first_conjugators[inner] = firsts
        return firsts

    def conjugator_into(self, inner: int, outer: int) -> int | None:
        """Least element a with a * H * a^-1 contained in N, or None, for H
        and N the representatives of subgroup classes inner and outer (see
        ``subgroup_classes``).

        The conjugate masks of ``_conjugate_masks`` come in order of their
        least conjugator, so the first one inside the mask of N gives the
        least a: one mask AND per conjugate.
        """
        self.subgroup_classes()
        outer_mask = self._class_masks[outer]
        for m, a in self._conjugate_masks(inner):
            if m & outer_mask == m:
                return a
        return None

    # -- rational fusion ------------------------------------------------------------

    def rational_fusion_classes(self):
        """Partition coarsening conjugacy: g fused with g^k for gcd(k, ord g) = 1,
        the generators of <g> that ``_cyclic_generator_orbit`` walks with no
        normalizer.  The classes of these g^k are closed under the rule (k^-1 mod ord g,
        and products), so they are g's whole rational class."""
        if self._fusion is None:
            classes = self.conjugacy_classes()
            class_of = self._class_of
            seen, fused = set(), []
            for idx, cls in enumerate(classes):
                if idx not in seen:
                    js = {class_of[x] for x in self._cyclic_generator_orbit(cls.representative, ())}
                    seen |= js
                    fused.append(tuple(sorted(x for j in js for x in classes[j].members)))
            self._fusion = tuple(sorted(fused))  # disjoint: by least member
        return self._fusion

    # -- export ---------------------------------------------------------------------

    def export(self) -> dict:
        return {
            "order": self.order,
            "cayley": [list(row) for row in self._mul],
            "labels": [self.label_of(g) for g in range(self.order)],
        }

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


# ---------------------------------------------------------------------------
# ingestion: presentations (Todd-Coxeter coset enumeration, HLT strategy)
# ---------------------------------------------------------------------------


def _word_to_cols(word):
    cols = []
    for letter in word:
        if letter == 0:
            raise ValidationError("relator letters are signed 1-based generator indices")
        idx = abs(letter) - 1
        cols.append(2 * idx if letter > 0 else 2 * idx + 1)
    return cols


def _coset_enumeration(ngens, relators, bound):
    """Coset table of the trivial subgroup.  Returns the number of live
    cosets and their action for ``_bfs_numbering``: k -> the live cosets
    k * g_i, read from the table through the coset representatives, so the
    same breadth-first walk numbers presentation and permutation input.
    The table lives as long as that action does.

    The table holds at most 10 * bound rows and at most 60 * bound entries
    (rows times 2 * ngens columns); the entry ceiling is the lower one only
    past three generators.  Reaching either raises BoundExceededError.
    """
    ncols = 2 * ngens
    ceiling = min(10 * bound, 60 * bound // ncols)
    if ceiling < 1:
        raise BoundExceededError("group too large or infinite")
    table = [[None] * ncols]
    parent = [0]
    dead_queue = []

    def rep(k):
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

    def merge(a, b):
        a, b = rep(a), rep(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            parent[hi] = lo
            dead_queue.append(hi)

    def coincidence(a, b):
        merge(a, b)
        while dead_queue:
            gamma = dead_queue.pop(0)
            for x in range(ncols):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def define(alpha, col):
        if len(table) >= ceiling:
            raise BoundExceededError("group too large or infinite")
        table.append([None] * ncols)
        parent.append(len(table) - 1)
        beta = len(table) - 1
        table[alpha][col] = beta
        table[beta][col ^ 1] = alpha
        return beta

    def scan_and_fill(alpha, cols):
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            f = define(f, cols[i])
            i += 1

    rel_cols = [_word_to_cols(w) for w in relators]
    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for cols in rel_cols:
            if not cols:
                continue
            scan_and_fill(alpha, cols)
            if rep(alpha) != alpha:
                break
        if rep(alpha) == alpha:
            for col in range(ncols):
                if table[alpha][col] is None:
                    define(alpha, col)
        alpha += 1

    live = sum(rep(k) == k for k in range(len(table)))
    cols = range(0, ncols, 2)
    return live, lambda k: [rep(table[k][c]) for c in cols]


def _bfs_numbering(start, ngens, images, bound):
    """Number the points reached from start breadth-first over generator
    words, generators in input order, with images(x) the list of x * g_i
    over the ngens generators.  This is the one walk that numbers the
    elements of permutation and presentation input; its points are dropped
    on return.  Returns the (steps, words, parents) that ``_table_from_bfs``
    reads; a point past the bound-th raises BoundExceededError."""
    index = {start: 0}
    points = [start]
    words = [()]
    parents = [(-1, -1)]
    steps = [[] for _ in range(ngens)]
    for head, cur in enumerate(points):  # points grows while it is walked
        for gi, nxt in enumerate(images(cur)):
            i = index.get(nxt)
            if i is None:
                if len(points) >= bound:
                    raise BoundExceededError("group too large or infinite")
                i = index[nxt] = len(points)
                points.append(nxt)
                words.append(words[head] + (gi,))
                parents.append((head, gi))
            steps[gi].append(i)
    return steps, words, parents


def _table_from_bfs(steps, words, parents):
    """The certified group of elements numbered breadth-first over generator
    words: steps[gi][x] is the index of element x followed by generator gi,
    words[x] the word of x and parents[x] = (index of the word without its
    last letter, that letter), for x >= 1.

    The table is built one column at a time along the words: the column of
    w*g is steps[g] applied to the column of w.  Its entries are element
    indices by construction, so it goes straight to the certificate.
    """
    n = len(words)
    cols = [range(n)] + [None] * (n - 1)
    for idx in range(1, n):
        prev_idx, gi = parents[idx]
        cols[idx] = list(map(steps[gi].__getitem__, cols[prev_idx]))
    generators = tuple(step[0] for step in steps)
    return FiniteGroup._built(tuple(zip(*cols)), words, generators)


def from_presentation(ngens, relators, bound=DEFAULT_ENUMERATION_BOUND):
    """Group defined by generators and relators (signed 1-based letters)."""
    if type(ngens) is not int or type(bound) is not int:
        raise ValidationError(f"generator count {ngens!r} and bound {bound!r} must be integers")
    if ngens < 0:
        raise ValidationError("generator count must be non-negative")
    if bound < 1:
        raise ValidationError(f"enumeration bound must be at least 1, not {bound}")
    if ngens == 0:
        return _table_from_bfs(*_bfs_numbering(0, 0, lambda k: (), bound))
    relators = [list(w) for w in relators]
    if any(type(x) is not int or not 0 < abs(x) <= ngens for w in relators for x in w):
        raise ValidationError(f"relator letters must be integers +-1..+-{ngens}")
    if not any(w for w in relators):
        raise BoundExceededError("group too large or infinite")
    live, images = _coset_enumeration(ngens, relators, bound)
    if live > bound:
        raise BoundExceededError("group too large or infinite")
    numbering = _bfs_numbering(0, ngens, images, bound)
    del images  # the coset table, released before the group table is built
    if len(numbering[1]) != live:
        raise ValidationError("generator permutations do not act transitively")
    return _table_from_bfs(*numbering)


def from_permutations(perms, bound=DEFAULT_ENUMERATION_BOUND):
    """Group generated by permutations on 0..n-1 (right-to-left words)."""
    gens = [tuple(p) for p in perms]
    npts = len(gens[0]) if gens else 0
    for p in gens:
        if set(map(type, p)) - {int}:
            raise ValidationError(f"permutation entries must be integers, not {p!r}")
        if sorted(p) != list(range(npts)):
            raise ValidationError("input is not a bijection on {0..n-1}")
    # the points are the elements as tuples; cur * g reads g at each of cur's points
    numbering = _bfs_numbering(tuple(range(npts)), len(gens),
                               lambda cur: [tuple([g[x] for x in cur]) for g in gens], bound)
    return _table_from_bfs(*numbering)


def from_cayley_table(table):
    """Validated group from a raw multiplication table (identity must be 0).

    Every entry is scanned (an ``int`` in range) before Light's certificate,
    as for any table a caller hands in; the tables the library builds from
    permutations or presentations (one breadth-first walk) skip the scan,
    and the classes are walked along the generators either way.
    """
    return FiniteGroup(table)
