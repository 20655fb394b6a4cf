"""The decomposer's multiplicity table, Prym lookup, intersection search and
intermediate decompositions checked against the recomputing code in
``decomposition_reference.py``, on the groups and on seeded relabellings."""

import random
from types import SimpleNamespace

import pytest

from decomposition_reference import (
    reference_decompose_intermediate,
    reference_find_intersection_realizations,
    reference_find_prym_realizations,
    reference_rho_decomposition,
)
import lattice_reference
from isotypic import (
    BoundExceededError,
    InvariantError,
    JacobianDecomposer,
    SchurStatus,
    ValidationError,
    compute_character_table,
    from_permutations,
    galois_orbits,
    orbit_index,
    rho_decomposition,
    validate_schur_from_rep,
)
from isotypic import decomposition
from isotypic.cli import main
from test_lattice_oracle import GROUPS as LATTICE_GROUPS
from test_lattice_oracle import elementary_abelian2, relabelled

GROUPS = {name: LATTICE_GROUPS[name]
          for name in ("S3", "S4", "Q8", "order24", "order80", "C2^4", "D4xS3", "S5")}
GROUPS["C2^5"] = lambda: from_permutations(elementary_abelian2(5))
CASES = [(name, m2, relabel) for name in GROUPS for m2 in ((False, True) if name == "order80"
                                                            else (False,))
         for relabel in (False, True)]


def _quad(orbits):
    """Selector of the order-80 quadratic orbit whose Schur index is 2."""
    (orbit,) = [o for o in orbits if o.degree == 4 and len(o.char_indices) == 2]
    return tuple(i + 1 for i in orbit.char_indices)


class _CountingDict(dict):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def __setitem__(self, key, value):
        self.log.append(key)
        super().__setitem__(key, value)


def test_conjugate_masks_are_built_once_per_class():
    """Each class's conjugate masks are walked at most once, however many
    containment queries read them; the outer classes' masks are the lattice
    walk's own and are never built."""
    builds = []
    group = GROUPS["C2^4"]()
    group._first_conjugators = _CountingDict(builds)  # every class walked is stored
    table = compute_character_table(group)
    dec = JacobianDecomposer(table, orbits=galois_orbits(table))
    pairs = [(i, o) for i in range(len(dec.subgroups)) for o in range(len(dec.subgroups))]
    first = [dec.conjugator(i, o) for i, o in pairs]
    assert builds and len(builds) == len(set(builds))
    del builds[:]
    assert [dec.conjugator(i, o) for i, o in pairs] == first
    assert builds == []


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_containment_poset_matches_reference(name):
    """Containment, least conjugators and every overgroup list against
    conjugating by every element: the bitsets of the lattice walk say
    exactly which pairs nest."""
    group = relabelled(LATTICE_GROUPS[name](), random.Random("poset " + name))
    table = compute_character_table(group)
    dec = JacobianDecomposer(table, orbits=galois_orbits(table))
    members = [s.members for s in dec.subgroups]
    for ih, inner in enumerate(members):
        brute = []
        for io, outer in enumerate(members):
            conj = lattice_reference.conjugator_into(group, inner, outer)
            assert dec.contains(ih, io) == (conj is not None)
            assert dec.conjugator(ih, io) == conj
            if conj is not None and len(outer) > len(inner):
                brute.append(io)
        assert dec.contains(ih, ih)
        assert dec.overgroups(ih) == tuple(brute)


def _decomposer(name, m2, relabel):
    """The decomposer of one of CASES."""
    group = GROUPS[name]()
    if relabel:
        group = relabelled(group, random.Random(name))
    table = compute_character_table(group)
    orbits = galois_orbits(table)
    return JacobianDecomposer(table, orbits=orbits,
                              schur_assertions={_quad(orbits): 2} if m2 else None)


@pytest.mark.parametrize("name,m2,relabel", CASES)
def test_decomposer_matches_reference(name, m2, relabel):
    dec = _decomposer(name, m2, relabel)
    group, table = dec.group, dec.table
    vectors = []
    for sub, rd in zip(dec.subgroups, dec.rho):
        assert rd == reference_rho_decomposition(table, dec.orbits, sub.members)
        vectors.append(rd.multiplicities)
    for w in range(len(dec.orbits)):
        assert dec.find_prym_realizations(w) == \
            reference_find_prym_realizations(dec, vectors, w)
    # the reference intersection search takes about 0.7 s per orbit of C2^5,
    # whose non-trivial orbits are all swapped by automorphisms of the group
    for w in range(3) if name == "C2^5" else range(len(dec.orbits)):
        for arity in (0, 2, 4):
            assert dec.find_intersection_realizations(w, max_arity=arity) == \
                reference_find_intersection_realizations(dec, vectors, w, max_arity=arity)
    for sub in dec.subgroups:
        conjugates = {lattice_reference.conjugate_subgroup(group, sub.members, a)
                      for a in range(group.order)}
        others = sorted(conjugates - {sub.members})
        for members in [sub.members] + others[:1]:
            assert dec.decompose_intermediate(members) == \
                reference_decompose_intermediate(dec, members)


@pytest.mark.parametrize("name", GROUPS)
def test_init_rho_matches_rho_decomposition(name):
    dec = _decomposer(name, False, False)
    assert len(dec.rho) == len(dec.subgroups)
    for rd, s in zip(dec.rho, dec.subgroups):
        assert rd == rho_decomposition(dec.table, dec.orbits, s.members)


@pytest.mark.parametrize("name,m2,relabel", CASES)
def test_least_intersection_witness_heads_the_full_list(name, m2, relabel):
    dec = _decomposer(name, m2, relabel)
    for w in range(len(dec.orbits)):
        for k in (2, 3, 4):
            full = dec.find_intersection_realizations(w, max_arity=k)
            assert dec.least_intersection_realization(w, max_arity=k) == \
                (full[0] if full else None)


def _outcome(rho, *args):
    try:
        return rho(*args)
    except InvariantError as exc:
        return str(exc)


def test_forced_schur_index_error_matches_reference(t80, orbits80, quad80):
    bad = quad80._replace(schur=SchurStatus("asserted", 4, 2, "forced"))
    bad_orbits = tuple(bad if o is quad80 else o for o in orbits80)
    outcomes = [_outcome(reference_rho_decomposition, t80, bad_orbits, sub.members)
                for sub in t80.group.subgroup_classes()]
    assert outcomes == [_outcome(rho_decomposition, t80, bad_orbits, sub.members)
                        for sub in t80.group.subgroup_classes()]
    first = next(o for o in outcomes if isinstance(o, str))
    assert "not divisible by m = 4" in first
    with pytest.raises(InvariantError) as init:
        JacobianDecomposer(t80, orbits=bad_orbits)
    assert str(init.value) == first


def _count_class_lookups(monkeypatch, group):
    calls = []
    lookup = group.class_index
    monkeypatch.setattr(group, "class_index", lambda g: calls.append(g) or lookup(g))
    return calls


def test_init_counts_classes_once_per_subgroup(monkeypatch, dec80, rep80, quad80):
    group = from_permutations(elementary_abelian2(4))
    table = compute_character_table(group)
    orbits = galois_orbits(table)
    calls = _count_class_lookups(monkeypatch, group)
    dec = JacobianDecomposer(table, orbits=orbits)
    assert len(calls) <= sum(s.order for s in dec.subgroups)
    # the fixed dimensions kept on the table serve a second decomposer, and
    # the Schur suite of the order-80 rep once a decomposer has run on its
    # table
    calls.clear()
    JacobianDecomposer(table, orbits=orbits)
    assert calls == []
    calls80 = _count_class_lookups(monkeypatch, dec80.group)
    assert validate_schur_from_rep(rep80, quad80) == 2
    assert calls80 == []


def test_intermediate_of_a_non_subgroup_is_a_validation_error(dec24, dec80):
    for dec in (dec24, dec80):
        with pytest.raises(ValidationError, match="subgroup not found in lattice"):
            dec.decompose_intermediate((0, 1))


def test_classify_rejects_orbit_indices_out_of_range(dec24):
    last = len(dec24.orbits) - 1
    assert dec24.classify_factor(last).kind in ("prym", "intersection", "complement")
    with pytest.raises(ValidationError, match="quotient Jacobian itself"):
        dec24.classify_factor(0)
    for bad in (-1, last + 1):
        with pytest.raises(ValidationError, match=f"outside 1..{last}"):
            dec24.classify_factor(bad)


def test_orbit_index_selectors(orbits80):
    quad = _quad(orbits80)
    wq = orbit_index(orbits80, quad)
    assert orbit_index(orbits80, quad[0]) == orbit_index(orbits80, quad[1]) == wq
    assert orbit_index(orbits80, (quad[1],)) == orbit_index(orbits80, tuple(reversed(quad))) == wq
    single = next(i for i, o in enumerate(orbits80) if len(o.char_indices) == 1)
    other = orbits80[single].char_indices[0] + 1
    for bad, named in [(99, "99"), (0, "0"), ((quad[0], other), f"{quad[0]}-{other}"),
                       ((quad[0], quad[0]), f"{quad[0]}-{quad[0]}"), ((), "$")]:
        with pytest.raises(ValidationError, match=f"matches selector {named}"):
            orbit_index(orbits80, bad)


def test_intersection_search_bound(monkeypatch, dec80, capsys):
    w = dec80.orbit_index_of(_quad(dec80.orbits))
    assert dec80.find_intersection_realizations(w)
    monkeypatch.setattr(decomposition, "INTERSECTION_SEARCH_BOUND", 5)
    with pytest.raises(BoundExceededError, match="visited 6 partial tuples > 5"):
        dec80.find_intersection_realizations(w)
    assert main(["classify", "--group", "bundled:group_order80.json", "--irrep",
                 "-".join(map(str, _quad(dec80.orbits))), "--assert-schur",
                 "11-12=2"]) == 4
    assert "partial tuples > 5" in capsys.readouterr().err


def _arity3_decomposer():
    """A decomposer state, built by hand, whose orbit 1 has an arity-3
    intersection witness: H (class 0) lies in N1, N2, N3 (classes 1-3),
    each rho_H - rho_N is W plus one other orbit, and the three residues
    are pairwise disjoint."""
    dec = object.__new__(JacobianDecomposer)
    vectors = [(1, 1, 1, 1, 1), (1, 0, 0, 1, 1), (1, 0, 1, 0, 1), (1, 0, 1, 1, 0)]
    dec.subgroups = [SimpleNamespace(order=1 if i == 0 else 2, members=(0,) if i == 0 else (0, i))
                     for i in range(4)]
    dec._orders = (1, 2, 2, 2)
    dec.rho = [SimpleNamespace(multiplicities=v) for v in vectors]
    # H = {0} lies in N_i = {0, i}: bits 1-3 of its overgroup bitset, and
    # conjugator 0 carries it into each
    dec._above = (0b1110, 0, 0, 0)
    dec._overgroups = {0: (1, 2, 3)}
    dec.group = SimpleNamespace(conjugator_into=lambda inner, outer: 0)
    return dec


def test_intersection_search_stops_at_max_arity():
    dec = _arity3_decomposer()
    pairs = [(1, 2), (1, 3), (2, 3)]
    found = dec.find_intersection_realizations(1, max_arity=3)
    assert [(t.inner, t.outers) for t in found] == [(0, p) for p in pairs] + [(0, (1, 2, 3))]
    assert all(t.conjugators == (0,) * len(t.outers) for t in found)
    cut = dec.find_intersection_realizations(1, max_arity=2)
    assert [(t.inner, t.outers) for t in cut] == [(0, p) for p in pairs]
