"""Differential tests of the bitmask subgroup lattice against the tuple-and-set
reference in ``lattice_reference.py``, on seeded relabellings of the groups."""

import random

import pytest

import lattice_reference as ref
import permutation_reference
from isotypic import groups
from isotypic import ValidationError
from isotypic.errors import BoundExceededError
from isotypic.fixtures import order24_group, order80_group
from isotypic.groups import FiniteGroup, from_permutations, from_presentation


def symmetric(n):
    return [[(i + 1) % n for i in range(n)], [1, 0] + list(range(2, n))]


def dihedral(n):
    return [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]]


def elementary_abelian2(n):
    return [[j ^ 1 if j // 2 == i else j for j in range(2 * n)] for i in range(n)]


def direct_product(a, b):
    na, nb = len(a[0]), len(b[0])
    return ([list(p) + list(range(na, na + nb)) for p in a]
            + [list(range(na)) + [na + x for x in p] for p in b])


def gl2_3():
    """GL(2,3) acting on the eight non-zero vectors of F_3^2."""
    pts = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    index = {p: i for i, p in enumerate(pts)}

    def act(m):
        return [index[((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3)]
                for a, b in pts]

    return [act([[1, 1], [0, 1]]), act([[0, 1], [2, 0]]), act([[2, 0], [0, 1]])]


GROUPS = {
    "S3": lambda: from_permutations(symmetric(3)),
    "S4": lambda: from_permutations(symmetric(4)),
    "Q8": lambda: from_presentation(2, [[1] * 4, [1, 1, -2, -2], [-2, 1, 2, 1]]),
    "C2^4": lambda: from_permutations(elementary_abelian2(4)),
    "D4xS3": lambda: from_permutations(direct_product(dihedral(4), symmetric(3))),
    "GL23": lambda: from_permutations(gl2_3()),
    "S5": lambda: from_permutations(symmetric(5)),
    "D60": lambda: from_permutations(dihedral(60)),
    "order24": order24_group,
    "order80": order80_group,
}


def relabelled(group, rng):
    """The same group with its non-identity elements renumbered at random."""
    sigma = [0] + rng.sample(range(1, group.order), group.order - 1)
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            table[sigma[a]][sigma[b]] = sigma[group.mul(a, b)]
    return FiniteGroup(table)


def distinct_conjugates(group, members):
    return sorted({ref.conjugate_subgroup(group, members, a) for a in range(group.order)})


NOT_A_SUBGROUP = "subgroup not found in lattice (is it really a subgroup?)"


@pytest.mark.parametrize("name", GROUPS)
def test_lattice_matches_reference(name):
    """On the group as built and on a relabelling: the classes, the class
    of every conjugate, the refusal of subsets that are not subgroups and
    the least conjugator of every pair of classes."""
    rng = random.Random(name)
    for group in (GROUPS[name](), relabelled(GROUPS[name](), rng)):
        classes = tuple(s.members for s in group.subgroup_classes())
        assert classes == ref.subgroup_classes(group)

        for members in classes:
            for conj in distinct_conjugates(group, members):
                found = classes[group.find_class_of_subgroup(conj)]
                assert found == ref.canonical_form(group, conj) == members
        subsets = [rng.sample(range(group.order), rng.randint(2, 4)) for _ in range(10)]
        subsets = [s for s in subsets if ref.closure_of(group, s) != sorted(s)]
        assert subsets
        for subset in subsets:
            with pytest.raises(ValidationError) as err:
                group.find_class_of_subgroup(subset)
            assert str(err.value) == NOT_A_SUBGROUP
        for i, inner in enumerate(classes):
            for j, outer in enumerate(classes):
                assert group.conjugator_into(i, j) == ref.conjugator_into(group, inner, outer)

        for members in classes:
            conj = rng.choice(distinct_conjugates(group, members))
            elems = rng.sample(conj, min(len(conj), rng.randint(1, 3)))
            assert group.subgroup_generated(elems).members == ref.subgroup_generated(group, elems)
            assert group.subgroup_generated(group._greedy_generators(conj)).members == conj


def test_elementary_abelian_32_classes_match_reference():
    group = relabelled(from_permutations(elementary_abelian2(5)), random.Random(5))
    classes = tuple(s.members for s in group.subgroup_classes())
    assert len(classes) == 374
    assert classes == ref.subgroup_classes(group)


def test_greedy_generators_match_reference_closure():
    group = relabelled(from_permutations(symmetric(4)), random.Random(4))
    assert tuple(ref.closure_of(group, group.generators)) == tuple(range(24))
    for s in group.subgroup_classes():
        gens = group._greedy_generators(s.members)
        # each generator lies outside the span of the ones before it
        for k, g in enumerate(gens):
            assert g not in ref.closure_of(group, gens[:k])
        assert tuple(ref.closure_of(group, gens)) == s.members


def test_subgroup_class_bound(monkeypatch):
    group = from_permutations(elementary_abelian2(4))
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_CLASS_BOUND", 66)
    with pytest.raises(BoundExceededError, match="67 classes > 66"):
        group.subgroup_classes()
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_CLASS_BOUND", 67)
    assert len(group.subgroup_classes()) == 67


def test_lattice_order_bound_fires_before_any_work():
    group = from_permutations(symmetric(4))
    group._extend = group._conjugation_orbit = None  # any lattice work calls them
    with pytest.raises(BoundExceededError, match="24 > 23"):
        group.subgroup_classes(bound=23)
    with pytest.raises(TypeError):  # the poison is reached once the bound allows work
        group.subgroup_classes(bound=24)


def brute_normalizer(group, members):
    target = set(members)
    return tuple(a for a in range(group.order)
                 if {ref.conjugate(group, m, a) for m in members} == target)


@pytest.mark.parametrize("name", GROUPS)
def test_schreier_normalizers_match_brute_force(name):
    """The lattice's representative and normalizer, reached from a random
    conjugate, against {a : a*H*a^-1 = H}."""
    rng = random.Random("normalizer " + name)
    group = relabelled(GROUPS[name](), rng)
    tables = group._conjugation_tables()
    for s in group.subgroup_classes():
        sub = group._closure_of(rng.choice(distinct_conjugates(group, s.members)))
        points, schreier = group._conjugation_orbit(sub[0], tables)
        (members, mask, gens), normalizer = group._representative(sub, points, schreier)
        assert members == s.members
        assert mask == sum(1 << m for m in members)
        assert tuple(ref.closure_of(group, gens)) == members
        brute = brute_normalizer(group, members)
        assert tuple(ref.closure_of(group, normalizer)) == brute
        assert len(points) * len(brute) == group.order


@pytest.mark.parametrize("name", GROUPS)
def test_conjugate_masks_match_enumeration(name):
    """The least conjugators read off the N(K) cosets of the orbit walk
    against conjugating by every element, for each class."""
    group = relabelled(GROUPS[name](), random.Random("conjugators " + name))
    tables = group._conjugation_tables()
    for i, s in enumerate(group.subgroup_classes()):
        assert group._conjugate_masks(i) == ref.first_conjugators(group, s.members)
    assert group._conjugation_tables() is tables  # built once, shared with the lattice


@pytest.mark.parametrize("name", GROUPS)
def test_rational_fusion_matches_cyclic_subgroup_conjugacy(name):
    """Classes C_i and C_j fuse exactly when <g_i> and <g_j> are conjugate:
    a definition that reads no power map, checked by conjugating by every
    element."""
    group = relabelled(GROUPS[name](), random.Random("fusion " + name))
    classes = group.conjugacy_classes()
    cyclic = [frozenset(ref.closure_of(group, [c.representative])) for c in classes]
    want = set()
    for sub in cyclic:
        conjugates = {frozenset(ref.conjugate(group, m, a) for m in sub)
                      for a in range(group.order)}
        want.add(frozenset(m for c, other in zip(classes, cyclic) if other in conjugates
                           for m in c.members))
    fused = group.rational_fusion_classes()
    assert set(map(frozenset, fused)) == want
    assert all(f == tuple(sorted(f)) for f in fused)
    assert list(fused) == sorted(fused, key=min)


@pytest.mark.parametrize("degree,classes,subgroups", [(5, 19, 156), (6, 56, 1455)])
def test_symmetric_group_subgroup_counts(degree, classes, subgroups):
    group = from_permutations(symmetric(degree))
    tables = group._conjugation_tables()
    reps = group.subgroup_classes()
    assert len(reps) == classes
    assert sum(len(group._conjugation_orbit(s.members, tables)[0]) for s in reps) == subgroups
    if degree == 5:
        assert sum(len(distinct_conjugates(group, s.members)) for s in reps) == subgroups


# permutation ingestion against the |G|^2 compositions of permutation_reference.py

PERMUTATIONS = {
    "S3": symmetric(3),
    "S4": symmetric(4),
    "S5": symmetric(5),
    "S6": symmetric(6),
    "D48": dihedral(48),
    "D60": dihedral(60),
    "C2^4": elementary_abelian2(4),
    "D4xS3": direct_product(dihedral(4), symmetric(3)),
    "GL23": gl2_3(),
}


def relabelled_points(perms, rng):
    """The same generators on shuffled points, shuffled, with the product of
    two of them appended, so that inverting every generator is no longer an
    automorphism of the generating tuple."""
    tau = rng.sample(range(len(perms[0])), len(perms[0]))
    out = []
    for p in perms:
        q = [0] * len(p)
        for i, x in enumerate(p):
            q[tau[i]] = tau[x]
        out.append(q)
    rng.shuffle(out)
    a, b = rng.choice(out), rng.choice(out)
    return out + [[b[x] for x in a]]


def same_group(a, b):
    return (a._mul, a.labels, a.generators) == (b._mul, b.labels, b.generators)


@pytest.mark.parametrize("name", PERMUTATIONS)
def test_permutation_ingestion_matches_reference(name):
    rng = random.Random(name)
    for perms in (PERMUTATIONS[name], relabelled_points(PERMUTATIONS[name], rng)):
        assert same_group(from_permutations(perms), permutation_reference.from_permutations(perms))


def test_permutation_ingestion_bound_and_edge_cases():
    for perms in (symmetric(4), relabelled_points(dihedral(12), random.Random(12))):
        order = len(permutation_reference.from_permutations(perms).elements())
        for build in (from_permutations, permutation_reference.from_permutations):
            with pytest.raises(BoundExceededError):
                build(perms, bound=order - 1)
            assert same_group(build(perms, bound=order), from_permutations(perms))
    for perms in ([], [[0, 1, 2]], [[]], [[1, 0], [1, 0]]):
        assert same_group(from_permutations(perms), permutation_reference.from_permutations(perms))
    for bad in ([[0, 0, 1]], [[1, 0], [0, 1, 2]]):
        for build in (from_permutations, permutation_reference.from_permutations):
            with pytest.raises(ValidationError, match="bijection"):
                build(bad)
