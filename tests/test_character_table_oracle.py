"""The idempotent split, the packed orthogonality check and the
permutation-based Galois orbits checked against the code they replaced
(``character_table_reference.py``), on the groups and on seeded
relabellings; the class sums the split builds, the rows it lifts and its
trace test; the split-prime proof of the row relation against the
reference, the split primes and the exact primality test against trial
division, and the Dixon prime against the reference search;
the table's integer form and its closed-form traces checked against the
values and ``trace_to_rational``; and the class-count bound."""

import json
import random
from fractions import Fraction
from math import prod
from time import perf_counter

import pytest

from builders import root_of_unity
from character_table_reference import (
    ReferenceCharacterTable,
    _dixon_prime as reference_dixon_prime,
    _is_prime as trial_division_is_prime,
    reference_compute_character_table,
    reference_galois_orbits,
    trace_to_rational,
)
from isotypic import (
    BoundExceededError,
    InvariantError,
    ValidationError,
    compute_character_table,
    from_permutations,
    galois_orbits,
)
from isotypic import characters
from isotypic.characters import (
    Character, CharacterTable, RationalIrrep, SchurStatus, rational_character,
)
from isotypic.cyclotomic import CycValue, _cyc, _normal, unit_group
from isotypic.cli import main
from isotypic.fixtures import bundled
from isotypic.groupalgebra import invariant_idempotent, rational_central_idempotent
from isotypic.serialize import cyc_from_json, group_from_spec, table_from_json, table_to_json
from test_lattice_oracle import (
    dihedral, direct_product, elementary_abelian2, gl2_3, relabelled, symmetric,
)


def semidirect(p, q):
    """C_p x| C_q on Z/p: x -> x + 1 and x -> a x with a of order q mod p."""
    a = next(a for a in range(2, p) if pow(a, q, p) == 1)
    return [[(i + 1) % p for i in range(p)], [(a * i) % p for i in range(p)]]


def dicyclic(n):
    """Dic_n = <x, y : x^2n, y^2 = x^n, y^-1 x y = x^-1>, acting on itself."""
    m = 2 * n
    x = [((a + 1) % m) if b == 0 else ((a - 1) % m) + m for b in (0, 1) for a in range(m)]
    y = [a + m if b == 0 else (a + n) % m for b in (0, 1) for a in range(m)]
    return [x, y]


GROUPS = {
    "S3": lambda: symmetric(3),
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "GL23": gl2_3,
    # dihedral groups named by their order, as in the chartable-sweep workload
    "D48": lambda: dihedral(24),
    "D60": lambda: dihedral(30),
    "C11x5": lambda: semidirect(11, 5),
    **{f"Dic{n}": (lambda n=n: dicyclic(n)) for n in (2, 3, 5, 7)},
    # p = 11 < r = 16: each class sum halves the subspaces it splits
    "C2_4": lambda: elementary_abelian2(4),
    # a class sum acts as a scalar on 6 of the 16 subspaces it meets
    "D4xS3": lambda: direct_product(dihedral(4), symmetric(3)),
    "C1": lambda: [[0]],  # e = 1
}
CASES = [(name, relabel) for name in GROUPS for relabel in (0, 1, 2)]


def _group(name, relabel):
    group = from_permutations(GROUPS[name]())
    rng = random.Random(f"{name}/{relabel}")
    return relabelled(group, rng) if relabel else group


@pytest.mark.parametrize("name,relabel", CASES)
def test_table_and_orbits_match_reference(name, relabel):
    group = _group(name, relabel)
    table = compute_character_table(group)
    ref = reference_compute_character_table(group)
    assert [(c.degree, c.values) for c in table.chars] == \
        [(c.degree, c.values) for c in ref.chars]
    # equal orbits have equal members, stabilizers, degrees and Schur data
    assert galois_orbits(table) == reference_galois_orbits(ref)


def _mixed_level_d10():
    """The D10 table, and a copy whose first degree-2 row stores its rational
    entries at level 1."""
    group = from_permutations(dihedral(5))
    table = compute_character_table(group)
    i = next(i for i, c in enumerate(table.chars) if c.degree == 2)
    chars = list(table.chars)
    chars[i] = Character(tuple(CycValue.from_rational(v.as_rational()) if v.is_rational()
                               else v for v in chars[i].values), 2)
    mixed = CharacterTable(group, chars)
    assert {v.level for v in mixed.chars[i].values} == {1, table.level}
    return table, mixed


def test_galois_orbits_do_not_depend_on_the_level_of_a_value():
    """The mixed-level D10 table passes ``validate``, and its orbits, rational
    characters and idempotents e_W and f_H = p_H e_W are those of the
    computed table: every value is traced at one level."""
    table, mixed = _mixed_level_d10()
    group = table.group
    assert galois_orbits(mixed) == galois_orbits(table)
    _check_form(mixed)
    for orbit in galois_orbits(table):
        assert rational_character(mixed, orbit) == rational_character(table, orbit)
        e_w = rational_central_idempotent(mixed, orbit)
        assert e_w == rational_central_idempotent(table, orbit)
        assert e_w * e_w == e_w
        for g in group.generators:
            members = {group.power(g, k) for k in range(group.elem_orders[g])}
            assert invariant_idempotent(mixed, orbit, members) == \
                invariant_idempotent(table, orbit, members)


def test_traces_refuse_values_outside_the_exponent_field():
    """C2 with rows (1, z8), (1, -z8) passes ``validate``, but its values do
    not lie in Q(zeta_2): ``galois_orbits`` refuses it, for sigma_3 does not
    permute its rows, and so does each trace.  C2 with rows (1, z4), (1, -z4)
    is closed under (Z/4)^x, but sigma_3, which is 1 mod 2, swaps its rows."""
    group = from_permutations([[1, 0]])
    z8, one = root_of_unity(8), CycValue.one(8)
    table = CharacterTable(group, [Character((one, z8), 1), Character((one, -z8), 1)])
    with pytest.raises(ValidationError, match="not closed under the Galois action"):
        galois_orbits(table)
    for i in (0, 1):
        orbit = RationalIrrep((i,), (1,), 1, 1, SchurStatus("exact", 1, 1))
        with pytest.raises(ValidationError, match="level 8 may lie outside Q.zeta_2."):
            rational_character(table, orbit)
        with pytest.raises(ValidationError, match="level 8 may lie outside Q.zeta_2."):
            rational_central_idempotent(table, orbit)
    z4, one = root_of_unity(4), CycValue.one(4)
    table = CharacterTable(group, [Character((one, z4), 1), Character((one, -z4), 1)])
    with pytest.raises(ValidationError, match="level 4 lie outside Q.zeta_2."):
        galois_orbits(table)


# -- the integer form against the values it was built from ------------------------


def _check_form(table):
    """Each numerator tuple over D gives back its value, and each closed-form
    trace equals ``trace_to_rational`` at the table's level."""
    level, nums, den = table._form[:3]
    for char, row in zip(table.chars, nums):
        assert [_cyc(level, *_normal(v, den)) for v in row] == list(char.values)
    for orbit in galois_orbits(table):
        values = table.chars[orbit.char_indices[0]].values
        assert characters._rational_traces(table, orbit) == \
            [trace_to_rational(v.to_level(table.level), orbit.stabilizer) for v in values]


@pytest.mark.parametrize("name", GROUPS)
def test_integer_form_of_oracle_tables(name):
    _check_form(compute_character_table(_group(name, 0)))


BUNDLED_TABLES = {"order80": "group_order80.json", "S3": "group_s3.json",
                  "S4": "group_s4.json", "Q8": "group_q8.json", "SL23": "group_order24.json"}


def _group_and_table(name):
    return group_from_spec(bundled(BUNDLED_TABLES[name])), bundled(f"table_{name.lower()}.json")


@pytest.mark.parametrize("name", BUNDLED_TABLES)
def test_integer_form_of_bundled_tables(name):
    _check_form(table_from_json(*_group_and_table(name)))


def test_integer_form_of_the_small_corpus(small_tables):
    for table in small_tables.values():
        _check_form(table)


def _conjugated(mat, i, j, c, p):
    """E mat E^-1 over F_p for E = 1 + c e_ij, i != j."""
    out = [list(row) for row in mat]
    out[i] = [(a + c * b) % p for a, b in zip(out[i], out[j])]   # E * mat
    for row in out:                                              # ... * E^-1
        row[j] = (row[j] - c * row[i]) % p
    return out


def test_charpoly_roots_are_the_eigenvalues():
    """The Krylov walk of a cyclic vector under a matrix with a Jordan block
    returns its characteristic polynomial, whose roots are the eigenvalues;
    a repeated root is refused as a splitting failure."""
    p = 13
    mat = [[2, 1, 0, 7], [0, 2, 3, 0], [0, 0, 5, 1], [0, 0, 0, 0]]
    for i, j, c in ((3, 0, 4), (2, 1, 6), (1, 3, 9), (3, 1, 2)):
        mat = _conjugated(mat, i, j, c, p)
    assert any(mat[i][j] for i in range(2, 4) for j in range(i - 1))  # not Hessenberg
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in mat]
    vectors, poly = characters._krylov_mod(rows, [1, 0, 0, 0], p)
    # (x - 2)^2 (x - 5) x
    assert poly == [0, (-20) % p, 24 % p, (-9) % p, 1]
    assert characters._roots_mod(poly, p) == [0, 2, 5]
    with pytest.raises(InvariantError, match="splitting failure"):
        characters._projections(vectors, poly, p)


# -- the idempotent split: class sums built, rows lifted, the trace test -----------


COUNTED = {**GROUPS, "D500": lambda: dihedral(250)}
# (rows lifted, rows): one lift per Galois orbit
LIFTS = {"D48": (10, 15), "C11x5": (3, 7), "Dic7": (5, 10), "D500": (10, 128)}
# the split stops at r idempotents: S5's first class sum, the transpositions,
# separates all 7 characters
CLASS_SUMS = {"S5": 1, "D48": 11, "D500": 28}


def _spied(monkeypatch, *names):
    """The arguments of every call of the named ``characters`` helpers from
    now on, by name."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(characters, name)

        def spy(*args, real=real, name=name):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(characters, name, spy)
    return calls


def _orbit_count(table):
    """The number of orbits of the rows under the table's Galois permutations."""
    perms = table._form[5].values()
    return len({frozenset(perm[i] for perm in perms) for i in range(len(table.chars))})


@pytest.mark.parametrize("name", sorted(set(LIFTS) | set(CLASS_SUMS)))
def test_one_lift_per_galois_orbit_and_only_the_class_sums_used(name, monkeypatch):
    group = from_permutations(COUNTED[name]())
    calls = _spied(monkeypatch, "_lift_row", "_class_sum")
    table = compute_character_table(group)
    lifted = len(calls["_lift_row"])
    assert lifted == _orbit_count(table)
    if name in LIFTS:
        assert (lifted, len(table.chars)) == LIFTS[name]
    if name in CLASS_SUMS:
        assert len(calls["_class_sum"]) == CLASS_SUMS[name]


def _reduced(value, z, p):
    """A value of Q(zeta_e) at its level e, mapped to F_p by zeta_e -> z."""
    return sum(c * pow(z, j, p) for j, c in enumerate(value.num)) * pow(value.den, -1, p) % p


@pytest.mark.parametrize("name", ["GL23", "C11x5", "Dic7", "D48", "S5"])
def test_each_row_is_the_character_of_its_idempotent(name):
    """Row b of the orbit lift, a lifted row or a conjugate read through the
    power map, is the character of idempotent b: its values mod p are
    |G| e_b[class of g_k^-1] / chi(1)."""
    group = from_permutations(GROUPS[name]())
    classes = group.conjugacy_classes()
    n, e = group.order, group.exponent
    p = characters._dixon_prime(n, e)
    idempotents = characters._central_idempotents(group, classes, p)
    rows = characters._orbit_rows(group, idempotents, p)
    z = characters._root_of_unity(p, e)
    inv_class = [group.class_index(group.inv(c.representative)) for c in classes]
    for idem, char in zip(idempotents, rows):
        assert char.degree ** 2 % p == n * idem[0] % p
        scale = n * pow(char.degree, -1, p) % p
        assert [_reduced(v, z, p) for v in char.values] == [scale * idem[k] % p for k in inv_class]


def test_trace_test_skips_primitive_idempotents_only_when_r_at_most_p(monkeypatch):
    """On D48 (r = 15 <= p = 73) the trace test marks each central primitive
    idempotent as it appears, so no Krylov walk starts from one, although
    without the test some would.  On C2^4 (r = 16 > p = 11) the traces are
    never read."""
    group = from_permutations(GROUPS["D48"]())
    classes = group.conjugacy_classes()
    p = characters._dixon_prime(group.order, group.exponent)
    assert len(classes) <= p
    primitive = {tuple(e) for e in characters._central_idempotents(group, classes, p)}

    calls = _spied(monkeypatch, "_krylov_mod", "_class_sum_traces")
    table = compute_character_table(group)
    assert len(calls["_class_sum_traces"]) == 1
    assert not primitive & {tuple(args[1]) for args in calls["_krylov_mod"]}

    untested = _spied(monkeypatch, "_krylov_mod")
    monkeypatch.setattr(characters, "_class_sum_traces", lambda group, classes: [0] * len(classes))
    assert compute_character_table(group).chars == table.chars
    assert primitive & {tuple(args[1]) for args in untested["_krylov_mod"]}

    group = from_permutations(GROUPS["C2_4"]())
    assert len(group.conjugacy_classes()) > characters._dixon_prime(group.order, group.exponent)
    calls = _spied(monkeypatch, "_class_sum_traces")
    compute_character_table(group)
    assert calls["_class_sum_traces"] == []


# -- the split-prime proof against the reference ----------------------------------


class _Unchecked(CharacterTable):
    """A table that skips ``validate``, so that the row check can be run alone."""

    def validate(self):
        pass


def _paths(group, chars):
    """Runs the full row check alone on the rows and the reference on the
    whole table; wherever the reference reaches the row relation, asserts
    that the two give the same verdict and message.  Returns the check's
    verdict and whether the rows are closed under (Z/L)^x."""
    table = _Unchecked(group, chars)
    got = _outcome(lambda: characters._check_orthogonality(table) and "accepted")
    ref = _outcome(lambda: ReferenceCharacterTable(group, chars) and "accepted")
    if ref == "accepted" or "orthogonality" in ref[1]:
        assert got == ref
    level, nums, den = characters._integer_form(table)
    closed = characters._galois_permutations(level, *characters._distinct(nums)) is not None
    return got, closed


def _embeddings(monkeypatch):
    """The (primes, units) of every ``_split_prime_images`` call from now on."""
    calls, images = [], characters._split_prime_images

    def recorded(table, level, primes, units, *rest):
        calls.append((primes, units))
        return images(table, level, primes, units, *rest)

    monkeypatch.setattr(characters, "_split_prime_images", recorded)
    return calls


VALID_GROUPS = {**GROUPS, "D240": lambda: dihedral(120)}


@pytest.mark.parametrize("name", VALID_GROUPS)
def test_split_prime_proves_every_computed_table(name, monkeypatch):
    """A computed table is closed under (Z/L)^x, and one embedding of one
    prime proves it."""
    group = from_permutations(VALID_GROUPS[name]())
    table = compute_character_table(group)
    assert _paths(group, table.chars) == ("accepted", True)
    calls = _embeddings(monkeypatch)
    assert CharacterTable(group, table.chars)._form[5] is not None
    assert [(len(primes), units) for primes, units in calls] == [(1, (1,))]


@pytest.mark.parametrize("name", BUNDLED_TABLES)
def test_split_prime_proves_every_bundled_table(name, monkeypatch):
    group, blob = _group_and_table(name)
    assert _paths(group, _load_chars(group, blob)) == ("accepted", True)
    calls = _embeddings(monkeypatch)
    table_from_json(group, blob)
    assert [(len(primes), units) for primes, units in calls] == [(1, (1,))]


def _least_split_prime(level, bound):
    """The least prime = 1 (mod level) above bound, by trial division."""
    return next(p for p in range(bound + 1, 2 * bound + level + 2)
                if p % level == 1 % level and trial_division_is_prime(p))


def test_split_prime_search():
    """B = |G| (max ||N||_1^2 + D^2); below 2^64 the split primes are one
    prime, the least p = 1 (mod L) above B, and w has order exactly L mod p."""
    assert characters._row_relation_bound(6, [(1, -2, 0), (3, 0, 0)], 2) == 6 * (3 * 3 + 2 * 2)
    assert characters._split_primes(250, 13000) == [13001]
    for level, bound in ((1, 1), (2, 10), (24, 816), (60, 6000), (250, 13000), (840, 10 ** 12)):
        [p] = characters._split_primes(level, bound)
        assert p == _least_split_prime(level, bound)
        w = characters._root_of_unity(p, level)
        assert [m for m in range(1, level + 1) if pow(w, m, p) == 1] == [level]


def test_dixon_prime_matches_reference():
    """The Dixon prime, found by the split-prime search, is the prime the
    reference finds by stepping one at a time."""
    for n in range(1, 3000, 7):
        for e in (1, 2, 3, 4, 6, 8, 12, 24, 30, 60, 97, 120, 250, 420, 500):
            assert characters._dixon_prime(n, e) == reference_dixon_prime(n, e), (n, e)


def test_split_primes_multiply_past_the_bound():
    """From 2^64 on, the split primes are the least primes = 1 (mod L)
    above 2^64, as few as make their product exceed B; just below 2^64 they
    are the one least prime above B.  Each is prime by the exact test."""
    floor = characters.SPLIT_PRIME_FLOOR
    assert floor == 2 ** 64
    for level in (1, 8, 60, 250):
        assert characters._split_primes(level, floor - 1) == \
            characters._split_primes(level, floor)[:1]
        for bound in (floor - 1, floor, characters.PRIME_TEST_BOUND, 10 ** 30, 10 ** 60):
            primes = characters._split_primes(level, bound)
            assert all(p % level == 1 % level and characters._is_prime(p) for p in primes)
            assert prod(primes) > bound >= prod(primes[:-1])
            start = min(bound, floor) + 1
            candidates = [q for q in range(start, primes[-1] + 1) if q % level == 1 % level]
            assert [q for q in candidates if characters._is_prime(q)] == primes


def test_rows_not_closed_are_checked_at_every_unit(monkeypatch):
    """The closure argument needs the rows closed under (Z/L)^x: C2 with
    rows (1, z8), (1, -z8) is not, so it is checked at every unit of Z/8,
    once, and accepted."""
    calls = _embeddings(monkeypatch)
    z8, one = root_of_unity(8), CycValue.one(8)
    table = CharacterTable(from_permutations([[1, 0]]),
                           [Character((one, z8), 1), Character((one, -z8), 1)])
    assert table._form[5] is None
    assert [units for _, units in calls] == [(1, 3, 5, 7)]


def test_rows_not_closed_and_invalid_fail_like_the_reference():
    """C2 with rows (1, z8), (1, 1 - z8) is neither closed nor orthogonal:
    it gets the reference's message."""
    group = from_permutations([[1, 0]])
    z8, one = root_of_unity(8), CycValue.one(8)
    chars = [Character((one, z8), 1), Character((one, one - z8), 1)]
    with pytest.raises(ValidationError) as ref:
        ReferenceCharacterTable(group, chars)
    assert "row orthogonality fails" in str(ref.value)
    assert _paths(group, chars) == (("ValidationError", str(ref.value)), False)


def test_split_prime_check_reads_both_orders_of_a_pair():
    """a_ji = conj a_ij, but mod p that puts a_ji in conj P, not in P.  On
    C3 the rows (1, 1, 1) and (1, 1, -z3) have norms 3 and a_01 = 3 + z3, of
    norm 7 = p: a_01 lies in P and a_10 does not.  A check of the pairs
    i <= j only at zeta_3 -> w would accept the rows in one of the two
    orders; the check of every ordered pair refuses both, and the full
    check gives the reference's message."""
    group = from_permutations([[1, 2, 0]])
    one, z3 = CycValue.one(3), root_of_unity(3)
    rows = [Character((one, one, one), 1), Character((one, one, -z3), 1)]
    upper = []
    for chars in (rows, rows[::-1]):
        table = _Unchecked(group, chars)
        level, nums, den = characters._integer_form(table)
        distinct, index = characters._distinct(nums)
        bound = characters._row_relation_bound(group.order, distinct, den)
        assert characters._split_primes(level, bound) == [7]
        [image] = characters._split_prime_images(table, level, [7], (1,), distinct, index, den)
        upper.append(characters._vanishes(*image, [(0, 0), (0, 1), (1, 1)]))
        assert not characters._vanishes(*image, [(i, j) for i in (0, 1) for j in (0, 1)])
        assert _paths(group, chars)[0][0] == "ValidationError"
    assert sorted(upper) == [False, True]


def test_entries_beyond_the_word_size_fail_like_the_reference(tmp_path, capsys):
    """An entry of 10^15 puts B above 2^64, so several split primes prove
    the relation: S3 with such an entry gets the reference's message, and
    ``chartable --table`` exits 2 with it."""
    group = from_permutations(GROUPS["S3"]())
    blob = table_to_json(compute_character_table(group))
    blob["chars"][2][1]["coeffs"][0] = str(10 ** 15)
    chars = _load_chars(group, blob)
    table = _Unchecked(group, chars)
    level, nums, den = characters._integer_form(table)
    bound = characters._row_relation_bound(group.order, characters._distinct(nums)[0], den)
    assert bound > characters.SPLIT_PRIME_FLOOR and len(characters._split_primes(level, bound)) > 1
    with pytest.raises(ValidationError) as ref:
        ReferenceCharacterTable(group, chars)
    assert _paths(group, chars)[0] == ("ValidationError", str(ref.value))

    group_path = tmp_path / "group.json"
    group_path.write_text(json.dumps({"permutations": GROUPS["S3"]()}))
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["chartable", "--group", str(group_path), "--table", str(table_path)]) == 2
    err = capsys.readouterr().err
    assert str(ref.value) in err and "Traceback" not in err


def test_entries_beyond_two_split_primes_exit_4_at_once(tmp_path, capsys, monkeypatch):
    """An entry of 10^1000 on the dihedral group of order 240 puts B far
    above 2^128, where more than two split primes would be needed: the row
    check refuses it, naming B's bit length, before any prime is sought,
    and ``chartable --table`` exits 4 with that message."""
    perms = dihedral(120)
    group = from_permutations(perms)
    blob = table_to_json(compute_character_table(group))
    blob["chars"][2][1]["coeffs"][0] = str(10 ** 1000)
    table = _Unchecked(group, _load_chars(group, blob))
    with monkeypatch.context() as patch:
        patch.setattr(characters, "_split_primes", None)  # seeking a prime would raise TypeError
        start = perf_counter()
        message = r"B has 66\d\d bits, and two split primes cover only B < 2\^128$"
        with pytest.raises(BoundExceededError, match=message):
            characters._check_orthogonality(table)
        assert perf_counter() - start < 0.25

    group_path = tmp_path / "group.json"
    group_path.write_text(json.dumps({"permutations": perms}))
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["chartable", "--group", str(group_path), "--table", str(table_path)]) == 4
    err = capsys.readouterr().err
    assert "two split primes cover only B < 2^128" in err and "Traceback" not in err


STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)


def test_primality_is_exact_in_its_range():
    """Miller-Rabin on 13 bases agrees with trial division below 2 10^5,
    rejects the least strong pseudoprimes to the first 1, ..., 12 prime
    bases, and refuses to decide at or above psi_13."""
    assert [characters._is_prime(n) for n in range(200_000)] == \
        [trial_division_is_prime(n) for n in range(200_000)]
    assert not any(characters._is_prime(n) for n in STRONG_PSEUDOPRIMES)
    assert characters._is_prime(characters.PRIME_TEST_BOUND - 2) in (True, False)
    for n in (characters.PRIME_TEST_BOUND, characters.PRIME_TEST_BOUND + 2, 10 ** 30):
        with pytest.raises(BoundExceededError, match="exact primality test"):
            characters._is_prime(n)


# -- the packed validation against the reference, on damaged tables -----------------


def _load_chars(group, blob):
    """The rows of a table document, read as ``table_from_json`` reads them."""
    chars = []
    for row in blob["chars"]:
        values = tuple(cyc_from_json(v).to_level(blob["level"]) for v in row)
        chars.append(Character(values, int(values[0].as_rational())))
    return chars


def _damaged(blob, how):
    blob = json.loads(json.dumps(blob))
    rows = blob["chars"]
    if how == "perturbed":
        rows[3][2]["coeffs"][0] = str(int(rows[3][2]["coeffs"][0]) + 1)
    elif how == "swapped":
        # two classes of different sizes, so both relations can see it
        sizes = [c["size"] for c in blob["classes"]]
        a = next(i for i in range(1, len(sizes)) if sizes[i] != sizes[1])
        for row in rows:
            row[1], row[a] = row[a], row[1]
    else:
        rows[4][3]["coeffs"][0] = str(Fraction(rows[4][3]["coeffs"][0]) + Fraction(1, 2))
    return blob


@pytest.mark.parametrize("name", ["GL23", "D48", "C11x5"])
@pytest.mark.parametrize("how", ["perturbed", "swapped", "fractional"])
def test_damaged_table_fails_like_the_reference(name, how, tmp_path):
    group = from_permutations(GROUPS[name]())
    blob = _damaged(table_to_json(compute_character_table(group)), how)
    chars = _load_chars(group, blob)
    with pytest.raises(ValidationError) as ref:
        ReferenceCharacterTable(group, chars)
    with pytest.raises(ValidationError) as got:
        table_from_json(group, blob)
    assert str(got.value) == str(ref.value)
    assert _paths(group, chars)[0] == ("ValidationError", str(ref.value))
    assert "orthogonality fails for" in str(got.value)

    group_path = tmp_path / "group.json"
    group_path.write_text(json.dumps({"permutations": GROUPS[name]()}))
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(blob))
    assert main(["chartable", "--group", str(group_path), "--table", str(table_path)]) == 2


# -- a seeded campaign of damaged tables: the row relation alone decides ------------


CAMPAIGN = {"S4": 100, "D10": 95, "GL23": 60, "C11x5": 25, "D48": 20}
CAMPAIGN_GROUPS = {"D10": lambda: dihedral(5), **GROUPS}


def _damage(table, rng):
    """One kind of damage to a copy of the table's rows: a root of unity
    added to one entry, two non-identity columns swapped, one entry swapped
    between rows, a Galois twist of one row, or one entry negated."""
    rows = [list(c.values) for c in table.chars]
    r, e = len(rows), table.level
    how = rng.randrange(5)
    i, j, k = rng.randrange(r), rng.randrange(r), rng.randrange(r)
    if how == 0:
        rows[i][k] = rows[i][k] + root_of_unity(e, rng.randrange(e))
    elif how == 1:
        a, b = rng.sample(range(1, r), 2)
        for row in rows:
            row[a], row[b] = row[b], row[a]
    elif how == 2:
        rows[i][k], rows[j][k] = rows[j][k], rows[i][k]
    elif how == 3:
        u = rng.choice(unit_group(e))
        rows[i] = [v.galois(u) for v in rows[i]]
    else:
        rows[i][k] = -rows[i][k]
    return how, [Character(tuple(row), c.degree) for row, c in zip(rows, table.chars)]


def _outcome(build):
    try:
        return build()
    except (InvariantError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", CAMPAIGN)
def test_damaged_table_campaign_matches_the_reference(name):
    """The library checks the row relation only; the reference checks both
    relations.  Each damaged table gets the same verdict and message, and
    an accepted one the same Galois orbits (or the same error).  The row
    check alone agrees with the reference on each, and the one embedding of
    a closed table rejects some."""
    table = compute_character_table(from_permutations(CAMPAIGN_GROUPS[name]()))
    rng = random.Random(f"campaign/{name}")
    verdicts, kinds = set(), set()
    for _ in range(CAMPAIGN[name]):
        how, chars = _damage(table, rng)
        got = _outcome(lambda: CharacterTable(table.group, chars))
        ref = _outcome(lambda: ReferenceCharacterTable(table.group, chars))
        accepted = isinstance(got, CharacterTable)
        verdicts.add(accepted)
        paths, closed = _paths(table.group, chars)
        kinds.add((closed, paths == "accepted"))
        if accepted or "orthogonality" in got[1]:  # not refused before the relation
            assert paths == ("accepted" if accepted else got)
        if accepted:
            assert isinstance(ref, CharacterTable)
            assert _outcome(lambda: galois_orbits(got)) == \
                _outcome(lambda: reference_galois_orbits(ref))
        else:
            assert got == ref, how
    assert verdicts == {True, False}
    assert (True, False) in kinds


# -- the class-count bound -------------------------------------------------------------


def test_class_count_bound(monkeypatch, capsys):
    group = from_permutations(symmetric(4))
    monkeypatch.setattr(characters, "CLASS_COUNT_BOUND", 4)
    with pytest.raises(BoundExceededError, match="5 conjugacy classes exceed the class-count bound 4"):
        compute_character_table(group)
    assert main(["chartable", "--group", "bundled:group_s4.json"]) == 4
    assert "class-count bound 4" in capsys.readouterr().err
    monkeypatch.setattr(characters, "CLASS_COUNT_BOUND", 5)
    assert len(compute_character_table(group).chars) == 5
