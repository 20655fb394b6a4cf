"""Exact character tables and rational irreducibles.

The table is computed by the modular method of Dixon (Numer. Math. 10,
1967) as revised by Schneider (J. Symbolic Comput. 9, 1990), on the centre
Z of F_pG for a prime p = 1 (mod e) with p > 2*sqrt(|G|).  An element of Z
is written in class-sum coordinates, and the class sum K_i acts on it by
the structure constants.  p does not divide |G| and F_p holds the e-th
roots of unity, so Z is split semisimple: Z = sum_chi F_p e_chi, and K_i
acts on e_chi as the scalar omega_chi(K_i) = |C_i| chi(g_i) / chi(1).

- The split.  The identity, (1, 0, ..., 0), is split into the central
  primitive idempotents e_chi by the class sums in class order.  For an
  idempotent E not yet known to be primitive, the Krylov vectors E, K_i E,
  K_i^2 E, ... are eliminated over F_p with unit-vector tails until the
  first dependence, whose tail is the minimal polynomial m of K_i on Z E
  (Z is commutative).  E is a sum of some e_chi, so m is the product of
  t - omega over their distinct values omega = omega_chi(K_i): its roots,
  found by Horner evaluation at the p points of F_p, are distinct, and for
  each root mu, P_mu E = q_mu(K_i) E / q_mu(mu) with q_mu = m / (t - mu) is
  exactly the sum of the e_chi in E with omega_chi(K_i) = mu.  The P_mu E
  are combinations of the Krylov vectors already found.  The split stops at
  r idempotents, and only the class sums it reaches are built.
- The trace test.  The trace of x -> E x on Z is dim Z E mod p, and it is
  sum_i E_i tr(K_i), with tr(K_i) = sum_k #{u in C_i : u^-1 w_k in C_k} read
  in one pass over G.  When r <= p a value of 1 proves E primitive, as
  1 <= dim Z E <= r, and E is split no further.  When r > p (C2^4 has r = 16
  and p = 11) a dimension p + 1 would pass too, and the test is not made.
- The row.  e_chi = (chi(1) / |G|) sum_g chi(g^-1) g, so e_chi[k] =
  chi(1) chi(g_k^-1) / |G|: chi(1)^2 = |G| e_chi[0], and chi(1) < p / 2 is
  its square root; then chi(g_k) = |G| e_chi[class of g_k^-1] / chi(1).
- The Galois orbits.  For a unit u of Z/e, chi^sigma_u(g) = chi(g^u), so
  e_(chi^sigma_u) is e_chi read through the power map k -> class(g_k^u),
  and distinct characters have distinct idempotents.  One row per orbit is
  lifted; each conjugate is found by its idempotent, and its exact values
  are the lifted row read through the same map.

Character values are lifted to Q(zeta_e) by discrete Fourier inversion on
the power map, once per rational class: the multiplicity m_i of zeta_o^i as
an eigenvalue of g, o = o(g), is found mod p, and chi(g^k) = sum_i m_i
zeta_o^(ik) for gcd(k, o) = 1.  sigma_k is the index map i -> ik on the
powers of zeta_o, applied before the reduction mod Phi_e, so each value is
one integer map of the m_i.

Row orthogonality is proved exactly on every computed or loaded table;
column orthogonality is its corollary.  The values are lifted once, to
L = lcm(e, the values' levels) over one common denominator D: N[i][k] is
the numerator tuple of row i at class k, so D chi_i(g_k) lies in Z[zeta_L],
and so does a_ij = D^2 (sum_k |C_k| chi_i(g_k) conj chi_j(g_k) - |G| delta_ij).

- The bound.  |zeta| = 1 in every complex embedding, so each embedding of
  D chi_i(g_k) is at most ||N[i][k]||_1, the L1 norm of the tuple, and each
  embedding of a_ij is at most B = |G| (max ||N||_1^2 + D^2).  This holds for
  any table, damaged or not.
- The primes.  p_1 < p_2 < ... are the least primes = 1 (mod L) above
  min(B, 2^64), as many as make their product exceed B: one prime p > B
  when B < 2^64, and two primes of about 64 bits when B < 2^128.  A larger
  B raises BoundExceededError before any prime is sought.  For each p,
  w = a^((p-1)/L) mod p for the least a whose w has w^(L/q) != 1 for each
  prime q | L: a primitive L-th root of unity mod p, found without
  factoring p - 1.  Primality is decided exactly by Miller-Rabin on the
  first 13 prime bases below psi_13 ~ 3.3e24 (Sorenson and Webster, Math.
  Comp. 86, 2017); a candidate at or above psi_13 is refused.
- The check.  For a unit u of Z/L, zeta_L -> w^u is a ring map onto F_p
  whose kernel is a prime P_u above p, and zeta_L -> w^-u sends conj x to
  the image of x; so sum_k |C_k| ev_i(k) ev'_j(k) = |G| D^2 delta_ij
  (mod p), with ev at w^u and ev' at w^-u, says a_ij is in P_u, for every
  ordered pair (i, j).  With u = 1 alone the pairs j < i are not implied by
  the others: a_ji = conj a_ij lies in conj P_1 = P_-1, which is another
  prime when L > 2.
- The argument.  p = 1 (mod L) splits completely in Z[zeta_L]: the P_u
  are all the primes above p, and they are unramified, so an element of
  every P_u lies in pZ[zeta_L].  Rows closed under (Z/L)^x are checked at
  u = 1 only: each sigma_u sends row i to some row pi_u(i), so
  sigma_u(a_ij) = a_(pi_u(i), pi_u(j)) lies in P_1, and a_ij lies in
  sigma_u^-1(P_1) = P_u.  Any other rows are checked at every unit u.
  Either way every a_ij lies in pZ[zeta_L] for each of the primes, hence
  in (prod p) Z[zeta_L], and a nonzero element of that ideal has an
  embedding of absolute value at least prod p > B: so every a_ij is 0.
- The message.  A table that fails is evaluated at every unit of every
  prime, where a_ij is 0 exactly when it vanishes at all of them, and the
  first pair i <= j with a nonzero a_ij is named with its exact inner
  product (``inner_product``).

One integer form and its readers.  The table keeps (L, N, D, the packed
rows, the slot width b, the Galois permutations).  Every other reader takes
the values from it:

- dim V^H = (1/|H|) sum_k c_k chi(g_k), once per subgroup class: with
  c_k = |H meet C_k| counted once, row i's sum is one integer
  t = sum_k c_k P_ik over the packed rows.  The slot width admits
  |G| max|x| >= |H| max|x|, so each slot of t is below 2^(b-1) in absolute
  value: the sum is rational exactly when |t| < 2^(b-1), as every higher
  slot is then zero, and t / (|H| D) must then be a non-negative integer.
- Galois orbits read the permutations of the rows by the units of Z/L,
  which the check builds from the images of the distinct values under a
  few generators, found again by their numerators over the shared D.  The
  values lie in Q(zeta_e) exactly when each unit that is 1 mod e fixes
  every row; each orbit and each member's stabilizer follow by integer
  composition.
- Rational traces have a closed form.  Tr(zeta_L^j) = phi(L) w_j / T with
  the weights w and denominator T of the level (``cyclotomic._Level``), and
  a row of an orbit lies in its field K (``galois_orbits``), so
  Tr_{K/Q} chi_i(g_k) = [K:Q] sum_j N[i][k]_j w_j / (T D).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul

from .cyclotomic import (
    CycValue, _combine, _cyc, _level, _pack, unit_group,
)
from .errors import BoundExceededError, InvariantError, ValidationError
from .groups import FiniteGroup

Rat = Fraction

CLASS_COUNT_BOUND = 500
"""Most conjugacy classes a character table is computed for: the Krylov
eliminations of the split and the validation grow as the cube of the class
count."""


class Character(namedtuple("Character", "values degree")):
    """An irreducible character: its CycValue per conjugacy class, and its degree."""

    __slots__ = ()

    def sort_key(self):
        return (self.degree, tuple(v.sort_key() for v in self.values))


class CharacterTable:
    def __init__(self, group: FiniteGroup, chars):
        self.group = group
        self.level = group.exponent
        self.classes = group.conjugacy_classes()
        self.chars = tuple(chars)
        self._fixed_dims = {}  # sorted members -> fixed_dims
        self.validate()

    @cached_property
    def _form(self):  # validate sets it; a subclass may validate otherwise
        return _check_orthogonality(self)

    @property
    def class_sizes(self):
        return tuple(len(c.members) for c in self.classes)

    def value(self, char_index: int, g: int) -> CycValue:
        return self.chars[char_index].values[self.group.class_index(g)]

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
        self._form = _check_orthogonality(self)

    def __repr__(self):
        return f"CharacterTable({self.group!r}, {len(self.chars)} irreducibles)"


def _check_orthogonality(table: CharacterTable):
    """Row orthogonality, proved exactly; returns the table's integer form.

    With X the value matrix, S = diag(|C_k|) and sigma: zeta -> zeta^-1,
    entry (j, i) of X S sigma(X)^T is sigma of entry (i, j), so the exact
    equalities at the pairs i <= j prove X S sigma(X)^T = |G| I.  X is square
    (``validate``), so sigma(X)^T X S = |G| I: column orthogonality
    (Isaacs, ch. 2).

    The relation is checked at every ordered pair mod the split primes, at
    zeta_L -> w for rows closed under (Z/L)^x and at zeta_L -> w^u for every
    unit u otherwise (``_split_prime_images``).  A table that fails is
    evaluated at every unit, and the message names the first pair i <= j
    whose a_ij is nonzero at one of them, with its exact inner product.
    Values repeat across a table, so each distinct numerator tuple is
    evaluated and packed once.  Returns (L, N, D, the packed rows, the slot
    width, the Galois permutations); see the module docstring.
    """
    level, nums, den = _integer_form(table)
    distinct, index = _distinct(nums)
    bound = _row_relation_bound(table.group.order, distinct, den)
    limit = SPLIT_PRIME_FLOOR ** 2  # two split primes exceed every B below it
    if bound >= limit:
        raise BoundExceededError(
            f"row orthogonality bound exceeded: B has {bound.bit_length()} bits, and two "
            f"split primes cover only B < 2^{limit.bit_length() - 1}")
    perms = _galois_permutations(level, distinct, index)
    primes = _split_primes(level, bound)
    units = unit_group(level)
    pairs = [(i, j) for i in range(len(index)) for j in range(len(index))]
    images = _split_prime_images(table, level, primes, (1,) if perms is not None else units,
                                 distinct, index, den)
    if not all(_vanishes(*image, pairs) for image in images):
        images = list(_split_prime_images(table, level, primes, units, distinct, index, den))
        i, j = next((i, j) for i, j in pairs
                    if i <= j and not all(_vanishes(*image, [(i, j)]) for image in images))
        got = inner_product(table, table.chars[i].values, table.chars[j].values).to_level(level)
        raise ValidationError(f"row orthogonality fails for rows ({i},{j}): <.,.> = {got!r}")
    # fixed_dims needs only 2^(bits-1) > |G| max|x|
    bits = (table.group.order * max(max(map(abs, v)) for v in distinct)).bit_length() + 1
    packed = [_pack(v, bits) for v in distinct]
    packed = [[packed[j] for j in row] for row in index]
    return level, nums, den, packed, bits, perms


def _integer_form(table: CharacterTable):
    """(L, N, D): L = lcm(e, the values' levels), D the common denominator
    of the values at L, and N[i][k] the numerator tuple of row i at class k."""
    level = lcm(table.level, *(v.level for c in table.chars for v in c.values))
    values = [[v.to_level(level) for v in c.values] for c in table.chars]
    den = lcm(*(v.den for row in values for v in row))
    nums = [[v.num if v.den == den else tuple([x * (den // v.den) for x in v.num])
             for v in row] for row in values]
    return level, nums, den


def _distinct(nums):
    """(values, index): the distinct numerator tuples of N in order of first
    appearance, and index[i][k] the position of N[i][k] among them."""
    position = {}
    index = [[position.setdefault(v, len(position)) for v in row] for row in nums]
    return list(position), index


def _row_relation_bound(order: int, values, den: int) -> int:
    """B = |G| (max ||N||_1^2 + D^2) over the numerator tuples N of the
    values: every complex embedding of every D^2 |G| (<chi_i, chi_j> -
    delta_ij) is at most B in absolute value."""
    l1 = max(sum(map(abs, v)) for v in values)
    return order * (l1 * l1 + den * den)


SPLIT_PRIME_FLOOR = 1 << 64
"""Split primes are sought above min(B, SPLIT_PRIME_FLOOR): a larger bound
takes several primes of about this size, not one prime above it, so each
stays far below PRIME_TEST_BOUND.  The row check refuses B at or above
SPLIT_PRIME_FLOOR ** 2, which would take more than two."""


def _split_primes(level: int, bound: int):
    """The least primes p = 1 (mod level) above min(bound, SPLIT_PRIME_FLOOR),
    as many as make their product exceed bound: one prime p > bound when
    bound < SPLIT_PRIME_FLOOR."""
    p = min(bound, SPLIT_PRIME_FLOOR)
    p += 1 + -p % level
    primes, product = [], 1
    while product <= bound:
        if _is_prime(p):
            primes.append(p)
            product *= p
        p += level
    return primes


def _split_prime_images(table: CharacterTable, level: int, primes, units, values, index,
                        den: int):
    """(p, |G| D^2 mod p, ev, weighted) for each split prime p and each unit
    u, in that order: with w the primitive level-th root of unity mod p of
    ``_root_of_unity``, ev[i][k] is the image of N[i][k] under zeta_L -> w^u,
    and weighted[j][k] is |C_k| times the image of conj N[j][k], which
    zeta_L -> w^-u gives.  values are the distinct numerator tuples, and
    index[i][k] is the position of N[i][k] among them; each is evaluated
    once per embedding."""
    n, sizes = table.group.order, table.class_sizes
    for p in primes:
        w = _root_of_unity(p, level)
        for u in units:
            up = [pow(w, u * m, p) for m in range(len(values[0]))]
            down = [pow(w, -u * m, p) for m in range(len(up))]
            at_w = [sum(map(mul, v, up)) % p for v in values]
            at_w_inv = [sum(map(mul, v, down)) % p for v in values]
            ev = [[at_w[j] for j in row] for row in index]
            weighted = [[size * at_w_inv[j] % p for size, j in zip(sizes, row)]
                        for row in index]
            yield p, n * den * den % p, ev, weighted


def _vanishes(p: int, norm: int, ev, weighted, pairs) -> bool:
    """True when sum_k |C_k| ev_i(k) ev'_j(k) = |G| D^2 delta_ij (mod p) at
    each pair (i, j): each a_ij lies in the kernel of the embedding."""
    return all(sum(map(mul, ev[i], weighted[j])) % p == (norm if i == j else 0)
               for i, j in pairs)


def inner_product(table: CharacterTable, a, b) -> CycValue:
    """(1/|G|) sum_g a(g) conj(b(g)) for class functions given per class."""
    total = CycValue.zero(table.level)
    for size, x, y in zip(table.class_sizes, a, b):
        total = total + x * y.conjugate() * size
    return total * Rat(1, table.group.order)


def fixed_dims(table: CharacterTable, members):
    """dim V_i^H for every row i, H a subset of G, from the packed rows (see
    the module docstring); kept on the table under H's sorted members.  A
    row that fails a check holds its error message instead."""
    key = tuple(sorted(members))
    dims = table._fixed_dims.get(key)
    if dims is None:
        den, packed, bits = table._form[2:5]
        classes, counts = zip(*Counter(map(table.group.class_index, key)).items())
        half, scale = 1 << (bits - 1), len(key) * den
        dims = []
        for row in packed:
            t = sum(map(mul, counts, map(row.__getitem__, classes)))
            if not -half < t < half:
                dims.append("invalid character/subgroup data: fixed dimension not rational")
            elif t < 0 or t % scale:
                dims.append(f"invalid character/subgroup data: fixed dimension "
                            f"{Rat(t, scale)} not a non-negative integer")
            else:
                dims.append(t // scale)
        dims = table._fixed_dims[key] = tuple(dims)
    return dims


def _checked(dim) -> int:
    if isinstance(dim, str):  # the error message a row of fixed_dims holds
        raise InvariantError(dim)
    return dim


def fixed_dim(table: CharacterTable, char: Character, members) -> int:
    """dim of the subspace of the representation fixed by the subgroup H,
    read from fixed_dims at the row of char."""
    return _checked(fixed_dims(table, members)[table.chars.index(char)])


# ---------------------------------------------------------------------------
# Dixon-Burnside computation
# ---------------------------------------------------------------------------


PRIME_TEST_BOUND = 3317044064679887385961981
"""psi_13, the least odd composite that is a strong probable prime to each of
the first 13 prime bases (Sorenson and Webster, Math. Comp. 86, 2017):
below it ``_is_prime`` is exact."""

_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases, exact below PRIME_TEST_BOUND;
    a larger n is refused, not decided."""
    if n >= PRIME_TEST_BOUND:
        raise BoundExceededError(
            f"{n} is beyond the bound {PRIME_TEST_BOUND} of the exact primality test")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _dixon_prime(order: int, exponent: int) -> int:
    return _split_primes(exponent, max(2 * isqrt(order), 2))[0]


def _prime_factors(m: int):
    """The distinct prime factors of m >= 1, by trial division."""
    fac, d = [], 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    return fac


def _root_of_unity(p: int, n: int) -> int:
    """A primitive n-th root of unity mod the prime p = 1 (mod n):
    w = a^((p-1)/n) for the least a >= 1 with w^(n/q) != 1 for each prime
    q | n, found without factoring p - 1."""
    qs = _prime_factors(n)
    for a in range(1, p):
        w = pow(a, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in qs):
            return w
    raise InvariantError("no primitive root of unity found")  # pragma: no cover


def _roots_mod(poly, p):
    """The roots in F_p of a polynomial (constant term first), in increasing
    order, by Horner evaluation at every point."""
    coeffs = poly[::-1]
    roots = []
    for lam in range(p):
        acc = 0
        for c in coeffs:
            acc = acc * lam + c
        if acc % p == 0:
            roots.append(lam)
    return roots


def _class_sum(group: FiniteGroup, members, reps):
    """Multiplication by the class sum K of members on Z(F_pG), in class-sum
    coordinates, as sparse rows: rows[k] lists the (j, c) with
    c = #{u in K : u^-1 w_k in C_j} > 0, w_k = reps[k]."""
    class_of, mul_table, inv = group._class_of, group._mul, group._inv
    inv_rows = [mul_table[inv[u]] for u in members]
    return [list(Counter([class_of[x[wk]] for x in inv_rows]).items()) for wk in reps]


def _class_sum_traces(group: FiniteGroup, classes):
    """tr(K_j) on Z(F_pG) for every class j: sum_k #{u in C_j : u^-1 w_k in
    C_k}, which is #{v in C_k : w_k v^-1 in C_j} summed over k, one pass
    over G."""
    class_of, mul_table, inv = group._class_of, group._mul, group._inv
    traces = [0] * len(classes)
    for cls in classes:
        row = mul_table[cls.representative]
        for v in cls.members:
            traces[class_of[row[inv[v]]]] += 1
    return traces


def _krylov_mod(rows, start, p):
    """(vectors, poly): vectors[k] = M^k start for k < d, with M given by
    its sparse rows, and poly the minimal polynomial of M on start, monic of
    degree d, constant term first.

    Each new vector, with the unit vector of its place as its tail, is
    reduced against the pivot-normalized vectors before it (Cohen, GTM 138,
    2.3), and the first that vanishes ends the walk: its tail is 1 at its
    own place, so it is the monic relation sum_k poly[k] M^k start = 0.
    """
    vectors, echelon = [], []
    vec = start
    while True:
        head, tail = vec, [0] * len(vectors) + [1]
        for piv, row, row_tail in echelon:
            c = head[piv]
            if c:
                head = [(a - c * b) % p for a, b in zip(head, row)]
                tail[:len(row_tail)] = [(a - c * b) % p for a, b in zip(tail, row_tail)]
        piv = next((j for j, x in enumerate(head) if x), None)
        if piv is None:
            return vectors, tail
        inv = pow(head[piv], p - 2, p)
        echelon.append((piv, [x * inv % p for x in head], [x * inv % p for x in tail]))
        vectors.append(vec)
        vec = [sum([c * vec[j] for j, c in row]) % p for row in rows]


def _projections(vectors, poly, p):
    """P_mu start = q_mu(M) start / q_mu(mu) for each root mu of poly, in
    increasing order, with q_mu = poly / (t - mu) and vectors, poly as
    ``_krylov_mod`` returns them.  When poly is a product of distinct
    linear factors over F_p these are the projections of start onto the
    eigenspaces of M, and they sum to start; otherwise the split fails."""
    roots = _roots_mod(poly, p)
    if len(roots) != len(poly) - 1:
        raise InvariantError("splitting failure")
    columns = list(zip(*vectors))
    parts = []
    for mu in roots:
        q, acc = [], 0
        for c in reversed(poly[1:]):  # synthetic division, top term first
            acc = (acc * mu + c) % p
            q.append(acc)
        q.reverse()
        at_mu = 0
        for c in reversed(q):
            at_mu = (at_mu * mu + c) % p
        scale = pow(at_mu, p - 2, p)
        parts.append([sum(map(mul, q, col)) * scale % p for col in columns])
    return parts


def _central_idempotents(group: FiniteGroup, classes, p):
    """The central primitive idempotents e_chi of F_pG in class-sum
    coordinates, split off 1 by the spectral projectors of the class sums
    in class order (see the module docstring).  Only the class sums the
    split reaches are built."""
    r = len(classes)
    reps = [c.representative for c in classes]
    traces = _class_sum_traces(group, classes) if r <= p else None
    done, pending = [], [[1] + [0] * (r - 1)]
    for cls in classes[1:]:
        if len(done) + len(pending) == r:
            break
        rows = _class_sum(group, cls.members, reps)
        split = []
        for idem in pending:
            vectors, poly = _krylov_mod(rows, idem, p)
            if len(poly) == 2:  # K acts on Z idem as a scalar
                split.append(idem)
                continue
            for part in _projections(vectors, poly, p):
                # the trace of x -> part x on Z is dim Z part mod p
                if traces is not None and sum(map(mul, part, traces)) % p == 1:
                    done.append(part)
                else:
                    split.append(part)
        pending = split
    if len(done) + len(pending) != r:
        raise InvariantError("splitting failure")  # pragma: no cover
    return done + pending


def compute_character_table(group: FiniteGroup) -> CharacterTable:
    """Exact irreducible character table, rows sorted by (degree, values)."""
    classes = group.conjugacy_classes()
    r = len(classes)
    if r > CLASS_COUNT_BOUND:
        raise BoundExceededError(
            f"{r} conjugacy classes exceed the class-count bound {CLASS_COUNT_BOUND}"
        )
    p = _dixon_prime(group.order, group.exponent)
    chars = _orbit_rows(group, _central_idempotents(group, classes, p), p)
    return CharacterTable(group, sorted(chars, key=Character.sort_key))


def _orbit_rows(group: FiniteGroup, idempotents, p):
    """The character of each central primitive idempotent mod p, in their
    order: one row per Galois orbit is lifted, and each conjugate is read
    off it through the power map (see the module docstring)."""
    classes = group.conjugacy_classes()
    n, e = group.order, group.exponent
    class_of, mul_table, inv = group._class_of, group._mul, group._inv
    reps = [c.representative for c in classes]
    inv_class = [class_of[inv[rep]] for rep in reps]
    z = _root_of_unity(p, e)  # fixed primitive e-th root of unity mod p
    power_class = []
    for g in reps:
        powers, x = [], 0
        for _ in range(group.elem_orders[g]):
            powers.append(class_of[x])
            x = mul_table[x][g]
        power_class.append(powers)
    lifts, images = _lift_plan(power_class, z, e, p)

    # sigma_u reads a row, and its idempotent, through k -> class(g_k^u)
    maps = dict.fromkeys(tuple([powers[u % len(powers)] for powers in power_class])
                         for u in unit_group(e))
    position = {tuple(idem): a for a, idem in enumerate(idempotents)}
    rows = [None] * len(idempotents)
    for a, idem in enumerate(idempotents):
        if rows[a] is not None:
            continue
        char = _lift_row(idem, n, inv_class, p, lifts, images, e)
        for m in maps:
            b = position.get(tuple([idem[k] for k in m]))
            if b is None:
                raise InvariantError("splitting failure")  # pragma: no cover
            if rows[b] is None:
                rows[b] = Character(tuple([char.values[k] for k in m]), char.degree)
    return rows


def _lift_row(idem, order, inv_class, p, lifts, images, e):
    """The character whose central idempotent mod p is idem, lifted to
    Q(zeta_e): e_chi[k] = chi(1) chi(g_k^-1) / |G|, so chi(1)^2 = |G| e_chi[0]
    and chi(g_k) = |G| e_chi[class of g_k^-1] / chi(1) mod p, and the values
    are lifted by the plan of ``_lift_plan``."""
    deg_sq = order * idem[0] % p
    deg = next((s for s in range(1, p // 2 + 1) if s * s % p == deg_sq), None)
    if deg is None:
        raise InvariantError("splitting failure")  # pragma: no cover
    scale = order * pow(deg, p - 2, p) % p
    vals_mod = [scale * idem[k] % p for k in inv_class]
    # the multiplicity of zeta_o^i as an eigenvalue of g is
    # (1/o) sum_k chi(g^k) zeta_o^(-ik), lifted from F_p
    mults = [
        [sum([vals_mod[cls] * w for cls, w in row]) * inv_o % p for row in weights]
        for inv_o, weights in lifts
    ]
    phi = _level(e).phi
    return Character(tuple(_cyc(e, tuple(_combine(mults[a], fold, phi)), 1)
                           for a, fold in images), deg)


def _lift_plan(power_class, z, e, p):
    """How to lift character values from F_p, one rational class at a time.

    Returns (lifts, images).  A lift (1/o mod p, weights) serves one class
    rep g of order o: weights[i] lists (class, sum of zeta_o^(-ik) over the
    k with g^k in that class), so the multiplicity m_i of zeta_o^i as an
    eigenvalue of g costs one short sum.  images[j] = (lift, fold) gives
    chi(g_j) = sigma_k(chi(g)) = sum_i m_i zeta_o^(ik) for g^k in class j
    and gcd(k, o) = 1: fold[i] is the reduction row of zeta_e^(ik e/o) in
    Q(zeta_e), so the value is one ``_combine`` of the m_i.
    """
    rows = _level(e).rows
    lifts = []
    images = [None] * len(power_class)
    for j, powers in enumerate(power_class):
        if images[j] is not None:
            continue
        o = len(powers)
        step = e // o
        for k in range(o):
            if gcd(k, o) == 1 and images[powers[k]] is None:
                images[powers[k]] = (len(lifts), [rows[i * k % o * step] for i in range(o)])
        zo_inv = pow(z, step * (o - 1), p)
        zp = [pow(zo_inv, m, p) for m in range(o)]
        weights = []
        for i in range(o):
            row = {}
            for k, cls in enumerate(powers):
                row[cls] = (row.get(cls, 0) + zp[i * k % o]) % p
            weights.append([(cls, w) for cls, w in row.items() if w])
        lifts.append((pow(o % p, p - 2, p), weights))
    return lifts, images


# ---------------------------------------------------------------------------
# rational irreducibles: Galois orbits, Schur status, rho decompositions
# ---------------------------------------------------------------------------


class SchurStatus(namedtuple("SchurStatus", "kind m divisor_bound evidence", defaults=("",))):
    """Three-state knowledge about the Schur index of an orbit.

    kind is "exact", "asserted" or "bounded":
    exact:    m is certain (divisor bound 1, or stated by a trusted source).
    asserted: m passed the representation-based validation suite.
    bounded:  only 1 <= m | divisor_bound is known and m is None; the
              divisor bound is used as the working multiplier and results
              carry a conditional flag.
    """

    __slots__ = ()

    @property
    def effective(self) -> int:
        return self.m if self.m is not None else self.divisor_bound

    @property
    def conditional(self) -> bool:
        return self.kind == "bounded"

    def describe(self) -> str:
        if self.kind == "bounded":
            return f"bounded (working value {self.divisor_bound}, divides {self.divisor_bound})"
        return f"{self.kind} m = {self.m}"


class RationalIrrep(namedtuple(
        "RationalIrrep", "char_indices stabilizer degree field_degree schur")):
    """Galois orbit of complex irreducibles with its field and Schur data:
    the rows of the orbit, the units of Z/e fixing their values, their
    common degree n, the field degree [K:Q] = orbit size, and a SchurStatus."""

    __slots__ = ()

    @property
    def multiplier(self) -> int:
        return self.schur.effective

    def rational_dim(self) -> int:
        """dim_Q of the rational irreducible: m * n * [K:Q]."""
        return self.multiplier * self.degree * self.field_degree

    def label(self) -> str:
        inner = " + ".join(f"V{i + 1}" for i in self.char_indices)
        if self.multiplier > 1:
            return f"{self.multiplier}({inner})" if len(self.char_indices) > 1 else f"{self.multiplier}{inner}"
        return f"({inner})" if len(self.char_indices) > 1 else inner


def schur_divisor_bound(table: CharacterTable, char_index: int) -> int:
    """gcd of <rho_H, V> over all subgroup classes: a multiple of the Schur index."""
    g = 0
    for sub in table.group.subgroup_classes():
        g = gcd(g, _checked(fixed_dims(table, sub.members)[char_index]))
        if g == 1:
            return 1
    return g


def _galois_permutations(level: int, values, index):
    """{u: the map of the rows by sigma_u} for every unit u of Z/L; None
    when an image row is not a row.  It permutes rows that are pairwise
    distinct, as the rows of every accepted table are.  values are
    the distinct numerator tuples at level L over the table's denominator,
    and index[i][k] is the position of N[i][k] among them.

    sigma_u is applied, once per distinct value, only for the units u, in
    increasing order, that the earlier ones do not generate; each image is
    found again through its numerators, and each image row through its
    value positions.  Every other unit's permutation is composed from theirs.
    """
    lv = _level(level)
    position = {v: j for j, v in enumerate(values)}
    by_row = {tuple(row): i for i, row in enumerate(index)}
    perms = {1: tuple(range(len(index)))}
    for k in unit_group(level):
        if k in perms:
            continue
        images = lv.galois_map(k)
        image = [position.get(tuple(_combine(v, images, lv.phi))) for v in values]
        if None in image:
            return None
        perm = [by_row.get(tuple([image[j] for j in row])) for row in index]
        if None in perm:
            return None
        reached = list(perms.items())
        for a, perm_a in reached:  # grows: the closure of the group so far and k
            b = a * k % level
            if b not in perms:
                perms[b] = tuple([perm[i] for i in perm_a])
                reached.append((b, perms[b]))
    return perms


def galois_orbits(table: CharacterTable):
    """Partition of the irreducibles into Galois orbits, trivial orbit first.

    The permutations of the rows by the units of Z/L come with the table's
    integer form.  The values lie in Q(zeta_e) exactly when every unit that
    is 1 mod e fixes every row; then sigma_k, k a unit of Z/e, is any unit
    of Z/L that is k mod e.  A member's stabilizer is the set of units whose
    row permutation fixes it: the rows are pairwise distinct (``validate``),
    so sigma_k fixes the member's values exactly when it fixes the row.
    (Z/e)^x is abelian, so an orbit's members share a stabilizer, and its
    size is the field degree; sigma_k fixes chi(1), which ``validate`` ties
    to the degree.
    """
    e = table.level
    level, perms = table._form[0], table._form[5]
    if perms is None:
        raise ValidationError("table is not closed under the Galois action")
    if any(perm != perms[1] for u, perm in perms.items() if u % e == 1 % e):
        raise ValidationError(f"values at level {level} lie outside Q(zeta_{e})")
    units = unit_group(e)
    perm_of = [perms[next(u for u in range(k, k + level, e) if gcd(u, level) == 1)]
               for k in units]
    result = []
    for i in range(len(table.chars)):
        members = tuple(sorted({perm[i] for perm in perm_of}))
        if members[0] != i:  # the orbit is made at its least member
            continue
        g = schur_divisor_bound(table, i)
        if g == 1:
            status = SchurStatus("exact", 1, 1, "multiplicity-one subgroup")
        else:
            status = SchurStatus("bounded", None, g)
        stab = tuple(k for k, perm in zip(units, perm_of) if perm[i] == i)
        result.append(RationalIrrep(members, stab, table.chars[i].degree, len(members), status))

    # <chi, 1> = dim V^G is 1 for a row of norm 1 exactly when chi = 1 (Cauchy-Schwarz)
    whole = fixed_dims(table, range(table.group.order))
    result.sort(key=lambda w: (whole[w.char_indices[0]] != 1, w.char_indices[0]))
    return tuple(result)


def assert_schur(orbit: RationalIrrep, m: int, evidence: str = "user assertion") -> RationalIrrep:
    """Upgrade an orbit's Schur status to an asserted value after sanity checks."""
    if m < 1 or orbit.degree % m != 0:
        raise ValidationError(f"asserted Schur index {m} must divide the degree {orbit.degree}")
    if orbit.schur.divisor_bound % m != 0:
        raise ValidationError(
            f"asserted Schur index {m} does not divide the multiplicity gcd "
            f"{orbit.schur.divisor_bound}"
        )
    kind = "exact" if m == 1 else "asserted"
    return orbit._replace(schur=SchurStatus(kind, m, orbit.schur.divisor_bound, evidence))


def orbit_index(orbits, selector) -> int:
    """Position of the orbit named by a selector of 1-based character indices:
    a single index names the orbit containing it, several must be one orbit."""
    key = (selector,) if isinstance(selector, int) else tuple(selector)
    want = tuple(sorted(i - 1 for i in key))
    for i, o in enumerate(orbits):
        if o.char_indices == want or (len(want) == 1 and want[0] in o.char_indices):
            return i
    raise ValidationError(
        f"no rational irreducible matches selector {'-'.join(map(str, key))}"
    )


def _rational_traces(table: CharacterTable, orbit: RationalIrrep):
    """Tr_{K/Q} chi(g_k) per class k, chi the orbit's first row, in the
    closed form of the module docstring."""
    level, nums, den = table._form[:3]
    lv = _level(level)
    if lv.phi != len(unit_group(table.level)):  # galois_orbits proves K in Q(zeta_e) only
        raise ValidationError(f"values at level {level} may lie outside Q(zeta_{table.level})")
    return [Rat(orbit.field_degree * sum(map(mul, v, lv.trace_weights)), lv.trace_den * den)
            for v in nums[orbit.char_indices[0]]]


def rational_character(table: CharacterTable, orbit: RationalIrrep):
    """Rational-valued class function of the orbit: m * Tr_{K/Q}(chi).

    Returns (values, scaled): when the Schur status is only bounded the trace
    character is returned unscaled and scaled is False.
    """
    traces = _rational_traces(table, orbit)
    if orbit.schur.kind == "bounded":
        return traces, False
    return [orbit.schur.m * t for t in traces], True


class RhoDecomposition(namedtuple(
        "RhoDecomposition", "subgroup_members fixed_dims multiplicities conditional")):
    """Multiplicities of the rational irreducibles in the permutation
    representation induced from the trivial representation of a subgroup:
    fixed_dims holds <rho_H, V_j> per orbit and multiplicities fixed_dims / m."""

    __slots__ = ()


def rho_decomposition(table: CharacterTable, orbits, members) -> RhoDecomposition:
    """Decompose rho_H over the rational irreducibles: a_j = <rho_H, V_j> / m_j."""
    return _rho_from_columns(table, _rho_columns(orbits), tuple(sorted(members)))


def _rho_columns(orbits):
    """(first row, m, rational dimension, conditional) per orbit: all that
    ``rho_decomposition`` reads of the orbits, read once for many subgroups."""
    return tuple((o.char_indices[0], o.multiplier, o.rational_dim(), o.schur.conditional)
                 for o in orbits)


def _rho_from_columns(table: CharacterTable, columns, members) -> RhoDecomposition:
    """``rho_decomposition`` for the sorted members of H, the orbits given
    by their ``_rho_columns``."""
    fixed = fixed_dims(table, members)
    dims, mults, conditional = [], [], False
    for row, m, _, orbit_conditional in columns:
        d = _checked(fixed[row])
        if d % m != 0:
            raise InvariantError(
                f"Schur index inconsistent with the rho decomposition: "
                f"multiplicity {d} not divisible by m = {m}"
            )
        dims.append(d)
        mults.append(d // m)
        conditional = conditional or (d != 0 and orbit_conditional)
    index = table.group.order // len(members)
    total = sum(a * column[2] for a, column in zip(mults, columns))
    if total != index:
        raise InvariantError(f"rho decomposition dimension count {total} != index {index}")
    return RhoDecomposition(members, tuple(dims), tuple(mults), conditional)
