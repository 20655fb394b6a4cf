"""Reference permutation ingestion: the Cayley table from |G|^2 compositions.

This is ``groups.from_permutations`` as it was before its table was built
from the numbering of the breadth-first walk it shares with presentation
input: a BFS over the elements as tuples, then every product composed as a
tuple and looked up.  It is slow and simple, so ``test_lattice_oracle.py``
uses it as an oracle.
"""

from isotypic.errors import BoundExceededError, ValidationError
from isotypic.groups import DEFAULT_ENUMERATION_BOUND, FiniteGroup


def from_permutations(perms, bound=DEFAULT_ENUMERATION_BOUND):
    """Group generated by permutations on 0..n-1 (right-to-left words)."""
    perms = [list(p) for p in perms]
    if not perms:
        return FiniteGroup([[0]], labels=[()], generators=())
    npts = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(npts)):
            raise ValidationError("input is not a bijection on {0..n-1}")

    def compose(p, q):  # word pq acts as "p then q"
        return tuple(q[p[i]] for i in range(npts))

    identity = tuple(range(npts))
    gens = [tuple(p) for p in perms]
    order = [identity]
    index = {identity: 0}
    words = {identity: ()}
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        for gi, g in enumerate(gens):
            nxt = compose(cur, g)
            if nxt not in index:
                if len(order) >= bound:
                    raise BoundExceededError("group too large or infinite")
                index[nxt] = len(order)
                order.append(nxt)
                words[nxt] = words[cur] + (gi,)

    mul = [[index[compose(a, b)] for b in order] for a in order]
    labels = [words[p] for p in order]
    generators = [index[g] for g in gens]
    return FiniteGroup(mul, labels=labels, generators=generators)
