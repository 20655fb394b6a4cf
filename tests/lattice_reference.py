"""Reference subgroup lattice: member tuples and sets, closure from scratch.

This is the subgroup layer the package used before its bitmask rewrite,
copied with ``self`` turned into a ``group`` argument.  It is slow and
simple: every extension re-closes all members as generators and every new
subgroup is conjugated as a sorted tuple by each group element.  It reads
only ``group._mul`` and ``group._inv``, so ``test_lattice_oracle.py`` uses
it as an oracle.
"""


def conjugate(group, g, by):
    """by * g * by^-1."""
    return group._mul[group._mul[by][g]][group._inv[by]]


def closure_of(group, gens):
    seen = {0}
    out = [0]
    queue = [0]
    gens = [g for g in gens]
    while queue:
        a = queue.pop()
        for g in gens:
            b = group._mul[a][g]
            if b not in seen:
                seen.add(b)
                out.append(b)
                queue.append(b)
    return sorted(seen)


def conjugate_subgroup(group, members, by):
    return tuple(sorted(conjugate(group, m, by) for m in members))


def canonical_form(group, members):
    """Lexicographically least sorted member tuple among all conjugates."""
    members = tuple(sorted(members))
    best = members
    for a in range(1, group.order):
        cand = conjugate_subgroup(group, members, a)
        if cand < best:
            best = cand
    return best


def subgroup_generated(group, elems):
    """The sorted members of the subgroup generated by elems."""
    return tuple(closure_of(group, list(elems)))


def subgroup_classes(group):
    """One canonical member tuple per conjugacy class of subgroups."""
    trivial = (0,)
    seen = {frozenset(trivial)}
    classes = [trivial]
    queue = [trivial]
    while queue:
        base = queue.pop(0)
        base_set = set(base)
        for g in range(1, group.order):
            if g in base_set:
                continue
            closure = tuple(closure_of(group, list(base) + [g]))
            if frozenset(closure) in seen:
                continue
            conjugates = {closure}
            for a in range(1, group.order):
                conjugates.add(conjugate_subgroup(group, closure, a))
            canonical = min(conjugates)
            for c in conjugates:
                seen.add(frozenset(c))
            classes.append(canonical)
            queue.append(canonical)
    classes.sort(key=lambda m: (len(m), m))
    return tuple(classes)


def conjugator_into(group, inner, outer):
    """Element a with a * inner * a^-1 contained in outer, or None."""
    outer_set = set(outer)
    for a in range(group.order):
        if all(conjugate(group, m, a) in outer_set for m in inner):
            return a
    return None


def first_conjugators(group, inner):
    """(mask, a) for each distinct conjugate a * inner * a^-1, with a the
    least element giving it, in increasing a: every a in 0..|G|-1 is tried."""
    least_a = {}
    for a in range(group.order):
        least_a.setdefault(sum(1 << conjugate(group, m, a) for m in set(inner)), a)
    return tuple(least_a.items())
