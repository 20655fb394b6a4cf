"""Reference group-algebra product: one scalar product and one scalar sum per
pair of terms.

This is the loop ``AlgebraElement.__mul__`` ran before the packed kernel.
It multiplies coefficients with their own classes' operators only, so the
differential tests in ``test_packed_product.py`` use it as an oracle.  The
predicates below are ``is_central`` and ``is_bi_invariant`` as they were
before they read coefficient permutations: they build the products, and
``test_translation_predicates.py`` compares the two.
"""

from isotypic.groupalgebra import AlgebraElement


def reference_product(left, right):
    """left * right for two algebra elements, term by term."""
    a, b = left._pair(right)
    mul = a.group._mul
    out = {}
    for g, cg in a.coeffs.items():
        row = mul[g]
        for h, ch in b.coeffs.items():
            idx = row[h]
            prod = cg * ch
            if idx in out:
                out[idx] = out[idx] + prod
            else:
                out[idx] = prod
    return AlgebraElement(a.group, a.domain, out)


def reference_is_central(a):
    """Whether s*a == a*s for every generator s, by two products each."""
    for s in a.group.generators:
        b = AlgebraElement.basis(a.group, s, a.domain)
        if reference_product(b, a) != reference_product(a, b):
            return False
    return True


def reference_is_bi_invariant(a, members):
    """Whether h*a == a == a*h for every h in members, by two products each."""
    for h in members:
        b = AlgebraElement.basis(a.group, h, a.domain)
        if reference_product(b, a) != a or reference_product(a, b) != a:
            return False
    return True
