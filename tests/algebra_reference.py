"""Reference group-algebra product: one scalar product and one scalar sum per
pair of terms.

This is the loop ``AlgebraElement.__mul__`` ran before the packed kernel.
It multiplies coefficients with their own classes' operators only, so the
differential tests in ``test_packed_product.py`` use it as an oracle.
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
