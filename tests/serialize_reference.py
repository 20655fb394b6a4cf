"""Reference JSON readers of algebra elements and character tables: every
coefficient read on its own, with no memo; and the writer of matrix
representations, which only the tests call.

These are ``element_from_json`` and ``table_from_json`` as they were before
they read each distinct coefficient once per document.  They call the
scalar readers ``nfv_from_json``, ``cyc_from_json`` and
``rational_from_json`` once per coefficient and build each element through
the zero filter of ``AlgebraElement``, so the differential tests in
``test_serialize_memo.py`` use them as an oracle.
"""

from isotypic.groupalgebra import RATIONALS, AlgebraElement, CyclotomicDomain, FieldDomain
from isotypic.serialize import (
    cyc_from_json, cyc_to_json, field_from_json, field_to_json, nfv_from_json, nfv_to_json,
    rational_from_json,
)


def reference_element(group, d, field=None):
    """The element d describes; "L" names the field given."""
    spec = d["field"]
    if spec == "Q":
        dom = RATIONALS
    elif "cyclotomic" in spec:
        dom = CyclotomicDomain(spec["cyclotomic"])
    else:
        dom = FieldDomain(field if spec == "L" else field_from_json(spec))
    out = {}
    for g, c in d["coeffs"]:
        if dom.kind == "Q":
            out[g] = rational_from_json(c)
        elif dom.kind == "cyclotomic":
            out[g] = cyc_from_json(c)
        else:
            out[g] = nfv_from_json(dom.field, c)
    return AlgebraElement(group, dom, out)


def reference_table_values(d):
    """The rows of a table document, each value read and lifted to its level."""
    return [tuple(cyc_from_json(v).to_level(d["level"]) for v in row) for row in d["chars"]]


def rep_to_json(rep):
    d = {
        "field": field_to_json(rep.field),
        "degree": rep.degree,
        "generators": [
            [[nfv_to_json(x) for x in row] for row in mat] for mat in rep.gen_matrices
        ],
        "character_values": [cyc_to_json(v) for v in rep.table.chars[rep.char_index].values],
    }
    if rep.embedding.generator is not None:
        d["embedding"] = {
            "generator": cyc_to_json(rep.embedding.generator),
            "image": nfv_to_json(rep.embedding.image),
        }
    return d
