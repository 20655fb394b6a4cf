"""Bundled worked examples and the small-group corpus.

The order-80 and order-24 examples ship as JSON in ``isotypic/data``: their
presentations, character tables, an explicit degree-4 matrix representation
over L = Q(sqrt(10) + sqrt(-2)), and verification manifests holding the
printed idempotents.  These loaders read that one copy.  The term-by-term
transcription the files were written from, with its three corrections of
the printed displays, is the test suite's reference oracle for them.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ValidationError
from .groupalgebra import AlgebraElement
from .groups import FiniteGroup, from_permutations, from_presentation
from .numberfield import NumField
from .serialize import field_key, group_from_spec
from .verify import manifest_element

DATA = Path(__file__).with_name("data")


def bundled(name: str):
    """The JSON document ``name`` of the package's ``data`` directory, read afresh."""
    return json.loads((DATA / name).read_text())


def order80_group() -> FiniteGroup:
    """<x, y : x^20, y^8, x^10 y^4, y^-1 x y x^-3>, order 80."""
    return group_from_spec(presentation_spec("order80"))


def order24_group() -> FiniteGroup:
    """<x, y, z : x^4, y^4, z^3, y^-1 x y x, z^-1 x z y^-1, z^-1 y z (xy)^-1>."""
    return group_from_spec(presentation_spec("order24"))


def corpus() -> dict[str, FiniteGroup]:
    """Small groups used by the randomized property suites."""
    return {
        "S3": group_from_spec(presentation_spec("S3")),
        "D4": from_presentation(2, [[1] * 4, [2] * 2, [2, 1, 2, 1]]),
        "Q8": group_from_spec(presentation_spec("Q8")),
        "A4": from_permutations([[1, 0, 3, 2], [1, 2, 0, 3]]),
        "S4": group_from_spec(presentation_spec("S4")),
        "SL23": order24_group(),
    }


def presentation_spec(name: str) -> dict:
    """Group specification files for the bundled examples."""
    if name not in ("order80", "order24", "S3", "S4", "Q8"):
        raise ValidationError(f"no bundled group named {name}")
    return bundled(f"group_{name.lower()}.json")


def order80_element(group: FiniteGroup, nf: NumField, name: str) -> AlgebraElement:
    """A named element of the order-80 manifest with its coefficients in
    ``nf``: as in ``ManifestRunner``, the caller's field object stands for
    the manifest's field L."""
    manifest = bundled("manifest_order80.json")
    return manifest_element(group, manifest, name, {field_key(manifest["field"]): nf})
