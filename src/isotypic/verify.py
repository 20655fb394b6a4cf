"""Manifest-driven verification of bundled or user-supplied elements.

A manifest is a self-contained JSON document: a group specification, an
optional field descriptor, a dictionary of named elements (serialized or
derived by expressions), and a list of checks.  Every check is an exact
assertion; the runner reports one (description, ok) pair per check in
manifest order.
"""

from __future__ import annotations

import json
from functools import cached_property

from .characters import compute_character_table, galois_orbits, rho_decomposition
from .errors import ValidationError
from .groupalgebra import AlgebraElement, RATIONALS, ideal_dim
from .groups import FiniteGroup, generator_name
from .serialize import (
    element_from_json, field_from_json, field_key, group_from_spec, json_int, parsing,
    rational_from_json,
)


# -- word parsing ("x*y^2,x^10" style) ----------------------------------------


def parse_word(group: FiniteGroup, text: str) -> int:
    """Evaluate a word like "x*y^2" or "x^-1*y" to an element index."""
    text = text.strip()
    if text in ("", "1"):
        return 0
    g = 0
    for factor in text.split("*"):
        name, caret, exp = factor.partition("^")
        name = name.strip()
        idx = next((i for i in range(len(group.generators)) if generator_name(i) == name), None)
        if idx is None:
            raise ValidationError(f"unknown generator name {name!r}")
        try:
            exp = int(exp) if caret else 1
        except ValueError:
            raise ValidationError(f"bad exponent {exp!r} in the word {text!r}") from None
        g = group.mul(g, group.power(group.generators[idx], exp))
    return g


def parse_subgroup(group: FiniteGroup, spec) -> tuple[int, ...]:
    """Members of the subgroup generated by comma-separated words."""
    if isinstance(spec, str):
        words = [w for w in spec.split(",") if w.strip()]
    else:
        words = list(spec)
    gens = [parse_word(group, w) for w in words]
    return group.subgroup_generated(gens).members


# -- manifest evaluation ---------------------------------------------------------


def manifest_element(group: FiniteGroup, manifest: dict, name: str, cache: dict) -> AlgebraElement:
    """The stored element ``name`` of a manifest, read into ``cache``; an
    element with "field": "L" lies in the manifest's field."""
    spec = manifest["elements"][name]
    if spec.get("field") == "L":
        spec = dict(spec, field=manifest["field"])
    return element_from_json(group, spec, cache)


class ManifestRunner:
    def __init__(self, manifest: dict):
        if not isinstance(manifest, dict) or "group" not in manifest:
            raise ValidationError("a manifest is a JSON object with a \"group\" specification")
        self.manifest = manifest
        self.group = group_from_spec(manifest["group"])
        self.field = None
        if "field" in manifest:
            with parsing("manifest field"):
                self.field = field_from_json(manifest["field"])
        self._elements = {}
        # the manifest's fields and coefficient memos, shared by its elements;
        # elements with "field": "L" reuse the certified manifest field
        self._cache = {} if self.field is None else {field_key(manifest["field"]): self.field}
        with parsing("manifest elements"):
            for name, spec in manifest.get("elements", {}).items():
                if "derive" not in spec:
                    self._elements[name] = manifest_element(self.group, manifest, name, self._cache)
            self._derived = {name: spec["derive"] for name, spec in
                             manifest.get("elements", {}).items() if "derive" in spec}
        self._deriving = []
        for name in sorted(self._derived):
            self._element(name)

    @cached_property
    def table(self):
        return compute_character_table(self.group)

    @cached_property
    def orbits(self):
        return galois_orbits(self.table)

    def _element(self, name) -> AlgebraElement:
        """A named element, derived on first use if it is a derived one."""
        if name not in self._elements:
            if name not in self._derived:
                raise ValidationError(f"unknown element {name!r} in manifest expression")
            if name in self._deriving:
                cycle = self._deriving[self._deriving.index(name):]
                raise ValidationError(f"derived elements {cycle} form a cycle")
            self._deriving.append(name)
            with parsing(f"derived element {name!r}"):
                self._elements[name] = self.eval_expr(self._derived[name])
            self._deriving.pop()
        return self._elements[name]

    def eval_expr(self, expr) -> AlgebraElement:
        if isinstance(expr, str):
            return self._element(expr)
        if not isinstance(expr, dict):
            raise ValidationError(f"manifest expression {expr!r} is neither a name nor an object")
        op = expr.get("op")
        if op == "add":
            args = [self.eval_expr(a) for a in expr["args"]]
            acc = args[0]
            for a in args[1:]:
                acc = acc + a
            return acc
        if op == "mul":
            args = [self.eval_expr(a) for a in expr["args"]]
            acc = args[0]
            for a in args[1:]:
                acc = acc * a
            return acc
        if op == "galois":
            return self.eval_expr(expr["arg"]).apply_galois(json_int(expr["auto"], "auto"))
        if op == "scale":
            return self.eval_expr(expr["arg"]) * rational_from_json(expr["by"])
        raise ValidationError(f"unknown manifest operation {op!r}")

    def _match_orbit(self, matcher) -> int:
        hits = []
        for i, o in enumerate(self.orbits):
            if o.degree != json_int(matcher["degree"], "degree"):
                continue
            if len(o.char_indices) != json_int(matcher["orbit_size"], "orbit_size"):
                continue
            hits.append(i)
        if len(hits) != 1:
            raise ValidationError(f"orbit matcher {matcher} matched {len(hits)} orbits")
        return hits[0]

    def _rho_diff(self, check):
        minuend = parse_subgroup(self.group, check["minuend"])
        subtrahend = parse_subgroup(self.group, check["subtrahend"])
        a = rho_decomposition(self.table, self.orbits, minuend).multiplicities
        b = rho_decomposition(self.table, self.orbits, subtrahend).multiplicities
        return [x - y for x, y in zip(a, b)]

    def run_check(self, check: dict) -> tuple[str, bool]:
        if not isinstance(check, dict):
            raise ValidationError(f"a manifest check is a JSON object, not {json.dumps(check)}")
        name = check.get("label", check.get("check"))
        with parsing("manifest check" if name is None else f"manifest check {name!r}"):
            return self._evaluate(check)

    def _evaluate(self, check: dict) -> tuple[str, bool]:
        kind = check["check"]
        label = check.get("label", kind)
        if kind == "idempotent":
            el = self.eval_expr(check["of"])
            return (f"{label}: {check['of']} is idempotent", el.is_idempotent())
        if kind == "zero":
            return (f"{label}", self.eval_expr(check["of"]).is_zero())
        if kind == "equal":
            left = self.eval_expr(check["left"])
            right = self.eval_expr(check["right"])
            return (f"{label}", left == right)
        if kind == "orthogonal":
            left = self.eval_expr(check["left"])
            right = self.eval_expr(check["right"])
            return (
                f"{label}: {check['left']} and {check['right']} are orthogonal",
                left.is_orthogonal_to(right),
            )
        if kind == "rational":
            return (f"{label}: {check['of']} has rational coefficients",
                    self.eval_expr(check["of"]).is_rational())
        if kind == "subfield_fixed":
            el = self.eval_expr(check["of"])
            if el.domain.kind != "numberfield":
                return (f"{label}", False)
            ok = all(el.fixed_by_galois(h) for h in el.domain.field.subfield_fixers)
            return (f"{label}: {check['of']} lies in the fixed subfield", ok)
        if kind == "central":
            return (f"{label}: {check['of']} is central", self.eval_expr(check["of"]).is_central())
        if kind == "bi_invariant":
            el = self.eval_expr(check["of"])
            ok = el.is_bi_invariant(parse_subgroup(self.group, check["subgroup"]))
            return (f"{label}: {check['of']} is two-sided invariant", ok)
        if kind == "ideal_dim":
            el = self.eval_expr(check["of"])
            if check.get("over") == "Q":
                el = el.to_domain(RATIONALS)
            d = ideal_dim(el)
            return (f"{label}: ideal dim of {check['of']} = {check['dim']} (got {d})",
                    d == json_int(check["dim"], "dim"))
        if kind == "rho_identity":
            diff = self._rho_diff(check)
            want = [0] * len(self.orbits)
            for matcher, mult in check["exact"]:
                want[self._match_orbit(matcher)] = json_int(mult, "mult")
            return (f"{label}", diff == want)
        if kind == "rho_component":
            diff = self._rho_diff(check)
            ok = all(
                diff[self._match_orbit(matcher)] == json_int(mult, "mult")
                for matcher, mult in check["contains"]
            ) and all(d >= 0 for d in diff)
            return (f"{label}", ok)
        raise ValidationError(f"unknown check type {kind!r}")

    def run(self):
        checks = self.manifest.get("checks", [])
        if not isinstance(checks, list):
            raise ValidationError(f"manifest checks must be a list, not {json.dumps(checks)}")
        return [self.run_check(c) for c in checks]
