"""The four benchmark workloads and their exact output checks.

A workload is a list of items (one group, representation or manifest
each); a pass runs every item once.  An item is a fixed list of steps, and
each step is one operation: it calls the public API of ``isotypic`` inside
a span and then checks its output against a reference that does not come
from the code under test (a closed formula, a value computed here from the
character table, a transcription, or a value recorded from the seed
commit).  A step fails if it raises or misses its check; the steps after a
failed one in the same item are not run and count as failed too.

Every pass builds fresh ``FiniteGroup`` objects from the inputs, so the
per-object caches of conjugacy classes and subgroup lattices never carry
over from one pass to the next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import gcd
from time import perf_counter

from isotypic import (
    JacobianDecomposer,
    assert_schur,
    compute_character_table,
    construct_primitive_system,
    diagonal_idempotents,
    from_permutations,
    from_presentation,
    galois_orbits,
    symmetrize_to_rational,
    symmetrize_to_subfield,
    system_grid_checks,
    validate_schur_from_rep,
)
from isotypic.cyclotomic import CycValue
from isotypic.fixtures import presentation_spec
from isotypic.groupalgebra import central_idempotent_over_field
from isotypic.serialize import (
    dumps,
    element_from_json,
    element_to_json,
    rep_from_json,
    table_from_json,
    table_to_json,
)
from isotypic.verify import ManifestRunner

import inputs


class CheckFailed(Exception):
    """An output that differs from its reference."""


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Item:
    name: str
    steps: list                    # [(operation name, fn(state, tracer))]
    inputs: dict = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    # "item/step" -> [(seconds, probe before, probe after)] of untraced passes
    step_s: dict = field(default_factory=dict)


def probe():
    """Seconds taken by a fixed ~1 ms loop of Fraction arithmetic.

    It uses no library code, so its time only tracks how fast the machine
    runs Python at that moment; timed next to a step, it measures the
    slowdown that other processes impose on the step.
    """
    t0 = perf_counter()
    a = [Fraction(i + 1, 7) for i in range(6)]
    b = [Fraction(3, i + 2) for i in range(6)]
    for _ in range(9):
        c = [Fraction(0)] * 11
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        a = [c[k] - c[k + 6] if k < 5 else c[k] for k in range(6)]
    return perf_counter() - t0


def run_item(item, tracer, outcome):
    """Run every step of one item, recording each as an operation.

    In untraced passes each step is timed between two probes.
    """
    state = dict(item.inputs)
    tracer.new_trace()
    before = 0.0 if tracer.active else probe()
    with tracer.span(f"item.{item.name}"):
        for i, (op, fn) in enumerate(item.steps):
            outcome.attempted += 1
            t0 = perf_counter()
            try:
                fn(state, tracer)
            except Exception as exc:  # a failed operation is counted, never raised
                outcome.failed += len(item.steps) - i
                outcome.attempted += len(item.steps) - i - 1
                outcome.failures.append(f"{item.name}/{op}: {type(exc).__name__}: {exc}")
                return
            if not tracer.active:
                seconds = perf_counter() - t0
                after = probe()
                outcome.step_s.setdefault(f"{item.name}/{op}", []).append(
                    (seconds, before, after))
                before = after


def bundled_text(name):
    return resources.files("isotypic.data").joinpath(name).read_text()


def _group_steps(expected):
    """Build the group and compute its classes and subgroup lattice."""

    def build(s, tr):
        with tr.span("groups.build"):
            if "perms" in s:
                s["group"] = from_permutations(s["perms"])
            elif "presentation" in s:
                s["group"] = from_presentation(**s["presentation"])
            else:
                s["group"] = s["factory"]()
        expect(s["group"].order == expected["order"], f"order {s['group'].order}")

    def classes(s, tr):
        with tr.span("groups.classes"):
            n = len(s["group"].conjugacy_classes())
        expect(n == expected["classes"], f"{n} conjugacy classes")

    def lattice(s, tr):
        with tr.span("groups.lattice"):
            n = len(s["group"].subgroup_classes())
        tr.add("groups.subgroup_classes", n)
        if expected.get("subgroup_classes") is not None:
            expect(n == expected["subgroup_classes"], f"{n} subgroup classes")

    return [("build", build), ("classes", classes), ("lattice", lattice)]


def _table_step(expected):
    def table(s, tr):
        g = s["group"]
        if "table_json" in s:
            with tr.span("serialize.table_load"):
                s["table"] = table_from_json(g, json.loads(s["table_json"]))
        else:
            with tr.span("characters.table"):
                s["table"] = compute_character_table(g)
        t = s["table"]
        expect(len(t.chars) == expected["classes"], f"{len(t.chars)} irreducibles")
        expect(sum(c.degree ** 2 for c in t.chars) == g.order, "sum of squared degrees")

    return ("table", table)


def _orbits_step(expected):
    def orbits(s, tr):
        with tr.span("characters.orbits"):
            s["orbits"] = galois_orbits(s["table"])
        n = len(s["orbits"])
        expect(n == len(s["group"].rational_fusion_classes()),
               f"{n} rational irreducibles against the rational classes")
        if expected.get("orbits") is not None:
            expect(n == expected["orbits"], f"{n} rational irreducibles")

    return ("orbits", orbits)


# -- construct: the primitive-idempotent pipeline over a declared field L ---------------


def _frobenius_schur(table, ci):
    """nu_2(chi) = (1/|G|) sum_g chi(g^2), computed from the table values."""
    g = table.group
    total = CycValue.zero(table.level)
    for x in range(g.order):
        total = total + table.value(ci, g.mul(x, x))
    return total.as_rational() / g.order


def _rational_central(table, orbit):
    """e_W = (n/|G|) sum_g (sum over the orbit of chi(g^-1)) g, as {g: rational}."""
    g = table.group
    n = table.chars[orbit.char_indices[0]].degree
    out = {}
    for x in range(g.order):
        total = CycValue.zero(table.level)
        for ci in orbit.char_indices:
            total = total + table.value(ci, g.inv(x))
        if not total.is_zero():
            out[x] = total.as_rational() * Fraction(n, g.order)
    return out


def construct_item(n, perms, rep_json, expected):
    def rep(s, tr):
        with tr.span("serialize.rep_load"):
            s["rep"] = rep_from_json(s["group"], s["table"], json.loads(s["rep_json"]))
        ci = s["rep"].char_index
        s["orbit"] = next(o for o in s["orbits"] if ci in o.char_indices)
        expect(len(s["orbit"].char_indices) == expected["orbit_size"], "orbit size")
        expect(_frobenius_schur(s["table"], ci) == -1, "Frobenius-Schur indicator is not -1")

    def diag(s, tr):
        with tr.span("groupalgebra.diag"):
            s["ells"] = diagonal_idempotents(s["rep"])
        expect(len(s["ells"]) == 2, "two diagonal idempotents")

    def schur(s, tr):
        with tr.span("groupalgebra.schur"):
            m = validate_schur_from_rep(s["rep"], s["orbit"])
        expect(m == 2, f"Schur index {m}")
        s["orbit"] = assert_schur(s["orbit"], m, "validated representation")

    def primitive(s, tr):
        with tr.span("groupalgebra.primitive"):
            s["system"] = construct_primitive_system(s["rep"], s["orbit"], ells=s["ells"])
        expect(s["system"].blocks == 1 and s["system"].schur_m == 2, "one block, m = 2")

    def grid(s, tr):
        with tr.span("groupalgebra.grid_checks"):
            checks = system_grid_checks(s["system"])
        bad = [name for name, ok in checks if not ok]
        expect(checks and not bad, f"grid checks failed: {bad}")

    def sym_k(s, tr):
        with tr.span("groupalgebra.symmetrize_k"):
            ks = symmetrize_to_subfield(s["system"])
        expect(len(ks) == 1 and ks[0] == central_idempotent_over_field(s["rep"]),
               "k_1 differs from e_V")

    def sym_q(s, tr):
        with tr.span("groupalgebra.symmetrize_q"):
            fs = symmetrize_to_rational(s["system"])
        s["f"] = fs[0]
        expect(len(fs) == 1 and fs[0].coeffs == _rational_central(s["table"], s["orbit"]),
               "f_1 differs from e_W")

    def dump(s, tr):
        u = s["system"].u_grid[0][0]
        with tr.span("serialize.dump"):
            text = dumps([element_to_json(u), element_to_json(s["f"])])
        back = [element_from_json(s["group"], d) for d in json.loads(text)]
        expect(back[0] == u and back[1] == s["f"], "JSON round trip")

    steps = _group_steps(expected) + [_table_step(expected), _orbits_step(expected)] + [
        ("rep_load", rep), ("diag", diag), ("schur", schur), ("primitive", primitive),
        ("grid_checks", grid), ("symmetrize_k", sym_k), ("symmetrize_q", sym_q),
        ("dump", dump)]
    return Item(f"Dic{n}", steps, {"perms": perms, "rep_json": rep_json})


def dicyclic_expected(n):
    # Dic_n has n + 3 classes; its faithful quaternionic characters form one
    # Galois orbit of size phi(2n)/2.
    phi = sum(1 for k in range(1, 2 * n) if gcd(k, 2 * n) == 1)
    return {"order": 4 * n, "classes": n + 3, "orbit_size": phi // 2}


def setup_construct(rng):
    items = []
    for n in inputs.shuffled((2, 3, 5, 7), rng):
        base = inputs.dicyclic(n)
        perms = inputs.relabel(base, rng)
        g = from_permutations(perms)
        words = [g.labels[c.representative] for c in g.conjugacy_classes()]
        doc = inputs.dicyclic_rep(n, base, words, g.exponent)
        items.append(construct_item(n, perms, json.dumps(doc), dicyclic_expected(n)))
    return items


# -- verify: transcribed elements checked through the manifest runner -------------------


# The order-80 checks left out of the timed pass, so that one pass takes two
# seconds rather than fifteen: both left-ideal dimensions over L (Echelon work,
# which `construct` measures), the idempotency of u21 and the five u-grid
# orthogonality products.  The whole manifest runs in the test suite
# (acceptance criterion 05).
ORDER80_LEFT_OUT = [
    {"check": "ideal_dim", "dim": 4, "of": "l1"},
    {"check": "ideal_dim", "dim": 8, "of": "k1"},
    {"check": "idempotent", "label": "primitive block idempotent u21", "of": "u21"},
    {"check": "orthogonal", "left": "u11", "right": "u21"},
    {"check": "orthogonal", "left": "u11", "right": "u12"},
    {"check": "orthogonal", "left": "u11", "right": "u22"},
    {"check": "orthogonal", "left": "u21", "right": "u12"},
    {"check": "orthogonal", "left": "u21", "right": "u22"},
]
# Number of checks run from each bundled manifest: 31 - 8 of the order-80
# transcription and all 6 of the order-24 one.
VERIFY_CHECKS = {"manifest_order80": 23, "manifest_order24": 6}


def verify_item(name, text, rng):
    """ManifestRunner(manifest).run(), one operation per manifest check."""
    checks = [c for c in json.loads(text)["checks"] if c not in ORDER80_LEFT_OUT]
    checks = inputs.shuffled(checks, rng)
    want = VERIFY_CHECKS[name]

    def load(s, tr):
        with tr.span("verify.load"):
            doc = json.loads(s["text"])
            doc["checks"] = s["checks"]
            s["runner"] = ManifestRunner(doc)
        n = len(s["runner"].manifest["checks"])
        expect(n == want, f"{n} checks, expected {want}")

    def check(index):
        def run(s, tr):
            with tr.span("verify.run"):
                label, ok = s["runner"].run_check(s["checks"][index])
            tr.add("verify.checks", 1)
            expect(ok, f"manifest check failed: {label}")
        return run

    steps = [("load", load)] + [(f"check{i}", check(i)) for i in range(len(checks))]
    return Item(name, steps, {"text": text, "checks": checks})


def setup_verify(rng):
    names = inputs.shuffled(["manifest_order80", "manifest_order24"], rng)
    return [verify_item(n, bundled_text(n + ".json"), rng) for n in names]


# -- chartable-sweep: exact character tables of groups built from permutations ---------


def _partitions(n, top=None):
    top = n if top is None else top
    if n == 0:
        return 1
    return sum(_partitions(n - k, k) for k in range(1, min(n, top) + 1))


CHARTABLE_GROUPS = {
    # name: (generators, order, number of classes from a closed formula)
    "GL23": (inputs.gl2_3, 48, 8),                                 # q^2 - 1 for GL(2,q)
    "S5": (lambda: inputs.symmetric(5), 120, _partitions(5)),
    "C11x5": (lambda: inputs.semidirect(11, 5), 55, 5 + 10 // 5),  # q + (p-1)/q
    "D48": (lambda: inputs.dihedral(24), 48, 24 // 2 + 3),         # n/2 + 3, n even
}


def chartable_item(name, perms, expected):
    def dump(s, tr):
        with tr.span("serialize.dump"):
            text = dumps(table_to_json(s["table"]))
        expect(len(json.loads(text)["chars"]) == expected["classes"], "dumped table")

    steps = _group_steps(expected) + [_table_step(expected), _orbits_step(expected),
                                      ("dump", dump)]
    return Item(name, steps, {"perms": perms})


def setup_chartable(rng):
    items = []
    for name in inputs.shuffled(CHARTABLE_GROUPS, rng):
        gens, order, classes = CHARTABLE_GROUPS[name]
        perms = inputs.relabel(gens(), rng)
        items.append(chartable_item(name, perms, {"order": order, "classes": classes}))
    return items


# -- lattice-report: subgroup lattices and the Prym / intersection searches ------------


def _gaussian_subspaces(n):
    """Number of subspaces of F_2^n: the subgroup count of C2^n."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= 2 ** (n - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


# Exponents and verdict kinds (p = prym, i = intersection, c = complement, one
# letter per non-trivial orbit), recorded from the commit that added this
# benchmark except where a formula or the paper gives them.
LATTICE_GROUPS = {
    "C2_4": {"perms": lambda: inputs.elementary_abelian2(4), "order": 16, "classes": 16,
             "subgroup_classes": _gaussian_subspaces(4), "orbits": 16,
             "exponents": (1,) * 16, "kinds": "p" * 15, "isogenies": 0},
    "D4xS3": {"perms": lambda: inputs.direct_product(inputs.dihedral(4), inputs.symmetric(3)),
              "order": 48, "classes": 15, "subgroup_classes": 54, "orbits": 15,
              "exponents": (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 4),
              "kinds": "pppppppiippipi", "isogenies": 34},
    # SL(2,3): its degree-2 rational irreducible is the paper's factor that is
    # neither a Prym nor an intersection of Pryms (criterion 08)
    "order24": {"presentation": "order24", "order": 24, "classes": 7, "subgroup_classes": 7,
                "orbits": 5, "exponents": (1, 1, 1, 2, 3), "kinds": "pcpp", "isogenies": 1},
    "order80": {"presentation": "order80", "table": "table_order80.json", "order": 80,
                "classes": 14, "subgroup_classes": 20, "orbits": 10,
                "exponents": (1, 1, 1, 1, 1, 1, 2, 2, 4, 4), "kinds": "ppppppiip",
                "isogenies": 2},
}

# Criterion 07 of the paper's worked example, per non-trivial orbit:
# (degree, orbit size, exponent, verdict kind).
ORDER80_REPORT = sorted([
    (1, 1, 1, "prym"), (1, 1, 1, "prym"), (1, 1, 1, "prym"),
    (1, 2, 1, "prym"), (1, 2, 1, "prym"), (2, 2, 2, "prym"),
    (4, 1, 4, "prym"), (4, 1, 4, "intersection"), (4, 2, 2, "intersection"),
])


def lattice_item(name, spec, expected):
    def decomposer(s, tr):
        assertions = None
        if name == "order80":
            quad = next(o for o in s["orbits"] if o.degree == 4 and len(o.char_indices) == 2)
            assertions = {tuple(i + 1 for i in quad.char_indices): 2}
        with tr.span("decomposition.init"):
            s["dec"] = JacobianDecomposer(s["table"], orbits=s["orbits"],
                                          schur_assertions=assertions)
        expect(len(s["dec"].subgroups) == expected["subgroup_classes"], "decomposer lattice")

    def report(s, tr):
        with tr.span("decomposition.report"):
            jac, verdicts = s["dec"].full_report()
        s["verdicts"] = [v.kind for v in verdicts[1:]]
        tr.add("decomposition.factors", len(jac.factors))
        for kind in s["verdicts"]:
            tr.add(f"decomposition.verdicts.{kind}", 1)
        if name == "order80":
            got = sorted((o.degree, len(o.char_indices), f.exponent, v.kind)
                         for o, f, v in zip(s["dec"].orbits[1:], jac.factors[1:], verdicts[1:]))
            expect(jac.factors[0].exponent == 1 and got == ORDER80_REPORT,
                   f"order-80 report {got}")
        if expected.get("exponents") is not None:
            expect(jac.exponents() == tuple(expected["exponents"]),
                   f"exponents {jac.exponents()}")
        if expected.get("kinds") is not None:
            kinds = "".join(k[0] for k in s["verdicts"])
            expect(kinds == expected["kinds"], f"verdict kinds {kinds}")

    def isogenies(s, tr):
        with tr.span("decomposition.isogenies"):
            n = len(s["dec"].find_prym_isogenies())
        if expected.get("isogenies") is not None:
            expect(n == expected["isogenies"], f"{n} Prym isogenies")

    steps = _group_steps(expected) + [_table_step(expected), _orbits_step(expected)] + [
        ("decomposer", decomposer), ("report", report), ("isogenies", isogenies)]
    return Item(name, steps, spec)


def setup_lattice(rng):
    items = []
    for name in inputs.shuffled(LATTICE_GROUPS, rng):
        exp = LATTICE_GROUPS[name]
        spec = {}
        if "perms" in exp:
            spec["perms"] = inputs.relabel(exp["perms"](), rng)
        else:
            p = presentation_spec(exp["presentation"])["presentation"]
            spec["presentation"] = {"ngens": p["generators"], "relators": p["relators"]}
        if exp.get("table"):
            spec["table_json"] = bundled_text(exp["table"])
        items.append(lattice_item(name, spec, exp))
    return items


SETUPS = {
    "construct": setup_construct,
    "verify80": setup_verify,
    "chartable-sweep": setup_chartable,
    "lattice-report": setup_lattice,
}
