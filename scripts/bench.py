"""Time the subgroup lattice, decompositions, character tables and JSON loads.

Run from the repository root:

    python scripts/bench.py                          # the default groups, to stdout
    python scripts/bench.py --out BENCH.json --groups S4xS4xC2 D500
    python scripts/bench.py --loads --groups GL23     # and the JSON loads

Each group has its own stages, timed on a freshly built group each run; each
time is the median of ``--runs`` runs.  The permutation generators are those
of ``perfbench/inputs.py``.

- Lattice groups (S4, S6, C2^6, GL23xS4, S4xS4xC2): the build from
  permutations, ``subgroup_classes``, ``JacobianDecomposer`` init,
  ``full_report`` and ``find_prym_isogenies``.  The character table and its
  Galois orbits are computed between the lattice and the init, untimed.  The
  row also has the number of subgroup classes and a SHA-256 prefix of the
  ``full_report`` result (its repr).
- Table groups (D120, D240, D500, S5, GL23; dihedral groups are named by
  their order): the group and its classes are built untimed, then
  ``compute_character_table`` (which validates once) and one more
  ``CharacterTable.validate`` on the computed table.  The row also has the
  number of classes, the table's level L, the bound B of the row relation
  and the split primes that prove it (one prime above B when B < 2^64), and
  the class-sum matrices the split built and the rows it lifted (one per
  Galois orbit), counted in one more run.

With ``--loads`` it also times the JSON readers: ``field_from_json`` on the
order-80 manifest's field and on the four fields of perfbench's construct
workload (Q(zeta_4), Q(zeta_6), Q(zeta_10), Q(zeta_14), the fields of its
Dic_n reps), ``rep_from_json`` on the bundled order-80 rep (its group and
table built untimed), ``table_from_json`` on the bundled order-80 table and
on a dumped table of D240 (each on a freshly built group whose classes are
already known), and ``ManifestRunner`` on the order-80 manifest.  Beside
each time it writes the number of scalars actually read (a table or a
manifest reads each distinct coefficient once, so a repeated one is not
counted again) and of candidates interpolated, counted in one more run, and
the number of Kronecker candidate tuples enumerated to certify the fields.
The stage ``embed_construct`` times building the ``CycEmbedding`` of each
Dic_n rep and embedding its character's values (fields and values read
untimed), with the number of embeddings declared by a generator and of
values embedded.

The stage ``checks_order80`` times ``ManifestRunner.run`` on the whole
order-80 manifest, each run on a runner built untimed, with the number of
checks, of failed checks and of runs of the packed product kernel
(``groupalgebra._packed_sums``, which products and the idempotency and
orthogonality predicates share), counted in one more run.

The report also has the Python version and machine.  Stdlib only;
everything but the times is deterministic.
"""

import argparse
import hashlib
import json
import pathlib
import platform
import statistics
import sys
from contextlib import contextmanager
from math import gcd, prod
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from isotypic import (JacobianDecomposer, characters, compute_character_table, from_permutations,
                      galois_orbits, groupalgebra, numberfield, serialize)
from isotypic.cyclotomic import _integral
from isotypic.fixtures import bundled
from isotypic.verify import ManifestRunner
from perfbench.inputs import (dicyclic, dicyclic_rep, dihedral, direct_product, elementary_abelian2,
                              gl2_3, symmetric)


def _timed(times, stage, fn, *args):
    """fn(*args), its time stored as times[stage]."""
    start = perf_counter()
    result = fn(*args)
    times[stage] = perf_counter() - start
    return result


def median_times(runs, one_pass):
    """The median of each stage time over runs calls of one_pass, rounded and
    named ``<stage>_s``, and the result of the first call; one_pass returns
    (the time of each stage, a result)."""
    passes = [one_pass() for _ in range(runs)]
    times = {f"{stage}_s": round(statistics.median(p[0][stage] for p in passes), 4)
             for stage in passes[0][0]}
    return times, passes[0][1]


@contextmanager
def counting(*patches):
    """Count calls while each (module, name, key, weight) patch is in place:
    a call of module.name adds weight(*args) to counts[key].  Yields the
    counts and restores the attributes on exit."""
    counts = {key: 0 for _, _, key, _ in patches}
    saved = [(module, name, getattr(module, name)) for module, name, _, _ in patches]

    def counted(fn, key, weight):
        def call(*args):
            counts[key] += weight(*args)
            return fn(*args)
        return call

    for module, name, key, weight in patches:
        setattr(module, name, counted(getattr(module, name), key, weight))
    try:
        yield counts
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _once(*args):
    return 1


def lattice_row(perms, runs):
    def one_pass():
        times = {}
        group = _timed(times, "build", from_permutations, perms)
        classes = _timed(times, "lattice", group.subgroup_classes)
        table = compute_character_table(group)
        orbits = galois_orbits(table)
        dec = _timed(times, "init", lambda: JacobianDecomposer(table, orbits=orbits))
        report = _timed(times, "full_report", dec.full_report)
        _timed(times, "isogenies", dec.find_prym_isogenies)
        return times, (group.order, len(classes), report)

    times, (order, classes, report) = median_times(runs, one_pass)
    return {"order": order, "subgroup_classes": classes, **times,
            "full_report_sha256": hashlib.sha256(repr(report).encode()).hexdigest()[:16]}


def _group(perms):
    group = from_permutations(perms)
    group.conjugacy_classes()
    return group


def table_row(perms, runs):
    def one_pass():
        times = {}
        group = _group(perms)
        table = _timed(times, "compute", compute_character_table, group)
        _timed(times, "validate", table.validate)
        return times, (group, table)

    times, (group, table) = median_times(runs, one_pass)
    level, nums, den = table._form[:3]
    bound = characters._row_relation_bound(group.order, characters._distinct(nums)[0], den)
    with counting((characters, "_class_sum", "class_sums", _once),
                  (characters, "_lift_row", "lifted", _once)) as counts:
        compute_character_table(_group(perms))
    return {"order": group.order, "classes": len(table.chars), **times, "L": level, "B": bound,
            "primes": characters._split_primes(level, bound), **counts}


# each group's permutations and the row of stages it is timed on
GROUPS = {
    "S4": (lambda: symmetric(4), lattice_row),
    "S6": (lambda: symmetric(6), lattice_row),
    "C2^6": (lambda: elementary_abelian2(6), lattice_row),
    "GL23xS4": (lambda: direct_product(gl2_3(), symmetric(4)), lattice_row),
    "S4xS4xC2": (lambda: direct_product(direct_product(symmetric(4), symmetric(4)), [[1, 0]]),
                 lattice_row),
    "D120": (lambda: dihedral(60), table_row),
    "D240": (lambda: dihedral(120), table_row),
    "D500": (lambda: dihedral(250), table_row),
    "S5": (lambda: symmetric(5), table_row),
    "GL23": (gl2_3, table_row),
}
DEFAULT_GROUPS = [name for name in GROUPS if name != "S4"]


def kronecker_candidates(minpoly):
    """The tuples ``is_irreducible`` enumerates on an irreducible minpoly: per
    factor degree k, the divisors of its value at the first of k + 1 nodes
    times the signed divisors of its values at the others."""
    num = _integral(minpoly)[0]
    ipoly = [c // gcd(*num) for c in num]
    total = 0
    for k in range(1, (len(ipoly) - 1) // 2 + 1):
        values = [v for _, v in numberfield._interp_points(ipoly, k + 1)]
        total += prod(len(numberfield._int_divisors(v)) * (1 if i == 0 else 2)
                      for i, v in enumerate(values))
    return total


def time_load(prepare, load, runs, minpolys=()):
    """The median time of load(prepare()), prepare untimed, the scalars read
    and the candidates interpolated by one more load (every call of the list
    and scalar readers, which a memo hit does not make; prepare's are not
    counted), and the candidates for minpolys, the fields the load
    certifies."""
    def one_pass():
        times = {}
        _timed(times, "load", load, prepare())
        return times, None

    times, _ = median_times(runs, one_pass)
    prepared = prepare()
    with counting((serialize, "scalars_from_json", "scalars", len),
                  (serialize, "rational_from_json", "scalars", _once),
                  (numberfield, "_integer_interpolant", "interpolations", _once)) as counts:
        load(prepared)
    return {**times, **counts,
            "kronecker_candidates": sum(kronecker_candidates(p) for p in minpolys)}


def dicyclic_reps():
    """The representation documents of Dic_n, n = 2, 3, 5, 7, that
    perfbench's construct workload loads, each with its group's exponent."""
    reps = []
    for n in (2, 3, 5, 7):
        perms = dicyclic(n)
        group = from_permutations(perms)
        words = [group.labels[c.representative] for c in group.conjugacy_classes()]
        reps.append((dicyclic_rep(n, perms, words, group.exponent), group.exponent))
    return reps


def embed_characters(cases):
    """Each case's CycEmbedding, and the image of each character value."""
    out = []
    for field, generator, image, values in cases:
        embedding = numberfield.CycEmbedding(field, generator, image)
        out.append([embedding.embed(v) for v in values])
    return out


def time_checks(manifest, runs):
    """The median time of ManifestRunner(manifest).run(), the runner built
    untimed, the checks run and failed, and the kernel runs of one more run."""
    def one_pass():
        times = {}
        runner = ManifestRunner(manifest)
        return times, _timed(times, "run", runner.run)

    times, results = median_times(runs, one_pass)
    runner = ManifestRunner(manifest)
    with counting((groupalgebra, "_packed_sums", "kernel_runs", _once)) as counts:
        runner.run()
    return {**times, "checks": len(results), "failed": sum(not ok for _, ok in results), **counts}


def time_loads(runs):
    manifest = bundled("manifest_order80.json")
    field = manifest["field"]
    minpoly = [serialize.rational_from_json(c) for c in field["minpoly"]]
    spec80, table80 = bundled("group_order80.json"), bundled("table_order80.json")
    rep80 = bundled("rep_order80.json")
    d240 = GROUPS["D240"][0]()
    table240 = serialize.table_to_json(compute_character_table(_group(d240)))
    reps = dicyclic_reps()
    fields = [doc["field"] for doc, _ in reps]

    def group80():
        group = serialize.group_from_spec(spec80)
        group.conjugacy_classes()
        return group

    def group_and_table80():
        group = group80()
        return group, serialize.table_from_json(group, table80)

    # (field, generator, image, character values at the table level) of each
    # rep, read untimed; Dic_2 and Dic_3 have rational characters and no generator
    cases = []
    for doc, exponent in reps:
        nf = serialize.field_from_json(doc["field"])
        generator = image = None
        if "embedding" in doc:
            generator = serialize.cyc_from_json(doc["embedding"]["generator"])
            image = serialize.nfv_from_json(nf, doc["embedding"]["image"])
        values = [serialize.cyc_from_json(v).to_level(exponent) for v in doc["character_values"]]
        cases.append((nf, generator, image, values))

    def embed_pass():
        times = {}
        _timed(times, "load", embed_characters, cases)
        return times, None

    embed_times, _ = median_times(runs, embed_pass)
    return {
        "field_order80": time_load(lambda: field, serialize.field_from_json, runs, [minpoly]),
        "fields_construct": time_load(
            lambda: fields, lambda docs: [serialize.field_from_json(d) for d in docs], runs,
            [[serialize.rational_from_json(c) for c in d["minpoly"]] for d in fields]),
        "embed_construct": {**embed_times,
                            "embeddings": sum(c[1] is not None for c in cases),
                            "values": sum(len(c[3]) for c in cases)},
        "rep_order80": time_load(
            group_and_table80, lambda loaded: serialize.rep_from_json(*loaded, rep80), runs,
            [minpoly]),
        "table_order80": time_load(
            group80, lambda group: serialize.table_from_json(group, table80), runs),
        "table_D240": time_load(
            lambda: _group(d240), lambda group: serialize.table_from_json(group, table240), runs),
        "manifest_order80": time_load(lambda: manifest, ManifestRunner, runs, [minpoly]),
        "checks_order80": time_checks(manifest, runs),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", nargs="+", choices=GROUPS, default=DEFAULT_GROUPS)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--loads", action="store_true",
                        help="also time the JSON readers on the order-80 data and D240")
    args = parser.parse_args(argv)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": args.runs,
        "groups": {name: GROUPS[name][1](GROUPS[name][0](), args.runs) for name in args.groups},
    }
    if args.loads:
        report["loads"] = time_loads(args.runs)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
