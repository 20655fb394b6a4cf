"""Time character-table compute and validate, and report the split primes.

Run from the repository root:

    python scripts/time_tables.py                      # every group, to stdout
    python scripts/time_tables.py --out BENCH_tables.json --groups D500 S5
    python scripts/time_tables.py --loads --groups GL23  # and the JSON loads

For each group it builds the group and its classes (untimed), then times
``compute_character_table`` (which validates once) and one more
``CharacterTable.validate`` on the computed table, each the median of
``--runs`` runs on a freshly built group.  It also writes the table's level
L, the bound B of the row relation and the split primes that prove it (one
prime above B when B < 2^64), the class-sum matrices the split built and
the rows it lifted (one per Galois orbit), counted in one more run, and the
Python version and machine.  The permutation generators are those of
``perfbench/inputs.py``.

With ``--loads`` it also times, each the median of ``--runs`` runs, the
JSON readers: ``field_from_json`` on the order-80 manifest's field,
``table_from_json`` on the bundled order-80 table and on a dumped table of
D240 (each on a freshly built group whose classes are already known), and
``ManifestRunner`` on the order-80 manifest.  Beside each time it writes the
number of scalars actually read (a table or a manifest reads each distinct
coefficient once, so a repeated one is not counted again) and of candidates
interpolated, counted in one more run, and the number of Kronecker candidate
tuples enumerated to certify the field.  Stdlib only; everything but the times is deterministic.
"""

import argparse
import json
import pathlib
import platform
import statistics
import sys
from math import gcd, prod
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from isotypic import characters, compute_character_table, from_permutations, numberfield, serialize
from isotypic.cyclotomic import _integral
from isotypic.fixtures import bundled
from isotypic.verify import ManifestRunner
from perfbench.inputs import dihedral, gl2_3, symmetric


# dihedral groups are named by their order
GROUPS = {
    "D120": lambda: dihedral(60),
    "D240": lambda: dihedral(120),
    "D500": lambda: dihedral(250),
    "S5": lambda: symmetric(5),
    "GL23": gl2_3,
}


def _group(name):
    group = from_permutations(GROUPS[name]())
    group.conjugacy_classes()
    return group


def time_group(name, runs):
    computes, validates = [], []
    for _ in range(runs):
        group = _group(name)
        start = perf_counter()
        table = compute_character_table(group)
        computes.append(perf_counter() - start)
        start = perf_counter()
        table.validate()
        validates.append(perf_counter() - start)
    level, nums, den = table._form[:3]
    bound = characters._row_relation_bound(group.order, characters._distinct(nums)[0], den)
    return {
        "order": group.order,
        "classes": len(table.chars),
        "compute_s": round(statistics.median(computes), 4),
        "validate_s": round(statistics.median(validates), 4),
        "L": level,
        "B": bound,
        "primes": characters._split_primes(level, bound),
        **_split_counts(_group(name)),
    }


def _split_counts(group):
    """The class-sum matrices built and the rows lifted by one compute."""
    counts = {"class_sums": 0, "lifted": 0}
    class_sum, lift_row = characters._class_sum, characters._lift_row

    def counted_class_sum(*args):
        counts["class_sums"] += 1
        return class_sum(*args)

    def counted_lift_row(*args):
        counts["lifted"] += 1
        return lift_row(*args)

    characters._class_sum, characters._lift_row = counted_class_sum, counted_lift_row
    try:
        compute_character_table(group)
    finally:
        characters._class_sum, characters._lift_row = class_sum, lift_row
    return counts


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


def _counted(load, arg):
    """The scalars read and the candidates interpolated by load(arg): every
    call of the list and scalar readers, which a memo hit does not make."""
    counts = {"scalars": 0, "interpolations": 0}
    read_list, read_one = serialize.scalars_from_json, serialize.rational_from_json
    interpolant = numberfield._integer_interpolant

    def scalars(cs):
        counts["scalars"] += len(cs)
        return read_list(cs)

    def scalar(c):
        counts["scalars"] += 1
        return read_one(c)

    def interpolate(xs, ys):
        counts["interpolations"] += 1
        return interpolant(xs, ys)

    serialize.scalars_from_json, serialize.rational_from_json = scalars, scalar
    numberfield._integer_interpolant = interpolate
    try:
        load(arg)
    finally:
        serialize.scalars_from_json, serialize.rational_from_json = read_list, read_one
        numberfield._integer_interpolant = interpolant
    return counts


def time_load(prepare, load, runs, minpoly=None):
    """The median time of load(prepare()), prepare untimed, the counts of one
    more run, and the candidates for minpoly, the field the load certifies."""
    times = []
    for _ in range(runs):
        arg = prepare()
        start = perf_counter()
        load(arg)
        times.append(perf_counter() - start)
    return {
        "load_s": round(statistics.median(times), 4),
        **_counted(load, prepare()),
        "kronecker_candidates": 0 if minpoly is None else kronecker_candidates(minpoly),
    }


def time_loads(runs):
    manifest = bundled("manifest_order80.json")
    field = manifest["field"]
    minpoly = [serialize.rational_from_json(c) for c in field["minpoly"]]
    spec80, table80 = bundled("group_order80.json"), bundled("table_order80.json")
    table240 = serialize.table_to_json(compute_character_table(_group("D240")))

    def group80():
        group = serialize.group_from_spec(spec80)
        group.conjugacy_classes()
        return group

    return {
        "field_order80": time_load(lambda: field, serialize.field_from_json, runs, minpoly),
        "table_order80": time_load(
            group80, lambda group: serialize.table_from_json(group, table80), runs),
        "table_D240": time_load(
            lambda: _group("D240"), lambda group: serialize.table_from_json(group, table240), runs),
        "manifest_order80": time_load(lambda: manifest, ManifestRunner, runs, minpoly),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", nargs="+", choices=GROUPS, default=list(GROUPS))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--loads", action="store_true",
                        help="also time the JSON readers on the order-80 data and D240")
    args = parser.parse_args(argv)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": args.runs,
        "groups": {name: time_group(name, args.runs) for name in args.groups},
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
