"""Time character-table compute and validate, and report the split primes.

Run from the repository root:

    python scripts/time_tables.py                      # every group, to stdout
    python scripts/time_tables.py --out BENCH_tables.json --groups D500 S5

For each group it builds the group and its classes (untimed), then times
``compute_character_table`` (which validates once) and one more
``CharacterTable.validate`` on the computed table, each the median of
``--runs`` runs on a freshly built group.  It also writes the table's level
L, the bound B of the row relation and the split primes that prove it (one
prime above B when B < 2^64), and the Python version and machine.  The
permutation generators are those of ``perfbench/inputs.py``.  Stdlib only;
everything but the times is deterministic.
"""

import argparse
import json
import pathlib
import platform
import statistics
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from isotypic import characters, compute_character_table, from_permutations
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
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", nargs="+", choices=GROUPS, default=list(GROUPS))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": args.runs,
        "groups": {name: time_group(name, args.runs) for name in args.groups},
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
