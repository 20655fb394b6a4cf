"""Time the subgroup lattice and the decomposition searches.

Run from the repository root:

    python scripts/time_lattice.py                      # the default groups, to stdout
    python scripts/time_lattice.py --out BENCH_lattice.json --groups S4xS4xC2

For each group it times, on a freshly built group each run, the build from
permutations, ``subgroup_classes``, ``JacobianDecomposer`` init,
``full_report`` and ``find_prym_isogenies``, and writes the median of
``--runs`` runs of each.  The character table and its Galois orbits are
computed between the lattice and the init, untimed.  It also writes the
number of subgroup classes, a SHA-256 prefix of the ``full_report`` result
(its repr), and the Python version and machine.  The permutation generators
are those of ``perfbench/inputs.py``.  Stdlib only; everything but the times
is deterministic.
"""

import argparse
import hashlib
import json
import pathlib
import platform
import statistics
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from isotypic import JacobianDecomposer, compute_character_table, from_permutations, galois_orbits
from perfbench.inputs import direct_product, elementary_abelian2, gl2_3, symmetric

GROUPS = {
    "S4": lambda: symmetric(4),
    "S6": lambda: symmetric(6),
    "C2^6": lambda: elementary_abelian2(6),
    "GL23xS4": lambda: direct_product(gl2_3(), symmetric(4)),
    "S4xS4xC2": lambda: direct_product(direct_product(symmetric(4), symmetric(4)), [[1, 0]]),
}
DEFAULT_GROUPS = ["S6", "C2^6", "GL23xS4", "S4xS4xC2"]
STAGES = ("build", "lattice", "init", "full_report", "isogenies")


def run_once(perms):
    """One pass: the time of each stage, the class count and the report."""
    times = {}
    start = perf_counter()
    group = from_permutations(perms)
    times["build"] = perf_counter() - start
    start = perf_counter()
    classes = group.subgroup_classes()
    times["lattice"] = perf_counter() - start
    table = compute_character_table(group)
    orbits = galois_orbits(table)
    start = perf_counter()
    dec = JacobianDecomposer(table, orbits=orbits)
    times["init"] = perf_counter() - start
    start = perf_counter()
    report = dec.full_report()
    times["full_report"] = perf_counter() - start
    start = perf_counter()
    dec.find_prym_isogenies()
    times["isogenies"] = perf_counter() - start
    return times, group.order, len(classes), report


def time_group(name, runs):
    perms = GROUPS[name]()
    passes = [run_once(perms) for _ in range(runs)]
    _, order, classes, report = passes[0]
    row = {"order": order, "subgroup_classes": classes}
    for stage in STAGES:
        row[f"{stage}_s"] = round(statistics.median(p[0][stage] for p in passes), 4)
    row["full_report_sha256"] = hashlib.sha256(repr(report).encode()).hexdigest()[:16]
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", nargs="+", choices=GROUPS, default=DEFAULT_GROUPS)
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
