"""Self-test of the benchmark harness on S3 and Q8 from ``fixtures.corpus()``.

    python3 perfbench/selftest.py

Runs the lattice-report steps on the two small groups through the same
measuring code as a real run, with tracing off and on, and checks that

* every metric named in BENCHMARK.json is emitted, with its unit, and no
  other metric is;
* the run is correct when the reference values are right;
* a corrupted reference value is reported as a failed operation (and the
  steps after it in the same item as failed too), not skipped.

Exit code 0 means the harness passed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

# S3: 3 classes, 4 subgroup classes, 3 rational irreducibles.
# Q8: 5 classes, 6 subgroup classes (1, the centre, three cyclic subgroups of
# order 4 and Q8), 5 rational irreducibles; the degree-2 one is the complement
# of a Prym inside a Prym.
EXPECTED = {
    "S3": {"order": 6, "classes": 3, "subgroup_classes": 4, "orbits": 3,
           "exponents": (1, 1, 2), "kinds": "pp", "isogenies": None},
    "Q8": {"order": 8, "classes": 5, "subgroup_classes": 6, "orbits": 5,
           "exponents": None, "kinds": None, "isogenies": None},
}


def make_setup(workloads, expected):
    from isotypic.fixtures import corpus

    def setup(rng):
        return [workloads.lattice_item(name, {"factory": lambda name=name: corpus()[name]},
                                       expected[name])
                for name in expected]

    return setup


def main():
    _, workloads = run._import_library()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    def one_run(trace, expected):
        args = argparse.Namespace(workload="lattice-report", seed=7, seconds=0, trace=trace)
        result, _ = run.run_workload(args, setup=make_setup(workloads, expected))
        return result

    for trace in (0, 1):
        result = one_run(trace, EXPECTED)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != declared[trace]:
            missing = sorted(set(declared[trace]) - set(emitted))
            extra = sorted(set(emitted) - set(declared[trace]))
            wrong = sorted(n for n in emitted if n in declared[trace]
                           and emitted[n] != declared[trace][n])
            problems.append(f"trace {trace}: missing {missing}, extra {extra}, units {wrong}")
        if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
            problems.append(f"trace {trace}: a metric value is not a number")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
            problems.append(f"trace {trace}: correct reference values failed: {result}")

    corrupted = {name: dict(exp) for name, exp in EXPECTED.items()}
    corrupted["S3"]["subgroup_classes"] = 5
    result = one_run(0, corrupted)
    # the lattice step is the third of eight: it and the five after it fail,
    # in the warm-up pass and in the one measured pass
    if result["correct"] or result["failed"] != 2 * 6:
        problems.append(f"corrupted reference not reported as failed: {result}")

    for p in problems:
        print(f"selftest: {p}")
    print("selftest: ok" if not problems else "selftest: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
