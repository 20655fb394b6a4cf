"""Benchmark of the exact isotypic pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, one row each

One run sets up its inputs five times (set-up time is the median), runs one
warm-up pass that fills the module-level caches, then repeats passes until
the next one would end after ``--seconds``.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, writing every
span to ``perfbench/out/``.  The last line of standard output is one JSON
object; the exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# the spans the benchmark opens around public calls (or installs on
# CharacterTable.validate and orbit_module_check); each is reported as the
# share of the traced pass it covers
SPANS = (
    "groups.build", "groups.classes", "groups.lattice",
    "characters.table", "characters.validate", "characters.orbits",
    "groupalgebra.diag", "groupalgebra.schur", "groupalgebra.orbit_check",
    "groupalgebra.primitive", "groupalgebra.grid_checks",
    "groupalgebra.symmetrize_k", "groupalgebra.symmetrize_q",
    "decomposition.init", "decomposition.report", "decomposition.isogenies",
    "verify.load", "verify.run",
    "serialize.rep_load", "serialize.table_load", "serialize.dump",
)
LAYERS = ("groups", "characters", "cyclotomic", "numberfield", "groupalgebra",
          "linalg", "decomposition", "verify", "serialize")
COUNTS = (
    "groups.subgroup_classes",
    "cyclotomic.mul_calls", "cyclotomic.conj_calls", "cyclotomic.galois_calls",
    "numberfield.mul_calls", "numberfield.auto_calls",
    "groupalgebra.products", "groupalgebra.ideal_dim_calls",
    "linalg.echelon_adds",
    "decomposition.factors", "decomposition.verdicts.prym",
    "decomposition.verdicts.intersection", "decomposition.verdicts.complement",
    "verify.checks",
)
ITEMS = {
    "construct": ("Dic2", "Dic3", "Dic5", "Dic7"),
    "verify80": ("manifest_order80", "manifest_order24"),
    "chartable-sweep": ("GL23", "S5", "C11x5", "D48"),
    "lattice-report": ("C2_4", "D4xS3", "order24", "order80"),
}
SETUP_REPEATS = 5
# The fastest of 3000 calls of workloads.probe() on the machine that
# baseline.json names (Python 3.11.7, Intel Xeon, 2 CPUs).  End-to-end times
# are reported at the speed at which the probe takes this long.
REFERENCE_PROBE_S = 0.00096


def per_layer_names():
    """Every per-layer metric with its unit, in the order BENCHMARK.json lists them."""
    names = [("trace.wall_s", "s"), ("trace.overhead_frac", "frac")]
    names += [(f"{s}_frac", "frac") for s in SPANS]
    names += [(f"{layer}.self_frac", "frac") for layer in LAYERS]
    names += [(c, "count") for c in COUNTS]
    names.append(("linalg.echelon_yield", "frac"))
    names += [(f"item_frac.{i}", "frac") for items in ITEMS.values() for i in items]
    return names


def _import_library():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import isotypic
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import isotypic from {src}: {exc}")
    if Path(isotypic.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: isotypic was imported from {isotypic.__file__}, not {src}")
    import spans as tr_mod
    import workloads as wl_mod
    return tr_mod, wl_mod


def import_seconds():
    """Time to import the package in a fresh interpreter."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import isotypic; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_pass(items, tracer, outcome, workloads):
    t0 = perf_counter()
    for item in items:
        workloads.run_item(item, tracer, outcome)
    return perf_counter() - t0


def layer_metrics(tracer, wall, untraced_wall):
    """Per-layer metrics of one traced pass and the untraced pass before it."""
    m = {"trace.wall_s": wall, "trace.overhead_frac": wall / untraced_wall - 1.0}
    for s in SPANS:
        m[f"{s}_frac"] = tracer.inclusive.get(s, 0.0) / wall
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = tracer.layer_self.get(layer, 0.0) / wall
    for c in COUNTS:
        m[c] = tracer.counts.get(c, 0)
    adds = tracer.counts.get("linalg.echelon_adds", 0)
    rank_ups = tracer.counts.get("linalg.echelon_rank_ups", 0)
    m["linalg.echelon_yield"] = rank_ups / adds if adds else 0.0
    for items in ITEMS.values():
        for i in items:
            m[f"item_frac.{i}"] = tracer.inclusive.get(f"item.{i}", 0.0) / wall
    return m


def uncontended(samples):
    """Median of seconds * REFERENCE_PROBE_S / mean(probe before, probe after)."""
    return statistics.median(t * 2 * REFERENCE_PROBE_S / (before + after)
                             for t, before, after in samples)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(args, setup=None):
    """One benchmark run; returns (result dict, human-readable row).

    ``setup`` replaces the workload's input set-up; the self-test uses it.
    """
    trace_mod, workloads = _import_library()
    import inputs

    setup = setup or workloads.SETUPS[args.workload]
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        before = workloads.probe()
        import_s = import_seconds()
        t0 = perf_counter()
        items = setup(inputs.rng_for(args.seed))
        setup_samples.append((import_s + perf_counter() - t0, before, workloads.probe()))

    tracer = trace_mod.Tracer()
    outcome = workloads.Outcome()
    run_pass(items, tracer, outcome, workloads)  # warm-up
    outcome.step_s.clear()

    plain, traced, per_pass = [], [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        plain.append(run_pass(items, tracer, outcome, workloads))
        if args.trace:
            tracer.reset_pass()
            trace_mod.install_counters(tracer)
            tracer.active = True
            try:
                wall = run_pass(items, tracer, outcome, workloads)
            finally:
                tracer.active = False
                tracer.uninstall()
            traced.append(wall)
            per_pass.append(layer_metrics(tracer, wall, plain[-1]))
        step = perf_counter() - t0
        if perf_counter() - t_start + step > args.seconds:
            break

    # Other processes on a shared machine slow it down by up to 1.9x, in
    # bursts from a fraction of a second to minutes, some longer than a run.
    # Each timed step is therefore scaled by REFERENCE_PROBE_S over the probes
    # taken around it, and the median over passes is kept: the step's time
    # at the speed at which the probe takes REFERENCE_PROBE_S.
    wall_s = sum(uncontended(samples) for samples in outcome.step_s.values())
    setup_s = uncontended(setup_samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    if args.trace:
        for name, unit in per_layer_names():
            metrics[name] = {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace_{args.workload}_seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "passes": per_pass,
            "untraced_wall_s": plain, "traced_wall_s": traced,
        })
    else:
        metrics["wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    q1, q3 = quartiles(plain)
    row = (f"{args.workload:16s} wall_s {wall_s:.4f} s (passes: median "
           f"{statistics.median(plain):.4f} q1 {q1:.4f} q3 {q3:.4f} n={len(plain)})  "
           f"setup_s {setup_s:.4f} s  peak_rss_mb {rss_mb:.1f} MB  "
           f"fail_frac {outcome.failed / outcome.attempted:.4f} "
           f"({outcome.failed}/{outcome.attempted})")
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}")
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    return result, row


def run_all(args):
    """Every workload in its own process, one row each; non-zero exit on any failure."""
    ok = True
    for name in ITEMS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:16s} no result (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(ITEMS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, one row each")
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    result, row = run_workload(args)
    print(row)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
