"""Traced layer split of the full order-80 construction pipeline.

This is acceptance criterion 06 on the bundled group, table and
representation: rep_from_json -> diagonal_idempotents ->
validate_schur_from_rep -> assert_schur -> construct_primitive_system ->
system_grid_checks -> symmetrize_to_subfield -> symmetrize_to_rational.
One pass takes about two minutes, too long for the timed workloads, so it
runs on its own, once, with the counters of the traced run installed:

    python3 perfbench/order80_split.py

It checks the outputs exactly (m = 2, every grid check, u11 and u21 against
the transcription in ``isotypic.fixtures``), prints the seconds and share of
each span and writes them to ``perfbench/out/order80_split.json``.  Exit
code 0 means every check passed.
"""

from __future__ import annotations

import json
import platform
import sys
from time import perf_counter

import run


def main():
    spans, workloads = run._import_library()
    from isotypic import (
        assert_schur, construct_primitive_system, diagonal_idempotents, galois_orbits,
        symmetrize_to_rational, symmetrize_to_subfield, system_grid_checks,
        validate_schur_from_rep,
    )
    from isotypic.fixtures import order80_element, order80_group
    from isotypic.serialize import rep_from_json, table_from_json

    tracer = spans.Tracer()
    spans.install_counters(tracer)
    tracer.active = True
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    t0 = perf_counter()
    with tracer.span("groups.build"):
        g = order80_group()
    with tracer.span("groups.classes"):
        g.conjugacy_classes()
    with tracer.span("groups.lattice"):
        g.subgroup_classes()
    with tracer.span("serialize.table_load"):
        table = table_from_json(g, json.loads(workloads.bundled_text("table_order80.json")))
    with tracer.span("characters.orbits"):
        orbits = galois_orbits(table)
    quad = next(o for o in orbits if o.degree == 4 and len(o.char_indices) == 2)
    with tracer.span("serialize.rep_load"):
        rep = rep_from_json(g, table, json.loads(workloads.bundled_text("rep_order80.json")))
    with tracer.span("groupalgebra.diag"):
        ells = diagonal_idempotents(rep)
    with tracer.span("groupalgebra.schur"):
        m = validate_schur_from_rep(rep, quad)
    check(m == 2, f"Schur index {m}")
    orbit = assert_schur(quad, m, "validated representation")
    with tracer.span("groupalgebra.primitive"):
        system = construct_primitive_system(rep, orbit, ells=ells)
    with tracer.span("groupalgebra.grid_checks"):
        grid = system_grid_checks(system)
    check(all(ok for _, ok in grid), "grid checks")
    with tracer.span("groupalgebra.symmetrize_k"):
        symmetrize_to_subfield(system)
    with tracer.span("groupalgebra.symmetrize_q"):
        symmetrize_to_rational(system)
    wall = perf_counter() - t0
    tracer.active = False
    tracer.uninstall()
    check(system.u_grid[0][0] == order80_element(g, rep.field, "u11"), "u11 transcription")
    check(system.u_grid[1][0] == order80_element(g, rep.field, "u21"), "u21 transcription")

    seconds = {name: round(t, 3) for name, t in sorted(tracer.inclusive.items())}
    layers = {name: round(t, 3) for name, t in sorted(tracer.layer_self.items())}
    result = {
        "python": platform.python_version(), "machine": platform.machine(),
        "traced_wall_s": round(wall, 3), "span_s": seconds, "layer_self_s": layers,
        "counts": dict(sorted(tracer.counts.items())), "failures": failures,
    }
    for name, t in seconds.items():
        print(f"{name:28s} {t:9.3f} s  {t / wall:6.1%}")
    print(f"{'traced wall':28s} {wall:9.3f} s")
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "order80_split.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for f in failures:
        print(f"FAILED {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
