"""Command-line surface: isotypic group-info|chartable|idempotents|decompose|
classify|full-report|verify.

Exit codes: 0 success, 2 input validation error, 3 mathematical invariant
failure, 4 resource bound exceeded.  All output is deterministic for
identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .characters import (
    assert_schur,
    compute_character_table,
    galois_orbits,
    orbit_index,
)
from .cyclotomic import render_cyc
from .decomposition import JacobianDecomposer
from .errors import BoundExceededError, InvariantError, ValidationError
from .fixtures import DATA
from .groups import DEFAULT_LATTICE_BOUND
from .groupalgebra import (
    central_idempotent,
    construct_primitive_system,
    invariant_idempotent,
    rational_central_idempotent,
    symmetrize_to_rational,
    symmetrize_to_subfield,
    system_grid_checks,
    validate_schur_from_rep,
)
from .numberfield import render_nf
from .serialize import (
    dumps,
    element_to_json,
    group_from_spec,
    rep_from_json,
    table_from_json,
    table_to_json,
)
from .verify import ManifestRunner, parse_subgroup

Rat = Fraction


def _load_json(path: str):
    if path.startswith("bundled:"):
        text = (DATA / path.split(":", 1)[1]).read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path} is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from None


def _load_group(args):
    """The group of --group, with its subgroup lattice computed under --lattice-bound."""
    group = group_from_spec(_load_json(args.group))
    group.subgroup_classes(bound=args.lattice_bound)
    return group


def _load_table(group, args):
    if getattr(args, "table", None):
        return table_from_json(group, _load_json(args.table))
    return compute_character_table(group)


def render_scalar(c) -> str:
    if isinstance(c, Rat):
        return str(c)
    if hasattr(c, "level"):
        return render_cyc(c)
    return render_nf(c)


def render_element(group, el) -> str:
    parts = []
    for g in sorted(el.coeffs):
        parts.append(f"({render_scalar(el.coeffs[g])})*{group.label_of(g)}")
    return " + ".join(parts) if parts else "0"


def _parse_irrep_spec(spec: str):
    """"13" or "13-14": 1-based character indices of the canonical table."""
    try:
        return tuple(int(p) for p in spec.split("-"))
    except ValueError:
        raise ValidationError(f"bad irreducible selector {spec!r}") from None


def _parse_schur_assertions(pairs):
    """(selector, m) per --assert-schur, in the order given."""
    out = []
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"--assert-schur needs IRREP=m, got {pair!r}")
        spec, m = pair.rsplit("=", 1)
        try:
            out.append((_parse_irrep_spec(spec), int(m)))
        except ValueError:
            raise ValidationError(f"--assert-schur needs an integer m, got {pair!r}") from None
    return out


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        sys.stdout.write(dumps(json_obj))
    else:
        for line in text_lines:
            print(line)


# -- commands -------------------------------------------------------------------


def cmd_group_info(args) -> int:
    group = _load_group(args)
    classes = group.conjugacy_classes()
    subs = group.subgroup_classes()
    info = {
        "order": group.order,
        "exponent": group.exponent,
        "conjugacy_classes": len(classes),
        "subgroup_classes": len(subs),
        "fusion_classes": len(group.rational_fusion_classes()),
    }
    _emit(args, [
        f"order {info['order']}, {info['conjugacy_classes']} classes",
        f"exponent {info['exponent']}",
        f"{info['subgroup_classes']} subgroup classes up to conjugacy",
        f"{info['fusion_classes']} rational fusion classes",
    ], info)
    return 0


def cmd_chartable(args) -> int:
    group = _load_group(args)
    table = _load_table(group, args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dumps(table_to_json(table)))
    lines = []
    reps = [group.label_of(c.representative) for c in table.classes]
    lines.append("classes: " + "  ".join(reps))
    for i, ch in enumerate(table.chars):
        vals = "  ".join(render_cyc(v) for v in ch.values)
        lines.append(f"V{i + 1} (deg {ch.degree}): {vals}")
    orbits = galois_orbits(table)
    lines.append("rational irreducibles: " + ", ".join(o.label() for o in orbits))
    _emit(args, lines, table_to_json(table))
    return 0


def cmd_idempotents(args) -> int:
    if args.which != "primitive" and args.irrep is None:
        raise ValidationError(f"{args.which} idempotents need --irrep SELECTOR")
    group = _load_group(args)
    table = _load_table(group, args)
    orbits = galois_orbits(table)
    transcript = []
    payload = {}
    lines = []

    if args.which == "central":
        orbit = orbits[orbit_index(orbits, _parse_irrep_spec(args.irrep))]
        ew = rational_central_idempotent(table, orbit)
        transcript.append(("rational central element is idempotent", ew.is_idempotent()))
        transcript.append(("rational central element is central", ew.is_central()))
        payload["e_rational"] = element_to_json(ew)
        lines.append(f"e_W for {orbit.label()}:")
        lines.append("  " + render_element(group, ew))
        for ci in orbit.char_indices:
            ev = central_idempotent(table, ci)
            transcript.append((f"central element of V{ci + 1} is idempotent", ev.is_idempotent()))
            payload[f"e_V{ci + 1}"] = element_to_json(ev)
            lines.append(f"e_V for V{ci + 1}:")
            lines.append("  " + render_element(group, ev))

    elif args.which == "subgroup":
        orbit = orbits[orbit_index(orbits, _parse_irrep_spec(args.irrep))]
        if not args.subgroup:
            raise ValidationError("subgroup idempotents need --H WORDS")
        members = parse_subgroup(group, args.subgroup)
        f = invariant_idempotent(table, orbit, members)
        transcript.append(("f_H is idempotent", f.is_idempotent()))
        transcript.append(("f_H is two-sided H-invariant", f.is_bi_invariant(members)))
        if f.is_zero():
            lines.append("f_H = 0 (the irreducible has no H-fixed vectors)")
        else:
            lines.append("f_H = " + render_element(group, f))
        payload["f_H"] = element_to_json(f)

    elif args.which == "primitive":
        if not args.rep:
            raise ValidationError("primitive idempotents need --rep FILE")
        rep = rep_from_json(group, table, _load_json(args.rep))
        orbit = orbits[orbit_index(orbits, rep.char_index + 1)]
        orbit = assert_schur(orbit, validate_schur_from_rep(rep, orbit), "validated representation")
        system = construct_primitive_system(rep, orbit)
        ks = symmetrize_to_subfield(system)
        fs = symmetrize_to_rational(system)
        transcript.extend(system_grid_checks(system))
        transcript.append(("k elements validated", True))
        transcript.append(("f elements validated", True))
        for s, row in enumerate(system.u_grid):
            for h, u in enumerate(row):
                payload[f"u{s + 1}{h + 1}"] = element_to_json(u)
        for s, k in enumerate(ks):
            payload[f"k{s + 1}"] = element_to_json(k)
            lines.append(f"k{s + 1} = " + render_element(group, k))
        for s, f in enumerate(fs):
            payload[f"f{s + 1}"] = element_to_json(f)
            lines.append(f"f{s + 1} = " + render_element(group, f))

    else:  # pragma: no cover
        raise ValidationError(f"unknown idempotent kind {args.which!r}")

    lines.append("verification transcript:")
    for name, ok in transcript:
        lines.append(f"  [{'pass' if ok else 'FAIL'}] {name}")
    payload["transcript"] = [[name, ok] for name, ok in transcript]
    _emit(args, lines, payload)
    if any(not ok for _, ok in transcript):
        return 3
    return 0


def _decomposer(args, table):
    return JacobianDecomposer(table, schur_assertions=_parse_schur_assertions(args.assert_schur))


def _factor_json(dec, f):
    return {
        "irrep": f.label,
        "exponent": f.exponent,
        "schur": dec.orbits[f.orbit_index].schur.kind,
        "conditional": f.conditional,
    }


def cmd_decompose(args) -> int:
    if args.subject != "jacobian" and args.subgroup is None:
        raise ValidationError(f"decompose {args.subject} needs --H WORDS")
    if args.subject == "prym" and args.outer is None:
        raise ValidationError("decompose prym needs --N WORDS")
    group = _load_group(args)
    table = _load_table(group, args)
    dec = _decomposer(args, table)
    if args.subject == "jacobian":
        report = dec.decompose_jacobian()
    elif args.subject == "intermediate":
        report = dec.decompose_intermediate(parse_subgroup(group, args.subgroup))
    else:
        report = dec.decompose_prym(
            parse_subgroup(group, args.subgroup),
            parse_subgroup(group, args.outer),
        )
    lines = [f"{report.subject} ~ " + " x ".join(
        f"B[{f.label}]^{f.exponent}" for f in report.factors if f.exponent
    )]
    for f in report.factors:
        if f.conditional:
            lines.append(f"  note: exponent of {f.label} is conditional on the Schur bound")
    _emit(args, lines, {
        "subject": report.subject,
        "factors": [_factor_json(dec, f) for f in report.factors],
    })
    return 0


def _verdict_json(dec, v):
    if v.kind == "prym":
        return {"kind": "prym",
                "inner": dec.subgroup_name(v.witness.inner),
                "outer": dec.subgroup_name(v.witness.outer)}
    if v.kind == "intersection":
        return {"kind": "intersection",
                "inner": dec.subgroup_name(v.witness.inner),
                "outers": [dec.subgroup_name(i) for i in v.witness.outers]}
    return {"kind": "complement",
            "inner": dec.subgroup_name(v.witness.inner),
            "outer": dec.subgroup_name(v.witness.outer),
            "relation": {dec.orbits[i].label(): m
                         for i, m in enumerate(v.witness.relation) if m}}


def describe_verdict(dec, v) -> str:
    d = _verdict_json(dec, v)
    if v.kind == "prym":
        return f"P(W_{d['inner']}/W_{d['outer']})"
    if v.kind == "intersection":
        return " ∩ ".join(f"P(W_{d['inner']}/W_{o})" for o in d["outers"])
    rel = " + ".join(f"{m}*{lbl}" if m > 1 else lbl for lbl, m in d["relation"].items())
    return (f"complement inside P(W_{d['inner']}/W_{d['outer']}) "
            f"[rho_{d['inner']} - rho_{d['outer']} = {rel}]")


def cmd_classify(args) -> int:
    group = _load_group(args)
    table = _load_table(group, args)
    dec = _decomposer(args, table)
    oi = dec.orbit_index_of(_parse_irrep_spec(args.irrep))
    v = dec.classify_factor(oi, max_arity=args.max_intersection_arity)
    _emit(args, [f"{dec.orbits[oi].label()}: {v.kind}", "  " + describe_verdict(dec, v)],
          {"irrep": dec.orbits[oi].label(), "verdict": _verdict_json(dec, v)})
    return 0


def cmd_full_report(args) -> int:
    group = _load_group(args)
    table = _load_table(group, args)
    dec = _decomposer(args, table)
    jac, verdicts = dec.full_report(max_arity=args.max_intersection_arity)
    lines = [f"isotypical decomposition for the group of order {group.order}:"]
    pieces = ["JW_G"]
    for f in jac.factors[1:]:
        if f.exponent == 0:
            continue
        v = verdicts[f.orbit_index]
        desc = describe_verdict(dec, v) if v.kind != "complement" else f"B[{f.label}]"
        if v.kind == "intersection":
            desc = f"({desc})"
        pieces.append(f"{desc}^{f.exponent}" if f.exponent != 1 else desc)
    lines.append("JW ~ " + " x ".join(pieces))
    lines.append("associated rational irreducibles: " + ", ".join(
        f.label for f in jac.factors))
    for f in jac.factors[1:]:
        v = verdicts[f.orbit_index]
        orbit = dec.orbits[f.orbit_index]
        extra = " (conditional on the Schur bound)" if f.conditional else ""
        lines.append(f"  {f.label}: exponent {f.exponent}, {v.kind}: "
                     f"{describe_verdict(dec, v)} [schur: {orbit.schur.kind}]{extra}")
    payload = {
        "subject": "JW",
        "factors": [
            dict(_factor_json(dec, f), verdict=_verdict_json(dec, verdicts[f.orbit_index])
                 if f.orbit_index else None)
            for f in jac.factors
        ],
    }
    _emit(args, lines, payload)
    return 0


def cmd_verify(args) -> int:
    runner = ManifestRunner(_load_json(args.manifest))
    results = runner.run()
    failed = [name for name, ok in results if not ok]
    if args.format == "json":
        sys.stdout.write(dumps({"results": [[n, ok] for n, ok in results],
                                "failed": len(failed)}))
    else:
        for name, ok in results:
            print(f"[{'pass' if ok else 'FAIL'}] {name}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotypic",
        description="Exact rational idempotents and symbolic Jacobian decompositions "
                    "for finite group actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=True):
        p.add_argument("--group", required=True, help="group specification JSON (or bundled:NAME)")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--lattice-bound", type=int, default=DEFAULT_LATTICE_BOUND)
        if table:
            p.add_argument("--table", help="character table JSON instead of computing")

    p = sub.add_parser("group-info", help="order, classes, lattice summary")
    common(p, table=False)
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("chartable", help="compute or load the character table")
    common(p)
    p.add_argument("--out", help="write the table as JSON")
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("idempotents", help="central, subgroup or primitive idempotents")
    common(p)
    p.add_argument("which", choices=["central", "subgroup", "primitive"])
    p.add_argument("--irrep", help="character selector, e.g. 13 or 13-14")
    p.add_argument("--H", dest="subgroup", help="subgroup generators, e.g. 'x*y^2,x^10'")
    p.add_argument("--rep", help="matrix representation JSON (for primitive)")
    p.set_defaults(func=cmd_idempotents)

    p = sub.add_parser("decompose", help="jacobian, intermediate or prym decomposition")
    common(p)
    p.add_argument("subject", choices=["jacobian", "intermediate", "prym"])
    p.add_argument("--H", dest="subgroup", help="subgroup words for intermediate/prym")
    p.add_argument("--N", dest="outer", help="outer subgroup words for prym")
    p.add_argument("--assert-schur", action="append", metavar="IRREP=m")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="realizability verdict for one factor")
    common(p)
    p.add_argument("--irrep", required=True)
    p.add_argument("--assert-schur", action="append", metavar="IRREP=m")
    p.add_argument("--max-intersection-arity", type=int, default=4)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("full-report", help="theorem-shaped decomposition report")
    common(p)
    p.add_argument("--assert-schur", action="append", metavar="IRREP=m")
    p.add_argument("--max-intersection-arity", type=int, default=4)
    p.set_defaults(func=cmd_full_report)

    p = sub.add_parser("verify", help="run a fixture manifest")
    p.add_argument("manifest", help="manifest JSON path (or bundled:NAME)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option in ("lattice_bound", "max_intersection_arity"):
            value = getattr(args, option, 0)
            if value < 0:
                flag = "--" + option.replace("_", "-")
                raise ValidationError(f"{flag} must not be negative, got {value}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
