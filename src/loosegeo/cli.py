"""Command-line interface.

Exit codes: 0 on success, 1 when a verification fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import formats, matrices, theorems
from .autsearch import comb_aut_group, proj_aut_group
from .scheme import (
    build_scheme,
    classify_lines,
    count_points,
    interpolate_count_polynomial,
)


def _plain(obj):
    """JSON form of a value that is not plain data: a dataclass, such as a
    collineation witness, becomes its fields; anything else its string."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return str(obj)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=_plain)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def cmd_points(args) -> int:
    g = formats.load_graph(args.graph)
    scheme = build_scheme(g, args.q)
    if args.ext != 1:
        n = scheme.point_count(args.ext)
        _emit(args, {"q": args.q, "ext": args.ext, "count": n},
              [f"{n} points over F_{args.q}^{args.ext}"])
        return 0
    pts = [list(p) for p in scheme.points]
    _emit(args, {"q": args.q, "coordinates": scheme.completion.names, "points": pts},
          [" ".join(scheme.completion.names)] + [" ".join(map(str, p)) for p in pts])
    return 0


def cmd_lines(args) -> int:
    g = formats.load_graph(args.graph)
    scheme = build_scheme(g, args.q)
    lines = classify_lines(scheme)
    payload = [
        {"kind": ln.kind, "basis": [list(b) for b in ln.basis],
         "rational_points": len(ln.points),
         "missing": list(ln.missing) if ln.missing else None}
        for ln in lines
    ]
    text = [f"{ln.kind:10s} basis={ln.basis} points={len(ln.points)}" for ln in lines]
    _emit(args, {"q": args.q, "lines": payload}, text + [f"{len(lines)} lines total"])
    return 0


def cmd_count(args) -> int:
    g = formats.load_graph(args.graph)
    qs = args.q or [2, 3, 4, 5]
    counts = count_points(g, qs)
    poly = interpolate_count_polynomial(g)
    payload = {"counts": counts, "polynomial": [str(c) for c in poly]}
    text = [f"q={q}: {n}" for q, n in counts.items()]
    text.append("polynomial coefficients (ascending): " + ", ".join(str(c) for c in poly))
    _emit(args, payload, text)
    return 0


def cmd_aut(args) -> int:
    g = formats.load_graph(args.graph)
    scheme = build_scheme(g, args.q)
    proj = proj_aut_group(scheme)
    comb = comb_aut_group(scheme)
    payload = {
        "q": args.q,
        "projective_order": proj.order,
        "linear_order": proj.linear_order,
        "combinatorial_order": comb.order,
        "equal": proj.perm_group.same_group(comb.perm_group),
        "combinatorial_generators": len(comb.perm_group.generators),
        "combinatorial_search_nodes": comb.nodes,
    }
    _emit(args, payload, [
        f"projective stabilizer order: {proj.order} (linear part {proj.linear_order})",
        f"combinatorial automorphism order: {comb.order}",
        f"groups coincide on points: {payload['equal']}",
    ])
    return 0


def cmd_matrix(args) -> int:
    mor = formats.load_morphism(args.morphism)
    mat = matrices.global_matrix(mor)
    rep = matrices.injectivity_criterion(mor)
    payload = {
        "matrix": [list(r) for r in mat],
        "rank": rep.rank,
        "source_dim": rep.source_dim,
        "target_dim": rep.target_dim,
        "injective": rep.injective,
    }
    text = [" ".join(map(str, row)) for row in mat]
    text.append(f"rank {rep.rank} of {rep.source_dim} -> injective: {rep.injective}")
    _emit(args, payload, text)
    return 0


def cmd_kernel(args) -> int:
    mor = formats.load_morphism(args.morphism)
    rep = matrices.kernel_f1(mor, args.q)
    payload = {
        "q": args.q,
        "kernel": [list(p) for p in rep["kernel"]],
        "domain_size": len(rep["domain"]),
    }
    text = [f"kernel points: {len(rep['kernel'])}, open domain: {len(rep['domain'])}"]
    text += [" ".join(map(str, p)) for p in rep["kernel"]]
    _emit(args, payload, text)
    return 0


def _report_line(r) -> str:
    extra = f"  # {r.detail}" if r.verdict != "pass" and r.detail else ""
    return f"{r.verdict.upper():5s} {r.theorem} [{r.graph}, q={r.q}]{extra}"


def cmd_verify(args) -> int:
    graph = formats.load_graph(args.graph) if args.graph else None
    options = {}
    if args.seed is not None:
        options["seed"] = args.seed
    if args.expected is not None:
        options["expected"] = args.expected
    rep = theorems.verify(args.check, graph, args.q, name=args.graph or "-", options=options)
    text = [_report_line(rep)]
    for key, value in rep.quantities.items():
        text.append(f"  {key}: {value}")
    if rep.verdict == "fail":
        text += [f"  witness: {w}" for w in rep.witnesses]
    _emit(args, dataclasses.asdict(rep), text)
    return 0 if rep.verdict != "fail" else 1


def cmd_suite(args) -> int:
    entries = formats.load_manifest(args.manifest)
    qs = tuple(args.q) if args.q else (2, 3)
    result = theorems.run_suite(entries, qs)
    payload = {"ok": result["ok"], "reports": [dataclasses.asdict(r) for r in result["reports"]]}
    text = [_report_line(r) for r in result["reports"]]
    n_fail = len(result["failed"])
    text.append(f"{len(result['reports'])} checks, {n_fail} failed")
    _emit(args, payload, text)
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loosegeo",
        description="point-set models of loose graphs over finite fields",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS: a subcommand without --json keeps the value given before it
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", parents=[common], help="rational points of a graph's point set")
    p.add_argument("graph")
    p.add_argument("-q", type=int, default=2)
    p.add_argument("--ext", type=int, default=1, help="field extension degree")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("lines", parents=[common], help="projective and complete-affine lines")
    p.add_argument("graph")
    p.add_argument("-q", type=int, default=2)
    p.set_defaults(func=cmd_lines)

    p = sub.add_parser("count", parents=[common], help="point counts and the counting polynomial")
    p.add_argument("graph")
    p.add_argument("-q", type=int, action="append")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("aut", parents=[common], help="projective and combinatorial automorphism groups")
    p.add_argument("graph")
    p.add_argument("-q", type=int, default=2)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("matrix", parents=[common], help="global matrix of a morphism")
    p.add_argument("morphism")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("kernel", parents=[common], help="kernel of the induced linear map")
    p.add_argument("morphism")
    p.add_argument("-q", type=int, default=2)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", parents=[common], help="run one named check")
    p.add_argument("check", choices=theorems.CHECK_IDS)
    p.add_argument("graph", nargs="?", help="graph file (omit for global checks)")
    p.add_argument("-q", type=int, default=2)
    p.add_argument("--seed", type=int, help="seed for randomized pairs")
    p.add_argument("--expected", type=formats.parse_bool,
                   help="expected truth value (igp): true/false, 1/0 or yes/no")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", parents=[common], help="run a manifest of checks")
    p.add_argument("manifest")
    p.add_argument("-q", type=int, action="append")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
