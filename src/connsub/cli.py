"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 verification failure or
counterexample, 2 usage, input or output error, including a graph too large
for exact counting.  Counts always print as decimal strings.  ``-`` reads
graphs from stdin, one graph6 line each.  ``count --method both`` compares
the first two routes of ``decompose.routes`` (a lone route with itself), and
``oracle-diff`` counts F by every one.

``main`` alone turns an exception into exit 2: a ``ValueError`` for bad
input, an ``OSError`` for a failed read or write.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census, decompose, families, verify
from .extremal import (
    GENERATION_CAP,
    ClassSpec,
    report_summary_line,
    report_to_json_dict,
    search_min_F,
    search_min_vertex_subgraph_number,
)
from .graph import MAX_VERTICES, Graph
from .graphio import FormatError, parse_edge_list, parse_graph6, export_dot, serialize_graph6


def _read_graphs(path: str, fmt: str) -> list[Graph]:
    if path == "-":
        text = sys.stdin.read()
    else:
        # decoded as stdin is, so the same bytes get the same error
        try:
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read {path}: {exc}") from exc
    try:
        if fmt == "edgelist":
            return [parse_edge_list(text)]
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
        if not lines:
            raise ValueError("no graphs in input")
        return [parse_graph6(ln) for ln in lines]
    except FormatError as exc:
        raise ValueError(f"bad input: {exc}") from exc


def _cmd_count(args: argparse.Namespace) -> int:
    # the flags are read before the input, so a usage error comes first
    req: tuple[int, ...] = ()
    if args.vertex is not None and args.containing is not None:
        raise ValueError("--vertex and --containing are mutually exclusive")
    if args.vertex is not None:
        req = (args.vertex,)
    elif args.containing is not None:
        try:
            req = tuple(int(x) for x in args.containing.split(",") if x != "")
        except ValueError as exc:
            raise ValueError(f"bad --containing list: {exc}") from exc
        if not req:
            raise ValueError(f"bad --containing list: no vertex in {args.containing!r}")
    status = 0
    for g in _read_graphs(args.infile, args.format):
        if args.method != "both":
            print((census if args.method == "brute" else decompose).count_containing(g, req))
            continue
        # the first two routes; a graph with one compares it with itself
        first, second = (decompose.routes(g, req) * 2)[:2]
        brute, count = first.count(g, req), second.count(g, req)
        print(brute, count)
        if brute != count:
            print(f"MISMATCH brute={brute} {second.name}={count}", file=sys.stderr)
            status = 1
    return status


def _cmd_family(args: argparse.Namespace) -> int:
    fs = families.parse_family_spec(args.spec)
    g = families.build(fs)
    print(f"F={families.closed_form_F(fs)}")
    for tag in families.special_tags(fs.name):
        print(f"f[{tag}]={families.closed_form_f(fs, tag)}")
    if args.emit == "graph6":
        print(serialize_graph6(g))
    elif args.emit == "dot":
        highlights = [
            families.special_vertex(fs, tag) for tag in families.special_tags(fs.name)
        ]
        sys.stdout.write(export_dot(g, highlights))
    if not args.check:
        return 0
    ok = True
    for tag, want, got in verify.compare_family(fs):
        ok = ok and want == got
        what = "check:" if tag is None else f"check f[{tag}]:"
        print(f"{what} predicted={want} computed={got} {'PASS' if want == got else 'FAIL'}")
    return 0 if ok else 1


def _cmd_search(args: argparse.Namespace) -> int:
    spec = ClassSpec(args.n, args.k, args.girth, args.subset)
    if args.objective == "F":
        report = search_min_F(spec)
    else:
        report = search_min_vertex_subgraph_number(spec)
    print(report_summary_line(report))
    if args.out:
        doc = report_to_json_dict(report)
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max is not None and args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    if args.suite == "table1" and args.n_max is not None and args.n_max > GENERATION_CAP:
        raise ValueError(f"--n-max for table1 searches must be at most {GENERATION_CAP}")
    # every family spec up to --n-max is listed before the first is built
    if args.suite == "formulas" and args.n_max is not None and args.n_max > MAX_VERTICES:
        raise ValueError(f"--n-max for formulas must be at most {MAX_VERTICES}")
    n_max = () if args.n_max is None else (args.n_max,)  # absent: each suite's default
    if args.suite == "formulas":
        reports = [verify.verify_formulas(*n_max)]
    elif args.suite == "theorems":
        # built before any line is printed, so a refused --n-max prints nothing
        reports = [verify.verify_theorem(name, *n_max) for name in verify.theorem_names()]
    else:
        reports = [verify.verify_table1(*n_max)]
    ok = True
    for rep in reports:
        for line in rep.lines():
            print(line)
        ok = ok and rep.passed
    return 0 if ok else 1


def _cmd_oracle_diff(args: argparse.Namespace) -> int:
    status = 0
    for g in _read_graphs(args.infile, args.format):
        results = {route.name: route.count(g, ()) for route in decompose.routes(g)}
        values = set(results.values())
        if len(values) == 1:
            print(f"ok F={values.pop()} routes={','.join(sorted(results))}")
        else:
            print("MISMATCH " + " ".join(f"{k}={v}" for k, v in sorted(results.items())))
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connsub",
        description="Exact connected-subgraph counting and extremal search over small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    io = argparse.ArgumentParser(add_help=False)  # count's and oracle-diff's input
    io.add_argument("--in", dest="infile", required=True, help="input file or - for stdin")
    io.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")

    p = sub.add_parser("count", parents=[io], help="count connected subgraphs of input graphs")
    p.add_argument("--vertex", type=int, help="count subgraphs containing this vertex")
    p.add_argument("--containing", help="comma-separated vertices all subgraphs must contain")
    p.add_argument("--method", choices=("brute", "decompose", "both"), default="decompose",
                   help="brute: census's preferred route; decompose: cut-vertex decomposition;"
                   " both: census's route checked against the next independent route")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("family", help="closed-form counts for a named family")
    p.add_argument("--spec", required=True, help="family spec, e.g. L:n=12,g=11")
    p.add_argument("--emit", choices=("graph6", "dot"))
    p.add_argument("--check", action="store_true", help="recompute and compare")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("search", help="exhaustive minimizer search over a class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--girth", type=int, help="minimum girth bound")
    p.add_argument("--subset", choices=("all", "trees", "nontrees"), default="all")
    p.add_argument("--objective", choices=("F", "minf"), default="F")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("table1", "theorems", "formulas"), required=True)
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="formulas: the largest family order, at most"
                   f" {MAX_VERTICES}; table1: the search cap, at most"
                   f" {GENERATION_CAP}; theorems: lowers each check's last n, never raises it")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "oracle-diff", parents=[io], help="cross-check every counting route on input graphs"
    )
    p.set_defaults(fn=_cmd_oracle_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return status
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the interpreter flushes stdout again at exit; let that go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
