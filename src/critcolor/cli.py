"""Command-line front end.

Every subcommand but ``bound`` and ``enumerate`` takes a graph as a trailing
graph6 argument, or ``-`` to read one graph per line from standard input
(results come back in input order).  Exit codes follow one convention: 0 for
the affirmative outcome, 1 for the negative one (pattern found, not
k-colourable, not critical, precondition failed for cotree/pair), 2 for usage
errors, malformed input and violated preconditions elsewhere.  ``--json``
swaps the human output for one structured document per invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import chroma, construct, critical, enumeration
from .cograph import (
    PairPreconditionError,
    find_anticomplete_pair,
    recognize,
    render_cotree,
)
from .graphs import Graph, ingest_graph6_stream, parse_graph6, to_graph6
from .patterns import format_pattern, is_free, parse_pattern


def _node_budget(text: str) -> int:
    """The type of ``--budget``: a node count, 0 included."""
    try:
        nodes = int(text)
    except ValueError:
        nodes = -1
    if nodes < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative node count, got {text!r}")
    return nodes


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_node_budget, default=None, metavar="NODES",
                        help="abort exact searches after this many nodes")

    parser = argparse.ArgumentParser(prog="critcolor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("free", parents=[common], help="test forbidden patterns")
    p.set_defaults(run=_cmd_free)
    p.add_argument("--pattern", "-p", action="append", required=True, metavar="SPEC")
    p.add_argument("graph")

    p = sub.add_parser("chi", parents=[common, budget], help="chromatic number")
    p.set_defaults(run=_cmd_chi)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("graph")

    p = sub.add_parser("critical", parents=[common, budget], help="criticality report")
    p.set_defaults(run=_cmd_critical)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("graph")

    p = sub.add_parser("cotree", parents=[common], help="cotree decomposition")
    p.set_defaults(run=_cmd_cotree)
    p.add_argument("graph")

    p = sub.add_parser("pair", parents=[common], help="anticomplete pair with shared neighbourhood")
    p.set_defaults(run=_cmd_pair)
    p.add_argument("graph")

    p = sub.add_parser("color", parents=[common], help="bounded-palette colouring")
    p.set_defaults(run=_cmd_color)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--clique", type=int, default=3, metavar="K")
    p.add_argument("--no-verify", action="store_true", help="skip the family precondition check")
    p.add_argument("graph")

    p = sub.add_parser("bound", parents=[common], help="palette bound value")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("enumerate", parents=[common], help="isomorphism-free enumeration")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--free", action="append", default=[], metavar="SPEC")
    p.add_argument("--critical", type=int, default=None, metavar="K")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--db", default=None, metavar="PATH")

    p = sub.add_parser("certify", parents=[common, budget], help="certified k-colourability")
    p.set_defaults(run=_cmd_certify)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--db", required=True, metavar="PATH")
    p.add_argument("graph")

    return parser


def _coloring_payload(col: chroma.Coloring) -> dict:
    return {"palette": col.palette_size, "assignment": list(col.assignment)}


def _fmt_assignment(col: chroma.Coloring) -> str:
    return ",".join(str(c) for c in col.assignment)


def _cmd_free(args, g: Graph):
    specs = [parse_pattern(t) for t in args.pattern]
    ok, hit = is_free(g, specs)
    if ok:
        return 0, {"free": True}, "free"
    spec, emb = hit
    name = format_pattern(spec)
    return 1, {"free": False, "pattern": name, "embedding": list(emb.mapping)}, \
        f"contains {name} at {','.join(map(str, emb.mapping))}"


def _cmd_chi(args, g: Graph):
    if args.k is None:
        chi, col = chroma.chromatic_number(g, args.budget)
        if not chroma.is_proper_coloring(g, col):  # pragma: no cover
            raise AssertionError("witness failed re-verification")
        return 0, {"chi": chi, **_coloring_payload(col)}, f"chi={chi} colouring={_fmt_assignment(col)}"
    col = chroma.is_k_colorable(g, args.k, args.budget)
    if col is None:
        return 1, {"colorable": False, "k": args.k}, f"not {args.k}-colourable"
    if not chroma.is_proper_coloring(g, col):  # pragma: no cover
        raise AssertionError("witness failed re-verification")
    return 0, {"colorable": True, "k": args.k, **_coloring_payload(col)}, \
        f"{args.k}-colourable colouring={_fmt_assignment(col)}"


def _cmd_critical(args, g: Graph):
    report = critical.criticality_report(g, args.k, args.budget)
    payload = {
        "k": report.k,
        "chi": report.chi,
        "per_vertex": list(report.per_vertex),
        "verdict": report.verdict,
    }
    human = (f"chi={report.chi} per-vertex={','.join(map(str, report.per_vertex))} "
             f"{'critical' if report.verdict else 'not critical'}")
    return (0 if report.verdict else 1), payload, human


def _cmd_cotree(args, g: Graph):
    if g.n == 0:
        return 1, {"cotree": None}, "empty graph has no cotree"
    tree = recognize(g)
    if tree is None:
        return 1, {"cotree": None}, "graph has an induced P4"
    term = render_cotree(tree)
    return 0, {"cotree": term}, term


def _cmd_pair(args, g: Graph):
    try:
        pair = find_anticomplete_pair(g)
    except PairPreconditionError as exc:
        return 1, {"error": str(exc)}, f"precondition failed: {exc}"
    payload = {"x": sorted(pair.x), "y": sorted(pair.y), "w": sorted(pair.w)}
    human = " ".join(f"{k.upper()}={{{','.join(map(str, sorted(v)))}}}"
                     for k, v in (("x", pair.x), ("y", pair.y), ("w", pair.w)))
    return 0, payload, human


def _cmd_color(args, g: Graph):
    col = construct.color_kk_free(g, args.ell, args.clique, check=not args.no_verify)
    bound = construct.bound_f(args.clique, args.ell)
    payload = {**_coloring_payload(col), "bound": bound}
    return 0, payload, (f"palette={col.palette_size} bound={bound} "
                        f"colouring={_fmt_assignment(col)}")


def _cmd_certify(args, g: Graph):
    result = critical.certify_k_colorable(g, args.k, args.db, args.budget)
    if isinstance(result, chroma.Coloring):
        return 0, {"colorable": True, **_coloring_payload(result)}, \
            f"{args.k}-colourable colouring={_fmt_assignment(result)}"
    where = ",".join(map(str, result.embedding.mapping))
    payload = {
        "colorable": False,
        "member_index": result.member_index,
        "member": result.pattern_graph6,
        "embedding": list(result.embedding.mapping),
    }
    return 1, payload, f"witness {result.pattern_graph6} at {where}"


def _cmd_bound(args):
    value = construct.bound_f(args.k, args.ell)
    return 0, {"bound": value}, str(value)


def _cmd_enumerate(args):
    filters = [parse_pattern(t) for t in args.free]
    if args.db and args.critical is None:
        raise ValueError("--db writes a critical-graph database and needs --critical K")
    if args.critical is None:
        texts = [to_graph6(g) for g in enumeration.enumerate_graphs(args.n, filters, args.connected)]
    else:
        db = enumeration.enumerate_critical(args.critical, args.n, filters)
        texts = list(db.members)  # critical members are connected already
        if args.db:
            critical.save_critdb(db, args.db)
    payload = {"count": len(texts), "graphs": texts, **({"db": args.db} if args.db else {})}
    return 0, payload, "\n".join(texts)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, execute, print, return the exit code.  One printer
    writes every command's (code, payload, human) results, one per graph."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        if args.command == "certify":
            args.db = critical.load_critdb(args.db)  # once, before any graph is read
        batch = getattr(args, "graph", None) == "-"
        if hasattr(args, "graph"):
            graphs = list(ingest_graph6_stream(sys.stdin.read().splitlines())) if batch \
                else [parse_graph6(args.graph)]
            results, given = [args.run(args, g) for g in graphs], [to_graph6(g) for g in graphs]
        else:
            results, given = [args.run(args)], None
        if args.json:
            payloads = [payload for _, payload, _ in results]
            print(json.dumps({
                "command": argv,
                "input": given if batch or given is None else given[0],
                "result": payloads if batch else payloads[0],
                "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
            }))
        else:  # an enumeration that found nothing prints no line
            sys.stdout.writelines(f"{human}\n" for _, _, human in results if human)
        return max((code for code, _, _ in results), default=0)
    except (chroma.BudgetExhausted, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
