"""Command-line interface.

Subcommands read edge-list text from ``--in PATH`` (``-`` or omitted
means stdin) and write to stdout unless ``--out`` is given, so they
compose through pipes::

    domindex generate cycle:6 | domindex analyze

Exit codes: 0 success, 1 usage error, 2 proved-claim violation from
``verify``, 3 input parse error, 4 exact cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import engine, formats, verify
from .errors import (
    DomindexError,
    ExactCapExceeded,
    InvalidFamilyParams,
    UnsupportedOperation,
)
from .families import generate, parse_family
from .graph import Graph
from .ops import OP_NAMES, PRODUCT_KINDS, corona, disjoint_union, join, product

USAGE_ERROR, VIOLATION, PARSE_ERROR, CAP_ERROR = 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="domindex", description="Exact domination degree and index toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, inputs=1):
        if inputs:
            sp.add_argument(
                "--in", dest="inputs", action="append", metavar="PATH",
                help="input edge list; '-' or omitted reads stdin"
                + (" (repeat for the second operand)" if inputs == 2 else ""),
            )
        sp.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        sp.add_argument("--format", choices=("text", "json", "dot"), default=None)
        sp.add_argument("--max-exact", type=int, default=engine.DEFAULT_EXACT_CAP, metavar="N")

    sp = sub.add_parser("analyze", help="full domination profile of a graph")
    common(sp)

    sp = sub.add_parser("generate", help="emit a parameterized family graph")
    sp.add_argument("family", help="e.g. cycle:9, multipartite:2,3,4, windmill:r=3,s=4, petersen")
    common(sp, inputs=0)

    sp = sub.add_parser("op", help="combine two graphs")
    sp.add_argument("name", choices=OP_NAMES)
    common(sp, inputs=2)

    sp = sub.add_parser("degree", help="domination degree of one vertex")
    sp.add_argument("--vertex", required=True, metavar="LABEL")
    common(sp)

    sp = sub.add_parser("mds-containing", help="a minimal dominating set containing a vertex")
    sp.add_argument("--vertex", required=True, metavar="LABEL")
    sp.add_argument("--algorithm", choices=("greedy", "exact"), default="greedy")
    common(sp)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=verify.SUITE_NAMES)
    sp.add_argument("--ledger", metavar="PATH", help="write discrepancies as JSON lines")
    sp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="shrink exhaustive pools to at most N vertices")
    sp.add_argument("--quick", action="store_true", help="reduced family grid")
    common(sp, inputs=0)

    sp = sub.add_parser("facility", help="hub placement: minimum minimal dominating set around a hub")
    sp.add_argument("--hub", required=True, metavar="LABEL")
    common(sp)
    return p


def _read_graph(path: str | None) -> Graph:
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return formats.parse_edgelist(text)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _single_input(args) -> Graph:
    inputs = args.inputs or [None]
    if len(inputs) != 1:
        raise UnsupportedOperation("this subcommand takes one input graph")
    return _read_graph(inputs[0])


def _cmd_analyze(args) -> int:
    g = _single_input(args)
    prof = engine.domination_profile(g, cap=args.max_exact)
    report = formats.build_report(g, prof)
    fmt = args.format or "json"
    if fmt == "json":
        _write(args, formats.emit_report_json(report))
    elif fmt == "text":
        lines = [
            f"n={report.n} m={report.m} connected={report.connected}",
            f"gamma={report.gamma} upper_gamma={report.upper_gamma}"
            f" ir={report.ir} upper_ir={report.upper_ir}",
            f"di={report.di} min_dd={report.min_dd} max_dd={report.max_dd}"
            f" drg={report.is_drg}",
        ]
        for rec in report.vertices:
            lines.append(f"{rec['label']}: dd={rec['dd']} witness={' '.join(rec['witness'])}")
        _write(args, "".join(s + "\n" for s in lines))
    else:
        raise UnsupportedOperation("analyze supports text or json output")
    return 0


def _cmd_generate(args) -> int:
    spec = parse_family(args.family)
    g = generate(spec).graph
    fmt = args.format or "text"
    if fmt == "text":
        _write(args, formats.emit_edgelist(g))
    elif fmt == "dot":
        _write(args, formats.emit_dot(g))
    else:
        raise UnsupportedOperation("generate supports text or dot output")
    return 0


def _cmd_op(args) -> int:
    inputs = args.inputs or []
    if len(inputs) != 2:
        raise UnsupportedOperation("op needs exactly two --in graphs ('-' for stdin once)")
    if inputs.count("-") > 1:
        raise UnsupportedOperation("only one operand may come from stdin")
    a, b = (_read_graph(path) for path in inputs)
    if args.name == "union":
        g = disjoint_union([a, b])
    elif args.name == "join":
        g = join(a, b)
    elif args.name == "corona":
        g = corona(a, b)
    elif args.name in PRODUCT_KINDS:
        g = product(a, b, args.name)
    else:
        raise UnsupportedOperation(f"unknown operation {args.name!r}")
    if g.n > args.max_exact:
        raise ExactCapExceeded(
            f"result has {g.n} vertices, over the --max-exact {args.max_exact}"
        )
    fmt = args.format or "text"
    if fmt == "text":
        _write(args, formats.emit_edgelist(g))
    elif fmt == "dot":
        _write(args, formats.emit_dot(g))
    else:
        raise UnsupportedOperation("op supports text or dot output")
    return 0


def _cmd_degree(args) -> int:
    g = _single_input(args)
    v = g.id_of(args.vertex)
    size, witness = engine.domination_degree_witness(g, v, cap=args.max_exact)
    labels = sorted(g.labels_of(witness))
    fmt = args.format or "text"
    if fmt == "json":
        import json

        _write(args, json.dumps({"vertex": args.vertex, "dd": size, "witness": labels}) + "\n")
    else:
        _write(args, f"dd({args.vertex}) = {size}\nwitness: {' '.join(labels)}\n")
    return 0


def _cmd_mds_containing(args) -> int:
    g = _single_input(args)
    v = g.id_of(args.vertex)
    if args.algorithm == "greedy":
        s = engine.mds_containing_greedy(g, v)
    else:
        _, s = engine.domination_degree_witness(g, v, cap=args.max_exact)
    labels = sorted(g.labels_of(s))
    fmt = args.format or "text"
    if fmt == "json":
        import json

        _write(args, json.dumps({"vertex": args.vertex, "set": labels}) + "\n")
    elif fmt == "dot":
        _write(args, formats.emit_dot(g, s))
    else:
        _write(args, " ".join(labels) + "\n")
    return 0


def _cmd_verify(args) -> int:
    limits = verify.Limits(max_n=args.limit, cap=args.max_exact, quick=args.quick)
    report = verify.run_suite(args.suite, limits)
    if args.ledger:
        verify.write_ledger(report, args.ledger)
    fmt = args.format or "text"
    if fmt == "json":
        _write(args, verify.report_to_json(report))
    else:
        _write(args, verify.report_to_text(report))
    return 0 if report.ok else VIOLATION


def _cmd_facility(args) -> int:
    g = _single_input(args)
    hub = g.id_of(args.hub)
    size, witness = engine.domination_degree_witness(g, hub, cap=args.max_exact)
    placements = sorted(lbl for lbl in g.labels_of(witness) if lbl != args.hub)
    fmt = args.format or "text"
    if fmt == "json":
        import json

        _write(args, json.dumps({"hub": args.hub, "placements": placements, "coverage_size": size}) + "\n")
    elif fmt == "dot":
        _write(args, formats.emit_dot(g, witness))
    else:
        _write(args, f"hub: {args.hub}\nplacements: {' '.join(placements)}\n")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "op": _cmd_op,
    "degree": _cmd_degree,
    "mds-containing": _cmd_mds_containing,
    "verify": _cmd_verify,
    "facility": _cmd_facility,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ExactCapExceeded as exc:
        print(f"domindex: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (InvalidFamilyParams, UnsupportedOperation) as exc:
        print(f"domindex: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DomindexError as exc:
        print(f"domindex: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
