"""Command-line interface.

Subcommands read edge-list text from ``--in PATH`` (``-`` or omitted
means stdin) and write to stdout unless ``--out`` is given, so they
compose through pipes::

    domindex generate cycle:6 | domindex analyze

Exit codes: 0 success, 1 usage error or an unwritable ``--out`` or
``--ledger`` path, 2 proved-claim violation from ``verify``, 3 input
that cannot be read, decoded as UTF-8 or parsed, 4 exact cap exceeded,
5 internal error (a computed result failed a self-check: a bug in
domindex, not in the input). Each error prints one ``domindex:`` line
on stderr and nothing on stdout. When the reader of stdout has closed
the pipe, stdout is pointed at ``os.devnull``, no traceback is printed
and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, formats, verify
from .errors import (
    DomindexError,
    ExactCapExceeded,
    InternalInvariantViolation,
    InvalidFamilyParams,
    InvalidLimits,
    UnreadableInput,
    UnsupportedOperation,
)
from .families import generate, parse_family
from .graph import Graph, VertexSet
from .ops import OP_NAMES, PRODUCT_KINDS, corona, disjoint_union, join, product

USAGE_ERROR, VIOLATION, PARSE_ERROR, CAP_ERROR, INTERNAL_ERROR = 1, 2, 3, 4, 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="domindex", description="Exact domination degree and index toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, choices, inputs=1, cap=True):
        """Flags shared by the subcommands; ``choices[0]`` is the default format."""
        if inputs:
            sp.add_argument(
                "--in", dest="inputs", action="append", metavar="PATH",
                help="input edge list; '-' or omitted reads stdin"
                + (" (repeat for the second operand)" if inputs == 2 else ""),
            )
        sp.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        sp.add_argument("--format", choices=choices, default=choices[0])
        if cap:
            sp.add_argument("--max-exact", type=int, default=engine.DEFAULT_EXACT_CAP, metavar="N")

    sp = sub.add_parser("analyze", help="full domination profile of a graph")
    common(sp, ("json", "text"))

    sp = sub.add_parser("generate", help="emit a parameterized family graph")
    sp.add_argument("family", help="e.g. cycle:9, multipartite:2,3,4, windmill:r=3,s=4, petersen")
    common(sp, ("text", "dot"), inputs=0, cap=False)

    sp = sub.add_parser("op", help="combine two graphs")
    sp.add_argument("name", choices=OP_NAMES)
    common(sp, ("text", "dot"), inputs=2, cap=False)

    sp = sub.add_parser("degree", help="domination degree of one vertex")
    sp.add_argument("--vertex", required=True, metavar="LABEL")
    common(sp, ("text", "json"))

    sp = sub.add_parser("mds-containing", help="a minimal dominating set containing a vertex")
    sp.add_argument("--vertex", required=True, metavar="LABEL")
    sp.add_argument("--algorithm", choices=("greedy", "exact"), default="greedy")
    common(sp, ("text", "json", "dot"))

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=verify.SUITE_NAMES)
    sp.add_argument("--ledger", metavar="PATH", help="write discrepancies as JSON lines")
    sp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="largest order the exhaustive suites walk (default 6, at least 1;"
                    " 15 and at least 3 for paths-resolution); the other suites run fixed pools")
    common(sp, ("text", "json"), inputs=0, cap=False)

    sp = sub.add_parser("facility", help="hub placement: minimum minimal dominating set around a hub")
    sp.add_argument("--hub", required=True, metavar="LABEL")
    common(sp, ("text", "json", "dot"))
    return p


def _read_graph(path: str | None) -> Graph:
    from_stdin = path is None or path == "-"
    name = "stdin" if from_stdin else path
    try:
        if from_stdin:
            text = sys.stdin.read()
            # stdin may map bytes that are not UTF-8 to lone surrogates,
            # which encoding rejects, as opening a file rejects the bytes
            text.encode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise UnreadableInput(f"cannot read {name}: {exc.strerror or exc}") from None
    except UnicodeError:
        raise UnreadableInput(f"{name} is not UTF-8 text") from None
    return formats.parse_edgelist(text)


def _single_input(args) -> Graph:
    inputs = args.inputs or [None]
    if len(inputs) != 1:
        raise UnsupportedOperation("this subcommand takes one input graph")
    return _read_graph(inputs[0])


def _witness(args, label: str) -> tuple[Graph, int, VertexSet]:
    """The input graph, the domination degree of ``label`` and its witness set."""
    g = _single_input(args)
    size, witness = engine.domination_degree_witness(g, g.id_of(label), cap=args.max_exact)
    return g, size, witness


def _render_set(args, g: Graph, s: VertexSet, text: str, payload: dict) -> str:
    """``text``, ``payload`` as one JSON line, or ``g`` drawn with ``s`` filled."""
    if args.format == "json":
        return json.dumps(payload) + "\n"
    if args.format == "dot":
        return formats.emit_dot(g, s)
    return text


def _emit_graph(args, g: Graph) -> str:
    return formats.emit_dot(g) if args.format == "dot" else formats.emit_edgelist(g)


def _cmd_analyze(args) -> tuple[str, int]:
    g = _single_input(args)
    report = formats.build_report(g, engine.domination_profile(g, cap=args.max_exact))
    emit = formats.emit_report_json if args.format == "json" else formats.emit_report_text
    return emit(report), 0


def _cmd_generate(args) -> tuple[str, int]:
    return _emit_graph(args, generate(parse_family(args.family)).graph), 0


_OPS = {
    "union": lambda a, b: disjoint_union([a, b]),
    "join": join,
    "corona": corona,
    **{kind: (lambda a, b, kind=kind: product(a, b, kind)) for kind in PRODUCT_KINDS},
}


def _cmd_op(args) -> tuple[str, int]:
    inputs = args.inputs or []
    if len(inputs) != 2:
        raise UnsupportedOperation("op needs exactly two --in graphs ('-' for stdin once)")
    if inputs.count("-") > 1:
        raise UnsupportedOperation("only one operand may come from stdin")
    a, b = (_read_graph(path) for path in inputs)
    return _emit_graph(args, _OPS[args.name](a, b)), 0


def _cmd_degree(args) -> tuple[str, int]:
    g, size, witness = _witness(args, args.vertex)
    labels = sorted(g.labels_of(witness))
    text = f"dd({args.vertex}) = {size}\nwitness: {' '.join(labels)}\n"
    payload = {"vertex": args.vertex, "dd": size, "witness": labels}
    return _render_set(args, g, witness, text, payload), 0


def _cmd_mds_containing(args) -> tuple[str, int]:
    if args.algorithm == "greedy":
        g = _single_input(args)
        s = engine.mds_containing_greedy(g, g.id_of(args.vertex))
    else:
        g, _, s = _witness(args, args.vertex)
    labels = sorted(g.labels_of(s))
    payload = {"vertex": args.vertex, "set": labels}
    return _render_set(args, g, s, " ".join(labels) + "\n", payload), 0


def _cmd_verify(args) -> tuple[str, int]:
    report = verify.run_suite(args.suite, verify.Limits(max_n=args.limit))
    if args.ledger:
        verify.write_ledger(report, args.ledger)
    emit = verify.report_to_json if args.format == "json" else verify.report_to_text
    return emit(report), 0 if report.ok else VIOLATION


def _cmd_facility(args) -> tuple[str, int]:
    g, size, witness = _witness(args, args.hub)
    placements = sorted(lbl for lbl in g.labels_of(witness) if lbl != args.hub)
    text = f"hub: {args.hub}\nplacements: {' '.join(placements)}\n"
    payload = {"hub": args.hub, "placements": placements, "coverage_size": size}
    return _render_set(args, g, witness, text, payload), 0


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
        text, code = _COMMANDS[args.command](args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
    except ExactCapExceeded as exc:
        print(f"domindex: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (InvalidFamilyParams, InvalidLimits, UnsupportedOperation) as exc:
        print(f"domindex: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InternalInvariantViolation as exc:
        print(f"domindex: internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except DomindexError as exc:
        print(f"domindex: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except OSError as exc:
        # an unwritable --out or --ledger; input errors are UnreadableInput
        print(f"domindex: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; devnull takes the interpreter's final flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
