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
on stderr and nothing on stdout. A command that succeeds prints each
warning it raised (a duplicate edge in the input) as one
``domindex: warning:`` line on stderr. When the reader of stdout has
closed the pipe, stdout is pointed at ``os.devnull``, no traceback is
printed and the exit code is 1.

A call whose first argument names a subcommand parses the rest with one
flat parser that holds that subcommand's flags only: one
``ArgumentParser`` per call instead of a top-level parser and its
subparser, with the same exit code, stdout and stderr. ``-h``, a
missing or an unknown subcommand builds the top-level parser with all
seven subparsers. Each subcommand imports only what it runs: every one
loads the engine and ``formats``; ``generate`` alone loads
``families``, ``op`` alone ``ops`` and ``verify`` alone ``verify`` (with
``classes``, ``families`` and ``ops``), and ``json`` is loaded only to
write JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Callable, NamedTuple

from . import engine, formats
from .errors import (
    DomindexError,
    ExactCapExceeded,
    InternalInvariantViolation,
    InvalidFamilyParams,
    InvalidLimits,
    UnreadableInput,
    UnsupportedOperation,
)
from .graph import Graph, VertexSet

USAGE_ERROR, VIOLATION, PARSE_ERROR, CAP_ERROR, INTERNAL_ERROR = 1, 2, 3, 4, 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _cap(text: str) -> int:
    """``--max-exact``: an integer of at least 1 (a lower cap refuses every graph)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _common(sp, choices, inputs=1, cap=True):
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
        sp.add_argument("--max-exact", type=_cap, default=engine.DEFAULT_EXACT_CAP, metavar="N")


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
        import json

        return json.dumps(payload) + "\n"
    if args.format == "dot":
        return formats.emit_dot(g, s)
    return text


def _emit_graph(args, g: Graph) -> str:
    return formats.emit_dot(g) if args.format == "dot" else formats.emit_edgelist(g)


# Each subcommand is a parser block (``_args_*``, which adds its flags)
# and a handler (``_cmd_*``, which returns stdout text and exit code).

def _args_analyze(sp):
    _common(sp, ("json", "text"))


def _cmd_analyze(args) -> tuple[str, int]:
    g = _single_input(args)
    report = formats.build_report(g, engine.domination_profile(g, cap=args.max_exact))
    emit = formats.emit_report_json if args.format == "json" else formats.emit_report_text
    return emit(report), 0


def _args_generate(sp):
    sp.add_argument("family", help="e.g. cycle:9, multipartite:2,3,4, windmill:r=3,s=4, petersen")
    _common(sp, ("text", "dot"), inputs=0, cap=False)


def _cmd_generate(args) -> tuple[str, int]:
    from .families import generate, parse_family

    return _emit_graph(args, generate(parse_family(args.family)).graph), 0


def _args_op(sp):
    from .ops import OP_NAMES

    sp.add_argument("name", choices=OP_NAMES)
    _common(sp, ("text", "dot"), inputs=2, cap=False)


def _cmd_op(args) -> tuple[str, int]:
    from .ops import corona, disjoint_union, join, product

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
    else:
        g = product(a, b, args.name)
    return _emit_graph(args, g), 0


def _args_degree(sp):
    sp.add_argument("--vertex", required=True, metavar="LABEL")
    _common(sp, ("text", "json"))


def _cmd_degree(args) -> tuple[str, int]:
    g, size, witness = _witness(args, args.vertex)
    labels = sorted(g.labels_of(witness))
    text = f"dd({args.vertex}) = {size}\nwitness: {' '.join(labels)}\n"
    payload = {"vertex": args.vertex, "dd": size, "witness": labels}
    return _render_set(args, g, witness, text, payload), 0


def _args_mds_containing(sp):
    sp.add_argument("--vertex", required=True, metavar="LABEL")
    sp.add_argument("--algorithm", choices=("greedy", "exact"), default="greedy")
    _common(sp, ("text", "json", "dot"))


def _cmd_mds_containing(args) -> tuple[str, int]:
    if args.algorithm == "greedy":
        g = _single_input(args)
        s = engine.mds_containing_greedy(g, g.id_of(args.vertex))
    else:
        g, _, s = _witness(args, args.vertex)
    labels = sorted(g.labels_of(s))
    payload = {"vertex": args.vertex, "set": labels}
    return _render_set(args, g, s, " ".join(labels) + "\n", payload), 0


def _args_verify(sp):
    from .verify import SUITE_NAMES

    sp.add_argument("--suite", required=True, choices=SUITE_NAMES)
    sp.add_argument("--ledger", metavar="PATH", help="write discrepancies as JSON lines")
    sp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="largest order the exhaustive suites walk (default 6, at least 1;"
                    " 15 and at least 3 for paths-resolution); the other suites run fixed pools")
    _common(sp, ("text", "json"), inputs=0, cap=False)


def _cmd_verify(args) -> tuple[str, int]:
    from . import verify

    report = verify.run_suite(args.suite, verify.Limits(max_n=args.limit))
    if args.ledger:
        verify.write_ledger(report, args.ledger)
    emit = verify.report_to_json if args.format == "json" else verify.report_to_text
    return emit(report), 0 if report.ok else VIOLATION


def _args_facility(sp):
    sp.add_argument("--hub", required=True, metavar="LABEL")
    _common(sp, ("text", "json", "dot"))


def _cmd_facility(args) -> tuple[str, int]:
    g, size, witness = _witness(args, args.hub)
    placements = sorted(lbl for lbl in g.labels_of(witness) if lbl != args.hub)
    text = f"hub: {args.hub}\nplacements: {' '.join(placements)}\n"
    payload = {"hub": args.hub, "placements": placements, "coverage_size": size}
    return _render_set(args, g, witness, text, payload), 0


class _Command(NamedTuple):
    help: str
    add_arguments: Callable[[_Parser], None]
    run: Callable[[argparse.Namespace], tuple[str, int]]


_COMMANDS = {
    "analyze": _Command("full domination profile of a graph", _args_analyze, _cmd_analyze),
    "generate": _Command("emit a parameterized family graph", _args_generate, _cmd_generate),
    "op": _Command("combine two graphs", _args_op, _cmd_op),
    "degree": _Command("domination degree of one vertex", _args_degree, _cmd_degree),
    "mds-containing": _Command("a minimal dominating set containing a vertex",
                               _args_mds_containing, _cmd_mds_containing),
    "verify": _Command("run a verification suite", _args_verify, _cmd_verify),
    "facility": _Command("hub placement: minimum minimal dominating set around a hub",
                         _args_facility, _cmd_facility),
}


def _build_parser() -> _Parser:
    """The top-level parser with a subparser for each subcommand, in table order."""
    p = _Parser(prog="domindex", description="Exact domination degree and index toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        command.add_arguments(sub.add_parser(name, help=command.help))
    return p


def _parse_command(name: str, argv: list[str]) -> argparse.Namespace:
    """What ``_build_parser()`` makes of ``[name, *argv]``, from one flat parser."""
    p = _Parser(prog=f"domindex {name}")
    _COMMANDS[name].add_arguments(p)
    args, extra = p.parse_known_args(argv)
    if extra:
        # the line the top-level parser prints for what its subparser left
        p.exit(USAGE_ERROR, f"domindex: error: unrecognized arguments: {' '.join(extra)}\n")
    args.command = name
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args = _parse_command(argv[0], argv[1:])
    else:
        args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text, code = _COMMANDS[args.command].run(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
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
    for w in caught:
        print(f"domindex: warning: {w.message}", file=sys.stderr)
    if args.out:
        return code
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
