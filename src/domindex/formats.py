"""Text formats: edge lists, DOT drawings and JSON profile reports.

Edge-list grammar, one statement per line:

* ``u v``  an edge between the vertices labeled u and v;
* ``u``    declares an isolated vertex;
* ``# …``  comment; blank lines are ignored.

Labels are whitespace-free tokens that do not start with ``#``, so an
emitted line never reads back as a comment. Internal ids follow first
appearance and are never serialized, so emitted files diff cleanly.
"""

from __future__ import annotations

import warnings

from .errors import DuplicateEdgeWarning, MalformedLine, SelfLoop
from .graph import Graph, VertexSet, is_connected, new_graph


def parse_edgelist(text: str) -> Graph:
    ids: dict[str, int] = {}

    def vid(tok: str) -> int:
        if tok not in ids:
            ids[tok] = len(ids)
        return ids[tok]

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        # toks[0] cannot start with "#": the line would be a comment
        if len(toks) > 2 or toks[-1].startswith("#"):
            raise MalformedLine(lineno, raw)
        if len(toks) == 1:
            vid(toks[0])
        else:
            u, v = vid(toks[0]), vid(toks[1])
            if u == v:
                raise SelfLoop(f"line {lineno}: self-loop at {toks[0]!r}")
            key = (min(u, v), max(u, v))
            if key in seen:
                warnings.warn(
                    f"line {lineno}: duplicate edge {toks[0]} {toks[1]}",
                    DuplicateEdgeWarning,
                )
                continue
            seen.add(key)
            edges.append(key)
    labels = sorted(ids, key=ids.get)
    return new_graph(len(ids), edges, labels)


def emit_edgelist(g: Graph) -> str:
    """Canonical form: isolated vertices first (sorted by label), then
    edges sorted by their (min label, max label) pair, one per line."""
    lines = []
    for v in sorted(range(g.n), key=lambda v: g.labels[v]):
        if g.open_adj[v] == 0:
            lines.append(g.labels[v])
    pairs = []
    for u, v in g.edges():
        a, b = sorted((g.labels[u], g.labels[v]))
        pairs.append((a, b))
    for a, b in sorted(pairs):
        lines.append(f"{a} {b}")
    return "".join(line + "\n" for line in lines)


def _dot_id(label: str) -> str:
    """A DOT quoted ID: backslash and double quote escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(g: Graph, highlight: VertexSet | None = None) -> str:
    """Undirected DOT text; highlighted vertices are drawn filled."""
    marked = set(highlight.members()) if highlight is not None else set()
    lines = ["graph G {"]
    for v in sorted(range(g.n), key=lambda v: g.labels[v]):
        attr = " [style=filled]" if v in marked else ""
        lines.append(f"  {_dot_id(g.labels[v])}{attr};")
    pairs = sorted(tuple(sorted((g.labels[u], g.labels[v]))) for u, v in g.edges())
    for a, b in pairs:
        lines.append(f"  {_dot_id(a)} -- {_dot_id(b)};")
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def build_report(g: Graph, profile) -> dict:
    """JSON-ready snapshot of a graph's domination profile."""
    return {
        "graph": {"n": g.n, "m": g.m, "connected": is_connected(g)},
        "vertices": [
            {
                "label": g.labels[v],
                "dd": profile.degrees[v],
                "witness": sorted(g.labels_of(profile.witnesses[v])),
            }
            for v in range(g.n)
        ],
        "gamma": profile.gamma,
        "upper_gamma": profile.upper_gamma,
        "ir": profile.ir,
        "upper_ir": profile.upper_ir,
        "di": profile.index,
        "min_dd": profile.min_dd,
        "max_dd": profile.max_dd,
        "is_drg": profile.is_drg,
    }


def emit_report_json(report: dict) -> str:
    import json  # here: the CLI loads this module for every subcommand

    return json.dumps(report, indent=2) + "\n"


def emit_report_text(report: dict) -> str:
    """Three summary lines, then one line per vertex: degree and witness."""
    graph = report["graph"]
    lines = [
        f"n={graph['n']} m={graph['m']} connected={graph['connected']}",
        f"gamma={report['gamma']} upper_gamma={report['upper_gamma']}"
        f" ir={report['ir']} upper_ir={report['upper_ir']}",
        f"di={report['di']} min_dd={report['min_dd']} max_dd={report['max_dd']}"
        f" drg={report['is_drg']}",
    ]
    for rec in report["vertices"]:
        lines.append(f"{rec['label']}: dd={rec['dd']} witness={' '.join(rec['witness'])}")
    return "".join(line + "\n" for line in lines)
