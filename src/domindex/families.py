"""Generators for the analysed graph families and their predicted values.

Each family comes with closed-form predictions for the per-vertex
domination degree and for the domination index. Predictions marked
:data:`UNRESOLVED` are contested (the published formulas for those cases
are internally inconsistent); the verification harness settles them
against the brute-force oracle instead of trusting either variant. Every
published value, contested or not, is stated once in this module.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import InternalInvariantViolation, InvalidFamilyParams
from .graph import Graph, _Record, _set, bipartition, new_graph


class _Unresolved:
    """Sentinel for contested closed forms; settled by the oracle."""

    def __repr__(self) -> str:
        return "UNRESOLVED"


UNRESOLVED = _Unresolved()


class FamilySpec(_Record):
    _fields = ("kind", "params")
    __slots__ = _fields
    kind: str
    params: tuple[int, ...]

    def __init__(self, kind: str, params: tuple[int, ...] = ()):
        _set(self, "kind", kind)
        _set(self, "params", params)
        validate_family(self)


def validate_family(spec: FamilySpec) -> None:
    kind, p = spec.kind, spec.params
    if kind not in KINDS:
        raise InvalidFamilyParams(f"unknown family kind {kind!r}")
    if kind in NAMED_REMARKS:
        if p:
            raise InvalidFamilyParams(f"{kind} takes no parameters")
        return
    if not p or any(x < 1 for x in p):
        raise InvalidFamilyParams(f"{kind} needs positive integer parameters")
    if kind in ("complete", "star", "path", "cycle", "wheel", "book"):
        if len(p) != 1:
            raise InvalidFamilyParams(f"{kind} takes exactly one parameter")
        n = p[0]
        if kind in ("cycle", "wheel") and n < 3:
            raise InvalidFamilyParams(f"{kind} needs n >= 3")
    elif kind == "multipartite":
        if len(p) < 2 or any(x < 2 for x in p):
            raise InvalidFamilyParams("multipartite needs >= 2 parts, each of size >= 2")
    elif kind == "windmill":
        if len(p) != 2 or p[0] < 2 or p[1] < 2:
            raise InvalidFamilyParams("windmill needs r >= 2 and s >= 2")
    elif kind == "kragujevac":
        if len(p) < 2:
            raise InvalidFamilyParams("kragujevac needs at least two branches")


def parse_family(text: str) -> FamilySpec:
    """Parse strings like ``cycle:9``, ``multipartite:2,3,4`` or
    ``windmill:r=3,s=4``. A parameter may be named only where
    :func:`format_family` names it: windmill's ``r=`` first, ``s=`` second."""
    head, _, rest = text.strip().partition(":")
    kind = head.strip().lower()
    if kind not in KINDS:
        raise InvalidFamilyParams(f"unknown family kind {head!r}")
    if not rest:
        return FamilySpec(kind)
    names = ("r", "s") if kind == "windmill" else ()
    params = []
    for i, tok in enumerate(rest.split(",")):
        name, eq, tok = tok.rpartition("=")
        if eq and (i >= len(names) or name.strip() != names[i]):
            raise InvalidFamilyParams(f"bad parameter name {name.strip()!r} in {text!r}")
        tok = tok.strip()
        try:
            params.append(int(tok))
        except ValueError:
            raise InvalidFamilyParams(f"bad parameter {tok!r} in {text!r}") from None
    return FamilySpec(kind, tuple(params))


def format_family(spec: FamilySpec) -> str:
    if spec.kind == "windmill":
        return f"windmill:r={spec.params[0]},s={spec.params[1]}"
    if not spec.params:
        return spec.kind
    return spec.kind + ":" + ",".join(str(x) for x in spec.params)


class FamilyGraph(NamedTuple):
    graph: Graph
    roles: tuple[str, ...]


def generate(spec: FamilySpec) -> FamilyGraph:
    """Build the graph for ``spec`` together with a role tag per vertex."""
    return _GENERATORS[spec.kind](spec.params)


def _complete(p):
    n = p[0]
    edges = list(combinations(range(n), 2))
    g = new_graph(n, edges, [f"v{i + 1}" for i in range(n)])
    return FamilyGraph(g, ("generic",) * n)


def _multipartite(parts):
    labels = []
    part_of = []
    for i, size in enumerate(parts, 1):
        for j in range(1, size + 1):
            labels.append(f"p{i}v{j}")
            part_of.append(i)
    n = len(labels)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part_of[u] != part_of[v]]
    g = new_graph(n, edges, labels)
    return FamilyGraph(g, ("generic",) * n)


def _star(p):
    n = p[0]
    labels = ["c"] + [f"l{i}" for i in range(1, n + 1)]
    g = new_graph(n + 1, [(0, i) for i in range(1, n + 1)], labels)
    return FamilyGraph(g, ("center",) + ("leaf",) * n)


def _path(p):
    n = p[0]
    g = new_graph(n, [(i, i + 1) for i in range(n - 1)], [f"p{i + 1}" for i in range(n)])
    if n == 1:
        roles = ("generic",)
    else:
        roles = ("leaf",) + ("spine",) * (n - 2) + ("leaf",)
    return FamilyGraph(g, roles)


def _cycle(p):
    n = p[0]
    edges = [(i, (i + 1) % n) for i in range(n)]
    g = new_graph(n, edges, [f"c{i + 1}" for i in range(n)])
    return FamilyGraph(g, ("rim",) * n)


def _wheel(p):
    n = p[0]
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    g = new_graph(n + 1, edges, ["hub"] + [f"r{i}" for i in range(1, n + 1)])
    return FamilyGraph(g, ("center",) + ("rim",) * n)


def _book(p):
    n = p[0]
    labels = ["ca", "cb"]
    edges = [(0, 1)]
    for i in range(1, n + 1):
        a, b = 2 * i, 2 * i + 1
        labels += [f"p{i}a", f"p{i}b"]
        edges += [(0, a), (1, b), (a, b)]
    g = new_graph(2 * (n + 1), edges, labels)
    return FamilyGraph(g, ("center", "center") + ("generic",) * (2 * n))


def _windmill(p):
    r, s = p
    labels = ["c"]
    edges = []
    for i in range(1, s + 1):
        blade = []
        for j in range(1, r):
            blade.append(len(labels))
            labels.append(f"b{i}v{j}")
        clique = [0] + blade
        edges += list(combinations(clique, 2))
    g = new_graph(len(labels), edges, labels)
    return FamilyGraph(g, ("center",) + ("generic",) * (len(labels) - 1))


def _kragujevac(branch_sizes):
    labels = ["c"]
    roles = ["center"]
    edges = []
    for i, s in enumerate(branch_sizes, 1):
        root = len(labels)
        labels.append(f"r{i}")
        roles.append("branch")
        edges.append((0, root))
        for j in range(1, s + 1):
            mid = len(labels)
            labels.append(f"m{i}.{j}")
            roles.append("branch")
            leaf = len(labels)
            labels.append(f"l{i}.{j}")
            roles.append("leaf")
            edges += [(root, mid), (mid, leaf)]
    g = new_graph(len(labels), edges, labels)
    return FamilyGraph(g, tuple(roles))


def _petersen(_):
    pairs = list(combinations(range(1, 6), 2))
    labels = [f"{a}{b}" for a, b in pairs]
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    g = new_graph(10, edges, labels)
    if g.m != 15 or any(g.degree(v) != 3 for v in range(10)):
        raise InternalInvariantViolation("kneser construction produced a wrong graph")
    return FamilyGraph(g, ("generic",) * 10)


_HERSCHEL_EDGES = (
    (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
    (2, 6), (2, 8), (3, 7), (3, 9), (4, 8), (4, 9),
    (5, 6), (5, 7), (6, 10), (7, 10), (8, 10), (9, 10),
)


def _herschel(_):
    g = new_graph(11, _HERSCHEL_EDGES, [f"h{i + 1}" for i in range(11)])
    degs = sorted(g.degree(v) for v in range(11))
    if g.m != 18 or degs != [3] * 8 + [4] * 3 or bipartition(g) is None:
        raise InternalInvariantViolation("embedded edge list failed validation")
    return FamilyGraph(g, ("generic",) * 11)


def _grotzsch(_):
    # vertex split of a 5-cycle: originals 0..4, shadows 5..9, apex 10
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((5 + i, (i + 1) % 5))
        edges.append((5 + i, (i + 4) % 5))
        edges.append((10, 5 + i))
    labels = [f"v{i + 1}" for i in range(5)] + [f"u{i + 1}" for i in range(5)] + ["w"]
    g = new_graph(11, edges, labels)
    if g.m != 20:
        raise InternalInvariantViolation("construction produced a wrong edge count")
    for u, v in g.edges():
        if g.open_adj[u] & g.open_adj[v]:
            raise InternalInvariantViolation("construction produced a triangle")
    return FamilyGraph(g, ("generic",) * 11)


_GENERATORS = {
    "complete": _complete,
    "multipartite": _multipartite,
    "star": _star,
    "path": _path,
    "cycle": _cycle,
    "wheel": _wheel,
    "book": _book,
    "windmill": _windmill,
    "kragujevac": _kragujevac,
    "petersen": _petersen,
    "herschel": _herschel,
    "grotzsch": _grotzsch,
}

KINDS = tuple(_GENERATORS)


def _ceil3(n: int) -> int:
    return (n + 2) // 3


def _book_degree(n: int, v: int) -> int:
    return 2 if v < 2 else n


def _book_index(n: int) -> int:
    return 2 * (n * n + 2)


# The remarks on the named graphs: (degree of every vertex, index). Only
# the Petersen values come with an argument; the others are bare remarks,
# so a disagreement with them is contested rather than a failed proof.
NAMED_REMARKS = {"petersen": (3, 30), "herschel": (3, 33), "grotzsch": (3, 33)}
ARGUED_REMARKS = frozenset({"petersen"})


def contested_variants(spec: FamilySpec) -> tuple[dict[str, tuple[int, ...]], dict[str, int]]:
    """Published degree patterns and indices of a contested ``spec``, each
    keyed by where it is published; two empty dicts when ``spec`` is not
    contested.

    * path n = 3k+2: the theorem's statement and its own proof disagree;
    * book:1: the book formula, on the 4-cycle the book degenerates to;
    * grotzsch: the remark; exhaustive search gives degree 4 on the five
      shadow vertices and index 38.
    """
    kind, p = spec.kind, spec.params
    if kind == "path" and p[0] % 3 == 2:
        return path_degree_variants(p[0]), path_index_variants(p[0])
    if kind == "book" and p[0] == 1:
        degrees = tuple(_book_degree(1, v) for v in range(4))
        return {"formula": degrees}, {"formula": _book_index(1)}
    if kind == "grotzsch":
        degree, index = NAMED_REMARKS[kind]
        return {"remark": (degree,) * 11}, {"remark": index}
    return {}, {}


def predicted_degree(spec: FamilySpec, v: int):
    """Closed-form domination degree of vertex ``v`` in the generated
    graph, or UNRESOLVED where the published formula is contested."""
    kind, p = spec.kind, spec.params
    if contested_variants(spec)[0]:
        return UNRESOLVED
    if kind == "complete":
        return 1
    if kind == "multipartite":
        return 2
    if kind == "star":
        return 1 if v == 0 else p[0]
    if kind == "path":
        return path_degree_variants(p[0])["statement"][v]
    if kind == "cycle":
        return _ceil3(p[0])
    if kind == "wheel":
        return 1 if v == 0 else _ceil3(p[0])
    if kind == "book":
        return _book_degree(p[0], v)
    if kind == "windmill":
        return 1 if v == 0 else p[1]
    if kind == "kragujevac":
        return 1 + sum(p)
    return NAMED_REMARKS[kind][0]


def predicted_index(spec: FamilySpec):
    """Closed-form domination index, or UNRESOLVED for contested cases."""
    kind, p = spec.kind, spec.params
    if contested_variants(spec)[1]:
        return UNRESOLVED
    if kind == "complete":
        return p[0]
    if kind == "multipartite":
        return 2 * sum(p)
    if kind == "star":
        return 1 + p[0] ** 2
    if kind == "path":
        return path_index_variants(p[0])["statement"]
    if kind == "cycle":
        return p[0] * _ceil3(p[0])
    if kind == "wheel":
        return 1 + p[0] * _ceil3(p[0])
    if kind == "book":
        return _book_index(p[0])
    if kind == "windmill":
        # consistent with the per-vertex values: one center plus
        # s*(r-1) blade vertices of degree s each
        r, s = p
        return 1 + s * s * (r - 1)
    if kind == "kragujevac":
        order = 1 + sum(2 * s + 1 for s in p)
        return order * (1 + sum(p))
    return NAMED_REMARKS[kind][1]


def path_degree_variants(n: int) -> dict[str, tuple[int, ...]]:
    """Published per-vertex degree patterns for an n-vertex path.

    Residue classes 0 and 1 have a single (uncontested) pattern; for
    n = 3k+2 the theorem statement and its own proof assign the two
    values to opposite position classes, so both variants are returned.
    """
    k, t = divmod(n, 3)
    if t == 1:
        return {"statement": tuple(k + 1 for _ in range(n))}
    if t == 0:
        return {
            "statement": tuple(k if pos % 3 == 2 else k + 1 for pos in range(1, n + 1))
        }
    stmt = tuple(k + 2 if pos % 3 == 0 else k + 1 for pos in range(1, n + 1))
    proof = tuple(k + 1 if pos % 3 == 0 else k + 2 for pos in range(1, n + 1))
    return {"statement": stmt, "proof": proof}


def path_index_variants(n: int) -> dict[str, int]:
    """Published index formulas for an n-vertex path, keyed like
    :func:`path_degree_variants`."""
    k, t = divmod(n, 3)
    if t == 0:
        return {"statement": k * (3 * k + 2)}
    if t == 1:
        return {"statement": (3 * k + 1) * (k + 1)}
    return {
        "statement": k * (k + 1) + 2 * (k + 1) ** 2,
        "proof": k * (k + 2) + 2 * (k + 1) ** 2,
    }
