"""Graph operations: disjoint union, join, four products and the corona.

Composite vertex layout is fixed so results are reproducible:

* union / join: parts are concatenated in argument order;
* products: pair (a, b) gets id ``a * |H| + b`` (row-major);
* corona: the |G| hub vertices keep their ids, copy i occupies the block
  ``|G| + i*|H| .. |G| + (i+1)*|H| - 1``.

Every operation lists its edges from its operands' edge lists.

The ``*_predicted`` helpers return the closed-form domination degrees of
composite vertices in the same layout, where a closed form exists.
"""

from __future__ import annotations

from typing import Sequence

from .errors import UnsupportedOperation
from .graph import Graph, new_graph

PRODUCT_KINDS = ("cartesian", "direct", "strong", "composition")
OP_NAMES = ("union", "join", "corona") + PRODUCT_KINDS


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Vertex-disjoint union; labels gain a ``<part>:`` prefix."""
    if not parts:
        raise UnsupportedOperation("union of zero graphs")
    labels = []
    edges = []
    offset = 0
    for i, g in enumerate(parts, 1):
        labels += [f"{i}:{lbl}" for lbl in g.labels]
        edges += [(offset + u, offset + v) for u, v in g.edges()]
        offset += g.n
    return new_graph(offset, edges, labels)


def join(g: Graph, h: Graph) -> Graph:
    """Every vertex of ``g`` made adjacent to every vertex of ``h``."""
    union = disjoint_union([g, h])
    cross = [(a, g.n + b) for a in range(g.n) for b in range(h.n)]
    return new_graph(union.n, union.edges() + cross, union.labels)


def product(g: Graph, h: Graph, kind: str) -> Graph:
    """Cartesian (rows and columns), direct (crosses), strong (all three) or
    composition (rows and blocks; ordered, first factor wins) on V(g) x V(h)."""
    if kind not in PRODUCT_KINDS:
        raise UnsupportedOperation(f"unknown product kind {kind!r}")
    w, ge, he = h.n, g.edges(), h.edges()
    edges = []
    if kind != "direct":  # rows: (a, b1)(a, b2) for each edge b1b2 of h
        edges += [(a * w + b1, a * w + b2) for a in range(g.n) for b1, b2 in he]
    if kind in ("cartesian", "strong"):  # columns: (a1, b)(a2, b) for each edge a1a2 of g
        edges += [(a1 * w + b, a2 * w + b) for a1, a2 in ge for b in range(w)]
    if kind in ("direct", "strong"):  # crosses: (a1, b1)(a2, b2) and (a1, b2)(a2, b1)
        edges += [(a1 * w + x, a2 * w + y) for a1, a2 in ge for b1, b2 in he
                  for x, y in ((b1, b2), (b2, b1))]
    if kind == "composition":  # blocks: every (a1, x)(a2, y) over an edge a1a2 of g
        edges += [(a1 * w + x, a2 * w + y) for a1, a2 in ge for x in range(w) for y in range(w)]
    labels = [f"({gl},{hl})" for gl in g.labels for hl in h.labels]
    return new_graph(g.n * w, edges, labels)


def corona(g: Graph, h: Graph) -> Graph:
    """One copy of ``h`` per vertex of ``g``, each joined to its hub."""
    n = g.n * (1 + h.n)
    labels = list(g.labels)
    edges = list(g.edges())
    for i in range(g.n):
        base = g.n + i * h.n
        labels += [f"{g.labels[i]}:{hl}" for hl in h.labels]
        edges += [(base + u, base + v) for u, v in h.edges()]
        edges += [(i, base + w) for w in range(h.n)]
    return new_graph(n, edges, labels)


def union_predicted(part_degrees: Sequence[Sequence[int]]) -> list[int]:
    """Degree of a union vertex: its own part degree plus the domination
    numbers of all other parts."""
    gammas = [min(d) for d in part_degrees]
    total = sum(gammas)
    out = []
    for i, degs in enumerate(part_degrees):
        rest = total - gammas[i]
        out += [d + rest for d in degs]
    return out


def join_predicted(deg_g: Sequence[int], deg_h: Sequence[int]) -> list[int]:
    """1 for a vertex that already dominates its own factor, else 2."""
    return [1 if d == 1 else 2 for d in list(deg_g) + list(deg_h)]


def composition_complete_predicted(deg_g: Sequence[int], m: int) -> list[int]:
    """Composition with a complete second factor of order ``m``: the
    degree of (a, b) is the degree of a in the first factor."""
    out = []
    for d in deg_g:
        out += [d] * m
    return out


def corona_predicted(n_g: int, deg_h: Sequence[int]) -> list[int]:
    """Hubs get |G|; copy vertex (i, j) gets its factor degree plus |G|-1."""
    out = [n_g] * n_g
    for _ in range(n_g):
        out += [d + n_g - 1 for d in deg_h]
    return out
