"""Graph operations: disjoint union, join, four products and the corona.

Composite vertex layout is fixed so results are reproducible:

* union / join: parts are concatenated in argument order;
* products: pair (a, b) gets id ``a * |H| + b`` (row-major);
* corona: the |G| hub vertices keep their ids, copy i occupies the block
  ``|G| + i*|H| .. |G| + (i+1)*|H| - 1``.

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
    labels = [f"1:{lbl}" for lbl in g.labels] + [f"2:{lbl}" for lbl in h.labels]
    edges = list(g.edges())
    edges += [(g.n + u, g.n + v) for u, v in h.edges()]
    edges += [(u, g.n + w) for u in range(g.n) for w in range(h.n)]
    return new_graph(g.n + h.n, edges, labels)


def product(g: Graph, h: Graph, kind: str) -> Graph:
    """Cartesian, direct, strong or composition product on V(g) x V(h)."""
    if kind not in PRODUCT_KINDS:
        raise UnsupportedOperation(f"unknown product kind {kind!r}")
    n = g.n * h.n
    labels = [f"({gl},{hl})" for gl in g.labels for hl in h.labels]
    edges = []
    for a1 in range(g.n):
        for b1 in range(h.n):
            u = a1 * h.n + b1
            for a2 in range(g.n):
                for b2 in range(h.n):
                    v = a2 * h.n + b2
                    if v <= u:
                        continue
                    g_adj = g.has_edge(a1, a2) if a1 != a2 else False
                    h_adj = h.has_edge(b1, b2) if b1 != b2 else False
                    if kind == "cartesian":
                        hit = (a1 == a2 and h_adj) or (g_adj and b1 == b2)
                    elif kind == "direct":
                        hit = g_adj and h_adj
                    elif kind == "strong":
                        hit = (a1 == a2 and h_adj) or (g_adj and b1 == b2) or (g_adj and h_adj)
                    else:  # composition: ordered, first factor wins
                        hit = g_adj or (a1 == a2 and h_adj)
                    if hit:
                        edges.append((u, v))
    return new_graph(n, edges, labels)


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
