"""Graph pools for the verification suites: seeded random graphs, every
labeled graph on a few vertices, and one graph per isomorphism class
with the number of labeled graphs it stands for.
"""

from __future__ import annotations

import random
from math import comb
from typing import Iterator

from .errors import EnumerationCapExceeded
from .graph import Graph, bits_of, new_graph


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi style graph; the same seed always yields the
    same edge set."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0,1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return new_graph(n, edges)


_LABELED_CAP = 7  # 2^21 labeled graphs on 7 vertices


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices (2^(n(n-1)/2) of them); n <= 7."""
    if n > _LABELED_CAP:
        raise EnumerationCapExceeded(
            f"labeled enumeration capped at {_LABELED_CAP} vertices, got {n}"
        )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield new_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


_CLASS_CAP = 8  # the 12,346 classes on 8 vertices take 6-8 s to generate


def _twins(adj: list[int], u: int, v: int) -> bool:
    """Whether u and v have the same neighbours apart from each other, so
    that swapping them is an automorphism."""
    return not (adj[u] ^ adj[v]) & ~(1 << u | 1 << v)


def _canonical(adj: list[int]) -> int:
    """The largest adjacency code over the vertex orderings that keep the
    vertices sorted by (degree, sorted neighbour degrees); isomorphic
    graphs of one order, and only they, share it.

    The code is built column by column: placing a vertex at position p
    appends its adjacency to the p vertices placed before it. A branch
    stops as soon as its partial code falls below the best one seen at
    its depth, since every prefix extends to a full ordering. A vertex
    is not placed while a twin with a lower id is unplaced: swapping
    twins is an automorphism, so it leaves the code as it is.
    """
    n = len(adj)
    deg = [a.bit_count() for a in adj]
    key = [(deg[v], sorted(deg[u] for u in range(n) if adj[v] >> u & 1)) for v in range(n)]
    # the vertices that may take each position
    slot = [[u for u in range(n) if key[u] == key[v]] for v in sorted(range(n), key=key.__getitem__)]
    lower = [0] * n  # twins with a lower id
    for v in range(n):
        for u in range(v):
            if _twins(adj, u, v):
                lower[v] |= 1 << u
    best = [-1] * n
    order = [0] * n

    def place(p: int, placed: int, code: int) -> None:
        for v in slot[p]:
            if placed >> v & 1 or lower[v] & ~placed:
                continue
            row, c = adj[v], code
            for i in range(p):
                c = c << 1 | row >> order[i] & 1
            if c < best[p]:
                continue
            best[p] = c
            if p + 1 < n:
                order[p] = v
                place(p + 1, placed | 1 << v, c)

    place(0, 0, 0)
    return best[-1]


def _graph_classes(top: int) -> Iterator[tuple[Graph, int]]:
    """One graph per isomorphism class on 1..top vertices (top <= 8), with
    its weight: the number of labeled graphs in its class.

    Layer n extends each class of layer n-1 by a new vertex joined to a
    mask of the old ones, and keeps the first graph seen per canonical
    code. That covers every class, since deleting a vertex of a graph on
    n vertices leaves one on n-1. A labeled graph on n vertices is one
    labeled graph on n-1 and one mask, so a class's weight is the sum,
    over parents and masks that give it, of the parent's weight. Masks
    that differ by a permutation within a twin class of the parent give
    isomorphic graphs: of those only the smallest, which takes the
    lowest ids of each twin class, is extended, counted once per mask it
    stands for. The first graph seen per class is the one that extending
    by every mask would give.
    """
    if top > _CLASS_CAP:
        raise EnumerationCapExceeded(
            f"isomorphism-class enumeration capped at {_CLASS_CAP} vertices, got {top}"
        )
    layer: list[tuple[list[int], int]] = [([], 1)]
    for n in range(1, top + 1):
        seen: dict[int, list] = {}
        new = 1 << (n - 1)
        for adj, weight in layer:
            # twins form an equivalence relation, so one member stands for its class
            twin_classes: list[list[int]] = []
            for v in range(n - 1):
                for twins in twin_classes:
                    if _twins(adj, twins[0], v):
                        twins.append(v)
                        break
                else:
                    twin_classes.append([v])
            # (mask, the number of masks it stands for)
            picks = [(0, 1)]
            for twins in twin_classes:
                picks = [(mask | sum(1 << v for v in twins[:j]), ways * comb(len(twins), j))
                         for mask, ways in picks for j in range(len(twins) + 1)]
            for mask, ways in sorted(picks):
                ext = [a | new if mask >> v & 1 else a for v, a in enumerate(adj)] + [mask]
                entry = seen.setdefault(_canonical(ext), [ext, 0])
                entry[1] += weight * ways
        layer = list(seen.values())
        for ext, weight in layer:
            edges = [(u, w) for u in range(n) for w in bits_of(ext[u]) if u < w]
            yield new_graph(n, edges), weight
