"""Immutable simple undirected graphs over dense 0-based vertex ids.

Adjacency is stored as one bitmask per vertex, so neighborhood algebra
(unions, private territories, coverage tests) reduces to integer bit
operations. Vertices carry string labels; all user-facing output speaks
labels, ids never leave the library.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DisconnectedGraph,
    InvalidEdge,
    LabelConflict,
    NotAPermutation,
    SelfLoop,
    VertexOutOfRange,
)


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_set = object.__setattr__


class _Record:
    """Base of an immutable record, as a frozen dataclass without the
    import of ``dataclasses``: ``__init__`` sets each of ``_fields`` once,
    through ``_set``, and the fields alone give equality, the hash and
    the repr. Copying and unpickling call the constructor again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()  # two or more names
    _key: tuple  # the fields' values, in order

    def __init_subclass__(cls):
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key


class VertexSet(_Record):
    """Subset of the vertices of a graph of order ``n``, held as a bitmask."""

    _fields = ("n", "bits")
    __slots__ = _fields
    n: int
    bits: int

    def __init__(self, n: int, bits: int):
        if bits < 0 or bits >> n:
            raise VertexOutOfRange(f"set contains vertices outside 0..{n - 1}")
        _set(self, "n", n)
        _set(self, "bits", bits)

    def members(self) -> tuple[int, ...]:
        return tuple(bits_of(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.bits)


class _cached:
    """An attribute of an immutable object, computed at its first read and
    stored in the instance ``__dict__``, where later reads find it first.
    As ``functools.cached_property``, without the lock that it takes at
    every first read before Python 3.12 (about 1 µs): a race can only
    compute the same value twice."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Prepared(NamedTuple):
    """What the engine picks its methods by (``Graph.prepared``)."""

    left: int | None  # one side of a 2-colouring as a mask (``bipartition``), or None
    forest: bool      # acyclic: m = n − the number of components


class Graph(_Record):
    """Simple undirected graph: ``n`` vertices, open-neighborhood bitmasks.
    The ``_cached`` attributes live in the instance ``__dict__`` beside
    the fields, and take no part in equality or the hash."""

    _fields = ("n", "labels", "open_adj", "m")
    n: int
    labels: tuple[str, ...]
    open_adj: tuple[int, ...]
    m: int

    def __init__(self, n: int, labels: tuple[str, ...], open_adj: tuple[int, ...], m: int):
        self.__dict__.update(n=n, labels=labels, open_adj=open_adj, m=m)

    @_cached
    def closed_adj(self) -> tuple[int, ...]:
        return tuple(self.open_adj[v] | (1 << v) for v in range(self.n))

    @_cached
    def search_closed_adj(self) -> tuple[int, ...]:
        """``closed_adj`` relabelled into the search order, computed once
        per graph: vertices by descending degree, ties by ascending id.
        Entry i is the closed neighborhood of the i-th vertex of that
        order, as a mask over positions in it. It describes a graph
        isomorphic to this one: the same invariants, such as γ, Γ, ir and
        IR, over other vertex ids."""
        deg = [-a.bit_count() for a in self.open_adj]
        order = sorted(range(self.n), key=deg.__getitem__)
        bit = [0] * self.n
        for i, v in enumerate(order):
            bit[v] = 1 << i
        out = []
        for v in order:
            # bits_of inlined: a generator per mask costs about twice as much
            c, m = self.closed_adj[v], 0
            while c:
                low = c & -c
                m |= bit[low.bit_length() - 1]
                c ^= low
            out.append(m)
        return tuple(out)

    @_cached
    def max_degree(self) -> int:
        """Δ, computed once per graph; 0 for a graph with no vertices."""
        return max((a.bit_count() for a in self.open_adj), default=0)

    @_cached
    def prepared(self) -> Prepared:
        """The 2-colouring and whether the graph is a forest, computed once
        per graph."""
        left, components = _two_colouring(self.open_adj)
        return Prepared(left, left is not None and self.m == self.n - components)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @_cached
    def _label_ids(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")

    def id_of(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise VertexOutOfRange(f"no vertex labeled {label!r}") from None

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.open_adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return (self.open_adj[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return tuple(bits_of(self.open_adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` pairs with ``u < v``, sorted."""
        out = []
        for u in range(self.n):
            rest = self.open_adj[u] >> (u + 1)
            for off in bits_of(rest):
                out.append((u, u + 1 + off))
        return out

    def labels_of(self, s: VertexSet | Iterable[int]) -> list[str]:
        ids = s.members() if isinstance(s, VertexSet) else tuple(s)
        return [self.labels[v] for v in ids]

    def vertex_set(self, ids: Iterable[int]) -> VertexSet:
        bits = 0
        for v in ids:
            self.check_vertex(v)
            bits |= 1 << v
        return VertexSet(self.n, bits)

    def vertex_set_from_labels(self, labels: Iterable[str]) -> VertexSet:
        return self.vertex_set(self.id_of(lbl) for lbl in labels)


def new_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Graph:
    """Build a graph from an edge list, deduplicating and symmetrising.

    Raises ``SelfLoop``/``InvalidEdge`` for loops, ``VertexOutOfRange`` for
    endpoints outside ``0..n-1`` and ``LabelConflict`` for labels that are
    miscounted, repeated, or not one edge-list token: empty, holding
    whitespace or starting with ``#``.
    """
    if n < 0:
        raise VertexOutOfRange("vertex count must be non-negative")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise LabelConflict(f"expected {n} labels, got {len(labels)}")
        for lbl in labels:
            # an edge list holds a label as one token, and "#" starts a comment
            if lbl.split() != [lbl] or lbl[0] == "#":
                raise LabelConflict(f"label {lbl!r} is empty, holds whitespace or starts with '#'")
        if len(set(labels)) != n:
            seen: set[str] = set()
            for lbl in labels:
                if lbl in seen:
                    raise LabelConflict(f"duplicate label {lbl!r}")
                seen.add(lbl)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    m = sum(a.bit_count() for a in adj) // 2
    return Graph(n=n, labels=labels, open_adj=tuple(adj), m=m)


def closed_neighborhood(g: Graph, v: int) -> VertexSet:
    """N[v], the vertex together with its neighbors."""
    g.check_vertex(v)
    return VertexSet(g.n, g.closed_adj[v])


def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise VertexOutOfRange("graph has no vertices")
    return g.max_degree


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise VertexOutOfRange("graph has no vertices")
    return -1 not in distances_from(g, 0)


def distances_from(g: Graph, src: int) -> list[int]:
    """BFS distances from ``src``; unreachable vertices get -1."""
    g.check_vertex(src)
    dist = [-1] * g.n
    dist[src] = 0
    seen = 1 << src
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            fresh = g.open_adj[v] & ~seen
            seen |= fresh
            for u in bits_of(fresh):
                dist[u] = d
                nxt.append(u)
        frontier = nxt
    return dist


def bipartition(g: Graph) -> int | None:
    """One side of a 2-colouring of ``g`` as a mask, the even layers of a
    BFS from the lowest vertex of each component, or None when ``g`` has
    an odd cycle: an edge inside a BFS layer closes one."""
    return g.prepared.left


def _two_colouring(adj: tuple[int, ...]) -> tuple[int | None, int]:
    """(``bipartition``'s side or None, the number of components), the
    count only for a bipartite graph: the BFS stops at the first odd cycle."""
    left = seen = components = 0
    for root in range(len(adj)):
        if seen >> root & 1:
            continue
        components += 1
        layer, even = 1 << root, True
        seen |= layer
        while layer:
            nxt, rest = 0, layer
            while rest:
                low = rest & -rest
                nxt |= adj[low.bit_length() - 1]
                rest ^= low
            if nxt & layer:
                return None, components
            if even:
                left |= layer
            layer = nxt & ~seen
            seen |= layer
            even = not even
    return left, components


def wiener_index(g: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs."""
    if not is_connected(g):
        raise DisconnectedGraph("Wiener index needs a connected graph")
    total = 0
    for v in range(g.n):
        total += sum(distances_from(g, v))
    return total // 2


def permute(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: old id ``v`` becomes ``perm[v]``."""
    if sorted(perm) != list(range(g.n)):
        raise NotAPermutation(f"{perm!r} is not a permutation of 0..{g.n - 1}")
    labels = [""] * g.n
    adj = [0] * g.n
    for v in range(g.n):
        labels[perm[v]] = g.labels[v]
        adj[perm[v]] = mask_of(perm[u] for u in bits_of(g.open_adj[v]))
    return Graph(n=g.n, labels=tuple(labels), open_adj=tuple(adj), m=g.m)


def is_spanning_subgraph(h: Graph, g: Graph) -> bool:
    """True iff ``h`` has the same vertex ids and every edge of ``h`` is in ``g``."""
    if h.n != g.n:
        return False
    return all(h.open_adj[v] & ~g.open_adj[v] == 0 for v in range(h.n))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise InvalidEdge(f"no edge ({u},{v}) to delete")
    adj = list(g.open_adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(n=g.n, labels=g.labels, open_adj=tuple(adj), m=g.m - 1)
