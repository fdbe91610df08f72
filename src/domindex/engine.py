"""Exact domination computations.

Everything here is exact: predicates are direct formula evaluations;
γ, a vertex's domination degree and the degree vector come from one
staged branch-and-bound walk (smallest cardinality first, so the first
set that serves a vertex is a minimum), seeded at {v} for one vertex and
at ∅ for γ or for every vertex at once; and the remaining quantities
come from walks of irredundant sets, or, where the input allows, from
polynomial methods (the table below). One walk gives the upper
domination number Γ and the upper irredundance number IR. A walk of its
own gives the irredundance number ir: it starts from γ, which bounds ir
from above, it cuts each branch whose sets cannot dominate G², as every
maximal irredundant set does, and it stops at a lower bound on ir from
γ and the maximum degree. It also enters a set that may grow no further
only when each vertex the set leaves undominated lies within distance 2
of a member with a neighbour in the set. That holds in every maximal
irredundant set S smaller than γ: an undominated u is its own private
vertex in S+u, so some member x has PN(x,S) ⊆ N[u]; x has a neighbour
in S, as x ∈ PN(x,S) would dominate u; and u ∈ N[p] for a p ∈ PN(x,S),
a neighbour of x. Only set enumeration walks them for the minimal
dominating sets themselves.
The staged walk is independently cross-checkable against
:func:`dd_vector_oracle`, a full-subset-scan implementation of the
definition that shares no code with the search kernels. It still tests
every one of the 2^n subsets, but from cover tables built once per half
of the vertex set, so each subset costs O(1) mask operations (plus one
test per member when it dominates) in O(2^(n/2)) ints of memory.

Terminology: a set is *dominating* when the closed neighborhoods of its
members cover the vertex set, and *minimal dominating* when it is
dominating and every member keeps a nonempty private neighborhood. The
domination degree of a vertex is the minimum cardinality of a minimal
dominating set containing it; the domination index is the sum of the
degrees over all vertices.

The predicates, the profile's witness check and
:func:`minimalize_containing` share one cover rule, ``_coverage``: the
vertices a set covers at least once and at least twice, so that a member
keeps what its closed neighborhood leaves of the second. Only the oracle
states the rule apart, so that it stays independent.

Each public computation is one guard and one kernel call. The guard,
``_kernels``, rejects an empty graph and one over the caller's cap and
picks the twin; the walks of irredundant sets take ``_WALK_CAP``, or in
a profile ``min(cap, MAX_SCAN)``. ``_search`` makes the calls of the
staged search, ``_upper`` those for Γ and IR, and ``_irredundance``
those and the one for ir. Only :func:`mds_containing_greedy` passes no
cap. The twins return the minimal dominating sets in the order their
walks reach them, and set enumeration sorts them by (cardinality, mask).

``_upper`` and ``_irredundance`` return values only, and one table,
``_METHODS``, picks their method from the twin and from ``Graph.prepared``
(the 2-colouring and whether the graph is a forest, built once per
graph). The first row that fits gives the value:

=========  ===========  ========================================  ==========================
value      twin         condition                                 method
=========  ===========  ========================================  ==========================
Γ, IR      pure Python  bipartite                                 α = n − ν from a maximum
                                                                  matching, as Γ = IR = α
Γ, IR      pure Python  n ≥ ``_SEARCH_ORDER_FROM`` (12)           the walk on
                                                                  ``search_closed_adj``
Γ, IR      either       any graph                                 the walk on ``closed_adj``
ir         pure Python  a forest, n ≥ ``_FOREST_FROM`` (12), and  the tree program of
                        the walk's stop below γ                   ``forest``
ir         pure Python  n ≥ ``_SEARCH_ORDER_FROM``, not           the walk on
                        bipartite                                 ``search_closed_adj``
ir         either       any graph                                 the walk on ``closed_adj``
=========  ===========  ========================================  ==========================

Γ = IR = α on a bipartite graph (Cockayne, Favaron, Payan and
Thomason, 1981), and α = n − ν by König's theorem. The comments on the
two thresholds say where each method costs less; the compiled walks
beat both Python methods on the graphs the workloads run. The pure-Python
ir walk runs in the search order on just the graphs whose Γ/IR walk
already built it, so it adds no relabel of its own.

No value depends on the method or the labelling. Every call outside the
table runs on ``closed_adj`` in id order: witnesses are the
lexicographically least sets in id order, and the γ search gains less
from the search order than its set-up costs.

Everything here is a pure function of immutable inputs, so concurrent
calls (including per-vertex degree computations of one graph) are safe.
"""

from __future__ import annotations

from math import ceil
from typing import Iterable, Iterator, NamedTuple

from . import _pykern
from ._pykern import MAX_SCAN
from .backend import kernels_for
from .errors import (
    ExactCapExceeded,
    InternalInvariantViolation,
    NotDominating,
    VertexNotInSet,
    VertexOutOfRange,
)
from .graph import Graph, VertexSet, bits_of

DEFAULT_EXACT_CAP = 24   # staged searches, profiles, Γ/ir/IR, set enumeration
DEFAULT_SCAN_CAP = 20    # the oracle's subset scan


def _check_bound(g: Graph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValueError(f"vertex set over {s.n} vertices used with a graph of order {g.n}")


def _coverage(closed: tuple[int, ...], members: Iterable[int]) -> tuple[int, int]:
    """(once, twice): the vertices that the closed neighborhoods
    ``closed[a]`` of the ``members`` cover at least once and at least
    twice. The set dominates iff ``once`` is every vertex, and a member
    ``a`` keeps ``closed[a] & ~twice`` as its private neighborhood."""
    once = twice = 0
    for a in members:
        twice |= once & closed[a]
        once |= closed[a]
    return once, twice


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff the closed neighborhoods of ``s`` cover every vertex."""
    _check_bound(g, s)
    return _coverage(g.closed_adj, s)[0] == g.full_mask


def private_neighborhood(g: Graph, a: int, s: VertexSet) -> VertexSet:
    """N[a] minus the closed neighborhoods of the other members of ``s``."""
    _check_bound(g, s)
    g.check_vertex(a)
    if a not in s:
        raise VertexNotInSet(f"vertex {a} is not a member of the set")
    return VertexSet(g.n, g.closed_adj[a] & ~_coverage(g.closed_adj, s)[1])


def is_irredundant(g: Graph, s: VertexSet) -> bool:
    """True iff every member of ``s`` has a nonempty private neighborhood."""
    _check_bound(g, s)
    closed, members = g.closed_adj, s.members()
    twice = _coverage(closed, members)[1]
    return all(closed[a] & ~twice for a in members)


def is_minimal_dominating(g: Graph, s: VertexSet) -> bool:
    """Dominating and irredundant, i.e. no proper subset still dominates."""
    _check_bound(g, s)
    closed, members = g.closed_adj, s.members()
    once, twice = _coverage(closed, members)
    return once == g.full_mask and all(closed[a] & ~twice for a in members)


def _gamma_lower_bound(g: Graph) -> int:
    return ceil(g.n / (1 + g.max_degree))


def _kernels(g: Graph, cap: int | None, what: str, v: int | None = None):
    """The kernel twin for ``g``, once ``g`` has 1 to ``cap`` vertices
    (None: no cap) and ``v``, if given, is one of them."""
    if g.n < 1:
        raise VertexOutOfRange("operation needs at least one vertex")
    if v is not None:
        g.check_vertex(v)
    if cap is not None and g.n > cap:
        raise ExactCapExceeded(f"{what} capped at {cap} vertices, graph has {g.n}")
    return kernels_for(g.n)


def _search(kern, g: Graph, v: int, k_lo: int) -> tuple[int, int]:
    """(size, mask) of the lex-least smallest minimal dominating set through
    ``v``, or of a smallest dominating set when ``v`` is -1, from size ``k_lo``."""
    hit = kern.solve_dd(g.closed_adj, v, k_lo, g.n)
    if hit is None:
        raise InternalInvariantViolation(
            "no dominating set found" if v < 0 else f"no minimal dominating set contains vertex {v}"
        )
    return hit


# The cap of the walks of irredundant sets outside a profile: the default
# cap, within the walks' limit.
_WALK_CAP = min(DEFAULT_EXACT_CAP, MAX_SCAN)

# The order from which the pure-Python Γ/IR walk runs in the search
# order, and so does the ir walk on a graph that is not bipartite, whose
# Γ/IR walk has built that order. Below it the relabel, 1-2 µs of Python
# per vertex, costs more than the walk saves. Measured again after the
# walk speedups of BENCH_32.json, over non-bipartite random graphs, the
# saving overtakes the relabel on average from order 13 and on most
# graphs from 14 (BENCH_33.json ``thresholds``); 12 stays until a change
# to it is measured end to end. The compiled walk always runs in id
# order: it saves less than the relabel costs below 22 vertices, which
# no workload reaches (timings in BENCH_26.json).
_SEARCH_ORDER_FROM = 12

# The order from which the pure-Python twin takes ir of a forest from the
# tree program (``forest``) rather than the walk, when the walk's stop
# leaves room below γ: below it the walk costs less on most trees (the
# program wins on 7 of 20 trees at order 11 and 13 of 20 at 12, measured
# again after the walk speedups; BENCH_33.json ``thresholds``). The
# compiled walk beats the program up to about 20 vertices and keeps
# walking (timings in BENCH_31.json).
_FOREST_FROM = 12


def _bipartite_alpha(g: Graph) -> int:
    """α = n − ν of a bipartite ``g`` (König's theorem), with ν from
    Kuhn's augmenting paths out of one side of its 2-colouring."""
    adj = g.open_adj
    mate = [-1] * g.n  # mate[r]: the left vertex matched to the right vertex r
    visited = 0

    def augment(u: int) -> bool:
        nonlocal visited
        while free := adj[u] & ~visited:
            low = free & -free
            visited |= low
            r = low.bit_length() - 1
            if mate[r] < 0 or augment(mate[r]):
                mate[r] = u
                return True
        return False

    nu = 0
    for u in bits_of(g.prepared.left):
        visited = 0
        nu += augment(u)
    return g.n - nu


def _tree_program(kern, g: Graph, gamma: int) -> int:
    from . import forest  # only forests need it

    return forest.ir(g)


# The methods of each values-only computation, as rows of (twin,
# condition, method): the first row whose twin is the caller's (None:
# either) and whose condition on the graph and γ holds (None: always)
# gives the value.
_METHODS = {
    "upper": (  # (Γ, IR)
        (_pykern, lambda g, gamma: g.prepared.left is not None,
         lambda kern, g, gamma: (_bipartite_alpha(g),) * 2),
        (_pykern, lambda g, gamma: g.n >= _SEARCH_ORDER_FROM,
         lambda kern, g, gamma: kern.scan_irredundance(g.search_closed_adj)),
        (None, None, lambda kern, g, gamma: kern.scan_irredundance(g.closed_adj)),
    ),
    "ir": (
        (_pykern, lambda g, gamma: (g.n >= _FOREST_FROM and g.prepared.forest
                                    and _pykern._ir_stop(g.closed_adj, gamma) < gamma),
         _tree_program),
        (_pykern, lambda g, gamma: g.n >= _SEARCH_ORDER_FROM and g.prepared.left is None,
         lambda kern, g, gamma: kern.scan_ir(g.search_closed_adj, gamma)),
        (None, None, lambda kern, g, gamma: kern.scan_ir(g.closed_adj, gamma)),
    ),
}


def _run(what: str, kern, g: Graph, gamma: int | None = None):
    """``what`` of ``g`` by the method that ``_METHODS`` picks."""
    for twin, holds, method in _METHODS[what]:
        if (twin is None or twin is kern) and (holds is None or holds(g, gamma)):
            return method(kern, g, gamma)


def _upper(kern, g: Graph) -> tuple[int, int]:
    """(Γ, IR), by the method that the table picks."""
    return _run("upper", kern, g)


def _irredundance(kern, g: Graph, gamma: int) -> tuple[int, int, int]:
    """(ir, Γ, IR), given ``gamma`` = γ, by the methods that the table picks."""
    upper, upper_ir = _upper(kern, g)
    return _run("ir", kern, g, gamma), upper, upper_ir


def domination_number(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Minimum cardinality of a dominating set."""
    return _search(_kernels(g, cap, "domination number search"), g, -1, _gamma_lower_bound(g))[0]


def _irredundance_scan(g: Graph, gamma: int) -> tuple[int, int, int]:
    """(ir, Γ, IR) of a graph whose γ is ``gamma``."""
    return _irredundance(_kernels(g, _WALK_CAP, "irredundance scan"), g, gamma)


def upper_domination_number(g: Graph) -> int:
    """Maximum cardinality of a minimal dominating set."""
    return _upper(_kernels(g, _WALK_CAP, "irredundance scan"), g)[0]


def irredundance_numbers(g: Graph) -> tuple[int, int]:
    """(ir, IR): extreme cardinalities of maximal irredundant / irredundant sets."""
    ir, _, upper_ir = _irredundance_scan(g, domination_number(g))
    return ir, upper_ir


def domination_degree(g: Graph, v: int) -> int:
    """Minimum cardinality of a minimal dominating set containing ``v``."""
    return domination_degree_witness(g, v)[0]


def domination_degree_witness(
    g: Graph, v: int, cap: int = DEFAULT_EXACT_CAP
) -> tuple[int, VertexSet]:
    """Domination degree of ``v`` plus one witness set of that cardinality.

    The witness is deterministic: the lexicographically least minimum-size
    minimal dominating set containing ``v`` (compared as a sorted id tuple).

    The staged search starts at the lower bound ceil(n/(1+Δ)) on γ rather
    than at γ itself, so a single query runs no unconstrained γ search.
    The witness is the same either way: no dominating set has fewer than
    γ vertices, so every stage below γ fails, the first stage that
    succeeds is still dd(v), and a stage's search does not depend on
    where the stages started.
    """
    kern = _kernels(g, cap, "domination degree search", v)
    size, mask = _search(kern, g, v, _gamma_lower_bound(g))
    return size, VertexSet(g.n, mask)


def domination_degrees(
    g: Graph, cap: int = DEFAULT_EXACT_CAP
) -> tuple[int, list[int], list[VertexSet]]:
    """(γ, degrees, witnesses) for every vertex, from one walk per stage.

    The witnesses are those of :func:`domination_degree_witness`. For
    k = ceil(n/(1+Δ)), k+1, ..., one walk of the minimal dominating sets
    of at most k vertices serves every vertex not yet served that a set
    it reaches contains. Sets arrive in lexicographic order, so each
    vertex gets the lexicographically least of the smallest sets that
    contain it, as its own staged search would. γ is the smallest size
    recorded: the members of a minimum dominating set have degree γ.
    """
    hits = _kernels(g, cap, "domination degree search").solve_dd_all(g.closed_adj, _gamma_lower_bound(g))
    if None in hits:
        raise InternalInvariantViolation(f"no minimal dominating set contains vertex {hits.index(None)}")
    degrees = [size for size, _ in hits]
    return min(degrees), degrees, [VertexSet(g.n, mask) for _, mask in hits]


class DominationProfile(NamedTuple):
    """All domination quantities of one graph."""

    degrees: tuple[int, ...]
    witnesses: tuple[VertexSet, ...]
    gamma: int
    upper_gamma: int
    ir: int
    upper_ir: int
    min_dd: int
    max_dd: int
    index: int
    is_drg: bool


def domination_profile(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> DominationProfile:
    """Compute every profile field; self-checks the textbook inequalities.

    The walks' limit is checked first, so a graph over it fails before
    any degree search. Then one sweep gives γ and the degrees, and the
    walks of irredundant sets give ir from γ, Γ and IR.
    """
    kern = _kernels(g, min(cap, MAX_SCAN), "domination profile")
    gamma, degrees, witnesses = domination_degrees(g, cap)
    ir, upper, upper_ir = _irredundance(kern, g, gamma)
    index = sum(degrees)
    profile = DominationProfile(
        degrees=tuple(degrees),
        witnesses=tuple(witnesses),
        gamma=gamma,
        upper_gamma=upper,
        ir=ir,
        upper_ir=upper_ir,
        min_dd=min(degrees),
        max_dd=max(degrees),
        index=index,
        is_drg=min(degrees) == max(degrees),
    )
    _check_profile(g, profile)
    return profile


def _check_profile(g: Graph, p: DominationProfile) -> None:
    if not all(p.gamma <= d <= p.upper_gamma for d in p.degrees):
        raise InternalInvariantViolation("degree outside [gamma, upper gamma]")
    if not g.n * p.gamma <= p.index <= g.n * p.upper_gamma:
        raise InternalInvariantViolation("index outside [n*gamma, n*upper gamma]")
    if not p.ir <= p.gamma <= p.upper_gamma <= p.upper_ir:
        raise InternalInvariantViolation("irredundance chain violated")
    minimal = set()  # the distinct witnesses checked so far
    for v, w in enumerate(p.witnesses):
        bits = w.bits
        if (not bits >> v & 1 or bits.bit_count() != p.degrees[v]
                or bits not in minimal and not is_minimal_dominating(g, w)):
            raise InternalInvariantViolation(f"bad witness for vertex {v}")
        minimal.add(bits)


def enumerate_minimal_dominating_sets(g: Graph) -> Iterator[VertexSet]:
    """Every minimal dominating set once, smallest cardinality first,
    ties broken by ascending mask value. The guards and the walk run at
    the call, so a graph over the cap fails here, not at the first item."""
    masks = _kernels(g, _WALK_CAP, "minimal dominating set enumeration").scan_minimal_ds(g.closed_adj)
    return (VertexSet(g.n, mask) for mask in sorted(masks, key=lambda m: (m.bit_count(), m)))


def mds_containing_greedy(g: Graph, v: int) -> VertexSet:
    """Grow a minimal dominating set around ``v`` by backtracking search.

    Starting from {v}, candidates are tried in ascending id and admitted
    only while every member keeps a nonempty private neighborhood; the
    first set whose closed neighborhoods cover the graph is returned.
    The result is always minimal dominating but not necessarily of
    minimum cardinality. It is the one search here with no cap.
    """
    return VertexSet(g.n, _search(_kernels(g, None, "greedy search", v), g, v, g.n)[1])


def minimalize_containing(g: Graph, d: VertexSet, v: int) -> VertexSet:
    """Shrink a dominating set to a minimal one that still contains ``v``.

    Redundant members other than ``v`` are dropped highest id first. When
    ``v`` itself is the only redundant member, one of its dominators is
    swapped out and the territory that dominator covered alone is
    re-covered by its own vertices; the loop then resumes dropping. Each
    swap removes a neighbour of ``v`` and re-covering adds none (``N[v]``
    stays covered by ``v``), so after at most deg(v) swaps ``v`` is its
    own private neighbour. The output is predicate-checked.
    """
    _check_bound(g, d)
    g.check_vertex(v)
    if v not in d:
        raise VertexNotInSet(f"vertex {v} is not in the given set")
    if not is_dominating(g, d):
        raise NotDominating("input set does not dominate the graph")
    closed = g.closed_adj
    bits = d.bits
    while True:
        twice = _coverage(closed, bits_of(bits))[1]
        redundant = [a for a in bits_of(bits & ~(1 << v)) if not closed[a] & ~twice]
        if redundant:
            bits ^= 1 << redundant[-1]
            continue
        if closed[v] & ~twice:
            break
        dominators = bits & closed[v] & ~(1 << v)
        bits ^= dominators & -dominators  # the lowest
        covered = _coverage(closed, bits_of(bits))[0]
        for x in bits_of(g.full_mask & ~covered):
            if (covered >> x) & 1:
                continue
            bits |= 1 << x
            covered |= closed[x]
    out = VertexSet(g.n, bits)
    if not is_minimal_dominating(g, out):
        raise InternalInvariantViolation(f"minimalizing around vertex {v} gave a non-minimal set")
    return out


def _cover_tables(closed: tuple[int, ...], lo: int, hi: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(once, twice, members) for every subset of the vertices lo..hi-1:
    the vertices its closed neighborhoods cover at least once, those they
    cover at least twice, and its members ascending. Entry i is the
    subset whose bits are those of i, shifted up by lo."""
    once, twice, members = [0], [0], [()]
    for v in range(lo, hi):
        c = closed[v]
        for i in range(len(once)):
            o = once[i]
            once.append(o | c)
            twice.append(twice[i] | (o & c))
            members.append(members[i] + (v,))
    return list(zip(once, twice, members))


def dd_vector_oracle(g: Graph) -> list[int]:
    """Brute-force domination degrees straight from the definition.

    Scans every one of the 2^n vertex subsets, with no pruning; a subset
    counts when its closed neighborhoods cover the graph and every member
    keeps a private neighbor. Kept deliberately separate from the search
    kernels so it can serve as an independent cross-check.

    A subset is a low half (vertices below ceil(n/2)) joined with a high
    half, and each half's cover tables are built once, so a subset costs
    O(1) mask operations: it dominates iff its halves' ``once`` masks
    together cover every vertex, its ``twice`` mask is
    ``lo_twice | hi_twice | (lo_once & hi_once)``, and a member keeps a
    private neighbor iff its closed neighborhood is not inside ``twice``.
    The tables hold O(2^(n/2)) ints, 2^10 per half at the cap of 20.
    """
    if g.n > DEFAULT_SCAN_CAP:
        raise ExactCapExceeded(f"oracle subset scan capped at {DEFAULT_SCAN_CAP} vertices, graph has {g.n}")
    n = g.n
    full = g.full_mask
    closed = g.closed_adj
    half = (n + 1) // 2
    lows = _cover_tables(closed, 0, half)
    best = [n + 1] * n
    for hi_once, hi_twice, hi_members in _cover_tables(closed, half, n):
        for lo_once, lo_twice, lo_members in lows:
            if lo_once | hi_once != full:
                continue
            once_only = ~(lo_twice | hi_twice | (lo_once & hi_once))
            members = lo_members + hi_members
            if all(closed[a] & once_only for a in members):
                card = len(members)
                for a in members:
                    if card < best[a]:
                        best[a] = card
    if n and max(best) > n:
        raise InternalInvariantViolation("oracle found a vertex in no minimal dominating set")
    return best
