"""Exact domination computations.

Everything here is exact: predicates are direct formula evaluations,
the per-vertex domination degree comes from a staged branch-and-bound
search (smallest cardinality first, so the first hit is a minimum), and
the scan-based quantities (upper domination number, irredundance
numbers, set enumeration) walk all vertex subsets. The staged search is
independently cross-checkable against :func:`dd_vector_oracle`, a plain
full-subset-scan implementation of the definition that shares no code
with the search kernels.

Terminology: a set is *dominating* when the closed neighborhoods of its
members cover the vertex set, and *minimal dominating* when it is
dominating and every member keeps a nonempty private neighborhood. The
domination degree of a vertex is the minimum cardinality of a minimal
dominating set containing it; the domination index is the sum of the
degrees over all vertices.

Everything here is a pure function of immutable inputs, so concurrent
calls (including per-vertex degree computations of one graph) are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Iterator

from .backend import kernels_for
from .errors import (
    ExactCapExceeded,
    InternalInvariantViolation,
    NotDominating,
    VertexNotInSet,
    VertexOutOfRange,
)
from .graph import Graph, VertexSet, bits_of, mask_of, max_degree

DEFAULT_EXACT_CAP = 24   # staged searches, profiles, set enumeration
DEFAULT_SCAN_CAP = 20    # full subset scans: irredundance numbers, oracle
_SCAN_HARD_CAP = 26      # subset-scan tables top out at 2^26 words


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ExactCapExceeded(f"{what} capped at {cap} vertices, graph has {n}")


def _check_bound(g: Graph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValueError(f"vertex set over {s.n} vertices used with a graph of order {g.n}")


def _cover(g: Graph, bits: int) -> int:
    cov = 0
    closed = g.closed_adj
    for a in bits_of(bits):
        cov |= closed[a]
    return cov


def _private_mask(g: Graph, a: int, bits: int) -> int:
    others = 0
    closed = g.closed_adj
    for b in bits_of(bits & ~(1 << a)):
        others |= closed[b]
    return closed[a] & ~others


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff the closed neighborhoods of ``s`` cover every vertex."""
    _check_bound(g, s)
    return _cover(g, s.bits) == g.full_mask


def private_neighborhood(g: Graph, a: int, s: VertexSet) -> VertexSet:
    """N[a] minus the closed neighborhoods of the other members of ``s``."""
    _check_bound(g, s)
    g.check_vertex(a)
    if a not in s:
        raise VertexNotInSet(f"vertex {a} is not a member of the set")
    return VertexSet(g.n, _private_mask(g, a, s.bits))


def is_irredundant(g: Graph, s: VertexSet) -> bool:
    """True iff every member of ``s`` has a nonempty private neighborhood."""
    _check_bound(g, s)
    return all(_private_mask(g, a, s.bits) for a in bits_of(s.bits))


def is_minimal_dominating(g: Graph, s: VertexSet) -> bool:
    """Dominating and irredundant, i.e. no proper subset still dominates."""
    return is_dominating(g, s) and is_irredundant(g, s)


def _gamma_lower_bound(g: Graph) -> int:
    return ceil(g.n / (1 + max_degree(g)))


def domination_number(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Minimum cardinality of a dominating set."""
    _require_vertices(g)
    _check_cap(g.n, cap, "domination number search")
    kern = kernels_for(g.n)
    hit = kern.solve_dd(list(g.closed_adj), -1, _gamma_lower_bound(g), g.n)
    if hit is None:
        raise InternalInvariantViolation("no dominating set found")
    return hit[0]


def upper_domination_number(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Maximum cardinality of a minimal dominating set."""
    _require_vertices(g)
    _check_cap(g.n, min(cap, _SCAN_HARD_CAP), "minimal dominating set scan")
    masks = kernels_for(g.n).scan_minimal_ds(list(g.closed_adj))
    return max(m.bit_count() for m in masks)


def irredundance_numbers(g: Graph, cap: int = DEFAULT_SCAN_CAP) -> tuple[int, int]:
    """(ir, IR): extreme cardinalities of maximal irredundant / irredundant sets."""
    _require_vertices(g)
    _check_cap(g.n, min(cap, _SCAN_HARD_CAP), "irredundance scan")
    return kernels_for(g.n).scan_irredundance(list(g.closed_adj))


def _require_vertices(g: Graph) -> None:
    if g.n < 1:
        raise VertexOutOfRange("operation needs at least one vertex")


def _dd_with_bound(g: Graph, v: int, k_lo: int) -> tuple[int, int]:
    hit = kernels_for(g.n).solve_dd(list(g.closed_adj), v, k_lo, g.n)
    if hit is None:
        raise InternalInvariantViolation(f"no minimal dominating set contains vertex {v}")
    return hit


def domination_degree(g: Graph, v: int, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Minimum cardinality of a minimal dominating set containing ``v``."""
    return domination_degree_witness(g, v, cap)[0]


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
    _require_vertices(g)
    g.check_vertex(v)
    _check_cap(g.n, cap, "domination degree search")
    size, mask = _dd_with_bound(g, v, _gamma_lower_bound(g))
    return size, VertexSet(g.n, mask)


def domination_degrees(
    g: Graph, cap: int = DEFAULT_EXACT_CAP, gamma: int | None = None
) -> tuple[int, list[int], list[VertexSet]]:
    """(γ, degrees, witnesses) for every vertex, searching γ only once.

    The witnesses are those of :func:`domination_degree_witness`. A known
    ``gamma`` skips the γ search; it is then the shared lower bound of
    every vertex's staged search, which costs less over all vertices than
    starting each one at ceil(n/(1+Δ)).
    """
    _require_vertices(g)
    _check_cap(g.n, cap, "domination degree search")
    if gamma is None:
        gamma = domination_number(g, cap)
    degrees = []
    witnesses = []
    for v in range(g.n):
        size, mask = _dd_with_bound(g, v, gamma)
        degrees.append(size)
        witnesses.append(VertexSet(g.n, mask))
    return gamma, degrees, witnesses


@dataclass(frozen=True)
class DominationProfile:
    """All domination quantities of one graph.

    ``ir`` and ``upper_ir`` are None when the graph exceeds the subset
    scan cap they would require.
    """

    degrees: tuple[int, ...]
    witnesses: tuple[VertexSet, ...]
    gamma: int
    upper_gamma: int
    ir: int | None
    upper_ir: int | None
    min_dd: int
    max_dd: int
    index: int
    is_drg: bool


def domination_profile(
    g: Graph,
    cap: int = DEFAULT_EXACT_CAP,
    ir_cap: int = DEFAULT_SCAN_CAP,
) -> DominationProfile:
    """Compute every profile field; self-checks the textbook inequalities."""
    _require_vertices(g)
    _check_cap(g.n, min(cap, _SCAN_HARD_CAP), "domination profile")
    gamma, degrees, witnesses = domination_degrees(g, cap)
    kern = kernels_for(g.n)
    closed = list(g.closed_adj)
    upper = max(m.bit_count() for m in kern.scan_minimal_ds(closed))
    ir = upper_ir = None
    if g.n <= ir_cap:
        ir, upper_ir = kern.scan_irredundance(closed)
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
    if p.ir is not None and not (p.ir <= p.gamma <= p.upper_gamma <= p.upper_ir):
        raise InternalInvariantViolation("irredundance chain violated")
    for v, w in enumerate(p.witnesses):
        if v not in w or not is_minimal_dominating(g, w):
            raise InternalInvariantViolation(f"bad witness for vertex {v}")


def enumerate_minimal_dominating_sets(
    g: Graph, cap: int = DEFAULT_EXACT_CAP
) -> Iterator[VertexSet]:
    """Every minimal dominating set once, smallest cardinality first,
    ties broken by ascending mask value."""
    _require_vertices(g)
    _check_cap(g.n, min(cap, _SCAN_HARD_CAP), "minimal dominating set enumeration")
    for mask in kernels_for(g.n).scan_minimal_ds(list(g.closed_adj)):
        yield VertexSet(g.n, mask)


def mds_containing_greedy(g: Graph, v: int) -> VertexSet:
    """Grow a minimal dominating set around ``v`` by backtracking search.

    Starting from {v}, candidates are tried in ascending id and admitted
    only while every member keeps a nonempty private neighborhood; the
    first set whose closed neighborhoods cover the graph is returned.
    The result is always minimal dominating but not necessarily of
    minimum cardinality.
    """
    _require_vertices(g)
    g.check_vertex(v)
    hit = kernels_for(g.n).solve_dd(list(g.closed_adj), v, g.n, g.n)
    if hit is None:
        raise InternalInvariantViolation(f"no minimal dominating set contains vertex {v}")
    return VertexSet(g.n, hit[1])


def minimalize_containing(g: Graph, d: VertexSet, v: int) -> VertexSet:
    """Shrink a dominating set to a minimal one that still contains ``v``.

    Redundant members other than ``v`` are dropped highest id first. When
    ``v`` itself is the only redundant member, one of its dominators is
    swapped out and the territory that dominator covered alone is
    re-covered by its own vertices; the loop then resumes dropping. The
    output is predicate-checked; if the construction fails to settle the
    exact search supplies a witness instead.
    """
    _check_bound(g, d)
    g.check_vertex(v)
    if v not in d:
        raise VertexNotInSet(f"vertex {v} is not in the given set")
    if not is_dominating(g, d):
        raise NotDominating("input set does not dominate the graph")
    closed = g.closed_adj
    full = g.full_mask
    members = set(d.members())
    for _ in range(2 * g.n + 4):
        while True:
            redundant = [a for a in members if a != v and _private_mask(g, a, mask_of(members)) == 0]
            if not redundant:
                break
            members.remove(max(redundant))
        if _private_mask(g, v, mask_of(members)) != 0:
            out = g.vertex_set(members)
            if is_minimal_dominating(g, out):
                return out
            break
        dominator = min(x for x in members if x != v and (closed[x] >> v) & 1)
        members.remove(dominator)
        covered = _cover(g, mask_of(members))
        for x in bits_of(full & ~covered):
            if (covered >> x) & 1:
                continue
            members.add(x)
            covered |= closed[x]
    size, mask = _dd_with_bound(g, v, 1)
    return VertexSet(g.n, mask)


def dd_vector_oracle(g: Graph, cap: int = DEFAULT_SCAN_CAP) -> list[int]:
    """Brute-force domination degrees straight from the definition.

    Scans all vertex subsets; a subset counts when its closed
    neighborhoods cover the graph and every member keeps a private
    neighbor. Kept deliberately separate from the search kernels so it
    can serve as an independent cross-check.
    """
    _check_cap(g.n, min(cap, _SCAN_HARD_CAP), "oracle subset scan")
    n = g.n
    full = g.full_mask
    closed = g.closed_adj
    best = [n + 1] * n
    for m in range(1, 1 << n):
        cov = 0
        for a in bits_of(m):
            cov |= closed[a]
        if cov != full:
            continue
        ok = True
        for a in bits_of(m):
            others = 0
            for b in bits_of(m ^ (1 << a)):
                others |= closed[b]
            if closed[a] & ~others == 0:
                ok = False
                break
        if not ok:
            continue
        card = m.bit_count()
        for a in bits_of(m):
            if card < best[a]:
                best[a] = card
    if n and max(best) > n:
        raise InternalInvariantViolation("oracle found a vertex in no minimal dominating set")
    return best


def domination_degree_oracle(g: Graph, v: int, cap: int = DEFAULT_SCAN_CAP) -> int:
    g.check_vertex(v)
    return dd_vector_oracle(g, cap)[v]
