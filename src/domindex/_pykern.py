"""Pure-Python search kernels.

This module is the fallback twin of the compiled extension ``_kernels``.
Both implement exactly the same candidate order and pruning rules, so
they return identical values AND identical witness sets; tests compare
them bit for bit. Masks are plain ints, one bit per vertex, which also
lets this twin handle graphs wider than 64 vertices.

Kernel contract
---------------
solve_dd(closed, v, k_lo, k_hi)
    (size, member_mask) of the first irredundant dominating set that
    contains vertex ``v`` (pass -1 for any set) in stages k = k_lo ..
    k_hi of the stage walk below, or None when no stage reaches one.
    No stage below the smallest such set's size reaches one, so when k_lo
    is at most that size this is the lexicographically least witness of
    minimum size. Seed: the root {v} with N[v] covered, and only v open;
    for v = -1, the root ∅ with every vertex open, where the first set
    reached serves them all.

solve_dd_all(closed, k_lo)
    solve_dd(closed, v, γ, n) for every vertex v, as a list indexed by v,
    from stages k_lo .. n instead of one search per vertex; k_lo must not
    exceed γ. Seed: the root ∅ with every vertex open, where a set serves
    its own members. A vertex still open at stage k is in no minimal
    dominating set smaller than k, so each record is that vertex's
    solve_dd witness. A vertex in no minimal dominating set gets None.

The stage walk. Stages run k = max(k_lo, 1) .. k_hi until no vertex is
open; a stage above n searches the tree of stage n, so at most one of
them runs. A stage is a depth-first extension of the root to at most k
vertices, candidates in ascending id (combination order), pruning any
partial set that stops being irredundant. A branch may add only
candidates above the last one it added, and its bounds on the vertices
it must still add count only those later candidates. With a budget of k
minus the set's size, a branch is pruned when
  - exact, for a budget of at most two: with a budget of one, no later
    vertex that dominates both the lowest and the highest uncovered
    vertex covers them all; with two, for no later dominator d of the
    lowest uncovered vertex do d, or d and a later vertex that dominates
    both the lowest and the highest vertex d leaves uncovered, cover them
    all. A vertex that covers a mask dominates its lowest and its highest
    vertex, so the test prunes exactly the branches that no set of at
    most two later vertices completes; a budget below one prunes at once;
  - packing, for a larger budget: walking the uncovered vertices lowest
    first and taking each one that shares no later dominator with one
    already taken (the 2-packing bound ρ ≤ γ) takes more vertices than
    the budget, as each needs a dominator of its own; a vertex with no
    later dominator prunes at once.
When no more vertices are uncovered than the budget, each can take a
later dominator of its own, so only the test for a vertex with no later
dominator runs. No bound prunes a branch that reaches a dominating
set. The stage records each dominating set it reaches as
(size, member_mask) for the open vertices that the set serves, closes
them, and does not extend the set. It also prunes a branch none of
whose sets can serve an open vertex, and stops once no vertex is open.
Sets arrive in lexicographic order of their sorted ids, and candidate
order is fixed, so the bounds change the walk's cost, not its records:
each is the first set of the first stage that serves the vertex.

last_nodes()
    The sets that the walk of the last solve_dd, solve_dd_all,
    scan_irredundance or scan_ir call that returned entered, roots
    included (see below); both twins count the same.

scan_minimal_ds(closed)
    Every minimal dominating set, found by a walk of irredundant sets,
    returned as masks in the order the walk reaches them, which is the
    lexicographic order of their sorted ids; both twins return the same
    list. Only set enumeration needs it, and sorts it for its output.

scan_irredundance(closed)
    (Γ, IR), by one walk of irredundant sets: the maximum cardinality of
    an irredundant dominating set (a minimal dominating set is exactly a
    dominating irredundant one) and the maximum cardinality of an
    irredundant set.

scan_ir(closed, gamma)
    ir, the minimum cardinality of a maximal irredundant set, by a walk
    of its own; ``gamma`` must be γ, the domination number.

The walks visit irredundant sets depth first, each at most once: a set
is extended only by a vertex above its highest member, and only when
every member, the new one included, keeps a private vertex (as in the
stage walk, without its bounds). Irredundance is hereditary, so a walk
reaches every irredundant set that no bound cuts off. No vertex added to
a dominating set has a private vertex, so a dominating set is never
extended.

``scan_minimal_ds`` records each dominating set it reaches. It skips a
branch in which some uncovered vertex has no dominator among the later
vertices: that branch holds no dominating set.

``scan_irredundance`` tracks Γ and IR as it walks and skips a branch
that can improve neither: the members added below a set take disjoint,
nonempty private territories from the vertices it leaves uncovered. So
the branch's sets add at most as many members as there are uncovered
vertices that later vertices dominate, and at most as many as there are
later vertices that extend the set; and they dominate only when the
later vertices dominate every uncovered vertex.

``scan_ir`` looks only for a maximal irredundant set smaller than lo,
the size of the smallest one found so far:
  - lo starts at γ, as a minimum dominating set is maximal irredundant;
  - the walk stops once lo ≤ max(⌈(γ+1)/2⌉, ⌈n / max(Δ+1, 2Δ−1)⌉)
    (``_ir_stop``), which ir cannot undercut, and enters no set when that
    reaches γ.
    The first term holds as γ ≤ 2·ir − 1 (Bollobás and Cockayne,
    J. Graph Theory 1979). The degree bound, a count of the same kind:
    let S be maximal irredundant with s = |S|. A member that is its own
    private vertex covers at most Δ+1 vertices. A member x that another
    member dominates is counted twice in Σ|N[z]|, so N[x] adds at most Δ
    new vertices. An undominated vertex w is its own private vertex in
    S+w, so, S being maximal, some member x loses all its private
    vertices to N[w]; x is of the second kind (w is not adjacent to x),
    so w ∈ N(p_x) − x for a fixed private vertex p_x ≠ x of x: at most
    Δ−1 such w per member. Hence n ≤ s·max(Δ+1, 2Δ−1);
  - a set S may add lo − 1 − |S| more vertices;
  - the G² bound. A maximal irredundant set S dominates G², the graph
    whose closed neighbourhoods are the vertices within distance 2: for
    w outside S, either S dominates w, or adding w leaves some member s
    no private vertex, so all of s's private vertices lie in N[w] and w
    is within distance 2 of s. So a branch is cut when its later
    vertices cannot cover the vertices its set leaves uncovered in G²
    within its budget, by the stage walk's bounds (``_cut``) on the
    closed neighbourhoods of G²; they prune only branches that no such
    set of vertices completes;
  - the annihilator cut, on a child that may add no more vertices, so
    that it has lo − 1 < γ members. Let S be maximal irredundant with
    |S| < γ, so S does not dominate, and let u be undominated. u is its
    own private vertex in S+u, so, S being maximal, some member x has
    PN(x,S) ⊆ N[u]. Had x no neighbour in S, x ∈ PN(x,S) ⊆ N[u] would
    dominate u; so x has one, and u ∈ N[p] ⊆ N²[x] for some
    p ∈ PN(x,S). So such a child is entered only when the G²
    neighbourhoods of its members that have a neighbour in it cover
    every vertex it leaves undominated. The walk passes down the members
    with no neighbour in the set and the G² cover of the others; a
    member leaves the first for the second when a later member is
    adjacent to it;
  - a set that no vertex, higher or lower, extends is maximal, and lo
    falls to its size.
Both twins test each child of the stage walk and of ``scan_ir`` against
the bounds before entering it, and the root once per stage or walk.
This twin builds a child's list of private territories only to enter
it: it tests whether a vertex takes a member's last private vertex
member by member, stopping at the first, tests the room bound of a
child of ``scan_irredundance`` at the parent, and tests the maximality
of a ``scan_ir`` child that may add no vertex in the parent's loop. The
walks enter the same sets as the compiled twin's.
Memory is O(n^2) words plus the output.

Every function raises ValueError for a graph with no vertices, the walks
of irredundant sets also for one over 26 vertices, and ``scan_ir`` also
for ``gamma`` outside 1..n; ``solve_dd`` raises IndexError for v >= n.
Only ``solve_dd`` and ``solve_dd_all`` of this twin take graphs over 64
vertices.
"""

from __future__ import annotations

BACKEND_NAME = "python"
MAX_SCAN = 26  # as in the compiled twin: a walk of irredundant sets is exponential in n
_nodes = 0  # last_nodes()


def solve_dd(closed, v, k_lo, k_hi):
    # for v < 0, the first set reached serves every vertex
    return _walk(closed, v, -1 if v < 0 else 0, k_lo, k_hi)[max(v, 0)]


def solve_dd_all(closed, k_lo):
    # a set serves its own members
    return _walk(closed, -1, 0, k_lo, len(closed))


def last_nodes():
    return _nodes


def _cut(closed, start, unc, slots):
    """Whether the bounds cut a set that leaves ``unc`` uncovered, in the
    graph whose closed neighbourhoods are ``closed``, and may add ``slots``
    more vertices, all from id ``start`` up. For at most two slots, the
    exact completion test: some later dominator d of the lowest vertex of
    unc covers it, or with two slots, d and a later vertex that covers
    what d leaves. Only ``closed[lowest] & closed[highest] & later`` of
    a mask can cover it, so the last slot tries only those. Else the
    packing bound. The caller has checked that such a vertex dominates
    each vertex of ``unc``, and that ``unc`` has more vertices than
    ``slots``: with no more, at most ``slots`` such vertices cover it."""
    later = -1 << start  # ids start and up
    if slots <= 2:
        if slots < 1:
            return True
        doms = closed[(unc & -unc).bit_length() - 1] & later
        if slots == 1:
            doms &= closed[unc.bit_length() - 1]
        while doms:
            low = doms & -doms
            doms ^= low
            rest = unc & ~closed[low.bit_length() - 1]
            if not rest:
                return False
            if slots == 2:
                seconds = closed[(rest & -rest).bit_length() - 1] & closed[rest.bit_length() - 1] & later
                while seconds:
                    low = seconds & -seconds
                    if not rest & ~closed[low.bit_length() - 1]:
                        return False
                    seconds ^= low
        return True
    # packing bound: uncovered vertices that share no later dominator each
    # need an added vertex of their own
    packed = 0
    rest = unc
    while rest:
        packed += 1
        if packed > slots:
            return True
        doms = closed[(rest & -rest).bit_length() - 1] & later
        while doms:
            low = doms & -doms
            rest &= ~closed[low.bit_length() - 1]
            doms ^= low
    return False


def _walk(closed, v, wild, k_lo, k_hi):
    """Stages k_lo .. k_hi of the stage walk from the root {v} with only v
    open, or for v < 0 from the root ∅ with every vertex open. A
    dominating set serves its open members and the open vertices in
    ``wild``. Returns found[u], the (size, member_mask) that served u, or
    None."""
    global _nodes
    n = len(closed)
    if n < 1:
        raise ValueError("python kernel handles 1 or more vertices, got 0")
    full = (1 << n) - 1
    if v < 0:
        unc, mask, privs, todo = full, 0, [], full
    else:
        unc, mask, privs, todo = full & ~closed[v], 1 << v, [closed[v]], 1 << v
    reach = _reach(closed, n)
    found = [None] * n
    nodes = 0

    def serve(mask):
        nonlocal todo
        hits = (mask | wild) & todo
        todo ^= hits
        record = mask.bit_count(), mask
        while hits:
            low = hits & -hits
            found[low.bit_length() - 1] = record
            hits ^= low

    # privs: the private territory of each chosen vertex, in the order
    # chosen. Each level gets its own list, so backtracking undoes nothing.
    # rec extends a set that passed the bounds, and tests each child
    # before it descends; only a child it enters gets a list.
    def rec(start, uncovered, mask, privs):
        nonlocal nodes
        nodes += 1
        slots = k - len(privs) - 1  # left to a child
        held = (mask | wild) & todo  # open vertices that every set below serves
        for x in range(start, n):
            cx = closed[x]
            gain = cx & uncovered
            if not gain:
                continue  # x would arrive with empty private territory, as v always does
            unc = uncovered ^ gain
            # no slot left, an uncovered vertex with no later dominator, or
            # no set below the child that serves an open vertex
            if unc and (not slots or unc & ~reach[x + 1] or not (held or todo >> x)):
                continue
            for p in privs:
                if not p & ~cx:
                    break  # x would take a member's last private vertex
            else:
                if not unc:
                    serve(mask | 1 << x)
                elif unc.bit_count() <= slots or not _cut(closed, x + 1, unc, slots):
                    kept = [p & ~cx for p in privs]
                    kept.append(gain)
                    rec(x + 1, unc, mask | 1 << x, kept)
                if not todo:
                    return
                held &= todo

    for k in range(max(k_lo, 1), k_hi + 1):
        if not unc:
            serve(mask)  # v dominates every vertex
        elif unc.bit_count() <= k - len(privs) or not _cut(closed, 0, unc, k - len(privs)):
            rec(0, unc, mask, privs)
        if not todo or k >= n:
            break
    _nodes = nodes
    return found


def _scan_order(closed):
    n = len(closed)
    if not 1 <= n <= MAX_SCAN:
        raise ValueError(f"irredundant-set walk handles 1..{MAX_SCAN} vertices, got {n}")
    return n


def _reach(closed, n):
    """reach[s]: the vertices that closed[s:] dominate together."""
    reach = [0] * (n + 1)
    for x in range(n - 1, -1, -1):
        reach[x] = reach[x + 1] | closed[x]
    return reach


def scan_minimal_ds(closed):
    n = _scan_order(closed)
    full = (1 << n) - 1
    reach = _reach(closed, n)
    out = []

    def rec(start, cover, mask, privs):
        if cover == full:
            out.append(mask)  # not extended: no added vertex has a private vertex
            return
        if full & ~(cover | reach[start]):
            return  # no later vertex dominates some uncovered vertex
        for x in range(start, n):
            cx = closed[x]
            gain = cx & ~cover
            if not gain:
                continue
            kept = [p & ~cx for p in privs]
            if 0 in kept:
                continue
            kept.append(gain)
            rec(x + 1, cover | cx, mask | 1 << x, kept)

    rec(0, 0, 0, [])
    return out


def scan_irredundance(closed):
    global _nodes
    n = _scan_order(closed)
    reach = _reach(closed, n)
    upper_gamma = upper_ir = 0
    nodes = 1  # the root, which no bound cuts: it has n vertices to add

    # rec extends a set that leaves unc uncovered and passed the bounds.
    # It enters each child itself: it counts the child, tests the child's
    # bounds, and builds the child's territory list only to descend.
    def rec(start, unc, privs):
        nonlocal upper_gamma, upper_ir, nodes
        kids = []
        for x in range(start, n):
            cx = closed[x]
            if cx & unc:
                for p in privs:
                    if not p & ~cx:
                        break
                else:
                    kids.append(x)
        # a descendant of the child by kids[i] adds only kids[i:], so it has
        # at most `room` members, and it dominates only if they reach unc
        c = len(privs)
        room = c + len(kids)
        for x in kids:
            if room <= upper_ir and (room <= upper_gamma or unc & ~reach[x]):
                break
            room -= 1
            nodes += 1
            if c >= upper_ir:
                upper_ir = c + 1
            cx = closed[x]
            gain = cx & unc
            rest = unc ^ gain
            if not rest:
                # a dominating irredundant set is minimal dominating
                if c >= upper_gamma:
                    upper_gamma = c + 1
                continue
            # members added below take disjoint private territories from
            # the uncovered vertices that later ones reach
            r = rest & reach[x + 1]
            most = c + 1 + r.bit_count()
            if most <= upper_ir and (r != rest or most <= upper_gamma):
                continue
            kept = [p & ~cx for p in privs]
            kept.append(gain)
            rec(x + 1, rest, kept)

    rec(0, (1 << n) - 1, [])
    _nodes = nodes
    return upper_gamma, upper_ir


def _ir_stop(closed, gamma):
    """The size at which ``scan_ir`` stops: ir ≥ ⌈(γ+1)/2⌉, as γ ≤ 2ir − 1,
    and ir ≥ ⌈n / max(Δ+1, 2Δ−1)⌉. Δ is read only when the first leaves
    room below γ. The walk enters no set when this reaches γ."""
    stop = (gamma + 2) // 2
    if stop < gamma:
        delta = max(map(int.bit_count, closed)) - 1
        stop = max(stop, -(-len(closed) // max(delta + 1, 2 * delta - 1)))
    return stop


def scan_ir(closed, gamma):
    global _nodes
    n = _scan_order(closed)
    if not 1 <= gamma <= n:
        raise ValueError(f"gamma must lie in 1..{n}, got {gamma}")
    stop = _ir_stop(closed, gamma)
    if stop >= gamma:
        _nodes = 0
        return gamma  # no set to enter, so no G² to build
    full = (1 << n) - 1
    # square: closed neighbourhoods of G², the vertices within distance 2
    square = [0] * n
    for v in range(n):
        rest = closed[v]
        while rest:
            low = rest & -rest
            square[v] |= closed[low.bit_length() - 1]
            rest ^= low
    reach = _reach(square, n)
    lo = gamma
    nodes = 0

    # cover and far: what the set dominates in G and in G²; alone: its
    # members with no neighbour in it; near: the G² cover of the others.
    # rec enters only sets that may add a vertex (the root may add
    # lo − 1 ≥ 2), so it tests only the lower vertices for maximality; a
    # child that may add none is tested in the loop, with no call.
    def rec(start, cover, far, alone, near, privs):
        nonlocal lo, nodes
        nodes += 1
        c = len(privs)
        unc = full & ~cover
        slots = lo - 2 - c  # left to a child, which stays below lo
        maximal = True
        for x in range(start, n):
            cx = closed[x]
            gain = cx & unc
            if not gain:
                continue
            for p in privs:
                if not p & ~cx:
                    break
            else:
                maximal = False  # x extends the set
                # no slot left, a vertex far from the child with no later
                # G²-dominator, or the bounds of the stage walk in G²
                rest = full & ~(far | square[x])
                if rest and (not slots or rest & ~reach[x + 1]
                             or rest.bit_count() > slots and _cut(square, x + 1, rest, slots)):
                    continue
                # the child's members with no neighbour in it, and the G²
                # cover of the others: a member next to x is no longer alone
                kid_alone, kid_near = alone | 1 << x, near
                if cover >> x & 1:
                    woken = alone & cx
                    kid_alone = alone ^ woken
                    kid_near |= square[x]
                    while woken:
                        low = woken & -woken
                        kid_near |= square[low.bit_length() - 1]
                        woken ^= low
                if slots:
                    kept = [p & ~cx for p in privs]
                    kept.append(gain)
                    rec(x + 1, cover | cx, far | square[x], kid_alone, kid_near, kept)
                    slots = lo - 2 - c
                    if lo <= stop or slots < 0:
                        return
                    continue
                # the child can add no vertex. It is maximal irredundant
                # only if near covers what it leaves undominated (the
                # annihilator cut) and no vertex, lower or later, keeps it
                # irredundant; then lo falls to its size.
                left = unc ^ gain
                if left & ~kid_near:
                    continue
                nodes += 1
                kept = [p & ~cx for p in privs]
                kept.append(gain)
                for cy in closed:
                    if cy & left:
                        for p in kept:
                            if not p & ~cy:
                                break
                        else:
                            break  # this vertex extends the child
                else:
                    lo = c + 1
                    return
        if maximal:
            # maximal unless a lower vertex keeps it irredundant
            for cy in closed[:start]:
                if cy & unc and all(p & ~cy for p in privs):
                    return
            lo = c

    if not _cut(square, 0, full, lo - 1):
        rec(0, 0, 0, 0, 0, [])
    _nodes = nodes
    return lo
