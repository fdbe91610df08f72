"""Pure-Python search kernels.

This module is the fallback twin of the compiled extension ``_kernels``.
Both implement exactly the same candidate order and pruning rules, so
they return identical values AND identical witness sets; tests compare
them bit for bit. Masks are plain ints, one bit per vertex, which also
lets this twin handle graphs wider than 64 vertices.

Kernel contract
---------------
solve_dd(closed, v, k_lo, k_hi)
    Staged search for a smallest irredundant dominating set, optionally
    constrained to contain vertex ``v`` (pass -1 for unconstrained).
    Stages run k = max(k_lo, |base|) .. k_hi; within a stage the search
    is a depth-first extension of the base set, candidates in ascending
    id (combination order), pruning any partial set that stops being
    irredundant. A branch may add only candidates above the last one it
    added, and two lower bounds on the vertices it must still add count
    only those later candidates. With a budget of k minus the set's
    size, a branch is pruned when
      - packing: walking the uncovered vertices lowest first and taking
        each one that shares no later dominator with one already taken
        (the 2-packing bound ρ ≤ γ) takes more vertices than the budget,
        as each needs a dominator of its own; a vertex with no later
        dominator prunes at once;
      - budget: the largest gains (uncovered vertices dominated) of as
        many later candidates as the budget add up to less than the
        uncovered count.
    Neither count can exceed the budget unless more vertices are
    uncovered than the budget, so otherwise only the test for a vertex
    with no later dominator runs. This twin tests a set against the
    bounds before it enters the set (the root once per stage), and the
    compiled twin on entry, so both extend the same sets.
    Neither bound prunes a branch that reaches a hit, and candidate
    order is fixed, so the bounds change the search's cost, not its
    result. Returns (size, member_mask) of the first hit, which is
    therefore the lexicographically least witness of minimum size, or
    None when no stage succeeds.

solve_dd_all(closed, k_lo)
    solve_dd(closed, v, γ, n) for every vertex v, as a list indexed by v,
    from one walk per stage k = max(k_lo, 1) .. n instead of one per
    vertex; k_lo must not exceed γ. A stage walks the tree of a stage of
    solve_dd with no fixed vertex, under the same bounds. It does not
    stop at a hit: it records (size, member_mask) of each dominating set
    it reaches for every member not yet served, and does not extend that
    set. It also prunes a branch whose set and later candidates hold no
    vertex still to serve, and stops once every vertex is served. Sets
    arrive in lexicographic order of their sorted ids, and a vertex still
    unserved at stage k is in no minimal dominating set smaller than k,
    so each record is that vertex's solve_dd witness. A vertex in no
    minimal dominating set gets None.

scan_minimal_ds(closed)
    Every minimal dominating set, found by a walk of irredundant sets,
    returned as masks sorted by (cardinality, mask value). Only set
    enumeration needs it: the list is its output.

scan_irredundance(closed)
    (ir, Γ, IR), by one walk of irredundant sets: the minimum cardinality
    of a maximal irredundant set, the maximum cardinality of an
    irredundant dominating set (a minimal dominating set is exactly a
    dominating irredundant one) and the maximum cardinality of an
    irredundant set.

Both walks visit irredundant sets depth first, each at most once: a set
is extended only by a vertex above its highest member, and only when
every member, the new one included, keeps a private vertex (as in the
stages of ``solve_dd``, without their bounds). Irredundance is
hereditary, so the walk reaches every irredundant set that no bound cuts
off. No vertex added to a dominating set has a private vertex, so a
dominating set is never extended.

``scan_minimal_ds`` records each dominating set it reaches. It skips a
branch in which some uncovered vertex has no dominator among the later
vertices: that branch holds no dominating set.

``scan_irredundance`` tracks ir, Γ and IR as it walks and skips a branch
that can improve none of them:
  - ir: none of the branch's sets is smaller than the smallest maximal
    irredundant set found so far;
  - IR and Γ: the members added below a set take disjoint, nonempty
    private territories from the vertices it leaves uncovered. So the
    branch's sets add at most as many members as there are uncovered
    vertices that later vertices dominate, and at most as many as there
    are later vertices that extend the set; and they dominate only when
    the later vertices dominate every uncovered vertex.
A set that a higher vertex extends is not maximal, so maximality is
tested only on the other sets, against the lower vertices, and only when
the set is smaller than the best ir so far. Memory is O(n^2) words plus
the output.

Every function raises ValueError for a graph with no vertices, and the
scans also for one over 26 vertices. Only ``solve_dd`` and
``solve_dd_all`` of this twin take graphs over 64 vertices.
"""

from __future__ import annotations

BACKEND_NAME = "python"
_MAX_SCAN = 26  # as in the compiled twin: a walk of irredundant sets is exponential in n


def solve_dd(closed, v, k_lo, k_hi):
    n = len(closed)
    if n < 1:
        raise ValueError("python kernel handles 1 or more vertices, got 0")
    full = (1 << n) - 1
    reach = _reach(closed, n)
    if v >= 0:
        root = full & ~closed[v], 1 << v, [closed[v]]
    else:
        root = full, 0, []
    for k in range(max(k_lo, len(root[2])), k_hi + 1):
        hit = _stage(closed, n, reach, k, *root)
        if hit is not None:
            return hit
    return None


def _cut(closed, start, unc, slots):
    """Whether the packing or budget bound cuts a set that leaves ``unc``
    uncovered and may add ``slots`` more vertices, all from id ``start``
    up. The caller has checked that such a vertex dominates each vertex
    of ``unc``, and that ``unc`` has more vertices than ``slots``: with
    no more, neither bound can count past ``slots``."""
    later = -1 << start  # ids start and up
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
    # budget bound over later candidates: the best `slots` gains must
    # reach the uncovered count
    caps = sorted([(c & unc).bit_count() for c in closed[start:]], reverse=True)
    return sum(caps[:slots]) < unc.bit_count()


def _stage(closed, n, reach, k, unc, mask, privs):
    # privs: the private territory of each chosen vertex, in the order
    # chosen. Each level gets its own list, so backtracking undoes nothing.
    # rec extends a set that passed the bounds, and tests each child
    # before it builds the child's list or descends.
    def rec(start, uncovered, mask, privs):
        slots = k - len(privs) - 1  # left to a child
        for x in range(start, n):
            cx = closed[x]
            gain = cx & uncovered
            if not gain:
                continue  # x would arrive with empty private territory, as v always does
            unc = uncovered ^ gain
            if unc and (not slots or unc & ~reach[x + 1]):
                continue  # no slot left, or an uncovered vertex with no later dominator
            kept = [p & ~cx for p in privs]
            if 0 in kept:
                continue  # x would take a member's last private vertex
            if not unc:
                return len(kept) + 1, mask | 1 << x
            if unc.bit_count() > slots and _cut(closed, x + 1, unc, slots):
                continue
            kept.append(gain)
            hit = rec(x + 1, unc, mask | 1 << x, kept)
            if hit is not None:
                return hit
        return None

    if not unc:
        return len(privs), mask
    slots = k - len(privs)
    if slots <= 0 or unc.bit_count() > slots and _cut(closed, 0, unc, slots):
        return None
    return rec(0, unc, mask, privs)


def solve_dd_all(closed, k_lo):
    n = len(closed)
    if n < 1:
        raise ValueError("python kernel handles 1 or more vertices, got 0")
    full = (1 << n) - 1
    reach = _reach(closed, n)
    found = [None] * n
    todo = full
    for k in range(max(k_lo, 1), n + 1):
        todo = _sweep(closed, n, full, reach, k, found, todo)
        if not todo:
            break
    return found


def _sweep(closed, n, full, reach, k, found, todo):
    # One stage of solve_dd_all: _stage's walk and tests with no fixed
    # vertex. It records each dominating set it reaches as found[u] for
    # its members u still in `todo`, and returns the vertices left there.
    def rec(start, uncovered, mask, privs):
        nonlocal todo
        slots = k - len(privs) - 1
        for x in range(start, n):
            cx = closed[x]
            gain = cx & uncovered
            if not gain:
                continue
            unc = uncovered ^ gain
            if unc:
                if not slots or unc & ~reach[x + 1] or not (mask | -1 << x) & todo:
                    continue  # as in _stage, or no set below the child has a member to serve
            elif not (mask | 1 << x) & todo:
                continue  # a dominating set with no member to serve
            kept = [p & ~cx for p in privs]
            if 0 in kept:
                continue
            if not unc:
                hits = (mask | 1 << x) & todo
                todo ^= hits
                hit = len(kept) + 1, mask | 1 << x
                while hits:
                    low = hits & -hits
                    found[low.bit_length() - 1] = hit
                    hits ^= low
            elif unc.bit_count() <= slots or not _cut(closed, x + 1, unc, slots):
                kept.append(gain)
                rec(x + 1, unc, mask | 1 << x, kept)
            if not todo:
                return

    # the root: the empty set, which leaves all n vertices uncovered
    if k >= n or not _cut(closed, 0, full, k):
        rec(0, full, 0, [])
    return todo


def _scan_order(closed):
    n = len(closed)
    if not 1 <= n <= _MAX_SCAN:
        raise ValueError(f"irredundant-set walk handles 1..{_MAX_SCAN} vertices, got {n}")
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
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def scan_irredundance(closed):
    n = _scan_order(closed)
    full = (1 << n) - 1
    reach = _reach(closed, n)
    lo, upper_gamma, upper_ir = n + 1, 0, 0

    def rec(start, cover, privs):
        nonlocal lo, upper_gamma, upper_ir
        c = len(privs)
        if c > upper_ir:
            upper_ir = c
        if cover == full:
            # a dominating irredundant set is minimal dominating and has
            # no irredundant superset, so it is also maximal irredundant
            if c > upper_gamma:
                upper_gamma = c
            if c < lo:
                lo = c
            return
        unc = full & ~cover
        if c >= lo:
            # not ir, and members added below take disjoint private
            # territories from the uncovered vertices that later ones reach
            r = unc & reach[start]
            room = c + r.bit_count()
            if room <= upper_ir and (r != unc or room <= upper_gamma):
                return
        kids = []
        for x in range(start, n):
            cx = closed[x]
            gain = cx & unc
            if not gain:
                continue
            kept = [p & ~cx for p in privs]
            if 0 in kept:
                continue
            kept.append(gain)
            kids.append((x, cx, kept))
        if not kids and c < lo:
            # maximal unless a lower vertex keeps the set irredundant
            for cx in closed[:start]:
                if cx & unc and all(p & ~cx for p in privs):
                    break
            else:
                lo = c
        # a descendant of the child by kids[i] adds only kids[i:], so it has
        # at most `room` members, and it dominates only if they reach unc
        room = c + len(kids)
        for x, cx, kept in kids:
            if c + 1 >= lo and room <= upper_ir and (room <= upper_gamma or unc & ~reach[x]):
                break
            rec(x + 1, cover | cx, kept)
            room -= 1

    rec(0, 0, [])
    return lo, upper_gamma, upper_ir
