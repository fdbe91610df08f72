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
    with no later dominator runs.
    Neither bound prunes a branch that reaches a hit, and candidate
    order is fixed, so the bounds change the search's cost, not its
    result. Returns (size, member_mask) of the first hit, which is
    therefore the lexicographically least witness of minimum size, or
    None when no stage succeeds.

scan_minimal_ds(closed)
    Every minimal dominating set, found by a full scan of all 2^n
    subsets, returned as masks sorted by (cardinality, mask value).
    Only set enumeration needs it: the list is its output.

scan_irredundance(closed)
    (ir, Γ, IR), by one full subset scan: the minimum cardinality of a
    maximal irredundant set, the maximum cardinality of an irredundant
    dominating set (a minimal dominating set is exactly a dominating
    irredundant one) and the maximum cardinality of an irredundant set.

In this twin both scans read one table: for every subset m, whether it
is irredundant and, if so, the vertices it dominates. Irredundance is
hereditary, so the table is built by extending irredundant sets by a
higher vertex: a set whose subset without its highest member is
redundant is never visited.

Every function raises ValueError for a graph with no vertices, and the
scans also for one over 26 vertices. Only ``solve_dd`` of this twin
takes graphs over 64 vertices.
"""

from __future__ import annotations

from array import array
from itertools import compress

BACKEND_NAME = "python"
_MAX_SCAN = 26  # as in the compiled twin: a cover table has 2^n words


def solve_dd(closed, v, k_lo, k_hi):
    n = len(closed)
    if n < 1:
        raise ValueError("python kernel handles 1 or more vertices, got 0")
    full = (1 << n) - 1
    base = [v] if v >= 0 else []
    lo = max(k_lo, len(base))
    for k in range(lo, k_hi + 1):
        hit = _stage(closed, n, full, v, k)
        if hit is not None:
            return hit
    return None


def _stage(closed, n, full, v, k):
    cands = [x for x in range(n) if x != v]
    ncands = len(cands)

    # privs: the private territory of each chosen vertex, in the order
    # chosen. Each level gets its own list, so backtracking undoes nothing.
    def rec(start, cover, mask, privs):
        if cover == full:
            return len(privs), mask
        slots = k - len(privs)
        if slots <= 0:
            return None
        unc = full & ~cover
        # later: the vertices this branch may still add, from id nxt up.
        # v among them is harmless: N[v] is covered, so v dominates no
        # uncovered vertex
        nxt = cands[start] if start < ncands else n
        later = full >> nxt << nxt
        need = unc.bit_count()
        rest = unc
        if need <= slots:
            # neither bound can count past `slots`: only an uncovered vertex
            # with no later dominator prunes
            while rest:
                low = rest & -rest
                if not closed[low.bit_length() - 1] & later:
                    return None
                rest ^= low
        else:
            # packing bound: uncovered vertices that share no later
            # dominator each need an added vertex of their own
            packed = 0
            while rest:
                doms = closed[(rest & -rest).bit_length() - 1] & later
                if not doms:
                    return None
                packed += 1
                if packed > slots:
                    return None
                while doms:
                    low = doms & -doms
                    rest &= ~closed[low.bit_length() - 1]
                    doms ^= low
            # budget bound over later candidates: the best `slots` gains
            # must reach `need`
            caps = [(c & unc).bit_count() for c in closed[nxt:]]
            if slots == 1:
                if max(caps) < need:
                    return None
            else:
                caps.sort(reverse=True)
                if sum(caps[:slots]) < need:
                    return None
        for i in range(start, ncands):
            x = cands[i]
            cx = closed[x]
            gain = cx & ~cover
            if not gain:
                continue  # x would arrive with empty private territory
            kept = [p & ~cx for p in privs]
            if 0 in kept:
                continue  # x would take a member's last private vertex
            kept.append(gain)
            hit = rec(i + 1, cover | cx, mask | 1 << x, kept)
            if hit is not None:
                return hit
        return None

    if v >= 0:
        return rec(0, closed[v], 1 << v, [closed[v]])
    return rec(0, 0, 0, [])


def _scan_order(closed):
    n = len(closed)
    if not 1 <= n <= _MAX_SCAN:
        raise ValueError(f"subset scan handles 1..{_MAX_SCAN} vertices, got {n}")
    return n


def _irredundance_table(closed, n):
    """(cover, irr) over all 2^n subsets m: irr[m] is 1 when m is
    irredundant, and then cover[m] is the set m dominates (0 otherwise)."""
    size = 1 << n
    cover = array("Q", bytes(8 * size))
    irr = bytearray(size)
    irr[0] = 1
    for k in range(n):
        bit = 1 << k
        ck = closed[k]
        # m = m0 + {k} can be irredundant only when m0 is, so only
        # irredundant sets below k are extended
        for m0 in compress(range(bit), irr[:bit]):
            if ck & ~cover[m0] == 0:
                continue  # k would have no private vertex
            m = m0 | bit
            rest = m0
            while rest:
                low = rest & -rest
                rest ^= low
                s = m ^ low  # decided already: below m, and it contains k
                if not irr[s] or closed[low.bit_length() - 1] & ~cover[s] == 0:
                    break
            else:
                irr[m] = 1
                cover[m] = cover[m0] | ck
    return cover, irr


def scan_minimal_ds(closed):
    n = _scan_order(closed)
    full = (1 << n) - 1
    cover, irr = _irredundance_table(closed, n)
    out = [m for m in compress(range(1 << n), irr) if cover[m] == full]
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def scan_irredundance(closed):
    n = _scan_order(closed)
    full = (1 << n) - 1
    cover, irr = _irredundance_table(closed, n)
    bits = [1 << x for x in range(n)]
    lo = n + 1
    upper_gamma = upper_ir = 0
    for m in compress(range(1 << n), irr):
        c = m.bit_count()
        if c > upper_ir:
            upper_ir = c
        if c > upper_gamma and cover[m] == full:
            upper_gamma = c
        # ir: the smallest irredundant set that no added vertex keeps irredundant
        if c < lo and not any(irr[m | b] for b in bits if not m & b):
            lo = c
    return lo, upper_gamma, upper_ir
