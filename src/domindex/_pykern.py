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
    irredundant and any branch whose remaining budget cannot cover the
    uncovered vertices. Returns (size, member_mask) of the first hit,
    which is therefore the lexicographically least witness of minimum
    size, or None when no stage succeeds.

scan_minimal_ds(closed)
    Every minimal dominating set, found by a full scan of all 2^n
    subsets, returned as masks sorted by (cardinality, mask value).

scan_irredundance(closed)
    (ir, IR): minimum cardinality of a maximal irredundant set and
    maximum cardinality of an irredundant set, by full subset scan.
"""

from __future__ import annotations

from array import array

BACKEND_NAME = "python"


def solve_dd(closed, v, k_lo, k_hi):
    n = len(closed)
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
        need = unc.bit_count()
        # budget bound over all n vertices: the best `slots` gains must reach `need`
        caps = [(c & unc).bit_count() for c in closed]
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


def _cover_table(closed, n):
    size = 1 << n
    cover = array("Q", bytes(8 * size)) if n <= 64 else [0] * size
    for m in range(1, size):
        low = m & -m
        cover[m] = cover[m ^ low] | closed[low.bit_length() - 1]
    return cover


def scan_minimal_ds(closed):
    n = len(closed)
    full = (1 << n) - 1
    cover = _cover_table(closed, n)
    out = []
    for m in range(1 << n):
        if cover[m] != full:
            continue
        rest = m
        minimal = True
        while rest:
            low = rest & -rest
            rest ^= low
            if closed[low.bit_length() - 1] & ~cover[m ^ low] == 0:
                minimal = False
                break
        if minimal:
            out.append(m)
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def scan_irredundance(closed):
    n = len(closed)
    size = 1 << n
    cover = _cover_table(closed, n)
    irr = bytearray(size)
    irr[0] = 1
    best_ir = 0
    for m in range(1, size):
        rest = m
        ok = True
        while rest:
            low = rest & -rest
            rest ^= low
            if closed[low.bit_length() - 1] & ~cover[m ^ low] == 0:
                ok = False
                break
        if ok:
            irr[m] = 1
            c = m.bit_count()
            if c > best_ir:
                best_ir = c
    lo = n + 1
    for m in range(size):
        if not irr[m]:
            continue
        c = m.bit_count()
        if c >= lo:
            continue
        maximal = True
        for x in range(n):
            bit = 1 << x
            if m & bit:
                continue
            if irr[m | bit]:
                maximal = False
                break
        if maximal:
            lo = c
    return lo, best_ir
