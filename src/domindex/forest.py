"""ir of a forest by one dynamic program over its rooted trees.

In a forest the closed neighbourhoods of two distinct vertices share at
most two vertices, so a set S is maximal irredundant iff

- every member u has a private vertex: priv(u), the vertices of N[u]
  that S dominates once, is not empty; and
- every non-member x has N[x] dominated by S, or x kills a member u,
  that is priv(u) ⊆ N[x]. As N[x] ∩ N[u] is {x, u} for x ~ u, the middle
  vertex for x and u at distance 2, and empty otherwise, that happens in
  three cases: priv(u) = {u} and x ~ u; priv(u) = {y} with y ≠ u and
  x ∈ N[y]; or priv(u) = {u, y} and x = y.

Each vertex gets one of ten labels: its membership, its dominator count
capped at 2, for a member the type of its private set ({u}, {y}, {u, y}
or anything larger), and for a non-member dominated once the type of its
member's private set when that set is {y} or {u, y} with y this vertex.
Each condition above is then a test on the labels of one closed
neighbourhood. The program runs over the trees rooted at their lowest
vertex, children first, with state (label of v, label of its parent):
for each label of v it folds v's children into a summary of what v's
test reads, and tests the summary against each parent label. A root's
parent is a phantom that a non-member dominated twice with no flag
stands in for: it is dominated, counts for nothing and kills nothing.
So the work is linear in n, over tables of a few dozen entries per
vertex.

The semiring is a parameter: (min, +) gives ir, the least member count,
and (+, ×) counts the maximal irredundant sets, which only the tests
use. This is the standard route for a property local to closed
neighbourhoods (E. J. Cockayne, S. Goodman and S. T. Hedetniemi, "A
linear algorithm for the domination number of a tree", Inf. Process.
Lett. 4, 1975); maximal irredundance is expressible in monadic
second-order logic, so linear time on trees was known (S. Arnborg,
J. Lagergren and D. Seese, "Easy problems for tree-decomposable graphs",
J. Algorithms 12, 1991).
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul
from typing import Callable, NamedTuple

from .graph import Graph


class Semiring(NamedTuple):
    plus: Callable
    times: Callable
    one: object  # the identity of times, the weight of a non-member; a member weighs 1


MIN_PLUS = Semiring(min, add, 0)
COUNTING = Semiring(add, mul, 1)

# Private-set types of a member, and the flag of a non-member dominated
# once whose member's private set is {y} or {u, y} with y that vertex.
U, Y, UY, O = 1, 2, 3, 4

# Labels 0-9: (member, dominator count capped at 2, type or flag).
LABELS = ((0, 0, 0), (0, 1, 0), (0, 1, Y), (0, 1, UY), (0, 2, 0),
          (1, 1, U), (1, 1, UY), (1, 1, O), (1, 2, Y), (1, 2, O))
ROOT_PARENT = 4  # (0, 2, 0): the phantom parent of a root

# _PRIVATE[own][others]: the type of a member's private set, from whether
# it is its own private vertex and how many others it has (capped at 2).
_PRIVATE = ((None, Y, O), (U, UY, O))


def _kills(label: int) -> bool:
    """Whether a vertex with this label kills each non-member neighbour:
    a member whose private set is itself, or the y of a {y} member."""
    member, _, kind = LABELS[label]
    return kind == (U if member else Y)


# A summary of some children of v: (members capped at 2, children
# dominated once capped at 2, the kind of the only member child, whether
# one is undominated, whether one kills v). _project keeps only what the
# test of v's label reads, and gives None once no more children can make
# that test hold.
def _project(lv: int, s: tuple) -> tuple | None:
    nm, n1, mt, undom, kill = s
    member, count, _ = LABELS[lv]
    if member:
        if count == 1:
            return None if nm else (0, n1, 0, 0, 0)
        return (min(nm, 1), n1, 0, 0, 0)
    if count == 0:
        return None if nm else (0, 0, 0, 0, kill)
    if count == 1:
        return None if nm > 1 else (nm, 0, mt if mt in (Y, UY) else 0, undom, kill)
    return (nm, 0, 0, undom, kill)


def _merge(a: tuple, b: tuple) -> tuple:
    nm = min(a[0] + b[0], 2)
    return (nm, min(a[1] + b[1], 2), a[2] | b[2] if nm == 1 else 0, a[3] | b[3], a[4] | b[4])


def _holds(lv: int, lp: int, s: tuple) -> bool:
    """The test of v's closed neighbourhood: v labelled ``lv``, its parent
    ``lp``, and its children summarised by ``s`` (projected for ``lv``)."""
    nm, n1, mt, undom, kill = s
    member, count, kind = LABELS[lv]
    p_member, p_count, p_kind = LABELS[lp]
    if count != min(member + p_member + nm, 2):
        return False
    if member:
        return kind == _PRIVATE[count == 1][min((p_count == 1) + n1, 2)]
    if count == 1:  # the flag copies the only member neighbour's type
        t = p_kind if p_member else mt
        if kind != (t if t in (Y, UY) else 0):
            return False
    # N[v] is dominated (a phantom parent counts as dominated), or a child,
    # the parent or v itself (the y of a {y} or {u, y} member) kills a member
    return bool(count and p_count and not undom or kill or _kills(lp) or kind)


class _Tables:
    """Summaries interned as ints, with the moves of the program on them:
    ``key[lp][lc]``, what a child labelled lc adds under a parent labelled
    lp (-1: nothing fits); ``empty[lv]``, no children; ``step[lv]``, the
    merge of a summary and a child's key (-1: no fit); ``accept[lv][a]``,
    (lp, key[lp][lv]) for the parent labels lp that v's test accepts with
    summary a."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.summaries: list[tuple] = []
        single = [(m, int(c == 1), k if m else 0, int(c == 0), int(_kills(lbl)))
                  for lbl, (m, c, k) in enumerate(LABELS)]
        self.key = [[self._id(_project(lp, s)) for s in single] for lp in range(10)]
        self.empty = [self._id(_project(lv, (0, 0, 0, 0, 0))) for lv in range(10)]
        self.step: list[dict[int, int]] = [{} for _ in range(10)]
        self.accept: list[dict[int, tuple[int, ...]]] = [{} for _ in range(10)]
        for lv in range(10):
            todo = [self.empty[lv]]
            kids = {k for k in self.key[lv] if k >= 0}
            under = [self.key[lp][lv] for lp in range(10)]  # v's key under each parent label
            while todo:
                a = todo.pop()
                self.accept[lv][a] = tuple((lp, kp) for lp, kp in enumerate(under)
                                           if kp >= 0 and _holds(lv, lp, self.summaries[a]))
                for k in kids:
                    b = self._id(_project(lv, _merge(self.summaries[a], self.summaries[k])))
                    self.step[lv][a << 8 | k] = b
                    if b >= 0 and b not in self.accept[lv] and b not in todo:
                        todo.append(b)

    def _id(self, s: tuple | None) -> int:
        if s is None:
            return -1
        if s not in self.ids:
            self.ids[s] = len(self.summaries)
            self.summaries.append(s)
        return self.ids[s]


_TABLES = _Tables()  # the engine imports this module at its first forest


def solve(g: Graph, ring: Semiring = MIN_PLUS):
    """The semiring sum, over the maximal irredundant sets S of the forest
    ``g``, of the product of the weights of its vertices (1 for a member
    of S, ``ring.one`` otherwise). With ``MIN_PLUS`` that is ir(g); with
    ``COUNTING``, the number of maximal irredundant sets."""
    empty, step, accept = _TABLES.empty, _TABLES.step, _TABLES.accept
    plus, times = ring.plus, ring.times
    weight = [1 if member else ring.one for member, _, _ in LABELS]
    adj = g.open_adj
    # preorder from the lowest vertex of each tree: a vertex's neighbours
    # not yet seen when it is popped are its children
    order, kids, roots, seen = [], [0] * g.n, [], 0
    for r in range(g.n):
        if seen >> r & 1:
            continue
        roots.append(r)
        seen |= 1 << r
        stack = [r]
        while stack:
            v = stack.pop()
            order.append(v)
            kids[v] = k = adj[v] & ~seen
            seen |= k
            while k:
                low = k & -k
                stack.append(low.bit_length() - 1)
                k ^= low
    # up[v][lp]: {the key of v's label under lp: the best over v's subtree}
    up = [None] * g.n
    for v in reversed(order):
        out = [{} for _ in range(10)]
        for lv in range(10):
            agg = {empty[lv]: weight[lv]}
            moves = step[lv]
            k = kids[v]
            while k and agg:
                low = k & -k
                k ^= low
                child = up[low.bit_length() - 1][lv]
                nxt = {}
                for a, va in agg.items():
                    a <<= 8
                    for kc, vc in child.items():
                        b = moves[a | kc]
                        if b >= 0:
                            x = times(va, vc)
                            nxt[b] = plus(nxt[b], x) if b in nxt else x
                agg = nxt
            fits = accept[lv]
            for a, va in agg.items():
                for lp, kp in fits[a]:
                    d = out[lp]
                    d[kp] = plus(d[kp], va) if kp in d else va
        up[v] = out
    return reduce(times, (reduce(plus, up[r][ROOT_PARENT].values()) for r in roots))


def ir(g: Graph) -> int:
    """ir of the forest ``g``: the least order of a maximal irredundant set."""
    return solve(g, MIN_PLUS)


def count_maximal_irredundant(g: Graph) -> int:
    """The number of maximal irredundant sets of the forest ``g``."""
    return solve(g, COUNTING)
