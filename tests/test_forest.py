"""The tree program for ir of a forest (``domindex.forest``).

ir is compared with the ir walk of both kernel twins, called directly
rather than through the engine, whose table may pick the program itself.
The counting form is compared with a count over every subset: the
minimum alone misses programs that drop a way of killing a member, as
two such programs still find ir on every small forest.
"""

import random
from functools import lru_cache

from domindex import FamilySpec, _pykern, forest, generate
from domindex.classes import _canonical
from domindex.graph import bits_of, new_graph, permute
from domindex.ops import disjoint_union


@lru_cache(maxsize=None)
def forest_classes(top):
    """One forest per isomorphism class on 1..top vertices: each is one of
    order n − 1 plus a leaf or an isolated vertex, as deleting a leaf or
    an isolated vertex of a forest leaves a forest."""
    layer, out = [[]], []
    for n in range(1, top + 1):
        seen = {}
        for adj in layer:
            for parent in range(-1, n - 1):
                ext = [a | 1 << (n - 1) if v == parent else a for v, a in enumerate(adj)]
                ext.append(0 if parent < 0 else 1 << parent)
                seen.setdefault(_canonical(ext), ext)
        layer = list(seen.values())
        out += [new_graph(n, [(u, w) for u in range(n) for w in bits_of(adj[u]) if u < w])
                for adj in layer]
    return tuple(out)


def random_forest(n, seed):
    """Each vertex after the first joins a random earlier one, or one time
    in eight starts a tree of its own; the ids are shuffled."""
    rng = random.Random(seed)
    ids = rng.sample(range(n), n)
    return new_graph(n, [(ids[rng.randrange(v)], ids[v]) for v in range(1, n) if rng.random() >= 1 / 8])


def kragujevac(*branches):
    return generate(FamilySpec("kragujevac", branches)).graph


def paper_trees():
    return [kragujevac(3, 3), kragujevac(2, 2, 3), kragujevac(2, 2, 2, 2),
            generate(FamilySpec("path", (24,))).graph, generate(FamilySpec("star", (23,))).graph]


def with_kragujevac(seed):
    """kragujevac:2,2, where ir = 4 < γ = 5, beside a random forest of
    order 2-9, the ids shuffled: ir < γ is rare on random forests."""
    g = disjoint_union([kragujevac(2, 2), random_forest(2 + seed % 8, seed)])
    return permute(g, random.Random(seed).sample(range(g.n), g.n))


def by_subsets(g):
    """(ir, the number of maximal irredundant sets) from every subset."""
    closed, size = g.closed_adj, 1 << g.n
    irredundant = [True] * size
    for m in range(1, size):
        # irredundance is hereditary: test only when m less its top member passes
        if irredundant[m ^ 1 << (m.bit_length() - 1)]:
            once = twice = 0
            for a in bits_of(m):
                twice |= once & closed[a]
                once |= closed[a]
            irredundant[m] = all(closed[a] & ~twice for a in bits_of(m))
        else:
            irredundant[m] = False
    maximal = [m for m in range(size) if irredundant[m]
               and not any(irredundant[m | 1 << x] for x in range(g.n) if not m >> x & 1)]
    return min(m.bit_count() for m in maximal), len(maximal)


def test_the_classes_are_the_forests():
    # 1, 2, 3, 6, 10, 20, 37 and 76 forests of orders 1-8 (OEIS A005195)
    orders = [g.n for g in forest_classes(8)]
    assert [orders.count(n) for n in range(1, 9)] == [1, 2, 3, 6, 10, 20, 37, 76]
    assert all(g.prepared.forest for g in forest_classes(8))


def test_ir_equals_both_walks(compiled):
    graphs = list(forest_classes(8)) + [random_forest(9 + i % 12, 3100 + i) for i in range(36)]
    graphs += [with_kragujevac(3300 + i) for i in range(8)] + paper_trees()
    below = 0
    for g in graphs:
        closed = g.closed_adj
        gamma = _pykern.solve_dd(closed, -1, 0, g.n)[0]
        ir = forest.ir(g)
        assert ir == _pykern.scan_ir(closed, gamma) == compiled.scan_ir(closed, gamma), g.edges()
        below += ir < gamma
    assert below == 11


def test_count_equals_a_count_over_subsets():
    graphs = list(forest_classes(8)) + [random_forest(9 + i % 4, 3200 + i) for i in range(12)]
    for g in graphs + [kragujevac(2, 2)]:
        assert (forest.ir(g), forest.count_maximal_irredundant(g)) == by_subsets(g), g.edges()
