import hashlib
import json
import random
from itertools import permutations
from math import factorial

from domindex import FamilySpec, generate, new_graph, permute
from domindex.classes import _canonical, random_graph
from domindex.graph import bits_of, mask_of
from domindex.ops import disjoint_union


def _code(g):
    return _canonical(list(g.open_adj))


def _automorphisms(adj):
    n = len(adj)
    return sum(
        all(mask_of(perm[u] for u in bits_of(a)) == adj[perm[v]] for v, a in enumerate(adj))
        for perm in permutations(range(n))
    )


def _largest_code(adj):
    """The largest column-wise code over every vertex ordering; for a
    regular graph every ordering respects the cells, so it is the
    canonical code."""
    n = len(adj)
    best = -1
    for order in permutations(range(n)):
        code = 0
        for p in range(1, n):
            row = adj[order[p]]
            for i in range(p):
                code = code << 1 | row >> order[i] & 1
        best = max(best, code)
    return best


def test_class_weights_match_automorphism_count(graph_classes_7):
    # weights are summed from parents; n!/|Aut(G)| is counted here instead
    for g, w in graph_classes_7:
        if g.n <= 6:
            assert w == factorial(g.n) // _automorphisms(g.open_adj), g.edges()


def test_graph_classes_golden_digest(graph_classes_7):
    rows = [[g.n, g.edges(), w] for g, w in graph_classes_7]
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "eda89f9d8ed1db2457ede04cced2a28d7d420036ddb3cbc98797a12046237c41"


def test_canonical_code_ignores_labels(graph_classes_7):
    rng = random.Random(24)
    pool = [g for g, _ in graph_classes_7 if g.n >= 5]
    pool += [random_graph(8, p, seed=k) for k, p in enumerate((0.2, 0.4, 0.5, 0.6, 0.8) * 4)]
    for g in pool:
        perm = list(range(g.n))
        for _ in range(3):
            rng.shuffle(perm)
            assert _code(permute(g, perm)) == _code(g), g.edges()


def test_canonical_separates_two_regular_graphs():
    # one colour cell each, so only the ordering search tells them apart
    cycle = lambda n: generate(FamilySpec("cycle", (n,))).graph
    graphs = [cycle(8), disjoint_union([cycle(5), cycle(3)]), disjoint_union([cycle(4), cycle(4)])]
    assert len({_code(g) for g in graphs}) == 3


def test_canonical_twin_heavy_graphs(graph_classes_7):
    complete = generate(FamilySpec("complete", (8,))).graph
    assert _code(complete) == (1 << 28) - 1
    assert _code(new_graph(8, [])) == 0
    for parts in ((4, 4), (2, 2, 2)):
        g = generate(FamilySpec("multipartite", parts)).graph
        assert _code(g) == _largest_code(g.open_adj)
    weights = {(g.n, _code(g)): w for g, w in graph_classes_7}
    weight = lambda g: weights[g.n, _code(g)]
    assert weight(generate(FamilySpec("complete", (7,))).graph) == 1
    assert weight(new_graph(7, [])) == 1
    assert weight(generate(FamilySpec("multipartite", (3, 4))).graph) == 35
    assert weight(generate(FamilySpec("multipartite", (2, 2, 2))).graph) == 15
