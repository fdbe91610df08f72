from itertools import combinations, product as pairs

from domindex import FamilySpec, corona, disjoint_union, generate, join, new_graph, product
from domindex.classes import _graph_classes
from domindex.ops import (
    PRODUCT_KINDS,
    composition_complete_predicted,
    corona_predicted,
    join_predicted,
    union_predicted,
)
from domindex.verify import dd_vector


def complete(n):
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_union_basic():
    g = disjoint_union([complete(1), complete(1)])
    assert g.n == 2 and g.m == 0
    g = disjoint_union([complete(3), cycle(4)])
    assert g.n == 7 and g.m == 7
    from domindex.graph import is_connected

    assert not is_connected(g)


def test_union_triple_formula():
    parts = [cycle(6), complete(2), path(3)]
    g = disjoint_union(parts)
    degs = dd_vector(g)
    assert degs == union_predicted([dd_vector(p) for p in parts])


def test_union_degree_example():
    # C6 vertex inside C6 + K2: own degree 2 plus the partner's gamma 1
    parts = [cycle(6), complete(2)]
    got = union_predicted([dd_vector(p) for p in parts])
    assert got[0] == 3
    assert dd_vector(disjoint_union(parts)) == got


def test_join_wheel():
    w5 = join(complete(1), cycle(5))
    gen = generate(FamilySpec("wheel", (5,))).graph
    assert w5.n == gen.n and w5.m == gen.m
    assert sorted(w5.edges()) == sorted(gen.edges())


def test_join_p2_p2_is_k4():
    g = join(path(2), path(2))
    assert g.n == 4 and g.m == 6


def test_join_formula_keeps_dominating_vertices():
    got = join_predicted([1, 2, 2], [2, 2])
    assert got == [1, 2, 2, 2, 2]


def test_product_book():
    star = generate(FamilySpec("star", (4,))).graph
    book = product(star, path(2), "cartesian")
    gen = generate(FamilySpec("book", (4,))).graph
    assert book.n == gen.n and book.m == gen.m
    degs = sorted(book.degree(v) for v in range(book.n))
    assert degs == sorted(gen.degree(v) for v in range(gen.n))


def test_product_direct_k2_k2():
    g = product(complete(2), complete(2), "direct")
    assert g.n == 4 and g.m == 2  # two disjoint edges


def test_strong_is_cartesian_plus_direct():
    for a, b in ((path(3), cycle(4)), (complete(3), path(2))):
        cart = product(a, b, "cartesian")
        direct = product(a, b, "direct")
        strong = product(a, b, "strong")
        assert strong.m == cart.m + direct.m
        comp = product(a, b, "composition")
        assert comp.m >= strong.m


def test_composition_is_ordered():
    a, b = path(3), complete(2)
    assert product(a, b, "composition").m != product(b, a, "composition").m


def test_composition_formula():
    g = path(3)
    h = product(g, complete(2), "composition")
    degs = dd_vector(h)
    assert degs == composition_complete_predicted(dd_vector(g), 2)
    # the pair (center, second-clique-vertex) keeps the center's degree 1
    assert degs[1 * 2 + 1] == 1


def test_corona_shapes():
    assert corona(complete(1), complete(1)).m == 1  # K2
    g = corona(complete(3), complete(1))
    assert g.n == 6 and g.m == 6


def test_corona_formula():
    g = corona(cycle(4), complete(2))
    degs = dd_vector(g)
    want = corona_predicted(4, dd_vector(complete(2)))
    assert degs == want
    assert degs[:4] == [4] * 4  # hubs: |G|
    assert degs[4] == 1 + 3  # copy vertex: factor degree 1 plus n-1


def _adj(g, x, y):
    return bool(g.open_adj[x] >> y & 1)


# when (a1, b1) ~ (a2, b2), for distinct pairs, from each product's
# definition: ga / hb, the factors' adjacency; sa / sb, equal coordinates
_RULES = {
    "cartesian": lambda ga, sa, hb, sb: (sa and hb) or (ga and sb),
    "direct": lambda ga, sa, hb, sb: ga and hb,
    "strong": lambda ga, sa, hb, sb: (sa and hb) or (ga and sb) or (ga and hb),
    "composition": lambda ga, sa, hb, sb: ga or (sa and hb),
}


def _reference_product(g, h, kind):
    edges = []
    for u, v in combinations(range(g.n * h.n), 2):
        (a1, b1), (a2, b2) = divmod(u, h.n), divmod(v, h.n)
        if _RULES[kind](_adj(g, a1, a2), a1 == a2, _adj(h, b1, b2), b1 == b2):
            edges.append((u, v))
    labels = [f"({gl},{hl})" for gl in g.labels for hl in h.labels]
    return new_graph(g.n * h.n, edges, labels)


def _reference_join(g, h):
    def adj(u, v):  # u < v: within a part as in that part, across the parts always
        return _adj(g, u, v) if v < g.n else u < g.n or _adj(h, u - g.n, v - g.n)

    edges = [(u, v) for u, v in combinations(range(g.n + h.n), 2) if adj(u, v)]
    labels = [f"1:{lbl}" for lbl in g.labels] + [f"2:{lbl}" for lbl in h.labels]
    return new_graph(g.n + h.n, edges, labels)


def test_products_and_join_match_their_definitions():
    classes = [g for g, _ in _graph_classes(4)]
    for g, h in pairs(classes, repeat=2):
        for kind in PRODUCT_KINDS:
            assert product(g, h, kind) == _reference_product(g, h, kind), (g.edges(), h.edges(), kind)
        assert join(g, h) == _reference_join(g, h), (g.edges(), h.edges())
