import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domindex import (
    FamilySpec,
    VertexSet,
    closed_neighborhood,
    domination_profile,
    generate,
    is_connected,
    is_spanning_subgraph,
    max_degree,
    new_graph,
    permute,
    wiener_index,
)
from domindex.errors import (
    DisconnectedGraph,
    InvalidFamilyParams,
    LabelConflict,
    NotAPermutation,
    SelfLoop,
    VertexOutOfRange,
)
from domindex.graph import bipartition, delete_edge, distances_from


def complete(n):
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_k1():
    g = new_graph(1, [])
    assert g.n == 1 and g.m == 0
    assert closed_neighborhood(g, 0).members() == (0,)
    assert is_connected(g)


def test_k3():
    g = complete(3)
    assert g.m == 3
    assert max_degree(g) == 2
    assert wiener_index(g) == 3


def test_duplicate_edges_collapse():
    g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_constructor_errors():
    with pytest.raises(SelfLoop):
        new_graph(2, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        new_graph(2, [(0, 5)])
    with pytest.raises(LabelConflict):
        new_graph(2, [], labels=["x", "x"])
    with pytest.raises(LabelConflict):
        new_graph(2, [], labels=["x"])
    # labels an edge list cannot carry: emitted, they would read back as
    # other vertices, or as none
    for bad in ("a b", "#c", "", "d\te"):
        with pytest.raises(LabelConflict):
            new_graph(3, [(0, 1)], ["x", "y", bad])
    assert new_graph(2, [(0, 1)], ["a#", "b"]).labels == ("a#", "b")


def test_default_labels_are_decimal_ids():
    g = new_graph(3, [(0, 1)])
    assert g.labels == ("0", "1", "2")


def test_f9_closed_neighborhoods(f9_by_label):
    g = f9_by_label
    expected = {
        "a1": {"a1", "a2", "a9", "a8"},
        "a2": {"a2", "a1", "a9", "a8", "a3"},
        "a3": {"a3", "a2", "a8", "a4", "a7"},
        "a4": {"a4", "a3", "a7", "a5"},
        "a5": {"a5", "a4", "a6"},
        "a6": {"a6", "a5", "a7"},
        "a7": {"a7", "a3", "a4", "a6"},
        "a8": {"a8", "a3", "a1", "a2", "a9"},
        "a9": {"a9", "a1", "a2", "a8"},
    }
    for lbl, want in expected.items():
        got = set(g.labels_of(closed_neighborhood(g, g.id_of(lbl))))
        assert got == want, lbl
    assert g.m == 14
    assert max_degree(g) == 4
    assert is_connected(g)


def test_c4_neighborhood():
    g = cycle(4)
    assert closed_neighborhood(g, 0).members() == (0, 1, 3)


def test_max_degree_families():
    assert max_degree(complete(5)) == 4
    star = generate(FamilySpec("star", (4,))).graph
    assert max_degree(star) == 4


def test_max_degree_computed_once_per_graph():
    # Δ is a cached property of the immutable graph: the first read stores it
    g = path(5)
    assert "max_degree" not in vars(g)
    assert max_degree(g) == g.max_degree == 2
    assert vars(g)["max_degree"] == 2
    assert new_graph(0, []).max_degree == 0
    with pytest.raises(VertexOutOfRange):
        max_degree(new_graph(0, []))


def test_search_order_is_descending_degree_then_id():
    # degrees 2, 1, 4, 1, 1, 1: vertex 2 first, then 0, then the leaves by id
    g = new_graph(6, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 5)])
    order = [2, 0, 1, 3, 4, 5]
    assert "search_closed_adj" not in vars(g)
    assert g.search_closed_adj == permute(g, [order.index(v) for v in range(6)]).closed_adj
    assert vars(g)["search_closed_adj"] is g.search_closed_adj
    assert new_graph(0, []).search_closed_adj == ()


def test_connectivity():
    two_k2 = new_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(two_k2)
    assert is_connected(path(5))


def test_wiener_examples(petersen):
    assert wiener_index(path(3)) == 4
    assert wiener_index(petersen) == 75
    with pytest.raises(DisconnectedGraph):
        wiener_index(new_graph(2, []))


def test_distances():
    g = path(4)
    assert distances_from(g, 0) == [0, 1, 2, 3]
    h = new_graph(3, [(0, 1)])
    assert distances_from(h, 0) == [0, 1, -1]


def test_bipartition_against_every_two_colouring(graph_classes_7):
    # a side is returned exactly when some vertex mask leaves no edge inside
    # either side, and then it is such a mask
    for g, _ in graph_classes_7:
        edges = g.edges()
        side = bipartition(g)
        colourable = any(all((m >> u & 1) != (m >> v & 1) for u, v in edges) for m in range(1 << g.n))
        assert (side is not None) == colourable, edges
        if side is not None:
            assert all((side >> u & 1) != (side >> v & 1) for u, v in edges), edges


def test_permute_identity_and_rotation():
    g = cycle(4)
    assert permute(g, [0, 1, 2, 3]).open_adj == g.open_adj
    rot = permute(g, [1, 2, 3, 0])
    assert sorted(rot.edges()) == sorted(g.edges())
    with pytest.raises(NotAPermutation):
        permute(g, [0, 0, 1, 2])


def test_spanning_subgraph():
    p4 = path(4)
    c4 = cycle(4)
    assert is_spanning_subgraph(p4, c4)
    assert not is_spanning_subgraph(c4, p4)
    assert not is_spanning_subgraph(path(3), c4)


def test_bfs_tree_is_spanning_subgraph(f9):
    g = f9
    tree_edges = []
    dist = distances_from(g, 0)
    for v in range(1, g.n):
        parent = next(u for u in g.neighbors(v) if dist[u] == dist[v] - 1)
        tree_edges.append((parent, v))
    t = new_graph(g.n, tree_edges, g.labels)
    assert t.m == g.n - 1
    assert is_spanning_subgraph(t, g)


def test_delete_edge():
    g = cycle(4)
    h = delete_edge(g, 0, 1)
    assert h.m == 3 and not h.has_edge(0, 1)
    assert is_spanning_subgraph(h, g)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
    return new_graph(n, picks)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetric_and_loop_free(g):
    for v in range(g.n):
        assert not (g.open_adj[v] >> v) & 1
        for u in g.neighbors(v):
            assert g.has_edge(u, v) and g.has_edge(v, u)
    assert g.m == sum(g.degree(v) for v in range(g.n)) // 2


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permute_preserves_invariants(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = permute(g, perm)
    assert h.n == g.n and h.m == g.m
    assert sorted(h.degree(v) for v in range(h.n)) == sorted(g.degree(v) for v in range(g.n))
    if is_connected(g):
        assert wiener_index(h) == wiener_index(g)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_wiener_at_least_edge_count(g):
    if g.n > 1 and is_connected(g):
        wi = wiener_index(g)
        assert wi >= g.m
        diameter = max(max(distances_from(g, v)) for v in range(g.n))
        assert (wi == g.m) == (diameter <= 1)


def _abc():
    return new_graph(3, [(0, 1), (1, 2)], ["a", "b", "c"])


# Each record type, built twice from equal fields by ``make``; its repr, as
# the frozen dataclasses that the records were before printed it; and a
# record that differs from it in one field.
RECORDS = {
    "Graph": (_abc, "Graph(n=3, labels=('a', 'b', 'c'), open_adj=(2, 5, 2), m=2)",
              lambda: new_graph(3, [(0, 1)], ["a", "b", "c"])),
    "VertexSet": (lambda: VertexSet(4, 5), "VertexSet(n=4, bits=5)", lambda: VertexSet(5, 5)),
    "DominationProfile": (
        lambda: domination_profile(_abc()),
        "DominationProfile(degrees=(2, 1, 2), witnesses=(VertexSet(n=3, bits=5),"
        " VertexSet(n=3, bits=2), VertexSet(n=3, bits=5)), gamma=1, upper_gamma=2, ir=1,"
        " upper_ir=2, min_dd=1, max_dd=2, index=5, is_drg=False)",
        lambda: domination_profile(new_graph(3, [(0, 1), (1, 2), (0, 2)], ["a", "b", "c"]))),
    "FamilySpec": (lambda: FamilySpec("windmill", (3, 4)), "FamilySpec(kind='windmill', params=(3, 4))",
                   lambda: FamilySpec("windmill", (4, 3))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_and_compare_by_their_fields(name):
    make, text, other = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other()
    assert repr(a) == text
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == b


def test_record_construction_validates():
    with pytest.raises(VertexOutOfRange):
        VertexSet(3, 8)
    with pytest.raises(VertexOutOfRange):
        VertexSet(3, -1)
    with pytest.raises(InvalidFamilyParams):
        FamilySpec("nope")
    with pytest.raises(InvalidFamilyParams):
        FamilySpec("cycle", (2,))
    assert FamilySpec("petersen") == FamilySpec("petersen", ())


def test_graph_caches_take_no_part_in_equality_or_hash():
    g, h = cycle(13), cycle(13)
    cached = ("closed_adj", "search_closed_adj", "max_degree", "prepared", "_label_ids")
    for name in cached:
        getattr(g, name)
    assert set(cached) <= set(vars(g)) and not set(cached) & set(vars(h))
    assert g == h and hash(g) == hash(h)
    assert pickle.loads(pickle.dumps(g)) == g
