import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domindex import (
    dd_vector_oracle,
    domination_degree,
    domination_degree_witness,
    domination_degrees,
    domination_number,
    domination_profile,
    enumerate_minimal_dominating_sets,
    irredundance_numbers,
    is_connected,
    is_dominating,
    is_irredundant,
    is_minimal_dominating,
    mds_containing_greedy,
    minimalize_containing,
    new_graph,
    permute,
    private_neighborhood,
    upper_domination_number,
)
from domindex import VertexSet, engine
from domindex.backend import kernels_for
from domindex.classes import _graph_classes, enumerate_labeled_graphs, random_graph
from domindex.engine import DominationProfile, _check_profile, _search
from domindex.errors import (
    ExactCapExceeded,
    InternalInvariantViolation,
    NotDominating,
    VertexNotInSet,
    VertexOutOfRange,
)


def complete(n):
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return new_graph(n + 1, [(0, i) for i in range(1, n + 1)])


def all_vertices(g):
    return g.vertex_set(range(g.n))


# predicates ---------------------------------------------------------------

def test_is_dominating(f9_by_label):
    g = f9_by_label
    s = g.vertex_set_from_labels(["a2", "a3", "a5"])
    assert is_dominating(g, s)
    assert is_dominating(g, all_vertices(g))
    c4 = cycle(4)
    assert not is_dominating(c4, c4.vertex_set([0]))


def test_private_neighborhood(f9_by_label):
    g = f9_by_label
    s = g.vertex_set_from_labels(["a2", "a3", "a5"])
    pn = private_neighborhood(g, g.id_of("a5"), s)
    assert sorted(g.labels_of(pn)) == ["a5", "a6"]
    with pytest.raises(VertexNotInSet):
        private_neighborhood(g, g.id_of("a1"), s)

    k4 = complete(4)
    assert private_neighborhood(k4, 0, k4.vertex_set([0])).members() == (0, 1, 2, 3)

    st4 = star(4)
    pn = private_neighborhood(st4, 0, st4.vertex_set([0, 1]))
    assert pn.members() == (2, 3, 4)


def test_predicates_match_the_definition():
    # Every subset of every labelled graph on at most 4 vertices. A member's
    # private neighborhood is N[a] minus the union of the other members'
    # closed neighborhoods, and a set is minimal dominating when it
    # dominates and no set with one member fewer does.
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            for bits in range(1 << n):
                s = VertexSet(n, bits)
                members = s.members()
                privs = [g.closed_adj[a] & ~_union(g, bits & ~(1 << a)) for a in members]
                assert [private_neighborhood(g, a, s).bits for a in members] == privs, (g.edges(), bits)
                assert is_irredundant(g, s) == all(privs), (g.edges(), bits)
                dominating = _union(g, bits) == g.full_mask
                assert is_dominating(g, s) == dominating, (g.edges(), bits)
                smaller = any(_union(g, bits & ~(1 << a)) == g.full_mask for a in members)
                assert is_minimal_dominating(g, s) == (dominating and not smaller), (g.edges(), bits)


def _union(g, bits):
    """The union of the closed neighborhoods of the vertices in ``bits``."""
    out = 0
    for a in range(g.n):
        if bits >> a & 1:
            out |= g.closed_adj[a]
    return out


def test_is_minimal_dominating(f9_by_label):
    g = f9_by_label
    assert is_minimal_dominating(g, g.vertex_set_from_labels(["a2", "a3", "a5"]))
    k3 = complete(3)
    assert not is_minimal_dominating(k3, k3.vertex_set([0, 1]))
    assert not is_minimal_dominating(k3, k3.vertex_set([]))
    empty = new_graph(0, [])
    assert is_minimal_dominating(empty, empty.vertex_set([]))


def test_is_irredundant(f9_by_label):
    k3 = complete(3)
    assert is_irredundant(k3, k3.vertex_set([]))
    assert not is_irredundant(k3, k3.vertex_set([0, 1]))
    g = f9_by_label
    assert is_irredundant(g, g.vertex_set_from_labels(["a2", "a3", "a5"]))


# scalar invariants --------------------------------------------------------

def test_domination_number(petersen):
    assert domination_number(petersen) == 3
    assert domination_number(complete(6)) == 1
    assert domination_number(cycle(9)) == 3


def test_upper_domination_number():
    assert upper_domination_number(complete(5)) == 1
    assert upper_domination_number(star(4)) == 4
    assert upper_domination_number(cycle(4)) == 2


def test_irredundance_numbers(f9_by_label):
    assert irredundance_numbers(complete(4)) == (1, 1)
    assert irredundance_numbers(path(3)) == (1, 2)
    ir, upper_ir = irredundance_numbers(f9_by_label)
    assert ir <= 3 <= upper_ir


def test_caps():
    big = new_graph(25, [])
    with pytest.raises(ExactCapExceeded):
        domination_number(big)
    with pytest.raises(ExactCapExceeded):
        irredundance_numbers(big)
    assert domination_number(big, cap=25) == 25


def test_guards_run_before_any_kernel_work(monkeypatch):
    # every exponential entry point refuses bad input before it picks a twin
    def refuse(n):
        raise AssertionError("a kernel was picked before the guards ran")

    monkeypatch.setattr(engine, "kernels_for", refuse)
    capped = [
        domination_number,
        lambda g: domination_degree_witness(g, 0),
        domination_degrees,
        domination_profile,
        upper_domination_number,
        irredundance_numbers,
        lambda g: list(enumerate_minimal_dominating_sets(g)),
    ]
    for entry in capped + [lambda g: mds_containing_greedy(g, 0)]:
        with pytest.raises(VertexOutOfRange):
            entry(new_graph(0, []))
    for entry in capped:
        with pytest.raises(ExactCapExceeded):
            entry(new_graph(25, []))
    # over the walks' limit of 26, a profile fails even under a larger cap
    with pytest.raises(ExactCapExceeded):
        domination_profile(new_graph(27, []), cap=30)


def test_enumeration_guards_run_at_the_call():
    # the error comes from the call itself, before any item is asked for
    with pytest.raises(ExactCapExceeded):
        enumerate_minimal_dominating_sets(new_graph(30, []))
    with pytest.raises(VertexOutOfRange):
        enumerate_minimal_dominating_sets(new_graph(0, []))


# domination degree --------------------------------------------------------

def test_domination_degree_examples(f9_by_label, petersen):
    for v in range(10):
        assert domination_degree(petersen, v) == 3
    assert domination_degree(complete(7), 3) == 1
    assert domination_degree(f9_by_label, f9_by_label.id_of("a2")) == 3
    with pytest.raises(VertexOutOfRange):
        domination_degree(complete(3), 5)


def test_witness_is_minimum_and_valid(f9_by_label):
    g = f9_by_label
    size, w = domination_degree_witness(g, g.id_of("a2"))
    assert size == 3 == len(w)
    assert g.id_of("a2") in w
    assert is_minimal_dominating(g, w)


def test_profile_c6():
    prof = domination_profile(cycle(6))
    assert prof.degrees == (2,) * 6
    assert prof.index == 12
    assert prof.is_drg


def test_profile_petersen(petersen):
    prof = domination_profile(petersen)
    assert prof.index == 30 and prof.is_drg and prof.gamma == 3


def test_profile_k1():
    prof = domination_profile(new_graph(1, []))
    assert prof.degrees == (1,)
    assert (prof.gamma, prof.upper_gamma, prof.ir, prof.upper_ir) == (1, 1, 1, 1)
    assert prof.index == 1


def test_profile_self_check_rejects_bad_witnesses():
    # P3 = 0-1-2 has degrees (2, 1, 2) with witnesses {0,2}, {1}, {0,2};
    # each case swaps one witness for a bad one and keeps every value
    g = path(3)

    def profile(*witnesses, degrees=(2, 1, 2)):
        return DominationProfile(
            degrees=degrees, witnesses=tuple(g.vertex_set(w) for w in witnesses),
            gamma=1, upper_gamma=2, ir=1, upper_ir=2, min_dd=1, max_dd=2, index=5, is_drg=False,
        )

    good = profile((0, 2), (1,), (0, 2))
    assert domination_profile(g) == good
    _check_profile(g, good)
    cases = [
        (0, profile((1,), (1,), (0, 2))),        # minimal dominating, without its vertex
        (0, profile((0, 1), (1,), (0, 2))),      # dominates, but 0 keeps no private neighbor
        (2, profile((0, 2), (1,), (2,))),         # misses vertex 0
        (0, profile((0, 2), (1,), (0, 2), degrees=(1, 1, 2))),  # larger than its degree
    ]
    for v, bad in cases:
        with pytest.raises(InternalInvariantViolation, match=f"bad witness for vertex {v}"):
            _check_profile(g, bad)


def test_profile_min_dd_equals_gamma(f9_by_label):
    # some vertex of a minimum dominating set realises the minimum degree
    prof = domination_profile(f9_by_label)
    assert prof.min_dd == prof.gamma
    assert prof.index == sum(prof.degrees)


def test_isolated_vertices():
    g = new_graph(3, [])  # empty graph: only V dominates
    prof = domination_profile(g)
    assert prof.degrees == (3, 3, 3)
    assert prof.gamma == prof.upper_gamma == 3
    assert prof.ir == prof.upper_ir == 3


# enumeration --------------------------------------------------------------

def test_enumerate_k3():
    sets = [s.members() for s in enumerate_minimal_dominating_sets(complete(3))]
    assert sets == [(0,), (1,), (2,)]


def test_enumerate_p3():
    sets = [s.members() for s in enumerate_minimal_dominating_sets(path(3))]
    assert sets == [(1,), (0, 2)]


def test_enumerate_star():
    for n in (2, 3, 5):
        sets = [s.members() for s in enumerate_minimal_dominating_sets(star(n))]
        assert sets == [(0,), tuple(range(1, n + 1))]


def test_enumeration_order_is_cardinality_then_mask():
    # the kernels return the sets in walk order, which the engine sorts:
    # on P6 the walk reaches {0, 2, 4} before {1, 4}
    p6 = path(6)
    for g in (cycle(5), p6):
        keys = [(len(s), s.bits) for s in enumerate_minimal_dominating_sets(g)]
        assert keys == sorted(keys)
    walked = kernels_for(6).scan_minimal_ds(p6.closed_adj)
    listed = [s.bits for s in enumerate_minimal_dominating_sets(p6)]
    assert walked != listed and sorted(walked) == sorted(listed)


# the constructive procedures ----------------------------------------------

def test_minimalize_k3():
    k3 = complete(3)
    out = minimalize_containing(k3, all_vertices(k3), 0)
    assert out.members() == (0,)


def test_minimalize_star_leaf():
    g = star(3)
    out = minimalize_containing(g, all_vertices(g), 1)
    assert out.members() == (1, 2, 3)


def test_minimalize_f9(f9_by_label):
    g = f9_by_label
    v = g.id_of("a2")
    out = minimalize_containing(g, all_vertices(g), v)
    assert v in out and is_minimal_dominating(g, out)


def test_minimalize_runs_no_search(monkeypatch):
    # the construction alone settles every case: no kernel is ever asked
    def refuse(n):
        raise AssertionError("minimalize_containing reached a kernel search")

    monkeypatch.setattr(engine, "kernels_for", refuse)
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            for v in range(n):
                out = minimalize_containing(g, all_vertices(g), v)
                assert v in out and is_minimal_dominating(g, out)


def test_minimalize_errors():
    c4 = cycle(4)
    with pytest.raises(VertexNotInSet):
        minimalize_containing(c4, c4.vertex_set([0, 2]), 1)
    with pytest.raises(NotDominating):
        minimalize_containing(c4, c4.vertex_set([0]), 0)


def test_greedy_f9(f9, f9_by_label):
    for g in (f9, f9_by_label):
        out = mds_containing_greedy(g, g.id_of("a2"))
        assert sorted(g.labels_of(out)) == ["a2", "a3", "a5"]


def test_greedy_complete():
    g = complete(5)
    assert mds_containing_greedy(g, 2).members() == (2,)


def test_greedy_c4_trace():
    # ascending order admits vertex 1 immediately: {0,1} covers C4 and both
    # members keep private territory, so the procedure stops there
    g = cycle(4)
    out = mds_containing_greedy(g, 0)
    assert out.members() == (0, 1)
    assert is_minimal_dominating(g, out)
    assert len(out) == domination_degree(g, 0)


# oracle agreement and random-instance properties --------------------------

def test_oracle_examples(f9_by_label):
    assert dd_vector_oracle(f9_by_label)[f9_by_label.id_of("a2")] == 3
    assert dd_vector_oracle(complete(4)) == [1, 1, 1, 1]
    assert dd_vector_oracle(star(3)) == [1, 3, 3, 3]


def _dd_by_definition(g):
    """Least size of a minimal dominating set holding each vertex, testing
    every subset with the public predicate."""
    best = [g.n + 1] * g.n
    for m in range(1 << g.n):
        s = VertexSet(g.n, m)
        if is_minimal_dominating(g, s):
            for a in s.members():
                best[a] = min(best[a], len(s))
    return best


def test_oracle_matches_definition_exhaustive():
    # Every class on <= 6 vertices (odd orders and edgeless graphs among
    # them), n = 0 (both halves empty), and sparse odd orders up to 11
    # whose isolated vertices fall in either half of the oracle's split.
    sparse = [random_graph(n, 0.15, seed=n + 7 * k) for n in (7, 9, 11) for k in range(3)]
    assert all(0 in g.open_adj for g in sparse)
    graphs = [new_graph(0, [])] + [g for g, _ in _graph_classes(6)] + sparse
    assert {1, 2} <= {g.n for g in graphs}
    assert dd_vector_oracle(new_graph(0, [])) == []
    for g in graphs:
        assert dd_vector_oracle(g) == _dd_by_definition(g), g.edges()
    with pytest.raises(ExactCapExceeded):
        dd_vector_oracle(new_graph(21, []))


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_staged_equals_oracle_random(i):
    g = random_graph(n=(i % 9) + 1, p=(0.15, 0.35, 0.6)[i % 3], seed=i)
    gamma = domination_number(g)
    expected = dd_vector_oracle(g)
    for v in range(g.n):
        assert domination_degree(g, v) == expected[v]
    assert min(expected) == gamma


def test_witness_is_lex_least_minimum_set_containing_v():
    # Every vertex of seeded random graphs, n 1-14, sparse enough to have
    # isolated vertices and several components: the witness must equal the
    # search started at gamma, and the lex-least (sorted id tuple) of the
    # minimum-size minimal dominating sets containing v found by brute force.
    # The sparse graphs on 12-14 vertices are where the bounds prune: the
    # packing bound with three or more slots left, the exact completion test
    # with one or two.
    cases = [(n, j, p) for n in range(1, 12) for j, p in enumerate((0.0, 0.1, 0.2, 0.35, 0.6))]
    cases += [(n, j, p) for n in (12, 13, 14) for j, p in enumerate((0.1, 0.15))]
    isolated = disconnected = 0
    for n, j, p in cases:
        g = random_graph(n, p, seed=100 * n + j)
        isolated += any(g.open_adj[v] == 0 for v in range(g.n))
        disconnected += not is_connected(g)
        gamma = domination_number(g)
        sets = [s.members() for s in enumerate_minimal_dominating_sets(g)]
        shared = domination_degrees(g)
        assert shared[0] == gamma
        for v in range(n):
            size, w = domination_degree_witness(g, v)
            assert (size, w.bits) == _search(kernels_for(g.n), g, v, gamma)
            containing = [s for s in sets if v in s]
            least = min(len(s) for s in containing)
            assert w.members() == min(s for s in containing if len(s) == least)
            assert (shared[1][v], shared[2][v]) == (size, w)
    assert isolated >= 10 and disconnected >= 10


def test_domination_degrees_with_known_gamma(petersen):
    gamma, degs, wits = domination_degrees(petersen)
    assert gamma == 3 and degs == [3] * 10
    with pytest.raises(ExactCapExceeded):
        domination_degrees(petersen, cap=9)


@given(st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_procedure_contracts_random(i):
    g = random_graph(n=(i % 10) + 1, p=(0.2, 0.4, 0.6)[i % 3], seed=1000 + i)
    v = i % g.n
    greedy = mds_containing_greedy(g, v)
    assert v in greedy and is_minimal_dominating(g, greedy)
    assert len(greedy) >= domination_degree(g, v)
    shrunk = minimalize_containing(g, g.vertex_set(range(g.n)), v)
    assert v in shrunk and is_minimal_dominating(g, shrunk)


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_complement_of_minimal_ds_dominates(i):
    g = random_graph(n=(i % 8) + 2, p=0.5, seed=i)
    if any(g.open_adj[v] == 0 for v in range(g.n)):
        return
    for s in enumerate_minimal_dominating_sets(g):
        comp = g.vertex_set(set(range(g.n)) - set(s.members()))
        assert is_dominating(g, comp)


@given(st.integers(0, 100), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_profile_permutation_invariance(i, rng):
    g = random_graph(n=(i % 7) + 1, p=0.4, seed=i)
    perm = list(range(g.n))
    rng.shuffle(perm)
    a = domination_profile(g)
    b = domination_profile(permute(g, perm))
    assert a.index == b.index
    assert sorted(a.degrees) == sorted(b.degrees)
    assert (a.gamma, a.upper_gamma, a.ir, a.upper_ir) == (b.gamma, b.upper_gamma, b.ir, b.upper_ir)


def test_vertex_set_binding_checked():
    g, h = complete(3), complete(4)
    s = h.vertex_set([0, 1])
    with pytest.raises(ValueError):
        is_dominating(g, s)
    with pytest.raises(VertexOutOfRange):
        from domindex import VertexSet

        VertexSet(3, 0b1000)
