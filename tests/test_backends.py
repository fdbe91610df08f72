"""The compiled kernels and the pure-Python twin must agree bit for bit.

The compiled twin under test is the ``compiled`` fixture of conftest,
built from ``src/domindex/_kernels.c`` into a temporary directory, so
these tests run whether or not the package's own extension was built;
they skip only without a C compiler.
"""

import importlib
import os
import pathlib
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

import pytest

from domindex import FamilySpec, _pykern, backend, engine, forest, generate, parse_edgelist
from domindex.backend import backend_name, kernels_for
from domindex.classes import enumerate_labeled_graphs, random_graph
from domindex.engine import _gamma_lower_bound, _irredundance, _upper, is_dominating, is_irredundant
from domindex.graph import VertexSet, bipartition, distances_from, new_graph
from domindex.ops import disjoint_union, product

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "domindex" / "_kernels.c"
DATA = pathlib.Path(__file__).parent / "data"


SCAN_MAX = 22  # the walks of irredundant sets run on the corpus graphs up to this order


def corpus():
    graphs = [random_graph(n, p, seed=n * 10 + int(p * 10)) for n in (1, 2, 5, 9, 13)
              for p in (0.2, 0.5, 0.8)]
    graphs += list(enumerate_labeled_graphs(4))
    # sparse graphs, where the bounds prune most of the search: packing with
    # three or more slots left, the exact completion test with one or two
    graphs += [random_graph(n, p, seed=n * 100 + int(p * 100)) for n in (16, 18, 20, 22, 24)
               for p in (0.1, 0.15)]
    graphs += [generate(FamilySpec("cycle", (30,))).graph, generate(FamilySpec("path", (31,))).graph]
    return graphs


def disconnected():
    # where the walks of irredundant sets used to visit nearly every subset
    cycle = lambda m: generate(FamilySpec("cycle", (m,))).graph
    return [new_graph(20, []), disjoint_union([cycle(7)] * 3), disjoint_union([cycle(11)] * 2)]


def square(g):
    """The closed neighbourhoods of G²: the vertices within distance 2."""
    return [sum(1 << u for u, d in enumerate(distances_from(g, v)) if 0 <= d <= 2) for v in range(g.n)]


def _walks(kern, closed, gamma):
    """(ir, Γ, IR) from the two walks of irredundant sets."""
    return (kern.scan_ir(closed, gamma),) + kern.scan_irredundance(closed)


def test_compiled_twin_has_the_kernel_functions(compiled, monkeypatch):
    # The extension is rarely built in the tree, so a function dropped from
    # the C twin alone would break only the benchmark's traced runs, which
    # wrap every name in KERNEL_FUNCS.
    monkeypatch.syspath_prepend(str(SOURCE.parents[2] / "perfbench"))
    tracing = importlib.import_module("tracing")

    def functions(kern):
        return {name for name, f in vars(kern).items() if callable(f) and not name.startswith("_")}

    assert set(tracing.KERNEL_FUNCS) <= functions(compiled)
    assert functions(compiled) == functions(_pykern)


def test_solve_dd_identical_results_and_witnesses(compiled):
    # the engine passes the graph's own tuple; both twins take any sequence
    for g in corpus():
        closed = list(g.closed_adj)
        for v in [-1] + list(range(g.n)):
            lo = 1 if v >= 0 else 0
            a = _pykern.solve_dd(closed, v, lo, g.n)
            b = compiled.solve_dd(closed, v, lo, g.n)
            assert a == b == compiled.solve_dd(g.closed_adj, v, lo, g.n), (g.edges(), v)


def test_twins_enter_the_same_sets(compiled):
    # A twin whose bounds prune more or fewer branches returns the same
    # values and witnesses, so only the count of sets its walks enter shows
    # it. The squares feed the stage walk dense graphs, as scan_ir does.
    graphs = corpus() + disconnected()
    total = 0
    for closed in [list(g.closed_adj) for g in graphs] + [square(g) for g in graphs[::3]]:
        n = len(closed)
        calls = [("solve_dd", (closed, v, 0, n)) for v in [-1] + list(range(n))]
        calls.append(("solve_dd_all", (closed, 0)))
        if n <= SCAN_MAX:
            calls.append(("scan_ir", (closed, _pykern.solve_dd(closed, -1, 0, n)[0])))
            calls.append(("scan_irredundance", (closed,)))
        for name, args in calls:
            counts = []
            for kern in (_pykern, compiled):
                getattr(kern, name)(*args)
                counts.append(kern.last_nodes())
            assert counts[0] == counts[1], (name, args[1:], counts)
            total += counts[0]
    assert total > 10**4


@pytest.mark.parametrize("twin", ["python", "compiled"])
def test_search_order_changes_no_value(twin, request, graph_classes_7):
    # γ, Γ, IR and ir are the same in the search order as in id order, and
    # so is what the engine's walks return, whichever order they take
    kern = _pykern if twin == "python" else request.getfixturevalue("compiled")
    graphs = [g for g, _ in graph_classes_7]
    graphs += [random_graph(8 + i % 11, 0.1 + 0.05 * (i % 7), seed=2600 + i) for i in range(100)]
    for g in graphs:
        gamma = kern.solve_dd(g.closed_adj, -1, 0, g.n)[0]
        walks = _walks(kern, g.closed_adj, gamma)
        assert kern.solve_dd(g.search_closed_adj, -1, 0, g.n)[0] == gamma, g.edges()
        assert _walks(kern, g.search_closed_adj, gamma) == walks, g.edges()
        assert _irredundance(kern, g, gamma) == walks, g.edges()


def test_search_order_only_from_order_12_in_pure_python():
    # below order 12 the relabel costs the pure-Python Γ/IR walk more than it saves;
    # the graphs have odd cycles, so no matching replaces the walk
    small, large = random_graph(11, 0.3, seed=1), random_graph(12, 0.3, seed=1)
    assert bipartition(small) is None and bipartition(large) is None
    assert _upper(_pykern, small) == _pykern.scan_irredundance(small.closed_adj)
    assert _upper(_pykern, large) == _pykern.scan_irredundance(large.closed_adj)
    assert "search_closed_adj" not in vars(small)
    assert "search_closed_adj" in vars(large)


def bipartite_graphs():
    """The paper's bipartite families up to the cap, and 100 seeded random
    bipartite graphs of orders 8-24, their sides shuffled among the ids."""
    specs = [("path", (24,)), ("cycle", (24,)), ("kragujevac", (2, 2, 3)), ("kragujevac", (3, 4)),
             ("kragujevac", (1,) * 7), ("kragujevac", (2, 2, 2, 2)), ("book", (4,)), ("book", (11,)),
             ("star", (8,)), ("star", (23,)), ("multipartite", (5, 7)), ("multipartite", (12, 12)),
             ("herschel", ())]
    graphs = [generate(FamilySpec(kind, params)).graph for kind, params in specs]
    rng = random.Random(3000)
    for i in range(100):
        n = 8 + i % 17
        ids = rng.sample(range(n), n)
        side, p = rng.randint(1, n - 1), rng.choice((0.15, 0.3, 0.5))
        graphs.append(new_graph(n, [(ids[u], ids[v]) for u in range(side) for v in range(side, n)
                                    if rng.random() < p]))
    return graphs


def test_bipartite_upper_equals_the_walk():
    # Γ = IR = α = n − ν on a bipartite graph
    for g in bipartite_graphs():
        assert bipartition(g) is not None
        assert _upper(_pykern, g) == _pykern.scan_irredundance(g.closed_adj), g.edges()


def test_matching_replaces_the_walk_only_in_pure_python(compiled, monkeypatch):
    # the pure-Python twin takes Γ and IR of a bipartite graph from a maximum
    # matching; an odd cycle, and every graph of the compiled twin, walk
    class Walked(Exception):
        pass

    def walk(closed):
        raise Walked

    path, c5 = (generate(FamilySpec(kind, (5,))).graph for kind in ("path", "cycle"))
    for kern in (_pykern, compiled):
        monkeypatch.setattr(kern, "scan_irredundance", walk)
    assert _upper(_pykern, path) == (3, 3)
    for kern, g in ((_pykern, c5), (compiled, path), (compiled, c5)):
        with pytest.raises(Walked):
            _upper(kern, g)


def test_each_method_row_runs_where_the_table_says(compiled, monkeypatch):
    # Every method of engine._METHODS is monkeypatched to raise its name,
    # so each call shows which row the table picked.
    class Ran(Exception):
        pass

    def method(name):
        def run(arg, *rest):
            raise Ran(name, arg)
        return run

    monkeypatch.setattr(forest, "ir", method("tree program"))
    monkeypatch.setattr(engine, "_bipartite_alpha", method("matching"))
    for kern in (_pykern, compiled):
        monkeypatch.setattr(kern, "scan_ir", method("walk"))
        monkeypatch.setattr(kern, "scan_irredundance", method("walk"))

    def picked(what, kern, g):
        gamma = _pykern.solve_dd(g.closed_adj, -1, 0, g.n)[0]
        with pytest.raises(Ran) as ran:
            engine._run(what, kern, g, gamma)
        name, arg = ran.value.args
        if arg is g.closed_adj or arg is g:
            return name
        return name + " in search order" if arg is g.search_closed_adj else None

    family = lambda kind, *params: generate(FamilySpec(kind, params)).graph
    tree = family("kragujevac", 2, 2, 3)
    small_tree = family("kragujevac", 2, 2)  # below the order, where ir = 4 < γ = 5
    unicyclic = new_graph(tree.n, tree.edges() + [(0, 3)])  # closes the 4-cycle 0 1 2 3
    path = family("path", 24)
    odd = random_graph(12, 0.3, seed=1)
    assert small_tree.n < engine._FOREST_FROM <= tree.n
    assert not unicyclic.prepared.forest and unicyclic.prepared.left is not None
    for g in (tree, small_tree, unicyclic):  # the walk's stop leaves room below γ
        gamma = _pykern.solve_dd(g.closed_adj, -1, 0, g.n)[0]
        assert _pykern._ir_stop(g.closed_adj, gamma) < gamma
    assert picked("ir", _pykern, tree) == "tree program"
    for g in (small_tree, unicyclic, path):
        assert picked("ir", _pykern, g) == "walk", g.edges()
    assert picked("upper", _pykern, tree) == "matching"
    assert picked("upper", _pykern, odd) == picked("ir", _pykern, odd) == "walk in search order"
    small_odd = random_graph(11, 0.3, seed=1)
    assert small_odd.prepared.left is None
    assert picked("upper", _pykern, small_odd) == picked("ir", _pykern, small_odd) == "walk"
    for g in (tree, small_tree, unicyclic, path, odd):
        assert picked("ir", compiled, g) == picked("upper", compiled, g) == "walk", g.edges()


def _per_vertex(kern, closed):
    gamma = kern.solve_dd(closed, -1, 0, len(closed))[0]
    return [kern.solve_dd(closed, v, gamma, len(closed)) for v in range(len(closed))]


def test_sweep_equals_per_vertex_search(compiled, graph_classes_7):
    # one sweep per stage gives each vertex the hit of its own staged search
    graphs = corpus() + [g for g, _ in graph_classes_7]
    for g in graphs:
        closed = list(g.closed_adj)
        k_lo = _gamma_lower_bound(g)
        expected = _per_vertex(compiled, closed)
        assert _pykern.solve_dd_all(closed, k_lo) == expected, g.edges()
        assert compiled.solve_dd_all(closed, k_lo) == compiled.solve_dd_all(g.closed_adj, 0) == expected
    for kern in (_pykern, compiled):
        with pytest.raises(ValueError):
            kern.solve_dd_all([], 0)


def test_stage_boundaries(compiled):
    # searches up to n hide a bound that cuts a hit inside a stage: the next
    # stage then finds a set. Here each stage must decide on its own.
    for kern in (_pykern, compiled):
        for g in corpus():
            closed = list(g.closed_adj)
            for v in [-1] + list(range(g.n)):
                hit = kern.solve_dd(closed, v, 0, g.n)
                dd = hit[0]
                assert kern.solve_dd(closed, v, 0, dd - 1) is None, (g.edges(), v)
                assert kern.solve_dd(closed, v, dd, dd) == hit, (g.edges(), v)
                assert kern.solve_dd(closed, v, dd + 1, dd) is None
                # stages outside 1..n: below 1 none succeeds, and above n each
                # searches the tree of stage n, so its first hit is stage n's
                assert kern.solve_dd(closed, v, -2, g.n + 2) == hit, (g.edges(), v)
                assert kern.solve_dd(closed, v, g.n + 1, g.n + 2) == kern.solve_dd(
                    closed, v, g.n, g.n
                ), (g.edges(), v)
            gamma, witness = kern.solve_dd(closed, -1, 0, g.n)
            # the γ witness is the first dominating set of the sweep, so its
            # least member gets it
            least = (witness & -witness).bit_length() - 1
            assert kern.solve_dd_all(closed, 0)[least] == (gamma, witness), g.edges()
            assert kern.solve_dd_all(closed, gamma) == kern.solve_dd_all(closed, _gamma_lower_bound(g))


def test_cut_against_brute_force():
    # A bound that prunes less changes no value or witness, so no result test
    # sees it. Here _cut meets brute force under its preconditions: every
    # vertex of unc has a dominator from `start` up, and unc has more
    # vertices than `slots`. With at most two slots it prunes exactly when no
    # `slots` such vertices cover unc; with three or four it never prunes a
    # unc that they cover. The stage walk calls it on the closed
    # neighbourhoods of G, and scan_ir on those of G².
    rng = random.Random(2020)
    for i in range(45):
        n = i % 10 + 1
        g = random_graph(n, (0.15, 0.3, 0.5)[i % 3], seed=i)
        for closed in (list(g.closed_adj), square(g)):
            for start in range(n):
                later = closed[start:]
                reach = reduce(or_, later)
                # the covers of the sets of at most `slots` vertices from start up
                unions = {s: [reduce(or_, c, 0) for c in combinations(later, min(s, len(later)))]
                          for s in range(5)}
                unions[-1] = []  # no set has -1 vertices
                for _ in range(12):
                    unc = reach & rng.getrandbits(n)
                    for slots in range(-1, 5):
                        if unc.bit_count() <= slots:
                            continue
                        covered = any(not unc & ~u for u in unions[slots])
                        cut = _pykern._cut(closed, start, unc, slots)
                        if slots <= 2:
                            assert cut != covered, (closed, start, unc, slots)
                        else:
                            assert not (cut and covered), (closed, start, unc, slots)
    # Orders 16-24, one and two slots: the exact test tries only vertices
    # that dominate the lowest and the highest vertex to cover, which lie
    # far apart here. Each unc lies in the cover of two later vertices, and
    # half of them gain one more vertex, so both outcomes occur.
    seen = set()
    for i, n in enumerate((16, 18, 20, 22, 24)):
        g = random_graph(n, (0.1, 0.2)[i % 2], seed=2020 + n)
        for closed in (list(g.closed_adj), square(g)):
            for start in range(0, n, 3):
                later = closed[start:]
                reach = reduce(or_, later)
                unions = {s: [reduce(or_, c) for c in combinations(later, min(s, len(later)))]
                          for s in (1, 2)}
                for _ in range(12):
                    unc = (rng.choice(later) | rng.choice(later)) & (rng.getrandbits(n) | rng.getrandbits(n))
                    if rng.getrandbits(1):
                        unc |= 1 << rng.choice([u for u in range(n) if reach >> u & 1])
                    for slots in (1, 2):
                        if unc.bit_count() <= slots:
                            continue
                        covered = any(not unc & ~u for u in unions[slots])
                        assert _pykern._cut(closed, start, unc, slots) != covered, (closed, start, unc, slots)
                        seen.add((slots, covered))
    assert seen == {(1, False), (1, True), (2, False), (2, True)}


def test_scans_identical(compiled):
    for g in corpus() + disconnected():
        closed = list(g.closed_adj)
        if not closed or len(closed) > SCAN_MAX:
            continue
        gamma = _pykern.solve_dd(closed, -1, 0, g.n)[0]
        assert (_pykern.scan_minimal_ds(closed) == compiled.scan_minimal_ds(closed)
                == compiled.scan_minimal_ds(g.closed_adj))
        assert (_walks(_pykern, closed, gamma) == _walks(compiled, closed, gamma)
                == _walks(compiled, g.closed_adj, gamma)), g.edges()


@lru_cache(maxsize=None)
def _irredundant_by_predicates(g):
    """(irredundant, maximal irredundant, dominating) masks of ``g``, from
    the engine's predicates over all 2^n subsets."""
    size = 1 << g.n
    irr = [is_irredundant(g, VertexSet(g.n, m)) for m in range(size)]
    sets = [m for m in range(size) if irr[m]]
    maximal = [m for m in sets if all(m >> x & 1 or not irr[m | 1 << x] for x in range(g.n))]
    dominating = {m for m in range(size) if is_dominating(g, VertexSet(g.n, m))}
    return sets, maximal, dominating


def test_irredundance_walk_matches_predicates_exhaustive(compiled, graph_classes_7):
    for g, _ in graph_classes_7:
        closed = list(g.closed_adj)
        sets, maximal, dominating = _irredundant_by_predicates(g)
        gamma = min(m.bit_count() for m in dominating)
        # a dominating irredundant set is minimal dominating
        expected = (min(m.bit_count() for m in maximal),
                    max(m.bit_count() for m in sets if m in dominating),
                    max(m.bit_count() for m in sets))
        assert _walks(_pykern, closed, gamma) == expected, g.edges()
        assert _walks(compiled, closed, gamma) == expected, g.edges()


def test_maximal_irredundant_sets_dominate_the_square(graph_classes_7):
    # The lemma behind scan_ir's bound, ir(G) ≥ γ(G²): for w outside a
    # maximal irredundant set S, either S dominates w, or adding w leaves
    # some member s no private vertex, so all of them lie in N[w] and w is
    # within distance 2 of s.
    for g, _ in graph_classes_7:
        far = square(g)
        for m in _irredundant_by_predicates(g)[1]:
            assert reduce(or_, (far[v] for v in range(g.n) if m >> v & 1), 0) == g.full_mask, (g.edges(), m)


def test_maximal_irredundant_sets_below_gamma_have_annihilators(graph_classes_7):
    # The lemma behind scan_ir's annihilator cut. Let S be maximal
    # irredundant with |S| < γ, so S does not dominate, and let u be
    # undominated. u is its own private vertex in S+u, so some member x has
    # PN(x, S) ⊆ N[u]. Had x no neighbour in S, x ∈ PN(x, S) ⊆ N[u] would
    # dominate u; so x has one, and u ∈ N[p] ⊆ N²[x] for a p ∈ PN(x, S).
    # Only two classes with n ≤ 7 have such sets; kragujevac:2,2 (ir = 4 <
    # γ = 5) adds more.
    below = 0
    for g in [g for g, _ in graph_classes_7] + [generate(FamilySpec("kragujevac", (2, 2))).graph]:
        far = square(g)
        _, maximal, dominating = _irredundant_by_predicates(g)
        gamma = min(m.bit_count() for m in dominating)
        for m in maximal:
            if m.bit_count() < gamma:
                members = [v for v in range(g.n) if m >> v & 1]
                cover = reduce(or_, (g.closed_adj[v] for v in members))
                near = reduce(or_, (far[v] for v in members if g.open_adj[v] & m), 0)
                assert not g.full_mask & ~(cover | near), (g.edges(), m)
                below += 1
    assert below > 2


def test_maximal_irredundant_sets_meet_the_degree_bound(graph_classes_7):
    # The lemma behind scan_ir's stop, ir(G) ≥ ⌈n / max(Δ+1, 2Δ−1)⌉. Let S be
    # maximal irredundant. A member that is its own private vertex covers at
    # most Δ+1 vertices, and one that another member dominates adds at most
    # Δ. An undominated w is its own private vertex in S+w, so some member x
    # loses every private vertex to N(w); x is of the second kind, and w lies
    # in N(p_x) − x for a private vertex p_x of x: at most Δ−1 such w per x.
    for g, _ in graph_classes_7:
        delta = g.max_degree
        bound = -(-g.n // max(delta + 1, 2 * delta - 1))
        for m in _irredundant_by_predicates(g)[1]:
            assert m.bit_count() >= bound, (g.edges(), m)


def test_ir_walk_enters_no_set_on_paths_and_cycles(compiled):
    # Δ = 2, so the degree bound ⌈n/3⌉ is already γ
    for n in range(3, 25):
        for kind in ("cycle", "path"):
            closed = generate(FamilySpec(kind, (n,))).graph.closed_adj
            gamma = -(-n // 3)
            for kern in (_pykern, compiled):
                assert kern.scan_ir(closed, gamma) == gamma, (kind, n)
                assert kern.last_nodes() == 0, (kind, n)


# Fixed sparse graphs on which the ir walk enters hundreds of sets: file ->
# (ceiling on scan_ir's sets, scan_irredundance's sets). With the
# annihilator cut scan_ir enters 425, 419 and 374 sets, and the ceilings
# give 20% headroom; without the cut it entered 867, 1,032 and 892.
EFFORT = {
    "sparse16.edges": (510, 135),
    "sparse17.edges": (503, 522),
    "sparse18.edges": (449, 157),
}


def test_walk_effort_on_fixed_sparse_graphs(compiled):
    # A cut that prunes less returns the same values, so only the count of
    # sets entered shows that it was lost or weakened.
    for name, (ceiling, upper_sets) in EFFORT.items():
        g = parse_edgelist((DATA / "effort" / name).read_text())
        gamma = _pykern.solve_dd(g.closed_adj, -1, 0, g.n)[0]
        counts = []
        for kern in (_pykern, compiled):
            kern.scan_ir(g.closed_adj, gamma)
            ir_sets = kern.last_nodes()
            kern.scan_irredundance(g.closed_adj)
            counts.append((ir_sets, kern.last_nodes()))
        assert counts[0] == counts[1], (name, counts)
        assert counts[0][0] <= ceiling and counts[0][1] == upper_sets, (name, counts)


def test_irredundance_walk_keeps_upper_gamma_below_upper_ir(compiled):
    # Two relabellings of one 14-vertex graph with Γ = 4 < IR = 5. A walk
    # that skipped every branch unable to beat IR, without asking whether
    # that branch can still dominate, would report Γ = 3 on each.
    for closed in (
        [8595, 7459, 4844, 604, 1465, 11382, 620, 1429, 403, 6732, 11442, 3618, 12806, 13345],
        [12379, 4211, 10436, 425, 6675, 9642, 10823, 1452, 8616, 9808, 3744, 15444, 6163, 11109],
    ):
        gamma = _pykern.solve_dd(closed, -1, 0, len(closed))[0]
        assert _walks(_pykern, closed, gamma) == (3, 4, 5)
        assert _walks(compiled, closed, gamma) == (3, 4, 5)


def test_walks_need_no_subset_table():
    # a table over all 2^20 subsets takes 8 MiB or more
    closed = list(random_graph(20, 0.15, seed=2015).closed_adj)
    gamma = _pykern.solve_dd(closed, -1, 0, 20)[0]
    for scan, args in ((_pykern.scan_irredundance, (closed,)), (_pykern.scan_minimal_ds, (closed,)),
                       (_pykern.scan_ir, (closed, gamma))):
        tracemalloc.start()
        try:
            scan(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (scan.__name__, peak)


def test_greedy_mode_identical(compiled):
    for g in corpus():
        closed = list(g.closed_adj)
        for v in [-1] + list(range(g.n)):
            assert _pykern.solve_dd(closed, v, g.n, g.n) == compiled.solve_dd(
                closed, v, g.n, g.n
            ), (g.edges(), v)


def test_word_width_boundary_identical(compiled):
    # At n = 64 the full mask is every bit of the word: 1 << 64 is not it.
    # Every v runs both the staged search from the bottom and the
    # one-stage (greedy) mode.
    paths = {}
    for n in (63, 64):
        isolated = [1 << i for i in range(n)]
        paths[n] = path = [(0b111 << i >> 1) & ((1 << n) - 1) for i in range(n)]
        for closed in (isolated, path):
            for v in [-1] + list(range(n)):
                for k_lo in (1 if v >= 0 else 0, n):
                    assert _pykern.solve_dd(closed, v, k_lo, n) == compiled.solve_dd(
                        closed, v, k_lo, n
                    ), (n, closed is path, v, k_lo)
            assert _pykern.solve_dd_all(closed, 1) == compiled.solve_dd_all(closed, 1), n
    # v = 2: stages 1-21 all fail before dd(2) = 22; only the bounds keep that short
    assert _pykern.solve_dd(paths[63], 2, 1, 63) == compiled.solve_dd(paths[63], 2, 1, 63)
    # n = 26, the largest order the walks of irredundant sets take
    star = [(1 << 26) - 1] + [1 | 1 << i for i in range(1, 26)]
    for closed in ([1 << i for i in range(26)], star):
        gamma = _pykern.solve_dd(closed, -1, 0, 26)[0]
        assert _pykern.scan_minimal_ds(closed) == compiled.scan_minimal_ds(closed)
        assert _walks(_pykern, closed, gamma) == _walks(compiled, closed, gamma), closed is star
    with pytest.raises(ValueError):
        compiled.solve_dd([1 << i for i in range(65)], -1, 0, 65)
    with pytest.raises(ValueError):
        compiled.solve_dd_all([1 << i for i in range(65)], 0)
    for kern in (_pykern, compiled):
        with pytest.raises(ValueError):
            kern.solve_dd([], -1, 0, 0)
        for n in (0, 27):
            closed = [1 << i for i in range(n)]
            with pytest.raises(ValueError):
                kern.scan_minimal_ds(closed)
            with pytest.raises(ValueError):
                kern.scan_irredundance(closed)
            with pytest.raises(ValueError):
                kern.scan_ir(closed, 1)
        # γ lies in 1..n
        for gamma in (0, 4):
            with pytest.raises(ValueError):
                kern.scan_ir([1 << i for i in range(3)], gamma)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_signal_interrupts_compiled_search(compiled):
    class Interrupted(Exception):
        pass

    def handler(signum, frame):
        raise Interrupted

    # 22 disjoint edges and the rook's graph K4 x K4: gamma = 22 + 4. Stage
    # 25 tries each of the 2^22 ways to dominate the edges and then fails on
    # the rook's graph, an exhaustive search of 23-29 s (2-vCPU VM,
    # gcc -O2), in both the staged search and the sweep; the handler must
    # run long before it ends.
    k2, k4 = (generate(FamilySpec("complete", (m,))).graph for m in (2, 4))
    closed = list(disjoint_union([k2] * 22 + [product(k4, k4, "cartesian")]).closed_adj)
    calls = [(lambda: compiled.solve_dd(closed, -1, 25, 25), 0.2, 2),
             (lambda: compiled.solve_dd_all(closed, 25), 0.2, 2)]
    # No input of at most 26 vertices is known that keeps a walk of
    # irredundant sets busy for 0.2 s. The ir walk on six C4 and a K2
    # (γ = ir = 13) is among the longest: about 0.1 s on that VM. Set to
    # an eighth of its fastest uninterrupted time, the timer must stop it
    # before half that time; a walk that never polled would raise only on
    # its return.
    c4 = generate(FamilySpec("cycle", (4,))).graph
    cycles = list(disjoint_union([c4] * 6 + [k2]).closed_adj)
    full = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert compiled.scan_ir(cycles, 13) == 13
        full.append(time.perf_counter() - t0)
    calls.append((lambda: compiled.scan_ir(cycles, 13), min(full) / 8, min(full) / 2))
    old = signal.signal(signal.SIGALRM, handler)
    try:
        for call, timer, limit in calls:
            signal.setitimer(signal.ITIMER_REAL, timer)
            t0 = time.perf_counter()
            with pytest.raises(Interrupted):
                call()
            assert time.perf_counter() - t0 < limit
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_backend_reports_name():
    assert backend_name() in ("compiled", "python")
    assert kernels_for(65) is _pykern  # wider than one machine word
    assert kernels_for(100) is _pykern


def test_backend_env_override():
    """``DOMINDEX_BACKEND`` is read once, at import, so each value gets a
    fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SOURCE.parents[1]), os.environ.get("PYTHONPATH")]))

    def child(value):
        env = {**os.environ, "PYTHONPATH": path, "DOMINDEX_BACKEND": value}
        return subprocess.run(
            [sys.executable, "-c", "import domindex; print(domindex.backend_name())"],
            env=env, capture_output=True, text=True, timeout=60,
        )

    py = child("py")
    assert (py.returncode, py.stdout) == (0, "python\n")
    bogus = child("bogus")
    assert bogus.returncode != 0 and "'bogus'" in bogus.stderr
    c = child("c")
    if backend._kernels is not None:
        assert (c.returncode, c.stdout) == (0, "compiled\n")
    else:
        assert c.returncode != 0 and "not built" in c.stderr


def test_python_twin_handles_wide_graphs():
    # 70 isolated vertices: every vertex must be chosen
    closed = [1 << i for i in range(70)]
    size, mask = _pykern.solve_dd(closed, 3, 1, 70)
    assert size == 70 and mask == (1 << 70) - 1
