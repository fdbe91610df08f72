"""Independent cross-checks between the scan kernels, the predicates and
naive in-test reimplementations."""

from collections import Counter
from itertools import combinations
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from domindex import (
    domination_profile,
    engine,
    enumerate_minimal_dominating_sets,
    irredundance_numbers,
    is_minimal_dominating,
    random_graph,
    run_suite,
    upper_domination_number,
)
from domindex.backend import kernels_for
from domindex.classes import enumerate_labeled_graphs
from domindex.engine import is_irredundant
from domindex.verify import Limits, write_ledger


@given(st.integers(0, 150))
@settings(max_examples=50, deadline=None)
def test_enumeration_matches_predicate_scan(i):
    g = random_graph(n=(i % 7) + 1, p=(0.25, 0.5, 0.75)[i % 3], seed=3000 + i)
    enumerated = {s.bits for s in enumerate_minimal_dominating_sets(g)}
    # Γ comes from the irredundance scan, the sets from the other scan
    assert upper_domination_number(g) == max(m.bit_count() for m in enumerated)
    by_predicate = set()
    for r in range(g.n + 1):
        for ids in combinations(range(g.n), r):
            s = g.vertex_set(ids)
            if is_minimal_dominating(g, s):
                by_predicate.add(s.bits)
    assert enumerated == by_predicate


def _naive_ir(g):
    irredundant = []
    for r in range(g.n + 1):
        for ids in combinations(range(g.n), r):
            if is_irredundant(g, g.vertex_set(ids)):
                irredundant.append(set(ids))
    upper = max(len(s) for s in irredundant)
    maximal = [
        s for s in irredundant
        if all(
            not is_irredundant(g, g.vertex_set(s | {x}))
            for x in range(g.n)
            if x not in s
        )
    ]
    return min(len(s) for s in maximal), upper


@given(st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_irredundance_numbers_match_naive(i):
    g = random_graph(n=(i % 5) + 1, p=(0.3, 0.6)[i % 2], seed=4000 + i)
    assert irredundance_numbers(g) == _naive_ir(g)


def test_upper_gamma_matches_enumeration_exhaustive():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            largest = max(len(s) for s in enumerate_minimal_dominating_sets(g))
            assert upper_domination_number(g) == largest, g.edges()


def test_profile_runs_one_subset_scan(monkeypatch):
    calls = Counter()

    def counting(n):
        kern = kernels_for(n)

        def wrap(name):
            def call(*args):
                calls[name] += 1
                return getattr(kern, name)(*args)
            return call

        names = ("solve_dd", "solve_dd_all", "scan_minimal_ds", "scan_irredundance", "scan_ir")
        return SimpleNamespace(**{name: wrap(name) for name in names})

    monkeypatch.setattr(engine, "kernels_for", counting)
    g = random_graph(9, 0.4, 7)
    domination_profile(g)
    # one sweep for γ and every vertex's degree, then the Γ/IR walk and the
    # ir walk, which starts from that γ
    assert calls == {"solve_dd_all": 1, "scan_irredundance": 1, "scan_ir": 1}


def test_families_full_grid_and_ledger(tmp_path):
    report = run_suite("families")
    assert report.proved_failures == []
    resolutions = report.details["contested_resolutions"]
    # every contested path instance resolved the same way
    for name, res in resolutions.items():
        if name.startswith("path:"):
            n = int(name.split(":")[1])
            if n % 3 == 2:
                assert res == {"dd": "statement", "di": "proof"}, name
    assert resolutions["book:1"] == {"dd": None, "di": None}
    assert resolutions["grotzsch"] == {"dd": None, "di": None}
    ledger = tmp_path / "families.jsonl"
    write_ledger(report, str(ledger))
    import json

    rows = [json.loads(line) for line in ledger.read_text().splitlines()]
    contested = {r["instance"] for r in rows if r["claim"] == "family-degree-contested"}
    assert "book:1" in contested and "grotzsch" in contested
    assert any(r["instance"].startswith("path:") for r in rows)
    # contested entries carry the variant table and the matched name
    sample = next(r for r in rows if r["instance"] == "path:5" and r["claim"] == "family-degree-contested")
    assert set(sample["expected"]) == {"statement", "proof"}
    assert sample["witness"]["matched_variant"] == "statement"
