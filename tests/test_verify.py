import json

import pytest

from domindex import enumerate_labeled_graphs, random_graph, run_suite
from domindex.errors import EnumerationCapExceeded, UnknownSuite
from domindex.graph import is_connected
from domindex.verify import Limits, SUITE_NAMES, report_to_json, report_to_text, write_ledger


def test_random_graph_bounds_and_determinism():
    assert random_graph(5, 0.0, 1).m == 0
    assert random_graph(5, 1.0, 1).m == 10
    a = random_graph(10, 0.4, 7)
    b = random_graph(10, 0.4, 7)
    assert a.edges() == b.edges()
    assert random_graph(10, 0.4, 8).edges() != a.edges()
    with pytest.raises(ValueError):
        random_graph(3, 1.5, 0)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_labeled_graphs(2)) == 2
    graphs3 = list(enumerate_labeled_graphs(3))
    assert len(graphs3) == 8
    assert sum(1 for g in graphs3 if is_connected(g)) == 4
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64
    assert sum(1 for _ in enumerate_labeled_graphs(4, connected_only=True)) == 38
    with pytest.raises(EnumerationCapExceeded):
        next(enumerate_labeled_graphs(8))


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_smoke(suite):
    limits = Limits(max_n=4, quick=True)
    report = run_suite(suite, limits)
    assert report.instances == report.passes + len(report.discrepancies)
    assert report.runtime_seconds >= 0
    # only contested claims may disagree on these small pools
    assert report.proved_failures == []


def test_named_suite_records_contested_grotzsch():
    report = run_suite("named-graphs")
    assert report.ok  # no proved failures
    contested = {d.instance for d in report.discrepancies}
    assert contested == {"grotzsch"}
    claims = {d.claim for d in report.discrepancies}
    assert claims == {"named-degree", "named-index", "named-drg"}


def test_paths_resolution_table_stable():
    a = run_suite("paths-resolution", Limits(max_n=11))
    b = run_suite("paths-resolution", Limits(max_n=11))
    assert a.details["resolved_by_residue"] == b.details["resolved_by_residue"]
    assert a.details["resolved_by_residue"]["2"] == {"dd": "statement", "di": "proof"}
    assert a.proved_failures == []


def test_monotonicity_verdicts_recorded():
    report = run_suite("monotonicity", Limits(max_n=4))
    verdicts = report.details["empirical_verdicts"]
    assert set(verdicts) == {
        "edge-deletion-degree-monotone",
        "edge-deletion-index-monotone",
    }
    # the per-vertex claim already fails at order 4 (star leaf deletions)
    assert not verdicts["edge-deletion-degree-monotone"]["holds"]
    assert verdicts["edge-deletion-degree-monotone"]["first_counterexample"]


def test_report_serialization(tmp_path):
    report = run_suite("named-graphs")
    text = report_to_text(report)
    assert "suite: named-graphs" in text and "grotzsch" in text
    payload = json.loads(report_to_json(report))
    assert payload["instances"] == report.instances
    ledger = tmp_path / "ledger.jsonl"
    write_ledger(report, str(ledger))
    rows = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert len(rows) == len(report.discrepancies)
    assert all(row["suite"] == "named-graphs" for row in rows)
    assert all(not row["proved"] for row in rows)
    without_suite = [{k: v for k, v in row.items() if k != "suite"} for row in rows]
    assert without_suite == payload["discrepancies"]
