import hashlib
import json
from collections import Counter

import pytest

from domindex import (
    domination_profile,
    enumerate_labeled_graphs,
    random_graph,
    run_suite,
    verify,
)
from domindex.classes import _graph_classes
from domindex.errors import EnumerationCapExceeded, UnknownSuite
from domindex.graph import delete_edge, is_connected
from domindex.verify import (
    CheckReport,
    Limits,
    SUITE_NAMES,
    report_to_json,
    report_to_text,
    write_ledger,
)


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
    assert sum(1 for g in enumerate_labeled_graphs(4) if is_connected(g)) == 38
    with pytest.raises(EnumerationCapExceeded):
        next(enumerate_labeled_graphs(8))


def test_graph_classes_match_oeis_a000088(graph_classes_7):
    classes = Counter()
    weights = Counter()
    for g, w in graph_classes_7:
        classes[g.n] += 1
        weights[g.n] += w
    assert [classes[n] for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert all(weights[n] == 2 ** (n * (n - 1) // 2) for n in range(1, 8))
    with pytest.raises(EnumerationCapExceeded):
        next(_graph_classes(9))


def _invariants(g):
    p = domination_profile(g)
    degree_sequence = sorted(a.bit_count() for a in g.open_adj)
    return (g.n, g.m, tuple(degree_sequence), p.gamma, p.upper_gamma, p.ir, p.upper_ir,
            tuple(sorted(p.degrees)))


def test_weighted_classes_match_labeled_histogram():
    # no canonical form on this side: every labeled graph counts once
    labeled = Counter(_invariants(g) for n in range(1, 6) for g in enumerate_labeled_graphs(n))
    weighted = Counter()
    for g, w in _graph_classes(5):
        weighted[_invariants(g)] += w
    assert weighted == labeled


def test_record_weight():
    rec = CheckReport("weighted")
    rec.record("claim", "a", True, 1, 1, weight=6)
    rec.record("claim", "b", False, 1, 2, weight=4)
    rec.record("claim", "c", True, 1, 1)
    rec.record("other", "d", False, 1, 3, weight=2)
    assert (rec.instances, rec.passes) == (13, 7)
    assert rec.failures == Counter({"claim": 4, "other": 2})
    assert [(d.instance, d.expected, d.computed) for d in rec.discrepancies] == [
        ("b", 1, 2), ("d", 1, 3)]


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_smoke(suite):
    report = run_suite(suite, Limits(max_n=4))
    assert report.instances == report.passes + sum(report.failures.values())
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


def test_monotonicity_classes_match_labeled_walk():
    # every connected labeled graph and each of its one-edge deletions,
    # with no isomorphism classes on this side
    instances = passes = 0
    violations = Counter()
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            if not is_connected(g):
                continue
            base = verify.dd_vector(g)
            for u, v in g.edges():
                degs = verify.dd_vector(delete_edge(g, u, v))
                checks = (
                    ("edge-deletion-degree-monotone", all(a <= b for a, b in zip(base, degs))),
                    ("edge-deletion-index-monotone", sum(base) <= sum(degs)),
                )
                for claim, ok in checks:
                    instances += 1
                    passes += ok
                    violations[claim] += not ok
    report = run_suite("monotonicity", Limits(max_n=5))
    assert (report.instances, report.passes) == (instances, passes) == (8588, 8036)
    verdicts = report.details["empirical_verdicts"]
    assert {claim: v["violations"] for claim, v in verdicts.items()} == dict(violations)
    assert dict(violations) == {"edge-deletion-degree-monotone": 402,
                                "edge-deletion-index-monotone": 150}


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


# sha256 of (report_to_json without its runtime_seconds line, report_to_text
# without its runtime: line, the write_ledger file) per suite at
# Limits(max_n=5). Any change here changes a suite's output.
GOLDEN_SUITES = {
    "definitional": (
        "c11e35ab9867c347b6d053dd019c677b9f707044d17cd2b51593ac573d64aca6",
        "bcf9f6e3aaa1c350095f3874cac69f5aefd74c42018d53aace38741e73c83a7b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "inequalities": (
        "c3593de456f25a87d61ce4a449c60e934b17b053a0921c80eacdb03c341fd0e6",
        "7699e3d371510196e9d4633432c9343d688d04a6b7f951a5526afdf20f1daf7e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "families": (
        "a65ab999913d84383127354d46342d99cdb80dfea63d55c32186182255e0e1c0",
        "11abca3abb452b332828e24c3746fd26709b949662b2a45d2d3d4f973ba1f2d8",
        "ca1e96eecb296112e2e7376e15964c70290fe31bed0f4b5c964677f651fca381",
    ),
    "paths-resolution": (
        "a4e8fd958c37faca19ecdffa7488010ffc3711343c8326ab78efd3086bc19a81",
        "57ad218cc668adaeced6dc61860a658b491a31f35d5841811e2b45f1d35c96a9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "operations": (
        "9928f3b1fffd7b720f8a348c97271b93cf4b805a3dea7795b6e35ac1a208d8b6",
        "4e45e33ef8b45445dd7ac32a16d1b9f850e66e30660c4dbd02bdeec550610c29",
        "5833d1dea33855f40fc8cd84396773e18401dfd9a7be30997ca5100fe77a3b41",
    ),
    "monotonicity": (
        "d755da1c0d478de71512a8992cfae3ac8cc4c44dddd3882a798545cb54f621fb",
        "f25ff86e8be9a24b84c52385d99b5f212ffe21761ce4bde4938dabc46c443c59",
        "d350f5503bb8ad4e699a9c9c7e26267745b9b08375997000bab3f4ef472e1e91",
    ),
    "products-ordering": (
        "7e96223da34e16c7e9f4daa073b07eab84fb5ea2d418c68e0d629a6c0c162834",
        "32c1adb8808bb8c0ad76fc17cacfaba4cc0473680800e4cc8592d1d41f629c98",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "named-graphs": (
        "a0c4cf9dbd34accead34cc0d81f27c9c59d605397d393410f269f60fc43bac37",
        "eef5ada6db4d7976f532cb464ab56468663b4746fad46ce0a6dd034d672f28df",
        "6d02004600075201f83326390f1ed3d2edc0e37e3c920b2a0b947b9c5f65ab28",
    ),
}


def _without_lines(text: str, prefix: str) -> bytes:
    return "".join(
        line for line in text.splitlines(True) if not line.startswith(prefix)
    ).encode()


def test_golden_suites_cover_every_suite():
    assert sorted(GOLDEN_SUITES) == sorted(SUITE_NAMES)


@pytest.mark.parametrize("suite", sorted(GOLDEN_SUITES))
def test_golden_suite_output(suite, tmp_path):
    report = run_suite(suite, Limits(max_n=5))
    ledger = tmp_path / "ledger.jsonl"
    write_ledger(report, str(ledger))
    got = (
        _without_lines(report_to_json(report), '  "runtime_seconds": '),
        _without_lines(report_to_text(report), "runtime: "),
        ledger.read_bytes(),
    )
    assert tuple(hashlib.sha256(b).hexdigest() for b in got) == GOLDEN_SUITES[suite]
