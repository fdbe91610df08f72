"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints one ``ACCEPTANCE <k> PASS|FAIL`` line (visible with
``pytest -v -rA`` or ``-s``).

Known honest failure: criterion 1 asserts the published Grotzsch values
(all degrees 3, index 33). Exhaustive search, the independent oracle and
a hand case analysis all give degree 4 on the five shadow vertices and
index 38, so that clause fails and is left failing on purpose; see the
reviewer notes. Petersen and Herschel match their published values.
"""

import time

from domindex import (
    FamilySpec,
    dd_vector_oracle,
    domination_degree,
    domination_profile,
    generate,
    is_minimal_dominating,
    mds_containing_greedy,
    minimalize_containing,
    parse_edgelist,
    permute,
    random_graph,
    run_suite,
)
from domindex.families import predicted_degree, predicted_index
from domindex.formats import emit_edgelist
from domindex.verify import dd_vector, family_grid

import conftest
from conftest import DATA


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    assert ok, line


def test_criterion_1_named_graphs():
    t0 = time.monotonic()
    got = {}
    for kind in ("petersen", "herschel", "grotzsch"):
        prof = domination_profile(generate(FamilySpec(kind)).graph)
        got[kind] = (sorted(set(prof.degrees)), prof.index)
    elapsed = time.monotonic() - t0
    want = {"petersen": ([3], 30), "herschel": ([3], 33), "grotzsch": ([3], 33)}
    ok = got == want and elapsed < 5.0
    _report(
        1, ok,
        f"named graph profiles {got} vs published {want} in {elapsed:.2f}s"
        " (grotzsch clause is a known erratum: truth is degrees {3,4}, index 38)",
    )


def test_criterion_2_family_formulas():
    t0 = time.monotonic()
    grid = family_grid()
    bad = []
    for spec in grid:
        g = generate(spec).graph
        degs = dd_vector(g)
        for v in range(g.n):
            if degs[v] != predicted_degree(spec, v):
                bad.append((spec, v, degs[v]))
        if sum(degs) != predicted_index(spec):
            bad.append((spec, "index", sum(degs)))
    elapsed = time.monotonic() - t0
    _report(2, not bad and elapsed < 120, f"{len(grid)} family specs, "
            f"mismatches={bad[:3]} in {elapsed:.1f}s (cap 120s)")


def test_criterion_3_path_resolution():
    a = run_suite("paths-resolution")
    b = run_suite("paths-resolution")
    stable = a.details["resolved_by_residue"] == b.details["resolved_by_residue"]
    unique = not [d for d in a.discrepancies if d.claim.endswith("variant-unique")]
    uncontested = not [d for d in a.discrepancies if d.claim == "path-index-uncontested"]
    oracle_ok = not [d for d in a.discrepancies if d.claim == "path-oracle-agreement"]
    ok = stable and unique and uncontested and oracle_ok and a.ok
    _report(3, ok, f"paths 3..15 resolved {a.details['resolved_by_residue']}, stable={stable}")


def test_criterion_4_inequalities_exhaustive():
    t0 = time.monotonic()
    ineq = run_suite("inequalities")
    defn = run_suite("definitional")
    elapsed = time.monotonic() - t0
    claims = {
        "chain-ir-gamma-index-upper",
        "degree-at-most-wiener",
        "index-at-most-n-wiener",
        "degree-between-gamma-and-upper",
        "gamma-degree-bounds",
    }
    violations = [
        d for r in (ineq, defn) for d in r.discrepancies if d.claim in claims
    ]
    ok = not violations and elapsed < 600
    _report(4, ok, f"all graphs n<=6: {ineq.instances + defn.instances} checks, "
            f"violations={len(violations)} in {elapsed:.1f}s (cap 600s)")


def test_criterion_5_operation_theorems():
    t0 = time.monotonic()
    r = run_suite("operations")
    elapsed = time.monotonic() - t0
    hard = [d for d in r.proved_failures]
    join_entries = [d for d in r.discrepancies if d.claim == "join-degree-formula"]
    # the pool is known to refute the join formula on star-with-complete
    # pairs; those must be present and informational, never build failures
    ok = not hard and join_entries and all(not d.proved for d in join_entries) and elapsed < 600
    _report(5, ok, f"union/composition/corona exact on pool; join recorded "
            f"{len(join_entries)} informational disagreements in {elapsed:.1f}s (cap 600s)")


def test_criterion_6_oracle_equivalence():
    bad = []
    for i in range(200):
        g = random_graph(n=(i % 12) + 1, p=(0.2, 0.4, 0.6)[i % 3], seed=i)
        expected = dd_vector_oracle(g)
        got = dd_vector(g)
        if got != expected:
            bad.append((i, got, expected))
    _report(6, not bad, f"200 seeded graphs (n<=12): staged search == subset-scan oracle,"
            f" mismatches={bad[:2]}")


def test_criterion_7_procedure_contracts(f9_by_label):
    bad = 0
    for i in range(500):
        g = random_graph(n=(i % 12) + 1, p=(0.2, 0.4, 0.6)[i % 3], seed=20_000 + i)
        v = i % g.n
        greedy = mds_containing_greedy(g, v)
        shrunk = minimalize_containing(g, g.vertex_set(range(g.n)), v)
        if not (
            v in greedy
            and is_minimal_dominating(g, greedy)
            and v in shrunk
            and is_minimal_dominating(g, shrunk)
            and len(greedy) >= domination_degree(g, v)
        ):
            bad += 1
    f9 = f9_by_label
    greedy_f9 = sorted(f9.labels_of(mds_containing_greedy(f9, f9.id_of("a2"))))
    ok = bad == 0 and greedy_f9 == ["a2", "a3", "a5"]
    _report(7, ok, f"500 seeded (G,v) contracts, failures={bad}; "
            f"greedy on the 9-vertex fixture -> {greedy_f9}")


def test_criterion_8_invariance_and_round_trips():
    import random as _random

    bad = []
    rng = _random.Random(99)
    for i in range(20):
        g = random_graph(n=(i % 10) + 3, p=(0.25, 0.5)[i % 2], seed=30_000 + i)
        base = domination_profile(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permute(g, perm)
            prof = domination_profile(h)
            if prof.index != base.index or sorted(prof.degrees) != sorted(base.degrees):
                bad.append((i, perm))
        text = emit_edgelist(g)
        if emit_edgelist(parse_edgelist(text)) != text:
            bad.append((i, "round-trip"))
    f9_text = (DATA / "f9.edges").read_text()
    f9 = parse_edgelist(f9_text)
    round_trip_ok = parse_edgelist(emit_edgelist(f9)).m == f9.m
    _report(8, not bad and round_trip_ok,
            f"100 permutations of 20 graphs keep index and degree multiset; "
            f"edge-list round-trips byte-stable; failures={bad[:2]}")
