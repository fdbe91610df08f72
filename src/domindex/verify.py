"""Verification suites: computed ground truth versus the closed forms.

Every suite replays a batch of claims against exact engine values and
returns a :class:`CheckReport`. Claims come in two classes:

* proved claims: a discrepancy means an implementation bug (or a wrong
  published proof) and fails the run;
* contested/informational claims: the published statement is known to be
  shaky or self-contradictory, so disagreements are recorded as ledger
  entries instead of failures, together with every published variant.

The ``definitional``, ``inequalities`` and ``monotonicity`` suites check
isomorphism invariants only, so they visit one graph per isomorphism class
up to a small order (``classes._graph_classes``) and count each check once
per labeled graph in the class (its weight n!/|Aut(G)|); a failed check
records one discrepancy for the class representative, and adds its
weight to the claim's failure count. The per-graph work is a handful of
degree searches and walks of irredundant sets.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

from .classes import _graph_classes
from .engine import (
    DEFAULT_EXACT_CAP,
    _irredundance_scan,
    dd_vector_oracle,
    domination_degrees,
    domination_profile,
    enumerate_minimal_dominating_sets,
    is_dominating,
)
from .errors import EnumerationCapExceeded, InvalidLimits, UnknownSuite
from .families import (
    ARGUED_REMARKS,
    NAMED_REMARKS,
    FamilySpec,
    contested_variants,
    format_family,
    generate,
    path_degree_variants,
    path_index_variants,
    predicted_degree,
    predicted_index,
)
from .graph import (
    Graph,
    VertexSet,
    bits_of,
    delete_edge,
    is_connected,
    max_degree,
    wiener_index,
)
from .ops import (
    composition_complete_predicted,
    corona,
    corona_predicted,
    disjoint_union,
    join,
    join_predicted,
    product,
    union_predicted,
)

@dataclass(frozen=True)
class Discrepancy:
    claim: str
    instance: str
    expected: object
    computed: object
    witness: object = None
    proved: bool = True


@dataclass
class CheckReport:
    suite: str
    instances: int = 0
    passes: int = 0
    discrepancies: list[Discrepancy] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # claim -> failed instances
    runtime_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def record(self, claim, instance, ok, expected, computed, witness=None, proved=True, weight=1):
        """Count one check as ``weight`` instances (the labeled graphs a
        class representative stands for). A failure adds ``weight`` to
        ``failures[claim]`` and is one discrepancy."""
        self.instances += weight
        if ok:
            self.passes += weight
        else:
            self.failures[claim] += weight
            self.discrepancies.append(
                Discrepancy(claim, instance, expected, computed, witness, proved)
            )

    @property
    def proved_failures(self) -> list[Discrepancy]:
        return [d for d in self.discrepancies if d.proved]

    @property
    def ok(self) -> bool:
        return not self.proved_failures


@dataclass
class Limits:
    """Pool size of the suites that walk all graphs up to an order:
    ``max_n`` caps ``definitional``, ``inequalities`` and
    ``monotonicity`` (default 6) and ``paths-resolution`` (default 15).
    ``run_suite`` refuses a ``max_n`` below the smallest order such a
    suite walks (1, and 3 for ``paths-resolution``), which would check
    nothing. The other suites run fixed pools."""

    max_n: int | None = None


def describe(g: Graph) -> str:
    return f"n={g.n};edges=" + ",".join(f"{u}-{v}" for u, v in g.edges())


def dd_vector(g: Graph) -> list[int]:
    """Per-vertex domination degrees via the staged engine search."""
    return domination_degrees(g)[1]


def _matching(variants: dict, value) -> tuple[list[str], str | None]:
    """The names of the published variants equal to ``value``, and the
    first of them (None when there is none)."""
    names = [name for name, published in variants.items() if published == value]
    return names, names[0] if names else None


def run_suite(suite: str, limits: Limits | None = None) -> CheckReport:
    limits = limits or Limits()
    try:
        fn = _SUITES[suite]
    except KeyError:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}") from None
    args = ()
    if suite in _ORDERS:
        smallest, default = _ORDERS[suite]
        top = default if limits.max_n is None else limits.max_n
        if top < smallest:
            raise InvalidLimits(f"suite {suite} walks orders from {smallest}, so limit {top} checks nothing")
        args = (range(smallest, top + 1),)
    t0 = time.perf_counter()
    report = fn(*args)
    report.runtime_seconds = time.perf_counter() - t0
    return report


def _suite_named_graphs() -> CheckReport:
    rec = CheckReport("named-graphs")
    for kind, (dd, di) in NAMED_REMARKS.items():
        proved = kind in ARGUED_REMARKS
        g = generate(FamilySpec(kind)).graph
        prof = domination_profile(g)
        rec.record(
            "named-degree", kind,
            all(d == dd for d in prof.degrees), f"{dd} for every vertex",
            list(prof.degrees), proved=proved,
        )
        rec.record("named-index", kind, prof.index == di, di, prof.index, proved=proved)
        # γ is the least domination degree
        rec.record("named-gamma", kind, prof.gamma == dd, dd, prof.gamma)
        rec.record("named-drg", kind, prof.is_drg, True, prof.is_drg, proved=proved)
    return rec


def _suite_definitional(orders: range) -> CheckReport:
    rec = CheckReport("definitional")
    for g, w in _graph_classes(orders[-1]):
        inst = describe(g)
        search_gamma, degs, _ = domination_degrees(g)
        # one scan per graph gives γ, Γ and the complement check. The
        # search's γ is checked, not used: its stages start at ceil(n/(1+Δ))
        # and each degree search at its γ, so lower bounds on them hold anyway.
        minimal_sets = list(enumerate_minimal_dominating_sets(g))
        gamma = len(minimal_sets[0])  # sorted by cardinality
        upper = len(minimal_sets[-1])
        # dd(v) by definition: the size of the first enumerated set holding v
        least, seen = [0] * g.n, 0
        for s in minimal_sets:
            for v in bits_of(s.bits & ~seen):
                least[v] = len(s)
            seen |= s.bits
            if seen == g.full_mask:
                break
        rec.record(
            "degree-between-gamma-and-upper", inst,
            search_gamma == gamma == min(degs) and max(degs) <= upper and degs == least,
            f"gamma {gamma}; values {least} in [{gamma},{upper}], least {gamma}",
            [search_gamma, degs], weight=w,
        )
        delta = max_degree(g)
        lo = -(-g.n // (1 + delta))
        rec.record(
            "gamma-degree-bounds", inst,
            lo <= gamma <= g.n - delta,
            f"gamma in [{lo},{g.n - delta}]", gamma, weight=w,
        )
        if all(g.open_adj[v] for v in range(g.n)):
            bad = None
            for s in minimal_sets:
                comp = VertexSet(g.n, g.full_mask & ~s.bits)
                if not is_dominating(g, comp):
                    bad = sorted(s.members())
                    break
            rec.record(
                "complement-of-minimal-ds-dominates", inst,
                bad is None, "complement dominates for every minimal ds", bad, weight=w,
            )
    return rec


def _suite_inequalities(orders: range) -> CheckReport:
    rec = CheckReport("inequalities")
    for g, w in _graph_classes(orders[-1]):
        inst = describe(g)
        gamma, degs, _ = domination_degrees(g)
        ir, upper, upper_ir = _irredundance_scan(g, gamma)
        di = sum(degs)
        chain_ok = (
            ir <= gamma
            and g.n * gamma <= di <= g.n * upper
            and upper <= upper_ir
        )
        rec.record(
            "chain-ir-gamma-index-upper", inst, chain_ok,
            f"{ir} <= {gamma} <= DI/n <= {upper} <= {upper_ir}", di, weight=w,
        )
        if g.n > 1 and is_connected(g):
            wi = wiener_index(g)
            rec.record(
                "degree-at-most-wiener", inst,
                all(d <= wi for d in degs), f"all <= {wi}", degs, weight=w,
            )
            rec.record(
                "index-at-most-n-wiener", inst,
                di <= g.n * wi, f"<= {g.n * wi}", di, weight=w,
            )
            rec.record(
                "degree-at-most-edge-count", inst,
                all(d <= g.m for d in degs), f"all <= {g.m}", degs,
                proved=False, weight=w,
            )
    return rec


def family_grid() -> list[FamilySpec]:
    """Family specs with closed-form degrees and index: the core of the
    ``families`` suite's pool."""
    specs = [FamilySpec("complete", (n,)) for n in range(1, 9)]
    specs += [FamilySpec("multipartite", t) for t in ((2, 2), (2, 3), (3, 3, 3))]
    specs += [FamilySpec("star", (n,)) for n in range(2, 9)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, 13)]
    specs += [FamilySpec("wheel", (n,)) for n in range(3, 11)]
    specs += [FamilySpec("book", (n,)) for n in range(2, 6)]
    specs += [FamilySpec("windmill", rs) for rs in ((2, 2), (3, 2), (3, 3), (4, 2))]
    specs += [FamilySpec("kragujevac", t) for t in ((1, 1), (2, 2), (2, 3), (1, 2, 3))]
    return specs


def _suite_families() -> CheckReport:
    rec = CheckReport("families")
    resolved = {}
    pool = family_grid() + [FamilySpec("book", (1,))]
    pool += [FamilySpec("path", (n,)) for n in range(3, 13)]
    pool += [FamilySpec(k) for k in NAMED_REMARKS]
    for spec in pool:
        name = format_family(spec)
        g, roles = generate(spec)
        degs = dd_vector(g)
        di = sum(degs)
        proved = spec.kind in ARGUED_REMARKS or spec.kind not in NAMED_REMARKS
        variants, ivariants = contested_variants(spec)
        if not variants:
            preds = [predicted_degree(spec, v) for v in range(g.n)]
            bad = [(g.labels[v], p, degs[v]) for v, p in enumerate(preds) if degs[v] != p]
            rec.record(
                "family-degree", name, not bad,
                "computed degree equals the closed form", bad or degs, proved=proved,
            )
            pred_di = predicted_index(spec)
            rec.record("family-index", name, di == pred_di, pred_di, di, proved=proved)
        else:
            oracle = dd_vector_oracle(g)
            rec.record(
                "family-contested-oracle", name,
                degs == oracle, oracle, degs,
            )
            _, dd_name = _matching(variants, tuple(degs))
            _, di_name = _matching(ivariants, di)
            resolved[name] = {"dd": dd_name, "di": di_name}
            rec.record(
                "family-degree-contested", name,
                False, variants, tuple(degs),
                witness={"matched_variant": dd_name}, proved=False,
            )
            rec.record(
                "family-index-contested", name,
                False, ivariants, di,
                witness={"matched_variant": di_name}, proved=False,
            )
        if spec.kind in ("cycle", "kragujevac", "petersen", "herschel", "grotzsch"):
            rec.record(
                "family-drg", name,
                len(set(degs)) == 1, "all degrees equal", degs, proved=proved,
            )
        if spec.kind in ("star", "path", "kragujevac"):
            lo = -(-g.n // 3)
            leaf_ok = all(
                lo <= degs[v] <= g.n - 1 for v in range(g.n) if roles[v] == "leaf"
            )
            rec.record(
                "tree-leaf-degree-bounds", name, leaf_ok,
                f"leaf degrees in [{lo},{g.n - 1}]", degs,
            )
    rec.details["contested_resolutions"] = resolved
    return rec


def _suite_paths_resolution(orders: range) -> CheckReport:
    rec = CheckReport("paths-resolution")
    seen: dict[int, dict[str, set]] = {t: {"dd": set(), "di": set()} for t in range(3)}
    rows = []
    for n in orders:
        spec = FamilySpec("path", (n,))
        g = generate(spec).graph
        name = f"path:{n}"
        degs = dd_vector(g)
        oracle = dd_vector_oracle(g)
        rec.record("path-oracle-agreement", name, degs == oracle, oracle, degs)
        di = sum(degs)
        dvars = path_degree_variants(n)
        dmatch, dd_name = _matching(dvars, tuple(degs))
        rec.record(
            "path-degree-variant-unique", name,
            len(dmatch) == 1, dvars, tuple(degs),
            witness={"matched": dmatch},
        )
        ivars = path_index_variants(n)
        imatch, di_name = _matching(ivars, di)
        rec.record(
            "path-index-variant-unique", name,
            len(imatch) == 1, ivars, di,
            witness={"matched": imatch},
        )
        t = n % 3
        if t == 1:
            want = ivars["statement"]
            rec.record("path-index-uncontested", name, di == want, want, di)
        seen[t]["dd"].add(dd_name)
        seen[t]["di"].add(di_name)
        rows.append({"n": n, "dd_variant": dd_name, "di_variant": di_name})
    table = {}
    for t, per_kind in seen.items():
        for key, names in per_kind.items():
            if not names:
                continue
            rec.record(
                "path-variant-consistent", f"residue {t} ({key})",
                len(names) == 1, "one variant per residue class", sorted(map(str, names)),
            )
            table.setdefault(str(t), {})[key] = sorted(map(str, names))[0] if len(names) == 1 else None
    rec.details["resolved_by_residue"] = table
    rec.details["resolved_rows"] = rows
    return rec


def _op_pool() -> list[tuple[str, Graph]]:
    specs = [
        ("K1", FamilySpec("complete", (1,))),
        ("K2", FamilySpec("complete", (2,))),
        ("K3", FamilySpec("complete", (3,))),
        ("P3", FamilySpec("path", (3,))),
        ("P4", FamilySpec("path", (4,))),
        ("C4", FamilySpec("cycle", (4,))),
        ("C5", FamilySpec("cycle", (5,))),
        ("K1,3", FamilySpec("star", (3,))),
    ]
    return [(name, generate(s).graph) for name, s in specs]


def _suite_operations() -> CheckReport:
    rec = CheckReport("operations")
    pool = _op_pool()
    base = {name: dd_vector(g) for name, g in pool}
    for na, ga in pool:
        for nb, gb in pool:
            comp = disjoint_union([ga, gb])
            got = dd_vector(comp)
            want = union_predicted([base[na], base[nb]])
            rec.record(
                "union-degree-formula", f"union({na},{nb})",
                got == want, want, got,
            )
            jg = join(ga, gb)
            jgot = dd_vector(jg)
            jwant = join_predicted(base[na], base[nb])
            rec.record(
                "join-degree-formula", f"join({na},{nb})",
                jgot == jwant, jwant, jgot, proved=False,
            )
            if ga.n * (1 + gb.n) <= DEFAULT_EXACT_CAP:
                cg = corona(ga, gb)
                cgot = dd_vector(cg)
                cwant = corona_predicted(ga.n, base[nb])
                rec.record(
                    "corona-degree-formula", f"corona({na},{nb})",
                    cgot == cwant, cwant, cgot,
                )
        for m in (2, 3):
            km = generate(FamilySpec("complete", (m,))).graph
            pg = product(ga, km, "composition")
            pgot = dd_vector(pg)
            pwant = composition_complete_predicted(base[na], m)
            rec.record(
                "composition-degree-formula", f"composition({na},K{m})",
                pgot == pwant, pwant, pgot,
            )
    return rec


# The class walk at order 8 is unmeasured; generating its classes alone
# takes 6-8 s of process time in pure Python.
_MONOTONICITY_CAP = 7


def _suite_monotonicity(orders: range) -> CheckReport:
    if orders[-1] > _MONOTONICITY_CAP:
        raise EnumerationCapExceeded(
            f"monotonicity capped at {_MONOTONICITY_CAP} vertices, got {orders[-1]}"
        )
    rec = CheckReport("monotonicity")
    # a labeled (graph, edge) pair relabels one (representative, edge) pair,
    # and the claims ignore labels, so weight w counts the labeled pairs
    for g, w in _graph_classes(orders[-1]):
        if not is_connected(g):
            continue
        base = dd_vector(g)
        name = describe(g)
        for u, v in g.edges():
            degs = dd_vector(delete_edge(g, u, v))
            inst = f"{name};drop={u}-{v}"
            checks = (
                ("edge-deletion-degree-monotone",
                 all(a <= b for a, b in zip(base, degs)), base, degs),
                ("edge-deletion-index-monotone",
                 sum(base) <= sum(degs), sum(base), sum(degs)),
            )
            for claim, ok, want, got in checks:
                rec.record(claim, inst, ok, want, got, proved=False, weight=w)
    claims = ("edge-deletion-degree-monotone", "edge-deletion-index-monotone")
    verdicts = {}
    for claim in claims:
        verdicts[claim] = {
            "instances": rec.instances // len(claims),  # every deletion checks each claim
            "violations": rec.failures[claim],
            "holds": not rec.failures[claim],
            "first_counterexample": next(
                (d.instance for d in rec.discrepancies if d.claim == claim), None
            ),
        }
    rec.details["empirical_verdicts"] = verdicts
    return rec


def _suite_products_ordering() -> CheckReport:
    rec = CheckReport("products-ordering")
    pool = _op_pool()
    for na, ga in pool:
        for nb, gb in pool:
            if ga.n * gb.n > 16:
                continue
            di = {
                kind: sum(dd_vector(product(ga, gb, kind)))
                for kind in ("cartesian", "direct", "strong", "composition")
            }
            inst = f"{na} x {nb}"
            ok = di["composition"] <= di["strong"] <= min(di["cartesian"], di["direct"])
            rec.record(
                "product-index-ordering", inst, ok,
                "composition <= strong <= min(cartesian, direct)", di, proved=False,
            )
    return rec


_SUITES = {
    "definitional": _suite_definitional,
    "inequalities": _suite_inequalities,
    "families": _suite_families,
    "paths-resolution": _suite_paths_resolution,
    "operations": _suite_operations,
    "monotonicity": _suite_monotonicity,
    "products-ordering": _suite_products_ordering,
    "named-graphs": _suite_named_graphs,
}
SUITE_NAMES = tuple(_SUITES)
# (smallest, default) order of each suite that Limits.max_n bounds; the
# classes of _graph_classes start at order 1
_ORDERS = {"definitional": (1, 6), "inequalities": (1, 6), "monotonicity": (1, 6), "paths-resolution": (3, 15)}


def write_ledger(report: CheckReport, path: str) -> None:
    """One JSON record per discrepancy, line-delimited."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in report.discrepancies:
            record = {"suite": report.suite, **_discrepancy_record(d)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _discrepancy_record(d: Discrepancy) -> dict:
    return {
        "claim": d.claim,
        "proved": d.proved,
        "instance": d.instance,
        "expected": _jsonable(d.expected),
        "computed": _jsonable(d.computed),
        "witness": _jsonable(d.witness),
    }


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return repr(x)


def report_to_text(report: CheckReport) -> str:
    lines = [
        f"suite: {report.suite}",
        f"instances: {report.instances}",
        f"passes: {report.passes}",
        f"discrepancies: {len(report.discrepancies)}"
        f" (proved: {len(report.proved_failures)})",
        f"runtime: {report.runtime_seconds:.2f}s",
    ]
    for d in report.discrepancies:
        tag = "PROVED" if d.proved else "info"
        lines.append(f"  [{tag}] {d.claim} @ {d.instance}")
        lines.append(f"      expected {d.expected!r} got {d.computed!r}")
    for key, val in report.details.items():
        lines.append(f"{key}: {json.dumps(_jsonable(val), sort_keys=True)}")
    return "".join(line + "\n" for line in lines)


def report_to_json(report: CheckReport) -> str:
    payload = {
        "suite": report.suite,
        "instances": report.instances,
        "passes": report.passes,
        "proved_failures": len(report.proved_failures),
        "discrepancies": [_discrepancy_record(d) for d in report.discrepancies],
        "runtime_seconds": round(report.runtime_seconds, 3),
        "details": _jsonable(report.details),
    }
    return json.dumps(payload, indent=2) + "\n"
