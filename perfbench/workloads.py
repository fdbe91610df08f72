"""The four benchmark workloads: their inputs, their ops and output checks.

Graph pools are fixed (built from ``POOL_SEED`` by this file's own RNG,
never by ``domindex.verify.random_graph``), so a change to the program
cannot change the inputs. ``--seed`` picks a fresh random vertex
relabelling of every pool graph on every pass: the work per pass stays
the same from seed to seed, while the ids the searches see (and so their
search order and witnesses) change. Degrees, gamma, upper gamma, ir, IR
and the index are invariant under relabelling, so every op of every seed
is checked against the recorded values of its pool graph; witnesses are
checked against recorded digests for the default seed.

An op is one call the timed loop measures; ``ops(k, span)`` returns the
ops of pass ``k`` as ``(call, check)`` pairs, where ``check(result)``
returns ``(ok, work_units)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys

from domindex import cli, engine, verify
from domindex.graph import new_graph

POOL_SEED = "domindex-perfbench-pool-1"
DEFAULT_SEED = 0


def rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()[:16]


# -- independent bitmask checks -------------------------------------------

def closed_masks(n: int, edges) -> list[int]:
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return closed


def _members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cover(closed, mask: int) -> int:
    out = 0
    for a in _members(mask):
        out |= closed[a]
    return out


def is_minimal_dominating_with(closed, mask: int, v: int) -> bool:
    """``mask`` contains ``v``, dominates, and every member has a private neighbour."""
    if not (mask >> v) & 1 or _cover(closed, mask) != (1 << len(closed)) - 1:
        return False
    return all(closed[a] & ~_cover(closed, mask & ~(1 << a)) for a in _members(mask))


def gamma_lower_bound(closed) -> int:
    return math.ceil(len(closed) / max(c.bit_count() for c in closed))


# -- graph pools ------------------------------------------------------------

def _gnp(n, p, r):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if r.random() < p]


def _gnm(n, m, r):
    return sorted(r.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m))


class Workload:
    module = "domindex"  # what set-up imports
    whole_passes = False  # stop a run only between passes

    def __init__(self, scale: str, seed: int, ref: dict | None, root: str):
        self.scale, self.seed, self.ref, self.root = scale, seed, ref, root


class PoolWorkload(Workload):
    """A fixed pool of base graphs, relabelled by the seed on every pass."""

    def make_inputs(self):
        self.pool = self.build_pool()
        self.graphs(0)

    def max_n(self) -> int:
        return max(n for n, _ in self.pool)

    def relabel(self, k: int, i: int, copy: int = 0):
        """Pool graph ``i`` under the random relabelling of (seed, pass ``k``, ``copy``):
        (graph, closed masks, perm), where base vertex u gets id perm[u]."""
        n, edges = self.pool[i]
        perm = list(range(n))
        rng(self.seed, k, i, copy).shuffle(perm)
        rel = [(perm[u], perm[v]) for u, v in edges]
        return new_graph(n, rel), closed_masks(n, rel), perm

    def graphs(self, k: int):
        return [self.relabel(k, i) for i in range(len(self.pool))]

    def digest_due(self, k: int) -> bool:
        return k == 0 and self.seed == DEFAULT_SEED and self.ref is not None


class ProfileScan(PoolWorkload):
    name = "profile-scan"
    # (n, edge probability) per slot, two graphs each. The sizes are
    # weighted so the median and the 75th percentile fall well inside the
    # n=17 and n=18 groups, not near a boundary between two sizes, and heavy
    # and light slots alternate so a run that ends inside a pass keeps the mix.
    SLOTS = {
        "full": [(18, .2), (13, .2), (17, .35), (14, .35), (18, .35), (15, .5),
                 (17, .5), (16, .2), (18, .5), (17, .2), (18, .35)],
        "tiny": [(7, .3), (8, .4), (9, .3)],
    }

    def build_pool(self):
        r = rng(POOL_SEED, self.name, self.scale)
        return [(n, _gnp(n, p, r)) for _ in range(2) for n, p in self.SLOTS[self.scale]]

    def record(self):
        inv = []
        for n, edges in self.pool:
            p = engine.domination_profile(new_graph(n, edges))
            inv.append([list(p.degrees), p.gamma, p.upper_gamma, p.ir, p.upper_ir, p.index])
        return {"invariants": inv, "digests": [digest(_profile_key(engine.domination_profile(g)))
                                               for g, _, _ in self.graphs(0)]}

    def ops(self, k, span):
        digests = self.digest_due(k)
        for i, (g, closed, perm) in enumerate(self.graphs(k)):
            yield (lambda g=g: engine.domination_profile(g)), \
                (lambda p, i=i, closed=closed, perm=perm: (self._check(i, closed, perm, p, digests), 1))

    def _check(self, i, closed, perm, p, digests):
        ok = (
            all(is_minimal_dominating_with(closed, p.witnesses[v].bits, v)
                and p.witnesses[v].bits.bit_count() == d
                and p.gamma <= d <= p.upper_gamma
                for v, d in enumerate(p.degrees))
            and gamma_lower_bound(closed) <= p.gamma
            and p.ir <= p.gamma <= p.upper_gamma <= p.upper_ir
            and p.index == sum(p.degrees)
        )
        if self.ref is not None:
            degs, gamma, upper, ir, upper_ir, index = self.ref["invariants"][i]
            ok = ok and [p.degrees[perm[u]] for u in range(len(perm))] == degs \
                and [p.gamma, p.upper_gamma, p.ir, p.upper_ir, p.index] == [gamma, upper, ir, upper_ir, index]
            if digests:
                ok = ok and digest(_profile_key(p)) == self.ref["digests"][i]
        return ok


def _profile_key(p):
    return [list(p.degrees), [w.bits for w in p.witnesses], p.gamma, p.upper_gamma,
            p.ir, p.upper_ir, p.index]


class DegreeSearch(PoolWorkload):
    name = "degree-search"
    # (n, edges): sparse graphs beyond the reach of the pure-Python subset
    # scans. The search time of one graph varies by about 30% from one
    # relabelling to the next, so a run needs many graphs of similar cost:
    # edges grow with n to keep the larger graphs from dominating, and
    # n stops at 23 because n = 24 varies more than a run can average.
    SLOTS = {
        "full": [(n, m) for _ in range(12) for n, m in ((20, 50), (21, 54), (22, 59), (23, 64))],
        "tiny": [(10, 14), (11, 16)],
    }

    def build_pool(self):
        r = rng(POOL_SEED, self.name, self.scale)
        return [(n, _gnm(n, m, r)) for n, m in self.SLOTS[self.scale]]

    # Every vertex of every pool graph is queried once per pass, on one of
    # COPIES relabelled copies of its graph (vertex u on copy u % COPIES).
    # Queries on one copy share one graph object, as a caller asking for
    # every vertex of a graph would; the copies multiply the relabellings a
    # run averages over.
    COPIES = 4

    def queries(self, k: int):
        """Pass ``k`` as (pool index, base vertex u, graph, closed masks, id of u)."""
        for i, (n, _) in enumerate(self.pool):
            for c in range(self.COPIES):
                g, closed, perm = self.relabel(k, i, c)
                for u in range(c, n, self.COPIES):
                    yield i, u, g, closed, perm[u]

    def record(self):
        degs = []
        for n, edges in self.pool:
            g = new_graph(n, edges)
            degs.append([engine.domination_degree_witness(g, v)[0] for v in range(n)])
        hits = [[] for _ in self.pool]
        for i, _, g, _, v in self.queries(0):
            dd, w = engine.domination_degree_witness(g, v)
            hits[i].append([dd, w.bits])
        return {"degrees": degs, "digests": [digest(h) for h in hits]}

    def ops(self, k, span):
        digests = self.digest_due(k)
        seen = [[] for _ in self.pool]
        for i, u, g, closed, v in self.queries(k):
            yield (lambda g=g, v=v: engine.domination_degree_witness(g, v)), \
                (lambda hit, i=i, u=u, v=v, closed=closed:
                 (self._check(i, u, v, closed, seen[i], hit, digests), 1))

    def _check(self, i, u, v, closed, seen, hit, digests):
        dd, witness = hit
        ok = (witness.bits.bit_count() == dd
              and is_minimal_dominating_with(closed, witness.bits, v)
              and gamma_lower_bound(closed) <= dd)
        if self.ref is not None:
            ref = self.ref["degrees"][i]
            ok = ok and dd == ref[u] and min(ref) <= dd
            seen.append([dd, witness.bits])
            if digests and len(seen) == len(closed):
                ok = ok and digest(seen) == self.ref["digests"][i]
        return ok


class VerifyReplay(Workload):
    name = "verify-replay"
    whole_passes = True  # suites differ in checks per second; keep their mix fixed
    # Suite order and limits are fixed here, not taken from the program.
    LIMITS = {
        "full": {"definitional": 5, "inequalities": 6, "monotonicity": 5},
        "tiny": {"definitional": 4, "inequalities": 4, "monotonicity": 4, "paths-resolution": 8},
    }
    SUITES = ("definitional", "inequalities", "families", "paths-resolution", "operations",
              "monotonicity", "products-ordering", "named-graphs")

    def make_inputs(self):
        top = self.LIMITS[self.scale]
        self.limits = {s: verify.Limits(max_n=top.get(s)) for s in self.SUITES}

    def max_n(self) -> int:
        return engine.DEFAULT_EXACT_CAP

    def record(self):
        return {s: [r.instances, r.passes]
                for s in self.SUITES for r in [verify.run_suite(s, self.limits[s])]}

    def ops(self, k, span):
        for s in self.SUITES:
            yield (lambda s=s: verify.run_suite(s, self.limits[s])), \
                (lambda r, s=s: (self._check(s, r), r.instances))

    def _check(self, suite, report):
        ok = report.suite == suite and not report.proved_failures and report.instances > 0
        if self.ref is not None:
            ok = ok and [report.instances, report.passes] == self.ref[suite]
        return ok


class CliPipe(Workload):
    """``domindex generate F | domindex analyze`` through ``cli.main``.

    Both commands run in this process, generate's stdout fed to analyze's
    stdin. Run as two child processes on a shared 2-vCPU machine, the
    pipe's time followed the load on the other CPU, which the calibration
    in this process cannot see, and spread by up to 19% between runs.
    Interpreter start and the import of ``domindex.cli`` are measured
    instead by ``setup_s`` and the traced run's probes.
    """

    name = "cli-pipe"
    module = "domindex.cli"
    whole_passes = True  # families differ in cost; keep their mix fixed
    # An odd count of families keeps the median on one family's pipes.
    FAMILIES = {
        "full": ["petersen", "grotzsch", "herschel", "cycle:12", "cycle:16", "wheel:10",
                 "path:14", "book:4", "multipartite:2,3,4", "kragujevac:2,2,3", "star:8"],
        "tiny": ["petersen", "cycle:6", "path:5"],
    }

    def make_inputs(self):
        self.families = list(self.FAMILIES[self.scale])

    def max_n(self) -> int:
        return engine.DEFAULT_EXACT_CAP

    def record(self):
        return {f: hashlib.sha256(self._pipe(f, lambda name, fn, *a: fn(*a))[2]).hexdigest()
                for f in self.families}

    def ops(self, k, span):
        for f in self.families:
            yield (lambda f=f: self._pipe(f, span)), (lambda out, f=f: (self._check(f, out), 1))

    def _check(self, family, out):
        rc_gen, rc_ana, stdout = out
        ok = rc_gen == 0 and rc_ana == 0 and stdout.startswith(b"{")
        if self.ref is not None:
            ok = ok and hashlib.sha256(stdout).hexdigest() == self.ref[family]
        return ok

    def _pipe(self, family, span):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            rc_gen = span("cli.generate", cli.main, ["generate", family])
        report = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text.getvalue())
        try:
            with contextlib.redirect_stdout(report):
                rc_ana = span("cli.analyze", cli.main, ["analyze"])
        finally:
            sys.stdin = stdin
        return rc_gen, rc_ana, report.getvalue().encode()


WORKLOADS = {w.name: w for w in (ProfileScan, DegreeSearch, VerifyReplay, CliPipe)}
