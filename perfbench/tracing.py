"""Per-layer tracing by wrapping domindex functions from outside.

``Tracer.patched()`` replaces each traced function with a timing wrapper
in every loaded ``domindex`` module namespace that binds it (modules
import functions by name, so patching only the defining module would
miss those callers) and restores the originals on exit. Nothing under
``src/`` is edited.

Every wrapped call becomes a span: its inclusive time, its self time
(inclusive time minus the time of wrapped calls made inside it) and the
time of each wrapped child, keyed by (parent, child) name.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

from workloads import VerifyReplay

LAYERS = ("kernel", "backend", "engine", "graph", "verify", "ops", "formats", "families", "cli")

# (module, attribute, span name); kernel twins are added at patch time.
TARGETS = (
    ("domindex.backend", "kernels_for", "backend.kernels_for"),
    ("domindex.engine", "domination_degree_witness", "engine.domination_degree_witness"),
    ("domindex.engine", "domination_profile", "engine.domination_profile"),
    ("domindex.engine", "domination_number", "engine.domination_number"),
    ("domindex.engine", "dd_vector_oracle", "engine.dd_vector_oracle"),
    ("domindex.engine", "upper_domination_number", "engine.upper_domination_number"),
    ("domindex.engine", "irredundance_numbers", "engine.irredundance_numbers"),
    ("domindex.graph", "new_graph", "graph.new_graph"),
    ("domindex.graph", "wiener_index", "graph.wiener_index"),
    ("domindex.verify", "describe", "verify.describe"),
    ("domindex.verify", "run_suite", None),  # named verify.<suite> per call
    ("domindex.ops", "product", "ops.product"),
    ("domindex.formats", "parse_edgelist", "formats.parse_edgelist"),
    ("domindex.formats", "build_report", "formats.build_report"),
    ("domindex.formats", "emit_report_json", "formats.emit_report_json"),
    ("domindex.formats", "emit_edgelist", "formats.emit_edgelist"),
    ("domindex.families", "generate", "families.generate"),
)
KERNEL_FUNCS = ("solve_dd", "scan_minimal_ds", "scan_irredundance")


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child time]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as a span called ``name``."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                parent = self._stack[-1]
                parent[1] += dt
                self.edges[(parent[0], name)] += dt
            s = self.spans[name]
            s.calls += 1
            s.total += dt
            s.self_time += dt - frame[1]

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            t0 = time.perf_counter()
            out = self.span(span, fn, *args, **kwargs)
            if after is not None:
                after(args, out, time.perf_counter() - t0)
            return out

        return wrapper

    def _after_solve_dd(self, args, out, dt):
        closed, v, k_lo, k_hi = args
        start = max(k_lo, 1 if v >= 0 else 0)
        self.counts["solve_dd.stages"] += (out[0] if out is not None else k_hi) - start + 1
        if v < 0:
            self.counts["solve_dd.gamma_s"] += dt

    def _after_scan(self, kind):
        def after(args, out, dt):
            self.counts[f"{kind}.subsets"] += 1 << len(args[0])
            if kind == "scan_minimal_ds":
                self.counts["scan_minimal_ds.found"] += len(out)

        return after

    def _after_suite(self, args, out, dt):
        self.counts[f"verify.{out.suite}.instances"] += out.instances

    @contextlib.contextmanager
    def patched(self):
        from domindex import backend

        plan = []
        for mod, attr, name in TARGETS:
            fn = getattr(sys.modules[mod], attr)
            if name is None:
                plan.append((fn, self._wrap(_suite_span, fn, self._after_suite)))
            else:
                plan.append((fn, self._wrap(name, fn)))
        for kern in {id(k): k for k in backend.available_backends().values()}.values():
            for attr in KERNEL_FUNCS:
                fn = getattr(kern, attr)
                after = self._after_solve_dd if attr == "solve_dd" else self._after_scan(attr)
                plan.append((fn, self._wrap(f"kernel.{attr}", fn, after)))
        undo = []
        for fn, wrapper in plan:
            for mname, mod in list(sys.modules.items()):
                if mname != "domindex" and not mname.startswith("domindex."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)


def _suite_span(args, kwargs):
    return "verify." + (args[0] if args else kwargs["suite"])


# Span name -> extra metrics beyond .calls and .share: "rate" adds
# .calls_per_s (calls per second spent inside), "self" adds .self_share.
FUNCS = {
    "kernel.solve_dd": ("rate",),
    "kernel.scan_minimal_ds": (),
    "kernel.scan_irredundance": (),
    "backend.kernels_for": (),
    "engine.domination_degree_witness": ("rate", "self"),
    "engine.domination_profile": ("rate", "self"),
    "engine.domination_number": ("rate",),
    "engine.dd_vector_oracle": (),
    "engine.upper_domination_number": (),
    "engine.irredundance_numbers": (),
    "graph.new_graph": ("rate",),
    "graph.wiener_index": ("rate",),
    "verify.describe": (),
    "ops.product": (),
    "formats.parse_edgelist": (),
    "formats.build_report": (),
    "formats.emit_report_json": (),
    "formats.emit_edgelist": (),
    "families.generate": (),
    "cli.generate": ("rate",),
    "cli.analyze": ("rate",),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer, busy: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Shares are of ``busy``, the traced time inside the workload's ops, so
    a share says how much an op could gain at most from that function.
    """
    out: dict[str, tuple[float, str]] = {}
    for name, extra in FUNCS.items():
        s = t.spans[name]
        out[f"{name}.calls"] = (s.calls, "count")
        out[f"{name}.share"] = (_ratio(s.total, busy), "share")
        if "rate" in extra:
            out[f"{name}.calls_per_s"] = (_ratio(s.calls, s.total), "1/s")
        if "self" in extra:
            out[f"{name}.self_share"] = (_ratio(s.self_time, busy), "share")
    dd = t.spans["kernel.solve_dd"]
    stages = t.counts["solve_dd.stages"]
    out["kernel.solve_dd.stages"] = (stages, "count")
    out["kernel.solve_dd.hit_ratio"] = (_ratio(dd.calls, stages), "ratio")
    out["kernel.solve_dd.gamma_share"] = (_ratio(t.counts["solve_dd.gamma_s"], dd.total), "share")
    subsets = 0.0
    for kind in ("scan_minimal_ds", "scan_irredundance"):
        out[f"kernel.{kind}.subsets"] = (t.counts[f"{kind}.subsets"], "count")
        subsets += t.counts[f"{kind}.subsets"]
    out["kernel.scan_minimal_ds.found_ratio"] = (
        _ratio(t.counts["scan_minimal_ds.found"], t.counts["scan_minimal_ds.subsets"]), "ratio")
    scan_s = t.spans["kernel.scan_minimal_ds"].total + t.spans["kernel.scan_irredundance"].total
    out["kernel.subsets_per_s"] = (_ratio(subsets, scan_s), "1/s")
    witness = "engine.domination_degree_witness"
    out["engine.gamma_share"] = (
        _ratio(t.edges[(witness, "engine.domination_number")], t.spans[witness].total), "share")
    for suite in VerifyReplay.SUITES:
        s = t.spans[f"verify.{suite}"]
        n = t.counts[f"verify.{suite}.instances"]
        out[f"verify.{suite}.instances"] = (n, "count")
        out[f"verify.{suite}.share"] = (_ratio(s.total, busy), "share")
        out[f"verify.{suite}.instances_per_s"] = (_ratio(n, s.total), "1/s")
    for layer in LAYERS:
        own = sum(s.self_time for name, s in t.spans.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_share"] = (_ratio(own, busy), "share")
    return out
