"""domindex benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload profile-scan --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all             # every workload in turn
    python3 perfbench/run.py --record                   # rewrite perfbench/expected.json

Each run measures passes over the workload's inputs, single
process and single thread, closed loop (one op at a time, each issued
when the previous one returns). The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance (backend and why, Python, nproc, seed,
commit), the failed ratio and, untraced, the throughput in seconds. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same ops untraced and then traced, and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 7
PROBE_REPEATS = 7
SLICE_S = 0.1
WARMUP_S = 2.0


_CAL_MASKS = [random.Random(f"cal:{i}").getrandbits(22) | (1 << i) for i in range(22)]


def calibrate() -> float:
    """Seconds taken by a fixed bitmask search written here, never in domindex.

    CPU speed on a shared machine drifts by tens of percent over seconds.
    Each op's time is divided by the time of this routine, run next to it,
    so the reported costs are in calibration units (cu) and steady across
    runs. The routine mixes the operations the kernels spend their time on:
    recursion, big-int bit operations, ``bit_count`` and ``sorted``.
    """
    full = (1 << 22) - 1

    def rec(last, cover, depth):
        if depth == 0:
            return
        unc = full & ~cover
        sorted(((c & unc).bit_count() for c in _CAL_MASKS), reverse=True)
        for x in range(last + 1, min(last + 5, 22)):
            rec(x, cover | _CAL_MASKS[x], depth - 1)

    t0 = time.perf_counter()
    rec(-1, 0, 4)
    return time.perf_counter() - t0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Recorder:
    """Per-op latencies (seconds and calibration units), work units and failures.

    ``unit_costs`` holds (cost per work unit, units) per op: an op's cost
    divided evenly among its units (a profile, a query or a pipe is one
    unit; a suite run has one per check), so percentiles are per work unit.

    An op's cost in calibration units is its time divided by the mean of
    the calibration times measured just before and just after it. Ops
    longer than ``SLICE_S`` are cut into slices by a timer signal; each
    slice is calibrated at its ends, so drift during a long op is followed.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.costs: list[float] = []
        self.unit_costs: list[tuple[float, int]] = []
        self.units = 0
        self.wall = 0.0  # time inside ops, calibration slices included
        self.attempted = 0
        self.failed = 0
        self.cal = 0.0  # the latest calibration time, the next slice's "before"

    def _tick(self, *_):
        now = time.perf_counter()
        cal = calibrate()
        self._secs += now - self._t
        self._cost += 2 * (now - self._t) / (self.cal + cal)
        self.cal = cal
        self._t = time.perf_counter()

    def timed(self, call):
        """``call()`` with its (result, seconds, cost in cu); calibration time excluded."""
        self.cal = self.cal or calibrate()
        self._secs = self._cost = 0.0
        old = signal.signal(signal.SIGALRM, self._tick)
        self._t = t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
        try:
            out = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.wall += time.perf_counter() - t0
            signal.signal(signal.SIGALRM, old)
            self._tick()
        return out, self._secs, self._cost

    def run(self, ops):
        for call, check in ops:
            self.attempted += 1
            try:
                out, secs, cost = self.timed(call)
                ok, units = check(out)
            except Exception:
                traceback.print_exc()
                ok = False
            if ok:
                self.latencies.append(secs)
                self.costs.append(cost)
                self.unit_costs.append((cost / units, units))
                self.units += units
            else:
                self.failed += 1


def _direct(name, fn, *args):
    return fn(*args)


def warm_up(wl, rec: Recorder) -> None:
    """Repeat the first op for ``WARMUP_S``: the first seconds of a process run slow."""
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < WARMUP_S:
        rec.run([next(iter(wl.ops(0, _direct)))])


def run_for(wl, rec: Recorder, seconds: float) -> int:
    """Run ops pass after pass for ``seconds``; returns the number of ops.

    Workloads with ``whole_passes`` stop only between passes, and only
    when the next pass is expected to overrun.
    """
    t0 = time.perf_counter()
    k = 0
    while True:
        for op in wl.ops(k, _direct):
            rec.run([op])
            if not wl.whole_passes and time.perf_counter() - t0 >= seconds:
                return rec.attempted
        k += 1
        spent = time.perf_counter() - t0
        if wl.whole_passes and spent + spent / k > seconds:
            return rec.attempted


def import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter, measured inside it."""
    code = (f"import sys,time;sys.path.insert(0,{str(SRC)!r});t=time.perf_counter();"
            f"import {module};print(time.perf_counter()-t)")
    return float(subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                                capture_output=True, text=True, cwd=ROOT).stdout)


def start_seconds() -> float:
    """Wall time of a bare interpreter start, ``python -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60, cwd=ROOT)
    return time.perf_counter() - t0


def setup_seconds(wl) -> float:
    """Median over repeats of (import in a fresh interpreter + input generation)."""
    totals = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(wl.module)
        t0 = time.perf_counter()
        wl.make_inputs()
        totals.append(imported + time.perf_counter() - t0)
    return statistics.median(totals)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def quantile(samples: list[tuple[float, int]], q: float) -> float:
    """``statistics.quantiles``' default method at ``q``, on (value, count) samples."""
    ranked = sorted(samples)
    n = sum(c for _, c in ranked)
    if n < 2:
        return ranked[0][0] if ranked else 0.0

    def nth(i):  # the i-th smallest value, 1-based
        for value, count in ranked:
            if i <= count:
                return value
            i -= count

    pos = q * (n + 1)
    j = min(max(int(pos), 1), n - 1)
    return nth(j) + (nth(j + 1) - nth(j)) * (pos - j)


def end_to_end(rec: Recorder, setup_s: float) -> dict:
    return {
        "throughput_per_kcu": (_ratio(1000 * rec.units, sum(rec.costs)), "1/kcu"),
        "latency_p50_cu": (quantile(rec.unit_costs, 0.5), "cu"),
        "latency_p75_cu": (quantile(rec.unit_costs, 0.75), "cu"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def raw_timings(rec: Recorder) -> dict:
    """Seconds, for reading: throughput and the length of a cu in this run.

    Both drift with the machine; a cost in cu times ``ms_per_cu`` is ms.
    """
    return {
        "throughput_per_s": _ratio(rec.units, sum(rec.latencies)),
        "ms_per_cu": _ratio(1000 * sum(rec.latencies), sum(rec.costs)),
        "ops": len(rec.latencies),
    }


def traced(wl, seconds: float) -> tuple[dict, int, int, int]:
    import tracing

    base = Recorder()
    n_ops = run_for(wl, base, seconds / 2)
    tracer = tracing.Tracer()
    rec = Recorder()
    k = 0
    while rec.attempted < n_ops:  # the same ops again, traced
        ops = list(wl.ops(k, tracer.span))[:n_ops - rec.attempted]  # built outside the trace
        with tracer.patched():
            rec.run(ops)
        k += 1
    metrics = tracing.layer_metrics(tracer, rec.wall)
    metrics["trace_overhead_ratio"] = (_ratio(sum(rec.costs), sum(base.costs)), "ratio")
    start = statistics.median(start_seconds() for _ in range(PROBE_REPEATS))
    imported = statistics.median(import_seconds("domindex.cli") for _ in range(PROBE_REPEATS))
    metrics["cli.interpreter_start_ms"] = (1000 * start, "ms")
    metrics["cli.import_ms"] = (1000 * imported, "ms")
    return metrics, n_ops, base.attempted + rec.attempted, base.failed + rec.failed


def provenance(args, wl, ops: int) -> dict:
    from domindex import backend

    env = os.environ.get("DOMINDEX_BACKEND", "auto").strip().lower()
    compiled = "compiled" in backend.available_backends()
    if env not in ("", "auto"):
        reason = f"DOMINDEX_BACKEND={env} override"
    elif not compiled:
        reason = "compiled extension missing"
    else:
        reason = "compiled extension imported"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "domindex").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "ops": ops,
        "backend": backend.backend_name(), "backend_reason": reason,
        "width_over_64": wl.max_n() > 64,
        "twins_compared": compiled,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": commit, "src_sha256": src.hexdigest(),
    }


def twin_mismatches(wl) -> int:
    """Kernel outputs that differ between the compiled and pure-Python twins."""
    from domindex import backend

    kerns = backend.available_backends()
    if "compiled" not in kerns or not hasattr(wl, "graphs"):
        return 0
    c, py = kerns["compiled"], kerns["python"]
    bad = 0
    for g, _, _ in wl.graphs(0):
        closed = list(g.closed_adj)
        calls = [("solve_dd", (closed, v, 1, g.n)) for v in (-1, 0)]
        if g.n <= 16:
            calls += [("scan_minimal_ds", (closed,)), ("scan_irredundance", (closed,))]
        bad += sum(getattr(c, f)(*a) != getattr(py, f)(*a) for f, a in calls)
    return bad


def run_one(args) -> int:
    import workloads

    refs = json.loads(EXPECTED.read_text())[args.scale]
    wl = workloads.WORKLOADS[args.workload](args.scale, args.seed, refs.get(args.workload), str(ROOT))
    setup_s = setup_seconds(wl)
    warm = Recorder()
    warm_up(wl, warm)
    info = {}
    if args.trace:
        metrics, ops, attempted, failed = traced(wl, args.seconds)
    else:
        rec = Recorder()
        ops = run_for(wl, rec, args.seconds)
        metrics = end_to_end(rec, setup_s)
        attempted, failed = rec.attempted, rec.failed
        info["raw"] = raw_timings(rec)
    twins = twin_mismatches(wl)
    attempted += warm.attempted + twins
    failed += warm.failed + twins
    info["failed_ratio"] = failed / attempted
    print(json.dumps({"provenance": provenance(args, wl, ops), **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    import workloads

    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT).stdout
        result = json.loads(out.splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
    return 0


def record(args) -> int:
    import workloads

    refs = {}
    for scale in ("full", "tiny"):
        refs[scale] = {}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(scale, workloads.DEFAULT_SEED, None, str(ROOT))
            wl.make_inputs()
            refs[scale][name] = wl.record()
    EXPECTED.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the smoke test")
    ap.add_argument("--record", action="store_true", help="rewrite the recorded reference values")
    args = ap.parse_args(argv)
    if not (SRC / "domindex" / "__init__.py").is_file():
        print(f"perfbench: no domindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import domindex

    if Path(domindex.__file__).resolve().parent != (SRC / "domindex").resolve():
        print(f"perfbench: imported domindex from {domindex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record(args)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
