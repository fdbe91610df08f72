"""Smoke test of the benchmark itself, at the tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit_and_nothing_fails(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0 and out.stdout == ""


def test_twin_mismatches_are_counted(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads
    from domindex import _pykern, backend

    wl = workloads.ProfileScan("tiny", 0, None, str(ROOT))
    wl.make_inputs()
    twin = types.SimpleNamespace(**{f: getattr(_pykern, f) for f in ("solve_dd", "scan_minimal_ds")},
                                 scan_irredundance=lambda closed: (0, 0))
    monkeypatch.setattr(backend, "available_backends", lambda: {"python": _pykern, "compiled": _pykern})
    assert run.twin_mismatches(wl) == 0
    monkeypatch.setattr(backend, "available_backends", lambda: {"python": _pykern, "compiled": twin})
    assert run.twin_mismatches(wl) == len(wl.pool)


def test_quantile_matches_statistics_on_unit_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import statistics

    import run

    xs = [0.5, 3.0, 1.5, 2.0, 9.0, 0.25, 4.0]
    assert run.quantile([(x, 1) for x in xs], 0.5) == statistics.median(xs)
    assert run.quantile([(x, 1) for x in xs], 0.75) == statistics.quantiles(xs, n=4)[2]
    assert run.quantile([(1.0, 3), (2.0, 5)], 0.75) == statistics.quantiles([1.0] * 3 + [2.0] * 5, n=4)[2]
