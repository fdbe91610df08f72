"""The benchmark calls the library by name: its traced run wraps library
and kernel functions, and its workloads build inputs such as
``verify.Limits(max_n=...)``. A rename or deletion would break only
``perfbench/run.py``, so check both here."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    pykern = importlib.import_module("domindex._pykern")
    for attr in tracing.KERNEL_FUNCS:
        assert callable(getattr(pykern, attr, None)), f"domindex._pykern.{attr}"


def test_workloads_pass_zero(monkeypatch):
    # pass 0 of every workload at the tiny scale; with no recorded values
    # each check tests the results against the definitions alone
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, cls in workloads.WORKLOADS.items():
        wl = cls("tiny", workloads.DEFAULT_SEED, None, str(PERFBENCH.parent))
        wl.make_inputs()
        for call, check in wl.ops(0, lambda _span, fn, *args: fn(*args)):
            ok, _ = check(call())
            assert ok, name
