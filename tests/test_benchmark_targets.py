"""The benchmark's traced run wraps library and kernel functions by name;
a rename or deletion would break only ``perfbench/run.py --trace 1``, so
check here that every name it wraps still resolves."""

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
