"""The traced benchmark run wraps functions by (module, attribute) name; a
rename in the package must not leave one of those names dangling."""

import importlib
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_span_target_resolves(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(BENCH_DIR)
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module, attr, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
