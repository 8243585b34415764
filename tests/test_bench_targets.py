"""The traced benchmark run wraps functions by (module, attribute) name; a
rename in the package must not leave one of those names dangling. Every
operation of every benchmarked workload must also pass its own output
check, which the benchmark counts as a failed operation otherwise."""

import importlib
import json
import os

import pytest

from parsvd.errors import ParsvdError

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_span_target_resolves(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(BENCH_DIR)
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module, attr, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_blas_is_single_threaded(monkeypatch):
    # conftest pins BLAS before numpy loads it; ask every loaded OpenBLAS,
    # numpy's and scipy's, as the benchmark does
    try:
        import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if it has one)
    except ImportError:
        pass
    monkeypatch.syspath_prepend(BENCH_DIR)
    threads = importlib.import_module("run").blas_threads()
    assert all(n == 1 for n in threads.values()), threads


def test_every_benchmark_check_passes(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    workloads = importlib.import_module("workloads")
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    for name in names:
        ops = workloads.build(name, seed=0, cycle=0, smallest=True)
        assert ops, name
        for op in ops:
            assert op.check(op.call()) is None, f"{name}: {op.label}"


@pytest.mark.parametrize("name", ["svd-gaussian", "svd-deflating", "mimo-budget", "latency-model"])
def test_solver_workloads_pass_at_full_size(monkeypatch, name):
    # the smallest-size check above cannot see a failure that shows only
    # at K = 256; a raised ParsvdError is a failed operation too. Two
    # cycles give two fresh draws of every input family.
    monkeypatch.syspath_prepend(BENCH_DIR)
    workloads = importlib.import_module("workloads")
    for cycle in (0, 1):
        ops = workloads.build(name, seed=0, cycle=cycle, smallest=False)
        assert ops, name
        for op in ops:
            try:
                result = op.call()
            except ParsvdError as exc:
                pytest.fail(f"{name}: {op.label} (K={op.k}, cycle {cycle}) raised {exc!r}")
            assert op.check(result) is None, f"{name}: {op.label} (K={op.k}, cycle {cycle})"


def test_traced_mimo_cycle_passes_one_matrix_per_stage(monkeypatch):
    # the traced run's hooks hand what gram and tridiagonalize return to
    # LAPACK zhetrd and eigh_tridiagonal, which take one matrix; a stacked
    # array that reached a wrapped stage name would fail here
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(BENCH_DIR)
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(workloads.build("mimo-budget", seed=0, cycle=0, smallest=True)):
            tracer.begin(i)
            result = op.call()
            tracer.run_yardsticks(i, tracer.end())
            assert op.check(result) is None, op.label
    finally:
        tracer.uninstall()
    assert {kind for kind, _, _ in tracer.yardsticks} == {"svd", "zhetrd", "eigh_tridiagonal"}
