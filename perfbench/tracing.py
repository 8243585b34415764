"""Spans around the calls into each layer, installed from outside the
package, and the per-layer metrics computed from them.

A span wrapper replaces a public function at the name its caller looks it
up by (``parsvd.gram_svd.dc_eigen`` for ``svd_4step``, the names
``mimo_harness`` imported for the harness). Spans are kept in memory as
``[name, start, end, parent, op, info]`` and written out at the end; a
span's self time is its duration minus the durations of its children.
Calls made outside an operation (output checks) are not recorded.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from workloads import SVD_KS

STAGES = ("gram", "tridiagonalize", "dc_eigen", "recover_svd")
SOLVER_SPANS = (
    "gram_svd.svd_4step",
    "gram_svd.gram",
    "gram_svd.tridiagonalize",
    "gram_svd.recover_svd",
    "reference_solvers.qr_fixed_sweeps",
    "reference_solvers.gk_bidiagonalize",
    "reference_solvers.gk_fixed_sweeps",
)
HARNESS_SPANS = ("mimo_harness.mmimo_rate", "mimo_harness.dmimo_capacity")


def _per_layer_spec():
    spec = []
    for stage in STAGES:
        spec += [(f"gram_svd.{stage}.ms.k{k}", "ms", "lower") for k in SVD_KS]
    spec.append(("gram_svd.svd_4step.self_ms", "ms", "lower"))
    for name in (
        "gram_svd.tridiagonalize.x_zhetrd",
        "gram_svd.dc_eigen.x_eigh_tridiagonal",
        "gram_svd.svd_4step.x_numpy_svd",
    ):
        spec += [(f"{name}.k{k}", "ratio", "lower") for k in SVD_KS]
    spec += [
        ("gram_svd.secular_iters", "count", "lower"),
        ("gram_svd.secular_iters_per_root", "iter/root", "lower"),
        ("gram_svd.deflation_ratio", "ratio", "higher"),
        ("gram_svd.interlacing_violations", "count", "lower"),
        ("gram_svd.truncated_dc_eigen.ms", "ms", "lower"),
        ("reference_solvers.qr_fixed_sweeps.ms", "ms", "lower"),
        ("reference_solvers.gk_bidiagonalize.ms", "ms", "lower"),
        ("reference_solvers.gk_fixed_sweeps.ms", "ms", "lower"),
        ("mimo_harness.gen_iid_channel.ms", "ms", "lower"),
        ("mimo_harness.dimension_reduce.ms", "ms", "lower"),
        ("mimo_harness.capacity_logdet.ms", "ms", "lower"),
        ("mimo_harness.achievable_rate.ms", "ms", "lower"),
        ("mimo_harness.self_ms", "ms", "lower"),
        ("mimo_harness.solver_share", "ratio", "higher"),
        ("latency_model.trace_run.us_per_node", "us/node", "lower"),
        ("latency_model.critical_path.us_per_node", "us/node", "lower"),
        ("latency_model.dfg_nodes", "count", "lower"),
        ("latency_model.rss_bytes_per_node", "B/node", "lower"),
        ("latency_model.analytic_latency.ms", "ms", "lower"),
        ("latency_model.total_ops.ms", "ms", "lower"),
        ("latency_model.latency_breakdown.ms", "ms", "lower"),
        ("ops.failed_per_cycle", "count", "lower"),
        ("spans.overhead", "ratio", "lower"),
    ]
    return spec


# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = _per_layer_spec()


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def merge_components(offdiag, lo: int, hi: int) -> int:
    """Rows entering rank-1 merges when dc_eigen splits T[lo:hi].

    Mirrors the split rule of the divide-and-conquer recursion (cut at
    (k + 1) // 2, no merge where the coupling entry is exactly zero).
    """
    k = hi - lo
    if k == 1:
        return 0
    cut = lo + (k + 1) // 2
    n = merge_components(offdiag, lo, cut) + merge_components(offdiag, cut, hi)
    return n + (k if offdiag[cut - 1] != 0.0 else 0)


# ---------------------------------------------------------------------------
# hooks: what a span keeps of its call, computed after the span has ended


def _capture_input(tracer, args, result):
    tracer.captured.append(("svd", args[0]))


def _capture_gram(tracer, args, result):
    tracer.captured.append(("zhetrd", result.mat))


def _capture_tridiagonal(tracer, args, result):
    tracer.captured.append(("eigh_tridiagonal", result[0]))


def _dc_counts(tracer, args, result):
    t = args[0]
    d = result.diagnostics
    return {
        "iters": d.newton_iterations_total,
        "deflations": d.deflation_count,
        "interlacing": d.interlacing_violations,
        "components": merge_components(t.offdiag, 0, t.dim),
    }


def _dfg_nodes(tracer, args, result):
    return {"nodes": len(result)}


def _dfg_arg_nodes(tracer, args, result):
    return {"nodes": len(args[0])}


# (module, attribute, span name, hook, sample RSS around the call)
TARGETS = [
    ("parsvd.gram_svd", "svd_4step", "gram_svd.svd_4step", _capture_input, False),
    ("parsvd.gram_svd", "gram", "gram_svd.gram", _capture_gram, False),
    ("parsvd.gram_svd", "tridiagonalize", "gram_svd.tridiagonalize", _capture_tridiagonal, False),
    ("parsvd.gram_svd", "dc_eigen", "gram_svd.dc_eigen", _dc_counts, False),
    ("parsvd.gram_svd", "truncated_dc_eigen", "gram_svd.truncated_dc_eigen", _dc_counts, False),
    ("parsvd.gram_svd", "recover_svd", "gram_svd.recover_svd", None, False),
    ("parsvd.mimo_harness", "mmimo_rate", "mimo_harness.mmimo_rate", None, False),
    ("parsvd.mimo_harness", "dmimo_capacity", "mimo_harness.dmimo_capacity", None, False),
    ("parsvd.mimo_harness", "gen_iid_channel", "mimo_harness.gen_iid_channel", None, False),
    ("parsvd.mimo_harness", "dimension_reduce", "mimo_harness.dimension_reduce", None, False),
    ("parsvd.mimo_harness", "capacity_logdet", "mimo_harness.capacity_logdet", None, False),
    ("parsvd.mimo_harness", "achievable_rate", "mimo_harness.achievable_rate", None, False),
    ("parsvd.mimo_harness", "svd_4step", "gram_svd.svd_4step", _capture_input, False),
    ("parsvd.mimo_harness", "gram", "gram_svd.gram", _capture_gram, False),
    ("parsvd.mimo_harness", "tridiagonalize", "gram_svd.tridiagonalize", _capture_tridiagonal, False),
    ("parsvd.mimo_harness", "recover_svd", "gram_svd.recover_svd", None, False),
    ("parsvd.mimo_harness", "qr_fixed_sweeps", "reference_solvers.qr_fixed_sweeps", None, False),
    ("parsvd.mimo_harness", "gk_bidiagonalize", "reference_solvers.gk_bidiagonalize", None, False),
    ("parsvd.mimo_harness", "gk_fixed_sweeps", "reference_solvers.gk_fixed_sweeps", None, False),
    ("parsvd.latency_model", "trace_run", "latency_model.trace_run", _dfg_nodes, True),
    ("parsvd.latency_model", "critical_path", "latency_model.critical_path", _dfg_arg_nodes, False),
    ("parsvd.latency_model", "analytic_latency", "latency_model.analytic_latency", None, False),
    ("parsvd.latency_model", "total_ops", "latency_model.total_ops", None, False),
    ("parsvd.latency_model.analytic", "latency_breakdown", "latency_model.latency_breakdown", None, False),
]


class Tracer:
    """In-memory span recorder and the LAPACK yardsticks run beside it."""

    def __init__(self):
        self.spans: list = []
        self.yardsticks: list = []  # [kind, op, seconds]
        self.captured: list = []
        self.op: int | None = None
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name, fn, hook, sample_rss):
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rss = rss_bytes() if sample_rss else 0
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                rec[5] = hook(self, args, result)
            if sample_rss:
                rec[5]["rss"] = rss_bytes() - rss
            return result

        return wrapper

    def install(self):
        for module, attr, name, hook, sample_rss in TARGETS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, hook, sample_rss))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def begin(self, op: int):
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, None, op, None])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self.op = None
        captured, self.captured = self.captured, []
        return captured

    def run_yardsticks(self, op: int, captured):
        """Time LAPACK/numpy on the intermediates one operation produced,
        outside its spans."""
        for kind, data in captured:
            t0 = time.perf_counter()
            if kind == "svd":
                np.linalg.svd(data, full_matrices=False)
            elif kind == "zhetrd":
                lapack.zhetrd(data)
            else:
                scipy.linalg.eigh_tridiagonal(data.diag, data.offdiag)
            self.yardsticks.append([kind, op, time.perf_counter() - t0])

    def write(self, path: str):
        with open(path, "w") as f:
            for name, start, end, parent, op, info in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if info:
                    row["info"] = info
                f.write(json.dumps(row) + "\n")


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, op_k: list, first_cycle: range, failed_first_cycle: int,
                  overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics from a traced phase, and notes to print beside them.

    ``op_k[op]`` is the problem size of operation ``op``; counts are taken
    over ``first_cycle``, the operations of the first cycle, whose inputs
    depend only on the seed.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, info in spans:
        if parent is not None:
            child_time[parent] += end - start

    dur: dict = {}
    dur_k: dict = {}
    self_time: dict = {}
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        d = end - start
        dur.setdefault(name, []).append(d)
        dur_k.setdefault((name, op_k[op]), []).append(d)
        self_time.setdefault(name, []).append(d - child_time[i])

    yard: dict = {}
    for kind, op, seconds in tracer.yardsticks:
        yard.setdefault((kind, op_k[op]), []).append(seconds)

    m: dict = {}
    for stage in STAGES:
        for k in SVD_KS:
            m[f"gram_svd.{stage}.ms.k{k}"] = _median_ms(dur_k.get((f"gram_svd.{stage}", k)))
    m["gram_svd.svd_4step.self_ms"] = _median_ms(self_time.get("gram_svd.svd_4step"))
    for metric, span, kind in (
        ("gram_svd.tridiagonalize.x_zhetrd", "gram_svd.tridiagonalize", "zhetrd"),
        ("gram_svd.dc_eigen.x_eigh_tridiagonal", "gram_svd.dc_eigen", "eigh_tridiagonal"),
        ("gram_svd.svd_4step.x_numpy_svd", "gram_svd.svd_4step", "svd"),
    ):
        for k in SVD_KS:
            ours, ref = dur_k.get((span, k)), yard.get((kind, k))
            m[f"{metric}.k{k}"] = statistics.median(ours) / statistics.median(ref) if ours and ref else 0.0

    dc = [info for name, _, _, _, op, info in spans
          if name in ("gram_svd.dc_eigen", "gram_svd.truncated_dc_eigen") and op in first_cycle and info]
    iters = sum(c["iters"] for c in dc)
    deflations = sum(c["deflations"] for c in dc)
    components = sum(c["components"] for c in dc)
    m["gram_svd.secular_iters"] = iters
    m["gram_svd.secular_iters_per_root"] = iters / (components - deflations) if components > deflations else 0.0
    m["gram_svd.deflation_ratio"] = deflations / components if components else 0.0
    notes = {
        "gram_svd.secular_iters_per_root": f"{iters} iterations / {components - deflations} roots",
        "gram_svd.deflation_ratio": f"{deflations} deflations / {components} merge components",
    }
    m["gram_svd.interlacing_violations"] = sum(c["interlacing"] for c in dc)
    m["gram_svd.truncated_dc_eigen.ms"] = _median_ms(dur.get("gram_svd.truncated_dc_eigen"))

    for name in ("qr_fixed_sweeps", "gk_bidiagonalize", "gk_fixed_sweeps"):
        m[f"reference_solvers.{name}.ms"] = _median_ms(dur.get(f"reference_solvers.{name}"))
    for name in ("gen_iid_channel", "dimension_reduce", "capacity_logdet", "achievable_rate"):
        m[f"mimo_harness.{name}.ms"] = _median_ms(dur.get(f"mimo_harness.{name}"))
    m["mimo_harness.self_ms"] = _median_ms([t for name in HARNESS_SPANS for t in self_time.get(name, [])])
    harness = {i for i, s in enumerate(spans) if s[0] in HARNESS_SPANS}
    solver = sum(s[2] - s[1] for s in spans if s[3] in harness and s[0] in SOLVER_SPANS)
    total = sum(spans[i][2] - spans[i][1] for i in harness)
    m["mimo_harness.solver_share"] = solver / total if total else 0.0

    for name in ("trace_run", "critical_path"):
        per_node = [(s[2] - s[1]) * 1e6 / s[5]["nodes"]
                    for s in spans if s[0] == f"latency_model.{name}" and s[5]["nodes"]]
        m[f"latency_model.{name}.us_per_node"] = statistics.median(per_node) if per_node else 0.0
    traces = [s for s in spans if s[0] == "latency_model.trace_run"]
    m["latency_model.dfg_nodes"] = sum(s[5]["nodes"] for s in traces if s[4] in first_cycle)
    if traces:
        k_max = max(op_k[s[4]] for s in traces)
        big = [s[5] for s in traces if op_k[s[4]] == k_max]
        m["latency_model.rss_bytes_per_node"] = sum(i["rss"] for i in big) / sum(i["nodes"] for i in big)
    else:
        m["latency_model.rss_bytes_per_node"] = 0.0
    for name in ("analytic_latency", "total_ops", "latency_breakdown"):
        m[f"latency_model.{name}.ms"] = _median_ms(dur.get(f"latency_model.{name}"))
    m["ops.failed_per_cycle"] = failed_first_cycle
    m["spans.overhead"] = overhead
    return m, notes
