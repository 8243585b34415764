"""parsvd benchmark: one workload in a closed loop, one client, one process.

    python3 perfbench/run.py --workload svd-gaussian --seed 1 --seconds 20 --trace 0

Run from the repository root. The untraced run (``--trace 0``) prints the
end-to-end metrics; the traced run (``--trace 1``) first repeats the
untraced loop for half the time, then installs span wrappers and runs the
same operations again for the other half, and prints the per-layer
metrics. Every operation's output is checked. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result and the span file go to ``.bench_out/``.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_OPS = 20  # op_tail_ms needs more than 10 operations
TAIL_CAP = 95  # op_tail_ms percentile at most; see tail_percentile
SETUP_PROBES = 15

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Phase:
    """Operations of one closed-loop phase, in the order they ran."""

    label: list = field(default_factory=list)
    k: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    failure: list = field(default_factory=list)  # None, exception type, or "check:<name>"
    cycle_sizes: list = field(default_factory=list)
    rss_after_inputs: int = 0


def run_phase(workload: str, seed: int, smallest: bool, seconds: float, signatures: dict,
              mismatches: list, tracer=None) -> Phase:
    """Run whole cycles until ``seconds`` of operation time and MIN_OPS
    operations are reached.

    The timed phase is the sum of the operations' wall times; input
    generation, checks and yardsticks run between operations, outside it.
    Each operation's failure and deterministic counts are compared with
    any earlier run of the same input (cycle, position).
    """
    import workloads
    from parsvd.errors import ParsvdError
    from tracing import rss_bytes

    ph = Phase()
    while not ph.cycle_sizes or sum(ph.seconds) < seconds or len(ph.seconds) < MIN_OPS:
        c = len(ph.cycle_sizes)
        cycle = workloads.build(workload, seed, c, smallest)
        if c == 0:
            ph.rss_after_inputs = rss_bytes()
        for i, op in enumerate(cycle):
            if tracer is not None:
                tracer.begin(len(ph.seconds))
            out, failure = None, None
            t0 = time.perf_counter()
            try:
                out = op.call()
            except ParsvdError as exc:
                failure = type(exc).__name__
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.run_yardsticks(len(ph.seconds), tracer.end())
            if failure is None:
                bad = op.check(out)
                failure = f"check:{bad}" if bad else None
            sig = (failure, None if out is None else op.signature(out))
            if signatures.setdefault((c, i), sig) != sig:
                mismatches.append(f"{op.label} (cycle {c}, position {i})")
            del out
            ph.label.append(op.label)
            ph.k.append(op.k)
            ph.seconds.append(dt)
            ph.failure.append(failure)
        ph.cycle_sizes.append(len(cycle))
    return ph


def warm_up(workload: str, seed: int):
    """One untimed, unchecked cycle of the smallest inputs, so that lazy
    imports and first-call set-up finish before timing."""
    import workloads
    from parsvd.errors import ParsvdError

    for op in workloads.build(workload, seed, 0, smallest=True):
        try:
            op.call()
        except ParsvdError:
            pass


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics. Several neighbours share the weight, so the jitter
    of one operation moves it less than it moves a single order statistic."""
    import numpy as np
    from scipy.special import betainc  # the Beta distribution's CDF

    x = np.sort(np.asarray(values))
    n = x.size
    w = np.diff(betainc((n + 1) * p, (n + 1) * (1.0 - p), np.linspace(0.0, 1.0, n + 1)))
    return float(w @ x)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 of n operations above
    it, capped at TAIL_CAP.

    Without the cap a run of 1000 operations would report p99, which on a
    shared host measures how often the host stalls the process rather than
    the slowest operations; the cap also keeps the percentile from rising
    when a faster program fits more operations into the run.
    """
    return min(TAIL_CAP, int(100 - 1000 / n))


def cycle_median(ph: Phase) -> float:
    """Median over cycles of each cycle's (Harrell-Davis) median operation
    time.

    The median of a mixed-size cycle can fall between two input sizes;
    taking it per cycle first keeps one slow operation from moving it
    across that gap.
    """
    medians, start = [], 0
    for size in ph.cycle_sizes:
        medians.append(hd_quantile(ph.seconds[start:start + size], 0.5))
        start += size
    return statistics.median(medians)


def failure_table(phases) -> dict:
    """Failures per input class and failure type, with attempts per class."""
    table: dict = {}
    for ph in phases:
        for label, failure in zip(ph.label, ph.failure):
            row = table.setdefault(label, {"attempted": 0})
            row["attempted"] += 1
            if failure is not None:
                row[failure] = row.get(failure, 0) + 1
    return table


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, probe, workload], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library reports, asked through ctypes."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getattr(handle, sym).restype = ctypes.c_int
                found[os.path.basename(lib)] = getattr(handle, sym)()
                break
    return found


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if it has one)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smallest: bool = False) -> dict:
    """Run one workload, print its report and result line, return the result."""
    from tracing import PER_LAYER, Tracer, layer_metrics

    env = environment(seed)
    signatures: dict = {}
    mismatches: list = []
    problems: list = []
    if any(n != 1 for n in env["blas_threads"].values()):
        problems.append(f"BLAS is not single-threaded: {env['blas_threads']}")

    warm_up(workload, seed)
    if not trace:
        ph = run_phase(workload, seed, smallest, seconds, signatures, mismatches)
        phases = [ph]
        n = len(ph.seconds)
        pct = tail_percentile(n)
        failed = sum(f is not None for f in ph.failure)
        values = {
            "op_p50_ms": 1e3 * cycle_median(ph),
            "op_tail_ms": 1e3 * hd_quantile(ph.seconds, pct / 100),
            "ops_per_s": n / sum(ph.seconds),
            "ok_rate": (n - failed) / n,
            "setup_s": setup_seconds(workload),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = {
            "op_tail_ms": f"p{pct} of {n} operations, "
                          f"{sum(t > values['op_tail_ms'] / 1e3 for t in ph.seconds)} above it",
            "ok_rate": f"fail_rate {failed}/{n} = {failed / n:.6f}",
            "peak_rss_mb": f"RSS after input generation {ph.rss_after_inputs / 2**20:.1f} MB",
            "ops_per_s": f"{n} operations in {sum(ph.seconds):.3f} s of operation time, "
                         f"{len(ph.cycle_sizes)} cycles",
        }
    else:
        plain = run_phase(workload, seed, smallest, seconds / 2, signatures, mismatches)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, seed, smallest, seconds / 2, signatures, mismatches, tracer)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        common = min(len(plain.seconds), len(traced.seconds))
        overhead = sum(traced.seconds[:common]) / sum(plain.seconds[:common]) - 1.0
        first = range(traced.cycle_sizes[0])
        failed_first = sum(f is not None for f in traced.failure[: len(first)])
        values, notes = layer_metrics(tracer, traced.k, first, failed_first, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        notes["spans.overhead"] = f"over the first {common} operations of each half"
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))

    attempted = sum(len(ph.seconds) for ph in phases)
    failed = sum(f is not None for ph in phases for f in ph.failure)
    failures = failure_table(phases)
    wrong = sorted(
        f"{label}: {kind}" for label, row in failures.items() for kind in row
        if kind.startswith("check:")
    )
    if wrong:
        problems.append(f"outputs failed their checks: {wrong}")
    if mismatches:
        problems.append(f"deterministic counts differ between repeats: {mismatches[:5]}")
    correct = not problems

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} = {value} {m['unit']}{note}")
    for label, row in failures.items():
        if len(row) > 1:
            print(f"failures {label}: " + ", ".join(f"{k} {v}" for k, v in row.items()))
    for p in problems:
        print(f"INCORRECT: {p}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump({**result, "env": env, "notes": notes, "failures": failures,
                   "problems": problems}, f, indent=1)
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "parsvd", "__init__.py")):
        print(f"error: no parsvd sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import parsvd
    import workloads

    if not os.path.abspath(parsvd.__file__).startswith(SRC + os.sep):
        print(f"error: imported parsvd from {parsvd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads.WORKLOADS)}")
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
