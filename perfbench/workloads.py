"""The four benchmark workloads: inputs made from a seed, one call per
operation, and the output check of every operation.

A run is a sequence of *cycles*; each cycle is a list of operations with
fresh inputs drawn from (seed, cycle number), so the same seed and cycle
give the same inputs and the same deterministic counts. Calls go through
module attributes
(``gram_svd.svd_4step``, ``mimo_harness.mmimo_rate``, ...) so that the span
wrappers of a traced run, which replace those attributes, see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from parsvd import gram_svd, latency_model, mimo_harness
from parsvd.latency_model import analytic

WORKLOADS = ("svd-gaussian", "svd-deflating", "mimo-budget", "latency-model", "svd-known-defects")

SVD_KS = (32, 64, 128, 256)
SVD_ASPECTS = (2, 8)  # M = 2K and M = 8K; square inputs fail now and then (below)
DEFLATING_DRAWS = 3
DEFLATING_CLASSES = ("one-cluster", "glued")
# Inputs on which the program fails at the commit that defined this
# benchmark (ROADMAP item 2): the secular solver stalls with a
# ConvergenceError, or the `valid` flags claim more accuracy than the Gram
# path has and U orthonormality fails. Square Gaussian matrices do so
# about once in 200 draws, which is why svd-gaussian and the dMIMO panels
# use tall shapes. A benchmarked workload must not fail, so the failing
# spectrum classes form the `svd-known-defects` workload, which is run by
# hand and is not listed in BENCHMARK.json. Classes move back into
# svd-deflating once they pass.
DEFECT_CLASSES = ("clustered", "rank-deficient", "graded")
STALL_SIGMA = (1.0, 1.0, 1.0, 1.0, 1e-3, 1e-3, 0.0, 0.0)

MIMO_ALGORITHMS = ("4step-dc", "4step-qr", "gk")
MIMO_BUDGETS = (1, 2, 4, 8, "exact")
MMIMO = dict(m=128, k=16)
DMIMO = dict(m=64, k=32, panels=8)
DMIMO_T = 16

TRACE_ITERS = {"4step-dc": 4, "4step-qr": 8, "gk": 8}
TRACE_KS = (8, 16, 32)
CLOSED_FORM_KS = (64, 128, 256, 512, 1024)
PROFILE = latency_model.BUILTIN_PROFILES["zynq-fp32"]


@dataclass
class Op:
    """One operation of a workload.

    ``label`` names the input class (failures are reported per label),
    ``k`` is the problem size used for per-size layer metrics. ``check``
    returns None or the name of the failed check; ``signature`` returns
    the counts of a result that must repeat exactly on the same input.
    """

    label: str
    k: int
    call: Callable[[], object]
    check: Callable[[object], str | None]
    signature: Callable[[object], tuple]


def build(workload: str, seed: int, cycle: int = 0, smallest: bool = False) -> list[Op]:
    """Cycle number ``cycle`` of ``workload``, with inputs drawn from
    (``seed``, ``cycle``).

    ``smallest`` keeps only the smallest size of each input family, for
    the smoke test.
    """
    rng = np.random.default_rng([seed, cycle])
    if workload == "svd-gaussian":
        return _svd_gaussian(rng, SVD_KS[:1] if smallest else SVD_KS)
    if workload == "svd-deflating":
        return _svd_spectra(rng, DEFLATING_CLASSES, SVD_KS[:1] if smallest else SVD_KS,
                            1 if smallest else DEFLATING_DRAWS, stall=False)
    if workload == "svd-known-defects":
        return _svd_spectra(rng, DEFECT_CLASSES, SVD_KS[:1] if smallest else SVD_KS,
                            1 if smallest else DEFLATING_DRAWS, stall=True)
    if workload == "mimo-budget":
        return _mimo_budget(rng, MIMO_BUDGETS[:1] + MIMO_BUDGETS[-1:] if smallest else MIMO_BUDGETS)
    if workload == "latency-model":
        return _latency_model(
            rng,
            TRACE_KS[:1] if smallest else TRACE_KS,
            CLOSED_FORM_KS[:1] if smallest else CLOSED_FORM_KS,
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# inputs


def cgauss(rng, m: int, k: int) -> np.ndarray:
    """i.i.d. CN(0, 1) matrix."""
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / math.sqrt(2.0)


def haar_columns(rng, m: int, k: int) -> np.ndarray:
    """m x k matrix with Haar-distributed orthonormal columns."""
    q, r = np.linalg.qr(cgauss(rng, m, k))
    d = np.diag(r)
    return q * (d / np.abs(d))


def with_spectrum(rng, m: int, sigma) -> np.ndarray:
    """A = U diag(sigma) V^H with Haar-random U (m x k) and V (k x k)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    k = sigma.size
    u = haar_columns(rng, m, k)
    v = haar_columns(rng, k, k)
    return (u * sigma) @ v.conj().T


def spectrum(cls: str, k: int) -> np.ndarray:
    if cls == "one-cluster":
        return np.concatenate([np.ones(k // 2), np.linspace(0.9, 0.1, k - k // 2)])
    if cls == "clustered":
        return np.repeat([1.0, 0.75, 0.5, 0.25], k // 4)
    if cls == "rank-deficient":
        return np.concatenate([np.linspace(1.0, 0.1, k // 2), np.zeros(k - k // 2)])
    if cls == "graded":
        return np.logspace(0.0, -6.0, k)
    if cls == "glued":
        return 1.0 + 1e-9 * np.arange(k)
    raise ValueError(cls)


# ---------------------------------------------------------------------------
# svd-gaussian and svd-deflating


def check_svd(a: np.ndarray, res) -> str | None:
    """Release-gate tolerances of acceptance criterion 1, plus singular
    values against numpy.linalg.svd."""
    k = a.shape[1]
    if np.linalg.norm(a - res.reconstruct()) > 1e-9 * np.linalg.norm(a):
        return "reconstruction"
    bound = 1e-10 * math.sqrt(k)
    if np.linalg.norm(res.v.conj().T @ res.v - np.eye(k)) > bound:
        return "v-orthonormality"
    uv = res.u[:, res.valid]
    if np.linalg.norm(uv.conj().T @ uv - np.eye(uv.shape[1])) > bound:
        return "u-orthonormality"
    ref = np.linalg.svd(a, compute_uv=False)
    if np.max(np.abs(res.sigma - ref)) > 1e-9 * ref[0]:
        return "sigma"
    return None


def svd_signature(res) -> tuple:
    d = res.diagnostics
    return (
        d.newton_iterations_total,
        d.deflation_count,
        d.interlacing_violations,
        int(res.valid.sum()),
    )


def svd_op(label: str, a: np.ndarray) -> Op:
    return Op(
        label=label,
        k=a.shape[1],
        call=lambda: gram_svd.svd_4step(a),
        check=lambda res: check_svd(a, res),
        signature=svd_signature,
    )


def _svd_gaussian(rng, ks) -> list[Op]:
    ops = []
    for k in ks:
        for aspect in SVD_ASPECTS:
            ops.append(svd_op(f"{aspect * k}x{k}", cgauss(rng, aspect * k, k)))
    return ops


def _svd_spectra(rng, classes, ks, draws: int, stall: bool) -> list[Op]:
    ops = []
    for _ in range(draws):
        for k in ks:
            for cls in classes:
                ops.append(svd_op(cls, with_spectrum(rng, 2 * k, spectrum(cls, k))))
        if stall:
            ops.append(svd_op("stall", with_spectrum(rng, 32, STALL_SIGMA)))
    return ops


# ---------------------------------------------------------------------------
# mimo-budget


def _rate_from_factors(h, u, v, rho: float) -> float:
    g = u.conj().T @ h @ v
    p = rho * np.abs(g) ** 2
    sig = np.diag(p)
    return float(np.sum(np.log2(1.0 + sig / (p.sum(axis=1) - sig + 1.0))))


def _mmimo_reference(cfg) -> float:
    h = mimo_harness.gen_iid_channel(cfg, 0, 0)
    u, _, vh = np.linalg.svd(h, full_matrices=False)
    return _rate_from_factors(h, u, vh.conj().T, cfg.snr_per_link)


def _dmimo_reference(cfg, t: int) -> float:
    blocks = []
    for panel in range(cfg.panels):
        h = mimo_harness.gen_iid_channel(cfg, panel, 0)
        u = np.linalg.svd(h, full_matrices=False)[0]
        blocks.append(u[:, :t].conj().T @ h)
    h_eff = np.vstack(blocks)
    k = h_eff.shape[1]
    _, logdet = np.linalg.slogdet(np.eye(k) + cfg.snr_per_link * (h_eff.conj().T @ h_eff))
    return float(logdet / math.log(2.0))


def _mimo_op(entry: str, cfg, alg: str, budget) -> Op:
    if entry == "mmimo":
        call = lambda: mimo_harness.mmimo_rate(cfg, budget, alg)
        reference = lambda: _mmimo_reference(cfg)
    else:
        call = lambda: mimo_harness.dmimo_capacity(cfg, DMIMO_T, budget, alg)
        reference = lambda: _dmimo_reference(cfg, DMIMO_T)

    def check(point) -> str | None:
        if not math.isfinite(point.value):
            return "not-finite"
        if budget == "exact":
            ref = reference()
            if abs(point.value - ref) > 1e-9 * abs(ref):
                return "exact-vs-numpy"
        return None

    return Op(
        label=f"{entry}/{alg}/{budget}",
        k=cfg.k,
        call=call,
        check=check,
        signature=lambda point: (point.value, point.trials_ok, point.trials_failed),
    )


def _mimo_budget(rng, budgets) -> list[Op]:
    ops = []
    for entry, dims in (("mmimo", MMIMO), ("dmimo", DMIMO)):
        for alg in MIMO_ALGORITHMS:
            for budget in budgets:
                # a fresh channel seed for every call of the cycle
                cfg = mimo_harness.ChannelConfig(seed=int(rng.integers(2**31)), trials=1, **dims)
                ops.append(_mimo_op(entry, cfg, alg, budget))
    return ops


# ---------------------------------------------------------------------------
# latency-model


def _trace_op(alg: str, k: int, mat: np.ndarray) -> Op:
    iters = TRACE_ITERS[alg]

    def call():
        dfg = latency_model.trace_run(alg, mat, iters)
        return dfg, latency_model.critical_path(dfg, PROFILE)

    def check(out) -> str | None:
        # acceptance criterion 3, carried to this size
        dfg, est = out
        if dfg.census() != latency_model.total_ops(alg, (k, k), iters):
            return "census"
        want = latency_model.analytic_latency(alg, (k, k), iters, PROFILE)
        if est.critical_path != want.critical_path:
            return "critical-path-ops"
        if abs(est.ns - want.ns) > 1e-9 * want.ns:
            return "critical-path-ns"
        return None

    return Op(
        label=f"trace/{alg}/k{k}",
        k=k,
        call=call,
        check=check,
        signature=lambda out: (len(out[0]), out[1].ns, out[1].critical_path),
    )


def _closed_form_op(alg: str, k: int) -> Op:
    iters = TRACE_ITERS[alg]

    def call():
        est = latency_model.analytic_latency(alg, (k, k), iters, PROFILE)
        ops = latency_model.total_ops(alg, (k, k), iters)
        return est, ops, analytic.latency_breakdown(alg, (k, k), iters, PROFILE)

    def check(out) -> str | None:
        est, ops, phases = out
        if not (math.isfinite(est.ns) and est.ns > 0 and ops.total() > 0):
            return "non-positive"
        if phases["total"] != est.ns:
            return "breakdown-total"
        parts = sum(v for name, v in phases.items() if name != "total")
        if abs(parts - est.ns) > 1e-9 * est.ns:
            return "breakdown-sum"
        return None

    return Op(
        label=f"closed/{alg}/k{k}",
        k=k,
        call=call,
        check=check,
        signature=lambda out: (out[0].ns, out[1], tuple(out[2].items())),
    )


def _latency_model(rng, trace_ks, closed_ks) -> list[Op]:
    ops = []
    for alg in MIMO_ALGORITHMS:
        for k in trace_ks:
            a = cgauss(rng, k, k)
            mat = a if alg == "gk" else a.conj().T @ a
            ops.append(_trace_op(alg, k, mat))
    for alg in MIMO_ALGORITHMS:
        for k in closed_ks:
            ops.append(_closed_form_op(alg, k))
    return ops
