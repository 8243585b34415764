"""Acceptance suite: one test per release criterion, each printing a
summary line with its measured figures (run with -s to see them inline).

Every tolerance is pinned here; nothing is deferred to later calibration.
All randomness is seeded, so the outcomes are reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from parsvd import fro_norm, gram, svd_4step, tridiagonalize
from parsvd.latency_model import (
    BUILTIN_PROFILES,
    analytic_latency,
    critical_path,
    householder_step_counts,
    total_ops,
    trace_run,
)
from parsvd.latency_model.trace import TraceBuilder
from parsvd.mimo_harness import (
    ChannelConfig,
    capacity_vs_iterations,
    gen_iid_channel,
    iterations_to_mse,
    rate_vs_iterations,
)
from parsvd.reference_solvers import gk_svd, jacobi_eigen_oracle, qr_tridiag_eigen
from parsvd.gram_svd import householder_vector

FP = BUILTIN_PROFILES["zynq-fp32"]
FXP = BUILTIN_PROFILES["zynq-fxp32"]


def _cgauss(rng, m, k):
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2.0)


def _fit_slope(xs, ys):
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    n = len(lx)
    sx, sy = sum(lx), sum(ly)
    return (n * sum(a * b for a, b in zip(lx, ly)) - sx * sy) / (
        n * sum(a * a for a in lx) - sx * sx
    )


def test_criterion_1_correctness_suite():
    """200 random complex matrices from 2x2 up to 128x64: reconstruction
    within 1e-9 relative and column orthonormality within 1e-10 sqrt(K)."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    sizes = [(2, 2), (128, 64)]
    while len(sizes) < 200:
        m = int(rng.integers(2, 129))
        k = int(rng.integers(1, min(m, 64) + 1))
        sizes.append((m, k))
    worst_rec = 0.0
    worst_orth = 0.0
    for m, k in sizes:
        a = _cgauss(rng, m, k)
        res = svd_4step(a)
        rec = fro_norm(a - res.reconstruct()) / fro_norm(a)
        bound = np.sqrt(k)
        orth = max(
            fro_norm(res.v.conj().T @ res.v - np.eye(k)) / bound,
            fro_norm(res.u.conj().T @ res.u - np.eye(k)) / bound,
        )
        worst_rec = max(worst_rec, rec)
        worst_orth = max(worst_orth, orth)
        assert rec <= 1e-9, (m, k, rec)
        assert orth <= 1e-10, (m, k, orth)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    print(
        f"\nPASS criterion 1: 200 matrices, worst reconstruction {worst_rec:.2e} "
        f"(<=1e-9), worst orthonormality {worst_orth:.2e} (<=1e-10*sqrtK), {elapsed:.1f}s"
    )


def test_criterion_2_oracle_agreement():
    """Singular values from all four solver routes agree pairwise to 1e-9
    relative on 50 random instances with K <= 32."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 33))
        m = k + int(rng.integers(0, 17))
        a = _cgauss(rng, m, k)
        sig = svd_4step(a).sigma
        routes = [gk_svd(a)[0].sigma]
        b = gram(a)
        t, _ = tridiagonalize(b)
        routes.append(np.sqrt(np.maximum(qr_tridiag_eigen(t)[0].lam[::-1], 0.0)))
        routes.append(np.sqrt(np.maximum(jacobi_eigen_oracle(b).lam[::-1], 0.0)))
        scale = sig[0]
        all_routes = [sig] + routes
        for i in range(len(all_routes)):
            for j in range(i + 1, len(all_routes)):
                dev = np.max(np.abs(all_routes[i] - all_routes[j])) / scale
                worst = max(worst, dev)
                assert dev <= 1e-9, (m, k, i, j, dev)
    print(f"\nPASS criterion 2: 50 instances, worst pairwise sigma deviation {worst:.2e} (<=1e-9)")


def test_criterion_3_step_cost_fidelity():
    """Traced node censuses and critical paths equal the closed forms
    exactly for K in {2, 4, 8}, per stage and per algorithm, under both
    hardware profiles."""
    rng = np.random.default_rng(2)
    checks = 0
    for k_dim in (2, 4, 8):
        b = gram(_cgauss(rng, k_dim + 2, k_dim)).mat
        dfg = trace_run("tridiag", b)
        for step in range(k_dim - 1):
            stages = householder_step_counts(k_dim, step + 1)
            for s in range(1, 9):
                got = dfg.census(lambda lab, step=step, s=s: lab == ("tridiag", step, s))
                assert got == stages[s - 1][0], (k_dim, step + 1, s)
                checks += 1
        for alg in ("tridiag", "4step-dc", "4step-qr", "gk"):
            iters = 3
            if alg == "gk":
                mat = _cgauss(rng, k_dim + 3, k_dim)
                dims = (k_dim + 3, k_dim)
            else:
                mat, dims = b, (k_dim, k_dim)
            g = trace_run(alg, mat, iters=iters)
            assert g.census() == total_ops(alg, dims, iters), (alg, k_dim)
            for prof in (FP, FXP):
                got = critical_path(g, prof)
                want = analytic_latency(alg, dims, iters, prof)
                assert got.critical_path == want.critical_path, (alg, k_dim, prof.name)
                assert got.ns == pytest.approx(want.ns, abs=1e-9)
                checks += 2
    print(f"\nPASS criterion 3: trace equals closed forms exactly ({checks} comparisons)")


def test_criterion_4_profile_fidelity():
    """Builtin profiles return the published operator figures exactly and
    an 8-input adder tree prices at exactly 44.730 ns."""
    assert FP.latency_ns["add"] == 14.910
    assert FP.latency_ns["mul"] == 14.059
    assert FP.latency_ns["div"] == 33.296
    assert FP.latency_ns["sqrt"] == 26.963
    assert FXP.latency_ns["add"] == 6.039
    assert FXP.latency_ns["div"] == 46.486
    assert FP.lut == {"add": 341, "mul": 660, "div": 757, "sqrt": 409}
    assert FXP.lut == {"add": 32, "mul": 1074, "div": 1242, "sqrt": 352}
    tb = TraceBuilder()
    tb.output(tb.tree_sum([tb.input(1.0) for _ in range(8)]))
    est = critical_path(tb.dfg, FP)
    assert est.ns == pytest.approx(3 * 14.910, abs=1e-12)
    assert est.ns == pytest.approx(44.730, abs=1e-12)
    print("\nPASS criterion 4: builtin profiles exact; 8-input adder tree = 44.730 ns")


def test_criterion_5_scaling_claims():
    """At MSE target 1e-4 over K in {8,16,32,64}: the divide-and-conquer
    latency grows with log-log slope <= 1.3, every op-count slope sits in
    3.0 +- 0.3, and the latency ordering dc < qr < gk holds at K = 64 for
    square matrices and at every K for M = 8K."""
    start = time.monotonic()
    ks = (8, 16, 32, 64)
    target = 1e-4
    algs = ("4step-dc", "4step-qr", "gk")

    def measure(geometry):
        lat = {alg: [] for alg in algs}
        ops = {alg: [] for alg in algs}
        for k in ks:
            m = k if geometry == "square" else 8 * k
            cfg = ChannelConfig(m=m, k=k, snr_per_link=1.0, seed=0, trials=3)
            for alg in algs:
                found = iterations_to_mse(alg, cfg, target, sweep_cap=700)
                lat[alg].append(analytic_latency(alg, (m, k), found.budget, FP).normalized_adders)
                ops[alg].append(total_ops(alg, (m, k), found.budget).total())
        return lat, ops

    lat_sq, ops_sq = measure("square")
    dc_slope = _fit_slope(ks, lat_sq["4step-dc"])
    assert dc_slope <= 1.3, dc_slope
    op_slopes = {}
    for alg in algs:
        s = _fit_slope(ks, ops_sq[alg])
        op_slopes[alg] = s
        assert 2.7 <= s <= 3.3, (alg, s)
    assert lat_sq["4step-dc"][-1] < lat_sq["4step-qr"][-1] < lat_sq["gk"][-1]

    lat_tall, _ = measure("tall8")
    for idx, k in enumerate(ks):
        assert (
            lat_tall["4step-dc"][idx] < lat_tall["4step-qr"][idx] < lat_tall["gk"][idx]
        ), (k, {a: lat_tall[a][idx] for a in algs})

    elapsed = time.monotonic() - start
    assert elapsed <= 600.0
    print(
        f"\nPASS criterion 5: dc latency slope {dc_slope:.2f} (<=1.3); op slopes "
        + ", ".join(f"{a}={op_slopes[a]:.2f}" for a in algs)
        + f" (3.0+-0.3); ordering dc<qr<gk holds (square K=64, tall all K); {elapsed:.0f}s"
    )


def test_criterion_6_mimo_convergence():
    """Multi-panel capacity (P=8, M=32, K=32, T=16, rho=1) and single-cell
    rate (M=128, K=16, rho=1) converge to the perfect-SVD reference within
    1e-6 bits as the budget grows, the baseline curves flatten toward the
    same reference, and every merge of every trial interlaces strictly."""
    cfg_d = ChannelConfig(m=32, k=32, panels=8, snr_per_link=1.0, seed=0, trials=3)
    cap = capacity_vs_iterations(cfg_d, 16, [1, 2, 4, 10], algorithms=("4step-dc",))
    gap_dc = [abs(v - cap.reference) for v in cap.series["4step-dc"]]
    assert gap_dc[-1] <= 1e-6, gap_dc
    assert gap_dc[-1] <= gap_dc[0]

    cap_ref = capacity_vs_iterations(cfg_d, 16, [4, 30, 90], algorithms=("4step-qr", "gk"))
    for alg in ("4step-qr", "gk"):
        gaps = [abs(v - cap_ref.reference) for v in cap_ref.series[alg]]
        assert gaps[-1] < gaps[0], (alg, gaps)
        assert gaps[-1] <= 1e-2, (alg, gaps)

    cfg_m = ChannelConfig(m=128, k=16, snr_per_link=1.0, seed=0, trials=3)
    rate = rate_vs_iterations(cfg_m, [1, 2, 4, 10], algorithms=("4step-dc",))
    gap_rate = [abs(v - rate.reference) for v in rate.series["4step-dc"]]
    assert gap_rate[-1] <= 1e-6, gap_rate

    rate_ref = rate_vs_iterations(cfg_m, [4, 30, 90], algorithms=("4step-qr", "gk"))
    for alg in ("4step-qr", "gk"):
        gaps = [abs(v - rate_ref.reference) for v in rate_ref.series[alg]]
        assert gaps[-1] < gaps[0], (alg, gaps)

    # strict interlacing in every merge of every trial of both scenarios
    violations = 0
    for trial in range(cfg_d.trials):
        for panel in range(cfg_d.panels):
            res = svd_4step(gen_iid_channel(cfg_d, panel, trial))
            violations += res.diagnostics.interlacing_violations
    for trial in range(cfg_m.trials):
        res = svd_4step(gen_iid_channel(cfg_m, 0, trial))
        violations += res.diagnostics.interlacing_violations
    assert violations == 0
    print(
        f"\nPASS criterion 6: dc capacity gap {gap_dc[-1]:.1e} and rate gap "
        f"{gap_rate[-1]:.1e} (<=1e-6); baselines flatten; 0 interlacing violations"
    )


def test_criterion_7_update_equivalence_and_phase():
    """Vector-form trailing update equals the explicit two-sided reflection
    to 1e-12 relative on 20 random 6x6 Hermitian matrices, and the
    reflection maps 1000 random vectors onto a real nonnegative multiple
    of e1."""
    rng = np.random.default_rng(3)
    worst_eq = 0.0
    for _ in range(20):
        a = _cgauss(rng, 8, 6)
        b = gram(a).mat
        x = _cgauss(rng, 6, 1)[:, 0]
        step = householder_vector(x)
        v = step.v
        p = -np.conj(step.phase) * (np.eye(6) - 2.0 * np.outer(v, v.conj()))
        explicit = p @ b @ p.conj().T
        pv = 2.0 * (b @ v)
        w = pv - np.vdot(v, pv) * v
        vec_form = b - np.outer(v, w.conj()) - np.outer(w, v.conj())
        dev = fro_norm(vec_form - explicit) / fro_norm(b)
        worst_eq = max(worst_eq, dev)
        assert dev <= 1e-12
    worst_align = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        x = _cgauss(rng, n, 1)[:, 0]
        step = householder_vector(x)
        out = step.apply(x)
        nrm = np.sqrt(np.sum(np.abs(x) ** 2))
        if nrm == 0.0:
            continue
        dev = abs(out[0] - nrm) / nrm
        assert out[0].real >= 0.0 or abs(out[0].real) <= 1e-12 * nrm
        assert abs(out[0].imag) <= 1e-12 * nrm
        if n > 1:
            dev = max(dev, np.max(np.abs(out[1:])) / nrm)
        worst_align = max(worst_align, dev)
        assert dev <= 1e-12
    print(
        f"\nPASS criterion 7: update equivalence worst {worst_eq:.2e} (<=1e-12); "
        f"reflection alignment worst {worst_align:.2e} over 1000 vectors"
    )
