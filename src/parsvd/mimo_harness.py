"""MIMO evaluation harness: dimension-reduction capacity, achievable rate
under inexact decompositions, and iteration/latency sweeps over matrix size.

Channels are i.i.d. circularly-symmetric complex Gaussian with unit
variance per entry, drawn from independent streams keyed by
(seed, panel, trial), so every result is reproducible bit for bit. Trials
are aggregated in fixed index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError
from .gram_svd import (
    SvdResult,
    gram,
    recover_svd,
    svd_4step,
    svd_4step_stack,
    tridiagonalize,
    tridiagonalize_stack,
    truncated_dc_eigen,
)
from .gram_svd import _MAX_NEWTON_ITERS
from .latency_model import analytic_latency, ceil_log2, total_ops
from .latency_model.analytic import _resolve
from .matrix_core import as_count, as_matrix
from .reference_solvers import (
    gk_bidiagonalize,
    gk_bidiagonalize_stack,
    gk_fixed_sweeps,
    gk_fixed_sweeps_stack,
    gk_singular_value_history,
    qr_eigenvalue_history,
    qr_fixed_sweeps,
    qr_fixed_sweeps_stack,
)

MIMO_ALGORITHMS = ("4step-dc", "4step-qr", "gk")


@dataclass(frozen=True)
class ChannelConfig:
    """Scenario description for the Monte Carlo runs."""

    m: int
    k: int
    panels: int = 1
    snr_per_link: float = 1.0
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        if not self.m >= self.k >= 1:
            raise DimensionError(f"need m >= k >= 1, got m={self.m}, k={self.k}")
        as_count(self.panels, "panels")
        as_count(self.trials, "trials")
        if not self.snr_per_link > 0:
            raise ValidationError("snr_per_link must be positive")


@dataclass
class SweepResult:
    """One sweep: an x axis, one series per algorithm, optional reference."""

    x: list
    series: dict = field(default_factory=dict)
    reference: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, vals in self.series.items():
            if len(vals) != len(self.x):
                raise ValidationError(f"series {name!r} length != x length")


class ReducedChannel(NamedTuple):
    w: np.ndarray
    h_reduced: np.ndarray


class CapacityPoint(NamedTuple):
    value: float
    trials_ok: int
    trials_failed: int


class IterationSearch(NamedTuple):
    budget: int
    reported: int


def gen_iid_channel(cfg: ChannelConfig, panel: int, trial: int = 0) -> np.ndarray:
    """M x K channel draw, deterministic per (seed, panel, trial)."""
    rng = np.random.default_rng([cfg.seed, panel, trial])
    re = rng.standard_normal((cfg.m, cfg.k))
    im = rng.standard_normal((cfg.m, cfg.k))
    return (re + 1j * im) / np.sqrt(2.0)


def capacity_logdet(h_eff: np.ndarray, rho: float) -> float:
    """Equal-power log-det capacity log2 det(I + rho H^H H), in bits."""
    h_eff = as_matrix(h_eff)
    k = h_eff.shape[1]
    gramm = np.eye(k, dtype=np.complex128) + rho * (h_eff.conj().T @ h_eff)
    # Cholesky, not slogdet: an LU sign cannot tell an indefinite matrix
    # (rho < 0) with a positive determinant from a positive-definite one
    try:
        low = np.linalg.cholesky(gramm)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(low.diagonal().real))) / math.log(2.0)


def dimension_reduce(h, t: int, svd: SvdResult) -> ReducedChannel:
    """Project onto the t dominant left singular vectors of h.

    Returns the t x M semi-unitary map W (rows orthonormal) and the
    reduced channel W h. Requires t valid U columns in the decomposition.
    """
    h = as_matrix(h)
    m, k = h.shape
    if not 1 <= t <= k:
        raise DimensionError(f"t must lie in [1, {k}], got {t}")
    n_valid = int(np.sum(svd.valid))
    if t > n_valid:
        raise ValidationError(
            f"requested {t} dominant directions but only {n_valid} U columns are valid"
        )
    w = svd.u[:, :t].conj().T
    return ReducedChannel(w=w, h_reduced=w @ h)


def _mimo_algorithm(algorithm: str) -> str:
    """The MIMO_ALGORITHMS name of ``algorithm``, with "4step" resolved."""
    alg = _resolve(algorithm)
    if alg not in MIMO_ALGORITHMS:
        raise ValidationError(
            f"algorithm {algorithm!r} is not one of {', '.join(MIMO_ALGORITHMS)}"
        )
    return alg


def _mimo_budget(eig_budget) -> int | None:
    """None for "exact", else the iteration budget, which must be an int >= 1."""
    if eig_budget == "exact":
        return None
    return as_count(eig_budget, "eig_budget other than 'exact'")


def _truncated_svd(h, algorithm: str, budget: int | None) -> SvdResult:
    """Decompose h with the given algorithm and iteration budget.

    Budget semantics: rational-model steps per secular root, the origin
    probe not counted (4step-dc), or plain sweeps (4step-qr, gk); None
    runs to convergence with the default production solver.
    """
    if budget is None:
        return svd_4step(h)
    if algorithm == "4step-dc":
        return svd_4step(h, iter_budget=budget)
    if algorithm == "4step-qr":
        t, q_t = tridiagonalize(gram(h))
        return recover_svd(h, qr_fixed_sweeps(t, budget), q_t)
    return gk_fixed_sweeps(gk_bidiagonalize(h), budget)


def _truncated_svd_stack(hs, algorithm: str, budget: int | None) -> list[SvdResult]:
    """_truncated_svd of each matrix of a stack of one shape, bit for bit,
    with stacked solves. For 4step-qr, one tridiagonalize_stack reduces
    every Gram matrix and one qr_fixed_sweeps_stack solves every
    tridiagonal; gram and recover_svd, whose inputs and outputs are one
    matrix each, stay one call per matrix."""
    if algorithm == "4step-dc" or budget is None:
        return svd_4step_stack(hs, budget)
    if algorithm == "4step-qr":
        reduced = tridiagonalize_stack([gram(h) for h in hs])
        eigs = qr_fixed_sweeps_stack([t for t, _ in reduced], budget)
        return [recover_svd(h, eig, q_t) for h, (_, q_t), eig in zip(hs, reduced, eigs)]
    return gk_fixed_sweeps_stack(gk_bidiagonalize_stack(hs), budget)


def _trial_mean(cfg: ChannelConfig, caller: str, trial_value) -> CapacityPoint:
    """Mean of ``trial_value(trial)`` over cfg.trials trials.

    Trials that raise ConvergenceError or ValidationError are skipped and
    counted.
    """
    values = []
    failed = 0
    for trial in range(cfg.trials):
        try:
            values.append(trial_value(trial))
        except (ConvergenceError, ValidationError):
            failed += 1
    if not values:
        raise ConvergenceError(f"every trial failed in {caller}")
    return CapacityPoint(value=float(np.mean(values)), trials_ok=len(values), trials_failed=failed)


def dmimo_capacity(
    cfg: ChannelConfig,
    t: int,
    eig_budget: int | str = "exact",
    algorithm: str = "4step-dc",
) -> CapacityPoint:
    """Mean capacity of the stacked dimension-reduced multi-panel channel.

    Per trial: draw one channel per panel, decompose it (possibly with a
    truncated iteration budget), keep the T dominant left directions per
    panel, stack the reduced channels, and evaluate the log-det capacity.
    A trial's panels are decomposed together: through one svd_4step_stack
    call where the decomposition is svd_4step (4step-dc, and every
    algorithm at "exact"), whose divide and conquer solves all of them
    together; through one tridiagonalize_stack and one
    qr_fixed_sweeps_stack call between per-panel Gram matrices and
    recoveries for 4step-qr; and through one
    gk_bidiagonalize_stack and one gk_fixed_sweeps_stack call for gk. Each
    panel still gets the bits of its own solve. A panel that fails fails
    its trial; failed trials are skipped and counted.
    An algorithm outside MIMO_ALGORITHMS (after the "4step" alias) or a
    budget other than "exact" or an int >= 1 raises ValidationError
    before any trial runs.
    """
    alg, budget = _mimo_algorithm(algorithm), _mimo_budget(eig_budget)

    def capacity(trial):
        hs = [gen_iid_channel(cfg, panel, trial) for panel in range(cfg.panels)]
        svds = _truncated_svd_stack(hs, alg, budget)
        blocks = [dimension_reduce(h, t, svd).h_reduced for h, svd in zip(hs, svds)]
        return capacity_logdet(np.vstack(blocks), cfg.snr_per_link)

    return _trial_mean(cfg, "dmimo_capacity", capacity)


def achievable_rate(h, u_est, v_est, rho: float) -> float:
    """Sum rate with per-stream decoding after diagonalizing by estimates.

    G = U^H H V; each stream's SINR is rho |G_kk|^2 over the off-diagonal
    leakage power plus unit noise, with equal per-stream transmit power.
    """
    h = as_matrix(h)
    u_est = as_matrix(u_est)
    v_est = as_matrix(v_est)
    g = u_est.conj().T @ h @ v_est
    k = min(g.shape)
    p = rho * np.abs(g[:k]) ** 2
    sig = p[range(k), range(k)]
    return float(np.sum(np.log2(1.0 + sig / (p.sum(axis=1) - sig + 1.0))))


def mmimo_rate(
    cfg: ChannelConfig,
    eig_budget: int | str = "exact",
    algorithm: str = "4step-dc",
) -> CapacityPoint:
    """Mean achievable rate over trials with possibly-truncated factors.

    Inputs are checked as in dmimo_capacity, before any trial runs.
    """
    alg, budget = _mimo_algorithm(algorithm), _mimo_budget(eig_budget)

    def rate(trial):
        h = gen_iid_channel(cfg, 0, trial)
        svd = _truncated_svd(h, alg, budget)
        return achievable_rate(h, svd.u, svd.v, cfg.snr_per_link)

    return _trial_mean(cfg, "mmimo_rate", rate)


def sv_mse(estimate, reference) -> float:
    """Mean squared difference of two descending singular-value arrays."""
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.shape != ref.shape:
        raise DimensionError(f"length mismatch: {est.shape} vs {ref.shape}")
    return float(np.mean((est - ref) ** 2))


def _lam_to_sigma(lam):
    return np.sqrt(np.maximum(lam[::-1], 0.0))


def _dc_sigma_history(t):
    """Yield the singular values of capped D&C solves at budgets 1, 2, ...
    up to _MAX_NEWTON_ITERS, beyond which a capped solve no longer changes."""
    for budget in range(1, _MAX_NEWTON_ITERS + 1):
        yield _lam_to_sigma(truncated_dc_eigen(t, iter_budget=budget).lam)


def _reported(alg: str, k_dim: int, budget: int) -> int:
    """The reported iteration count of a budget: times the recursion depth
    for divide and conquer, whose budget is per secular root."""
    return budget * max(ceil_log2(k_dim), 1) if alg == "4step-dc" else budget


def iterations_to_mse(
    algorithm: str,
    cfg: ChannelConfig,
    mse_target: float,
    sweep_cap: int = 800,
) -> IterationSearch:
    """Smallest iteration budget whose mean singular-value MSE meets the
    target, measured against converged decompositions over cfg.trials
    channels.

    The returned ``reported`` count multiplies the per-root budget by the
    recursion depth for the divide-and-conquer solver, so counts are
    comparable across algorithms; ``budget`` is the raw knob. It counts
    rational-model steps per secular root, or plain (unshifted) sweeps: the
    units the latency model prices. A target not met by a D&C budget of 50
    (see truncated_dc_eigen) or by ``sweep_cap`` sweeps (an integer >= 1)
    raises ConvergenceError.
    """
    if mse_target <= 0:
        raise ValidationError("mse_target must be positive")
    alg = _mimo_algorithm(algorithm)
    as_count(sweep_cap, "sweep_cap")
    channels = [gen_iid_channel(cfg, 0, trial) for trial in range(cfg.trials)]
    refs = [svd_4step(h).sigma for h in channels]

    if alg == "4step-dc":
        hists = [_dc_sigma_history(tridiagonalize(gram(h))[0]) for h in channels]
        cap = f"dc budget cap {_MAX_NEWTON_ITERS}"
    elif alg == "4step-qr":
        hists = [
            map(_lam_to_sigma, qr_eigenvalue_history(tridiagonalize(gram(h))[0], sweep_cap))
            for h in channels
        ]
        cap = f"sweep cap {sweep_cap}"
    else:
        hists = [gk_singular_value_history(gk_bidiagonalize(h), sweep_cap) for h in channels]
        cap = f"sweep cap {sweep_cap}"

    # the histories are lazy: each runs only up to the first budget that meets the target
    achieved = math.inf
    for budget, estimates in enumerate(zip(*hists), start=1):
        achieved = float(np.mean([sv_mse(x, r) for x, r in zip(estimates, refs)]))
        if achieved <= mse_target:
            return IterationSearch(budget=budget, reported=_reported(alg, cfg.k, budget))
    raise ConvergenceError(f"{cap} reached; achieved mean MSE {achieved:.3e}")


def sweep_latency_vs_size(
    algorithms,
    sizes,
    mse_target: float,
    profile,
    trials: int = 5,
    seed: int = 0,
    sweep_cap: int = 800,
) -> SweepResult:
    """Latency and op-count comparison across matrix sizes.

    For each (M, K) size: measure the iteration count each algorithm needs
    to hit the singular-value MSE target, then evaluate the closed-form
    latency (normalized adders) and total operation count at that count.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValidationError("sizes must be nonempty")
    series: dict = {}
    meta = {"mse_target": mse_target, "iterations": {}, "trials": trials, "seed": seed}
    for alg in algorithms:
        series[alg] = []
        series[f"{alg}:ops"] = []
    for m_dim, k_dim in sizes:
        cfg = ChannelConfig(m=m_dim, k=k_dim, seed=seed, trials=trials)
        for alg in algorithms:
            found = iterations_to_mse(alg, cfg, mse_target, sweep_cap=sweep_cap)
            est = analytic_latency(alg, (m_dim, k_dim), found.budget, profile)
            ops = total_ops(alg, (m_dim, k_dim), found.budget)
            series[alg].append(est.normalized_adders)
            series[f"{alg}:ops"].append(ops.total())
            meta["iterations"][f"{alg}@{m_dim}x{k_dim}"] = {
                "budget": found.budget,
                "reported": found.reported,
            }
    return SweepResult(x=[f"{m}x{k}" for m, k in sizes], series=series, meta=meta)


def _budget_sweep(cfg: ChannelConfig, budgets, algorithms, point) -> SweepResult:
    """Sweep ``point(budget, algorithm).value`` over budgets per algorithm.

    The reference is the exact (converged) point. The x axis carries the
    raw budgets; ``meta["reported"]`` holds the reported-iteration counts
    per algorithm (budget times recursion depth for the divide-and-conquer
    path), and ``meta["trials_failed"]`` each point's count of skipped
    trials, per algorithm and under "reference". Every name and budget is
    checked before the first point runs; names are resolved, so "4step"
    is keyed and counted as "4step-dc".
    """
    budgets = list(budgets)
    algorithms = [_mimo_algorithm(alg) for alg in algorithms]
    if any(_mimo_budget(b) is None for b in budgets):
        raise ValidationError("sweep budgets must be integers >= 1; the exact point is the reference")
    ref = point("exact", "4step-dc")
    points = {alg: [point(b, alg) for b in budgets] for alg in algorithms}
    series = {alg: [p.value for p in pts] for alg, pts in points.items()}
    failed = {alg: [p.trials_failed for p in pts] for alg, pts in points.items()}
    failed["reference"] = ref.trials_failed
    reported = {alg: [_reported(alg, cfg.k, b) for b in budgets] for alg in algorithms}
    meta = {"reported": reported, "trials_failed": failed}
    return SweepResult(x=budgets, series=series, reference=ref.value, meta=meta)


def capacity_vs_iterations(
    cfg: ChannelConfig,
    t: int,
    budgets,
    algorithms=MIMO_ALGORITHMS,
) -> SweepResult:
    """Dimension-reduction capacity as the iteration budget grows, against
    the perfect-SVD capacity; ``meta["t"]`` records T."""
    sweep = _budget_sweep(
        cfg, budgets, algorithms,
        lambda b, alg: dmimo_capacity(cfg, t, b, algorithm=alg),
    )
    sweep.meta["t"] = t
    return sweep


def rate_vs_iterations(
    cfg: ChannelConfig,
    budgets,
    algorithms=MIMO_ALGORITHMS,
) -> SweepResult:
    """Massive-MIMO achievable rate as the iteration budget grows."""
    return _budget_sweep(
        cfg, budgets, algorithms,
        lambda b, alg: mmimo_rate(cfg, b, algorithm=alg),
    )
