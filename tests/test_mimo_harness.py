import numpy as np
import pytest

from parsvd import mimo_harness
from parsvd.errors import ConvergenceError, ValidationError
from parsvd.gram_svd import gram, svd_4step
from parsvd.mimo_harness import (
    CapacityPoint,
    ChannelConfig,
    SweepResult,
    achievable_rate,
    capacity_logdet,
    capacity_vs_iterations,
    dimension_reduce,
    dmimo_capacity,
    gen_iid_channel,
    iterations_to_mse,
    mmimo_rate,
    rate_vs_iterations,
    sv_mse,
)
from parsvd.reference_solvers import jacobi_eigen_oracle

from conftest import rand_complex


def cfg_small(**kw):
    base = dict(m=8, k=4, panels=2, snr_per_link=1.0, seed=7, trials=3)
    base.update(kw)
    return ChannelConfig(**base)


# ---------------------------------------------------------------------------
# channel generation


def test_channel_deterministic():
    cfg = cfg_small()
    h1 = gen_iid_channel(cfg, 0, 0)
    h2 = gen_iid_channel(cfg, 0, 0)
    np.testing.assert_array_equal(h1, h2)


def test_channel_streams_separate():
    cfg = cfg_small()
    assert not np.array_equal(gen_iid_channel(cfg, 0, 0), gen_iid_channel(cfg, 1, 0))
    assert not np.array_equal(gen_iid_channel(cfg, 0, 0), gen_iid_channel(cfg, 0, 1))


def test_channel_unit_variance():
    cfg = ChannelConfig(m=32, k=32, seed=0, trials=1)
    total = 0.0
    n = 0
    for trial in range(98):
        h = gen_iid_channel(cfg, 0, trial)
        total += np.sum(np.abs(h) ** 2)
        n += h.size
    assert total / n == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# capacity and reduction


def test_capacity_matches_eigenvalue_form(rng):
    h = rand_complex(rng, 6, 4)
    rho = 2.5
    lam = jacobi_eigen_oracle(gram(h)).lam
    want = np.sum(np.log2(1.0 + rho * np.maximum(lam, 0.0)))
    assert capacity_logdet(h, rho) == pytest.approx(want, rel=1e-12)


def test_capacity_rejects_indefinite():
    # rho < 0 leaves two negative eigenvalues, so the determinant is positive
    h = np.diag([2.0, 3.0, 0.1]).astype(complex)
    with pytest.raises(ValidationError):
        capacity_logdet(h, -1.0)


def test_dimension_reduce_lossless_full_rank(rng):
    h = rand_complex(rng, 8, 8)
    svd = svd_4step(h)
    red = dimension_reduce(h, 8, svd)
    assert capacity_logdet(red.h_reduced, 1.0) == pytest.approx(
        capacity_logdet(h, 1.0), abs=1e-9
    )
    gram_w = red.w @ red.w.conj().T
    assert np.max(np.abs(gram_w - np.eye(8))) <= 1e-10


def test_dimension_reduce_rank_one_lossless(rng):
    u = rand_complex(rng, 8, 1)
    v = rand_complex(rng, 4, 1)
    h = u @ v.conj().T
    svd = svd_4step(h)
    red = dimension_reduce(h, 1, svd)
    assert capacity_logdet(red.h_reduced, 1.0) == pytest.approx(
        capacity_logdet(h, 1.0), abs=1e-9
    )


def test_dimension_reduce_rejects_invalid_columns(rng):
    u = rand_complex(rng, 8, 1)
    v = rand_complex(rng, 4, 1)
    h = u @ v.conj().T
    svd = svd_4step(h)
    with pytest.raises(ValidationError):
        dimension_reduce(h, 3, svd)


def test_capacity_monotone_in_t(rng):
    h = rand_complex(rng, 16, 8)
    svd = svd_4step(h)
    caps = [
        capacity_logdet(dimension_reduce(h, t, svd).h_reduced, 1.0) for t in range(1, 9)
    ]
    for lo, hi in zip(caps, caps[1:]):
        assert lo <= hi + 1e-9


def test_reduced_capacity_matches_reference_gap(rng):
    h = rand_complex(rng, 12, 12)
    svd = svd_4step(h)
    red = dimension_reduce(h, 6, svd)
    got = capacity_logdet(red.h_reduced, 1.0)
    # brute-force recomputation: capacity of the projected channel from the
    # oracle-side decomposition
    sig = svd.sigma[:6]
    want = np.sum(np.log2(1.0 + sig**2))
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# dmimo capacity


def test_dmimo_t_equals_k_matches_full():
    cfg = cfg_small(m=4, k=4, panels=2, trials=2)
    got = dmimo_capacity(cfg, 4, "exact")
    want = []
    for trial in range(cfg.trials):
        stack = np.vstack([gen_iid_channel(cfg, p, trial) for p in range(cfg.panels)])
        want.append(capacity_logdet(stack, cfg.snr_per_link))
    assert got.value == pytest.approx(np.mean(want), abs=1e-9)
    assert got.trials_ok == 2 and got.trials_failed == 0


def test_dmimo_single_user_scalar():
    cfg = ChannelConfig(m=3, k=1, panels=2, snr_per_link=2.0, seed=5, trials=2)
    got = dmimo_capacity(cfg, 1, "exact")
    want = []
    for trial in range(cfg.trials):
        heff = []
        for p in range(cfg.panels):
            h = gen_iid_channel(cfg, p, trial)
            heff.append(np.sqrt(np.sum(np.abs(h) ** 2)))
        want.append(np.log2(1.0 + 2.0 * (np.array(heff) ** 2).sum()))
    assert got.value == pytest.approx(np.mean(want), rel=1e-9)


def test_dmimo_budget_converges_to_reference():
    cfg = cfg_small(m=8, k=8, panels=2, trials=2)
    ref = dmimo_capacity(cfg, 4, "exact").value
    gaps = [abs(dmimo_capacity(cfg, 4, b).value - ref) for b in (1, 2, 8, 20)]
    assert gaps[-1] <= 1e-6
    assert gaps[-1] <= gaps[0]


def _dmimo_per_panel(cfg, t, budget, algorithm):
    # dmimo_capacity with every panel decomposed on its own, one after another
    values, failed = [], 0
    for trial in range(cfg.trials):
        try:
            blocks = []
            for panel in range(cfg.panels):
                h = gen_iid_channel(cfg, panel, trial)
                svd = mimo_harness._truncated_svd(h, algorithm, None if budget == "exact" else budget)
                blocks.append(dimension_reduce(h, t, svd).h_reduced)
            values.append(capacity_logdet(np.vstack(blocks), cfg.snr_per_link))
        except (ConvergenceError, ValidationError):
            failed += 1
    return CapacityPoint(value=float(np.mean(values)), trials_ok=len(values), trials_failed=failed)


@pytest.mark.parametrize("budget", [1, 4, "exact"])
@pytest.mark.parametrize("algorithm", ["4step-dc", "4step-qr", "gk"])
def test_dmimo_matches_per_panel_loop(algorithm, budget):
    # the stacked solve gives every panel the bits of its own, so the
    # capacity point is the per-panel loop's, bit for bit
    for cfg, t in (
        (ChannelConfig(m=12, k=6, panels=3, seed=4, trials=3), 3),
        (ChannelConfig(m=64, k=32, panels=8, seed=2, trials=1), 16),
    ):
        assert dmimo_capacity(cfg, t, budget, algorithm) == _dmimo_per_panel(cfg, t, budget, algorithm)


@pytest.mark.parametrize("budget", [1, 3])
def test_dmimo_qr_stack_members_match_lone_solves(budget):
    # 4step-qr's panels share one stacked reduction and one stacked sweep
    # solve; on panels far apart in scale every member is its lone
    # decomposition, byte for byte
    rng = np.random.default_rng(21)
    hs = [scale * rand_complex(rng, 64, 32) for scale in (1e-60, 1.0, 1e60, 3.0)]
    stacked = mimo_harness._truncated_svd_stack(hs, "4step-qr", budget)
    for h, got in zip(hs, stacked):
        want = mimo_harness._truncated_svd(h, "4step-qr", budget)
        for field in ("u", "sigma", "v", "valid"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


# ---------------------------------------------------------------------------
# achievable rate


def test_rate_exact_factors_zero_interference(rng):
    h = rand_complex(rng, 16, 4)
    res = svd_4step(h)
    rate = achievable_rate(h, res.u, res.v, 3.0)
    want = np.sum(np.log2(1.0 + 3.0 * res.sigma**2))
    assert rate == pytest.approx(want, rel=1e-10)


def test_rate_vanishes_with_snr(rng):
    h = rand_complex(rng, 8, 4)
    res = svd_4step(h)
    assert achievable_rate(h, res.u, res.v, 1e-12) < 1e-9


def test_rate_random_unitaries_lose_on_average(rng):
    exact, wrong = [], []
    for _ in range(100):
        h = rand_complex(rng, 4, 4)
        res = svd_4step(h)
        exact.append(achievable_rate(h, res.u, res.v, 1.0))
        qu = svd_4step(rand_complex(rng, 4, 4)).v
        qv = svd_4step(rand_complex(rng, 4, 4)).v
        wrong.append(achievable_rate(h, qu, qv, 1.0))
    assert np.mean(wrong) < np.mean(exact)


# ---------------------------------------------------------------------------
# MSE and iteration search


def test_sv_mse_basics():
    assert sv_mse([3.0, 1.0], [3.0, 1.0]) == 0.0
    assert sv_mse([3.1, 1.1], [3.0, 1.0]) == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(Exception):
        sv_mse([1.0], [1.0, 2.0])


def test_iterations_huge_target_is_one():
    cfg = cfg_small(m=6, k=6, panels=1, trials=2)
    found = iterations_to_mse("4step-dc", cfg, 1e6)
    assert found.budget == 1
    found = iterations_to_mse("gk", cfg, 1e6)
    assert found.budget == 1 and found.reported == 1


def test_dc_reported_multiple_of_depth():
    cfg = ChannelConfig(m=32, k=32, seed=2, trials=2)
    found = iterations_to_mse("4step-dc", cfg, 1e-4)
    assert found.reported == found.budget * 5
    assert found.reported % 5 == 0


def test_tighter_target_needs_more(rng):
    cfg = cfg_small(m=8, k=8, panels=1, trials=2)
    loose = iterations_to_mse("gk", cfg, 1e-2)
    tight = iterations_to_mse("gk", cfg, 1e-6)
    assert tight.budget >= loose.budget


@pytest.mark.parametrize(
    "m,k,want",
    [
        (16, 16, {"4step-qr": (41, 103), "gk": (40, 102)}),
        (64, 8, {"4step-qr": (31, 187), "gk": (31, 187)}),
    ],
)
def test_sweep_counts_pinned(m, k, want):
    # budgets measured before the sweep drivers were merged
    cfg = ChannelConfig(m=m, k=k, seed=11, trials=3)
    for alg, budgets in want.items():
        got = tuple(iterations_to_mse(alg, cfg, target).budget for target in (1e-4, 1e-8))
        assert got == budgets, alg


def test_iterations_cap_raises():
    cfg = cfg_small(m=8, k=8, panels=1, trials=1)
    with pytest.raises(ConvergenceError) as err:
        iterations_to_mse("gk", cfg, 1e-30, sweep_cap=3)
    assert "achieved" in str(err.value)


# ---------------------------------------------------------------------------
# sweeps


def test_capacity_sweep_reproducible():
    cfg = cfg_small(m=8, k=8, panels=2, trials=2)
    s1 = capacity_vs_iterations(cfg, 4, [1, 2, 4], algorithms=("4step-dc",))
    s2 = capacity_vs_iterations(cfg, 4, [1, 2, 4], algorithms=("4step-dc",))
    assert s1.x == s2.x
    assert s1.series == s2.series
    assert s1.reference == s2.reference


def test_rate_sweep_converges():
    cfg = ChannelConfig(m=16, k=4, snr_per_link=1.0, seed=3, trials=2)
    sweep = rate_vs_iterations(cfg, [1, 2, 6, 12], algorithms=("4step-dc", "gk"))
    for alg in ("4step-dc", "gk"):
        gaps = [abs(v - sweep.reference) for v in sweep.series[alg]]
        assert gaps[-1] <= gaps[0]
    assert abs(sweep.series["4step-dc"][-1] - sweep.reference) <= 1e-6
    assert sweep.meta["reported"]["4step-dc"] == [2, 4, 12, 24]


@pytest.mark.parametrize(
    "entry, budget, algorithm, named",
    [
        ("mmimo", "exact", "bogus", "'bogus'"),
        ("mmimo", 2, "bogus", "'bogus'"),
        ("mmimo", 2, "tridiag", "'tridiag'"),
        ("mmimo", "exacto", "4step-dc", "'exacto'"),
        ("mmimo", 0, "4step-dc", "got 0"),
        ("mmimo", 0, "gk", "got 0"),
        ("dmimo", 2, "bogus", "'bogus'"),
        ("dmimo", "exacto", "gk", "'exacto'"),
        ("dmimo", 0, "gk", "got 0"),
        ("dmimo", 2.0, "4step-qr", "got 2.0"),
        ("rate-sweep", 2, "bogus", "'bogus'"),
        ("rate-sweep", 0, "gk", "got 0"),
        ("capacity-sweep", 2, "bogus", "'bogus'"),
        ("capacity-sweep", "exact", "gk", "integers >= 1"),
        ("iterations", None, "bogus", "'bogus'"),
    ],
)
def test_mimo_inputs_checked_before_any_trial(monkeypatch, entry, budget, algorithm, named):
    # a bad name or budget is a ValidationError that names it, raised
    # before a channel is drawn: not a value computed with the default
    # solver, and not "every trial failed"
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(mimo_harness, "gen_iid_channel", no_trial)
    cfg = ChannelConfig(m=16, k=4, trials=2)
    with pytest.raises(ValidationError, match=named):
        if entry == "mmimo":
            mmimo_rate(cfg, budget, algorithm)
        elif entry == "dmimo":
            dmimo_capacity(cfg, 2, budget, algorithm)
        elif entry == "rate-sweep":
            rate_vs_iterations(cfg, [budget], algorithms=(algorithm,))
        elif entry == "capacity-sweep":
            capacity_vs_iterations(cfg, 2, [budget], algorithms=(algorithm,))
        else:
            iterations_to_mse(algorithm, cfg, 1e-4)


def test_4step_alias_is_4step_dc():
    cfg = ChannelConfig(m=16, k=4, trials=2)
    assert mmimo_rate(cfg, 2, "4step") == mmimo_rate(cfg, 2, "4step-dc")
    sweep = rate_vs_iterations(cfg, [1, 2], algorithms=("4step",))
    assert list(sweep.series) == ["4step-dc"]
    assert sweep.meta["reported"] == {"4step-dc": [2, 4]}
    assert iterations_to_mse("4step", cfg, 1e-4) == iterations_to_mse("4step-dc", cfg, 1e-4)


def test_sweep_result_validation():
    with pytest.raises(ValidationError):
        SweepResult(x=[1, 2], series={"a": [1.0]})


def test_latency_size_sweep_structure():
    from parsvd.latency_model import BUILTIN_PROFILES
    from parsvd.mimo_harness import sweep_latency_vs_size

    sweep = sweep_latency_vs_size(
        ("4step-dc", "gk"),
        [(4, 4), (8, 8)],
        1e-2,
        BUILTIN_PROFILES["zynq-fp32"],
        trials=2,
        seed=1,
    )
    assert sweep.x == ["4x4", "8x8"]
    for name in ("4step-dc", "4step-dc:ops", "gk", "gk:ops"):
        assert len(sweep.series[name]) == 2
        assert all(v > 0 for v in sweep.series[name])
    # latency and op counts both grow with size
    assert sweep.series["gk"][1] > sweep.series["gk"][0]
    assert sweep.series["gk:ops"][1] > sweep.series["gk:ops"][0]
    assert "gk@8x8" in sweep.meta["iterations"]


def test_failed_trials_are_counted(monkeypatch):
    # a trial whose solve raises is skipped and counted, and the mean is
    # over the other trials; when every trial fails, the mean raises
    solve = mimo_harness._truncated_svd
    calls = []

    def flaky(h, algorithm, budget):
        calls.append(budget)
        if len(calls) == 2:
            raise ConvergenceError("stalled")
        return solve(h, algorithm, budget)

    monkeypatch.setattr(mimo_harness, "_truncated_svd", flaky)
    cfg = ChannelConfig(m=16, k=4, trials=3)
    point = mmimo_rate(cfg)
    assert (point.trials_ok, point.trials_failed) == (2, 1)
    rates = []
    for trial in (0, 2):
        h = gen_iid_channel(cfg, 0, trial)
        svd = svd_4step(h)
        rates.append(achievable_rate(h, svd.u, svd.v, cfg.snr_per_link))
    assert point.value == float(np.mean(rates))

    def failing(h, algorithm, budget):
        raise ValidationError("no solve")

    monkeypatch.setattr(mimo_harness, "_truncated_svd", failing)
    with pytest.raises(ConvergenceError, match="every trial failed in mmimo_rate"):
        mmimo_rate(cfg)


def test_sweep_reports_failed_trials(monkeypatch):
    # each point's skipped trials, and the reference's, reach the sweep
    solve = mimo_harness._truncated_svd
    calls = []

    def flaky(h, algorithm, budget):
        calls.append((algorithm, budget))
        if (algorithm, budget) == ("gk", 2) and calls.count(("gk", 2)) == 1:
            raise ConvergenceError("stalled")
        return solve(h, algorithm, budget)

    monkeypatch.setattr(mimo_harness, "_truncated_svd", flaky)
    cfg = ChannelConfig(m=16, k=4, trials=2)
    sweep = rate_vs_iterations(cfg, [1, 2], algorithms=("gk", "4step"))
    assert sweep.meta["trials_failed"] == {"gk": [0, 1], "4step-dc": [0, 0], "reference": 0}
    assert sweep.meta["reported"] == {"gk": [1, 2], "4step-dc": [2, 4]}
