import numpy as np
import pytest

from parsvd.errors import ParsvdError, ProfileError, TraceLimitError
from parsvd.gram_svd import HermitianMatrix, gram, tridiagonalize
from parsvd.latency_model import (
    BUILTIN_PROFILES,
    Dfg,
    DfgNode,
    HardwareProfile,
    OpCount,
    analytic_latency,
    ceil_log2,
    critical_path,
    householder_step_counts,
    load_profile,
    total_ops,
    trace_run,
)
from parsvd.latency_model.trace import TraceBuilder

from conftest import rand_complex

FP = BUILTIN_PROFILES["zynq-fp32"]
FXP = BUILTIN_PROFILES["zynq-fxp32"]


# ---------------------------------------------------------------------------
# profiles


def test_builtin_fp_values():
    assert FP.latency_ns == {"add": 14.910, "mul": 14.059, "div": 33.296, "sqrt": 26.963}
    assert FP.lut == {"add": 341, "mul": 660, "div": 757, "sqrt": 409}


def test_builtin_fxp_values():
    assert FXP.latency_ns == {"add": 6.039, "mul": 14.708, "div": 46.486, "sqrt": 23.987}
    assert FXP.lut == {"add": 32, "mul": 1074, "div": 1242, "sqrt": 352}


def test_unknown_profile():
    with pytest.raises(ProfileError):
        load_profile("no-such-profile")


def test_profile_file_roundtrip(tmp_path):
    path = tmp_path / "custom.profile"
    path.write_text(
        "name myboard\n"
        "add.ns 1.5\nmul.ns 2.0\ndiv.ns 4.0\nsqrt.ns 3.0\n"
        "add.lut 10\nmul.lut 20\ndiv.lut 30\nsqrt.lut 40\n"
    )
    prof = load_profile(str(path))
    assert prof.name == "myboard"
    assert prof.latency_ns["div"] == 4.0
    assert prof.lut["sqrt"] == 40


def test_profile_zero_latency_rejected(tmp_path):
    path = tmp_path / "bad.profile"
    path.write_text(
        "add.ns 0\nmul.ns 2.0\ndiv.ns 4.0\nsqrt.ns 3.0\n"
        "add.lut 10\nmul.lut 20\ndiv.lut 30\nsqrt.lut 40\n"
    )
    with pytest.raises(ProfileError):
        load_profile(str(path))


def test_profile_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad2.profile"
    path.write_text("add.ns 1.0\nthis-is-not-a-pair\n")
    with pytest.raises(ProfileError) as err:
        load_profile(str(path))
    assert ":2:" in str(err.value)


def test_profile_search_dir(tmp_path, monkeypatch):
    path = tmp_path / "board.profile"
    path.write_text(
        "add.ns 1\nmul.ns 1\ndiv.ns 1\nsqrt.ns 1\n"
        "add.lut 1\nmul.lut 1\ndiv.lut 1\nsqrt.lut 1\n"
    )
    monkeypatch.setenv("PARSVD_PROFILE_DIR", str(tmp_path))
    prof = load_profile("board.profile")
    assert prof.name == "board"


# ---------------------------------------------------------------------------
# graphs and critical paths


def test_adder_tree_depth_and_census():
    tb = TraceBuilder()
    vals = [tb.input(float(i)) for i in range(8)]
    out = tb.tree_sum(vals)
    tb.output(out)
    dfg = tb.to_dfg()
    assert dfg.census() == OpCount(add=7)
    est = critical_path(dfg, FP)
    assert est.critical_path == OpCount(add=3)
    assert est.ns == pytest.approx(44.730, abs=1e-9)


def test_tree_law_various_sizes():
    for n in (1, 2, 3, 5, 9, 16, 31):
        tb = TraceBuilder()
        out = tb.tree_sum([tb.input(1.0) for _ in range(n)])
        tb.output(out)
        dfg = tb.to_dfg()
        assert dfg.census() == OpCount(add=max(n - 1, 0))
        assert critical_path(dfg, FP).critical_path == OpCount(add=ceil_log2(n))


def test_single_sqrt_normalized():
    tb = TraceBuilder()
    tb.output(tb.sqrt(tb.input(2.0)))
    est = critical_path(tb.to_dfg(), FP)
    assert est.ns == pytest.approx(26.963)
    assert est.normalized_adders == pytest.approx(26.963 / 14.910)


def test_empty_graph_zero():
    est = critical_path(Dfg(), FP)
    assert est.ns == 0.0


def test_path_dominance(rng):
    b = gram(rand_complex(rng, 6, 4)).mat
    dfg = trace_run("4step-dc", b, iters=2)
    est = critical_path(dfg, FP)
    assert est.ns <= dfg.census().ns(FP)
    assert est.ns >= max(FP.latency_ns.values())


def test_profile_linearity(rng):
    b = gram(rand_complex(rng, 6, 4)).mat
    dfg = trace_run("4step-qr", b, iters=2)
    base = critical_path(dfg, FP)
    scaled_profile = HardwareProfile(
        name="x3",
        latency_ns={k: 3.0 * v for k, v in FP.latency_ns.items()},
        lut=FP.lut,
    )
    scaled = critical_path(dfg, scaled_profile)
    assert scaled.critical_path == base.critical_path
    assert scaled.ns == pytest.approx(3.0 * base.ns, rel=1e-12)


def test_cycle_detection():
    dfg = Dfg(nodes=[DfgNode(id=0, kind="add", deps=(1,)), DfgNode(id=1, kind="input", deps=())],
              labels=[None, None])
    with pytest.raises(ParsvdError):
        critical_path(dfg, FP)


def test_export_format(rng):
    b = gram(rand_complex(rng, 4, 2)).mat
    dfg = trace_run("tridiag", b)
    text = dfg.export_edges()
    lines = text.strip().split("\n")
    assert len(lines) == len(dfg)
    for line in lines[:20]:
        parts = line.split(" ")
        assert len(parts) == 3
        int(parts[0])
        assert parts[1] in ("add", "mul", "div", "sqrt", "input", "output")


# ---------------------------------------------------------------------------
# closed-form step costs


def test_step_counts_k4_step1():
    stages = householder_step_counts(4, 1)
    comp5, time5 = stages[4]
    assert comp5 == OpCount(add=30, mul=36)
    comp6, time6 = stages[5]
    assert time6 == OpCount(add=5, mul=2)
    comp8, time8 = stages[7]
    assert comp8 == OpCount(add=10 * 3 * 4 - 2 * 4, mul=12 * 3 * 4)
    assert time8 == OpCount()
    assert stages[1][1] == OpCount()


def test_step_counts_boundary_i1():
    # reflector of length one: the partial-sum reuse vanishes, leaving a
    # single addition in the norm and normalization stages
    stages = householder_step_counts(2, 1)
    assert stages[0][0] == OpCount(add=1, mul=2, sqrt=1)
    assert stages[0][1] == OpCount(add=1, mul=1, sqrt=1)
    assert stages[3][0] == OpCount(add=1, mul=2, div=2, sqrt=1)
    assert stages[3][1] == OpCount(add=1, mul=1, div=1, sqrt=1)


def test_step_counts_range_checks():
    with pytest.raises(ParsvdError):
        householder_step_counts(4, 0)
    with pytest.raises(ParsvdError):
        householder_step_counts(4, 4)


# ---------------------------------------------------------------------------
# trace versus closed forms (the core fidelity requirement)


@pytest.mark.parametrize("k_dim", [2, 4, 8])
def test_tridiag_stage_census_matches_table(rng, k_dim):
    b = gram(rand_complex(rng, k_dim + 2, k_dim)).mat
    dfg = trace_run("tridiag", b)
    for step in range(k_dim - 1):
        stages = householder_step_counts(k_dim, step + 1)
        for s in range(1, 9):
            got = dfg.census(lambda lab, step=step, s=s: lab == ("tridiag", step, s))
            assert got == stages[s - 1][0], f"step {step + 1} stage {s}"


@pytest.mark.parametrize("profile", [FP, FXP], ids=["fp", "fxp"])
@pytest.mark.parametrize("algorithm", ["tridiag", "4step-dc", "4step-qr", "gk"])
@pytest.mark.parametrize("k_dim", [2, 4, 8])
def test_trace_equals_analytic(rng, profile, algorithm, k_dim):
    iters = 3
    if algorithm == "gk":
        mat = rand_complex(rng, k_dim + 3, k_dim)
        dims = (k_dim + 3, k_dim)
    else:
        mat = gram(rand_complex(rng, k_dim + 2, k_dim)).mat
        dims = (k_dim, k_dim)
    dfg = trace_run(algorithm, mat, iters=iters)
    assert dfg.census() == total_ops(algorithm, dims, iters)
    got = critical_path(dfg, profile)
    want = analytic_latency(algorithm, dims, iters, profile)
    assert got.critical_path == want.critical_path
    assert got.ns == pytest.approx(want.ns, abs=1e-9)


def test_pivot_phase_off_critical_path(rng):
    # the phase stage contributes divisions and a square root to the
    # census but never to the path: the path carries exactly one division
    # per step (the reflector normalize) and two square roots per step
    k_dim = 4
    b = gram(rand_complex(rng, k_dim + 2, k_dim)).mat
    dfg = trace_run("tridiag", b)
    phase_ops = dfg.census(lambda lab: lab is not None and lab[0] == "tridiag" and lab[2] == 2)
    assert phase_ops == OpCount(div=2 * (k_dim - 1), sqrt=k_dim - 1)
    est = critical_path(dfg, FP)
    assert est.critical_path.div == k_dim - 1
    assert est.critical_path.sqrt == 2 * (k_dim - 1)


def test_trace_values_match_production(rng):
    b = gram(rand_complex(rng, 8, 6)).mat
    tb = TraceBuilder()
    from parsvd.latency_model.trace import trace_tridiagonalize

    dg, off, _ = trace_tridiagonalize(tb, b)
    t, _ = tridiagonalize(HermitianMatrix.from_matrix(b))
    got_d = np.array([v.value for v in dg])
    got_e = np.array([v.value for v in off])
    np.testing.assert_allclose(got_d, t.diag, atol=1e-10 * np.max(np.abs(t.diag)))
    np.testing.assert_allclose(got_e, t.offdiag, atol=1e-10 * np.max(np.abs(t.diag)))


def test_trace_size_limit(rng):
    big = np.eye(40, dtype=complex)
    with pytest.raises(TraceLimitError) as err:
        trace_run("tridiag", big)
    assert "analytic" in str(err.value)


def test_trace_deterministic(rng):
    b = gram(rand_complex(rng, 6, 4)).mat
    t1 = trace_run("4step-dc", b, iters=2).export_edges()
    t2 = trace_run("4step-dc", b, iters=2).export_edges()
    assert t1 == t2


def test_k1_zero_ops():
    assert total_ops("tridiag", (1, 1)) == OpCount()
    assert total_ops("4step-dc", (1, 1), 3) == OpCount()


def test_dc_depth_levels():
    # each merge level contributes its secular-iteration and eigenvector
    # square roots to the path: levels * (iters + 1), on top of the two
    # square roots per tridiagonalization step
    k_dim, iters = 8, 2
    est = analytic_latency("4step-dc", (k_dim, k_dim), iters, FP)
    tri = analytic_latency("tridiag", (k_dim, k_dim), 1, FP)
    levels = ceil_log2(k_dim)
    assert est.critical_path.sqrt - tri.critical_path.sqrt == levels * (iters + 1)


def test_total_ops_additivity():
    # once the eigenvector accumulator is dense, every extra sweep adds the
    # same operation count; early sweeps are cheaper thanks to the
    # structural zeros of the identity start
    a = total_ops("4step-qr", (8, 8), 10)
    b = total_ops("4step-qr", (8, 8), 11)
    c = total_ops("4step-qr", (8, 8), 12)
    diff1 = (b.add - a.add, b.mul - a.mul, b.div - a.div, b.sqrt - a.sqrt)
    diff2 = (c.add - b.add, c.mul - b.mul, c.div - b.div, c.sqrt - b.sqrt)
    assert diff1 == diff2
    early = total_ops("4step-qr", (8, 8), 1)
    two = total_ops("4step-qr", (8, 8), 2)
    assert two.total() - early.total() < diff1[0] + diff1[1] + diff1[2] + diff1[3]


def test_opcount_helpers():
    x = OpCount(add=2, mul=3, div=1, sqrt=1)
    y = x + OpCount(add=1)
    assert y.add == 3 and y.total() == 8
    assert x.scaled(2).mul == 6
    assert x.lut_weighted(FP) == 2 * 341 + 3 * 660 + 757 + 409
    assert OpCount.from_dict(x.as_dict()) == x
