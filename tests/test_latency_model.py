import hashlib

import numpy as np
import pytest

from parsvd.errors import ParsvdError, ProfileError, TraceLimitError
from parsvd.gram_svd import HermitianMatrix, TridiagonalReal, gram, tridiagonalize
from parsvd.latency_model import (
    BUILTIN_PROFILES,
    Dfg,
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
from parsvd.latency_model.analytic import latency_breakdown
from parsvd.latency_model.trace import TraceBuilder, trace_dc

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
    dfg = tb.dfg
    assert dfg.census() == OpCount(add=7)
    est = critical_path(dfg, FP)
    assert est.critical_path == OpCount(add=3)
    assert est.ns == pytest.approx(44.730, abs=1e-9)


def test_tree_law_various_sizes():
    for n in (1, 2, 3, 5, 9, 16, 31):
        tb = TraceBuilder()
        out = tb.tree_sum([tb.input(1.0) for _ in range(n)])
        tb.output(out)
        dfg = tb.dfg
        assert dfg.census() == OpCount(add=max(n - 1, 0))
        assert critical_path(dfg, FP).critical_path == OpCount(add=ceil_log2(n))


def test_single_sqrt_normalized():
    tb = TraceBuilder()
    tb.output(tb.sqrt(tb.input(2.0)))
    est = critical_path(tb.dfg, FP)
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
    dfg = Dfg(kinds=["add", "input"], deps=[(1,), ()], overlapped=[False, False], labels=[None, None])
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


def _traced_and_dims(rng, algorithm, k_dim):
    if algorithm == "gk":
        return rand_complex(rng, k_dim + 3, k_dim), (k_dim + 3, k_dim)
    return gram(rand_complex(rng, k_dim + 2, k_dim)).mat, (k_dim, k_dim)


def _is_power_of_two(n):
    return n & (n - 1) == 0


# the 4step-dc path is exact only at powers of two; elsewhere see
# test_dc_closed_form_bounds_trace
_EXACT_PATH_CASES = [
    (k_dim, algorithm)
    for k_dim in range(1, 13)
    for algorithm in ("tridiag", "4step-dc", "4step-qr", "gk")
    if algorithm != "4step-dc" or _is_power_of_two(k_dim)
]


@pytest.mark.parametrize("profile", [FP, FXP], ids=["fp", "fxp"])
@pytest.mark.parametrize("k_dim,algorithm", _EXACT_PATH_CASES)
def test_trace_equals_analytic(rng, profile, algorithm, k_dim):
    for iters in (1, 3):
        mat, dims = _traced_and_dims(rng, algorithm, k_dim)
        dfg = trace_run(algorithm, mat, iters=iters)
        assert dfg.census() == total_ops(algorithm, dims, iters)
        got = critical_path(dfg, profile)
        want = analytic_latency(algorithm, dims, iters, profile)
        assert got.critical_path == want.critical_path
        assert got.ns == pytest.approx(want.ns, abs=1e-9)


@pytest.mark.parametrize("k_dim", [k for k in range(1, 13) if not _is_power_of_two(k)])
def test_dc_closed_form_bounds_trace(rng, k_dim):
    # the traced merges pair their adder trees in the sorted order of the
    # values, so the traced path varies with the input; the closed form's
    # balanced-tree depths bound it from above, op by op
    for iters in (1, 3):
        mat, dims = _traced_and_dims(rng, "4step-dc", k_dim)
        dfg = trace_run("4step-dc", mat, iters=iters)
        assert dfg.census() == total_ops("4step-dc", dims, iters)
        for profile in (FP, FXP):
            got = critical_path(dfg, profile)
            want = analytic_latency("4step-dc", dims, iters, profile)
            assert want.ns >= got.ns
            for kind in ("add", "mul", "div", "sqrt"):
                assert getattr(want.critical_path, kind) >= getattr(got.critical_path, kind), kind


# Closed forms beyond the explicit trace limit, at the iteration budgets of
# the latency-model benchmark: total_ops as (add, mul, div, sqrt), then the
# zynq-fp32 critical path in ns and ops, then latency_breakdown.
_PINNED = {
    ("tridiag", (64, 64), 4): (
        (1981118, 2251452, 4158, 189), 36937.635, (1693, 441, 63, 126),
        {"tridiagonalization": 36937.635, "total": 36937.635},
    ),
    ("tridiag", (256, 256), 4): (
        (128166654, 145074940, 65790, 765), 172655.475, (8405, 1785, 255, 510),
        {"tridiagonalization": 172655.475, "total": 172655.475},
    ),
    ("tridiag", (1024, 1024), 4): (
        (8224680958, 9300519932, 1049598, 3069), 784589.9549999998, (39885, 7161, 1023, 2046),
        {"tridiagonalization": 784589.9549999998, "total": 784589.9549999998},
    ),
    ("4step-dc", (64, 64), 4): (
        (2276477, 2450108, 87870, 2109), 47436.090000000004, (2014, 534, 171, 156),
        {"tridiagonalization": 36937.635, "diagonalization": 10498.455000000002,
         "total": 47436.090000000004},
    ),
    ("4step-dc", (256, 256), 4): (
        (141132797, 156475132, 1387774, 11005), 187502.43399999998, (8889, 1910, 399, 550),
        {"tridiagonalization": 172655.475, "diagonalization": 14846.958999999973,
         "total": 187502.43399999998},
    ),
    ("4step-dc", (1024, 1024), 4): (
        (8968165373, 10018868220, 22082558, 54269), 804202.8979999999, (40560, 7318, 1203, 2096),
        {"tridiagonalization": 784589.9549999998, "diagonalization": 19612.943000000087,
         "total": 804202.8979999999},
    ),
    ("4step-qr", (64, 64), 8): (
        (2016790, 2328644, 5166, 693), 38503.619000000006, (1724, 478, 70, 139),
        {"tridiagonalization": 36937.635, "diagonalization": 1565.984000000004,
         "total": 38503.619000000006},
    ),
    ("4step-qr", (256, 256), 8): (
        (128654102, 146122692, 69870, 2805), 174221.459, (8436, 1822, 262, 523),
        {"tridiagonalization": 172655.475, "diagonalization": 1565.9839999999967,
         "total": 174221.459},
    ),
    ("4step-qr", (1024, 1024), 8): (
        (8232136470, 9316509124, 1065966, 11253), 786155.9390000001, (39916, 7198, 1030, 2059),
        {"tridiagonalization": 784589.9549999998, "diagonalization": 1565.9840000002878,
         "total": 786155.9390000001},
    ),
    ("gk", (64, 64), 8): (
        (4613049, 5774176, 10458, 1385), 59458.42999999999, (2425, 798, 141, 274),
        {"bidiagonalization": 57148.183, "sweeps": 2310.2469999999958, "total": 59458.42999999999},
    ),
    ("gk", (512, 64), 8): (
        (179639869, 216653668, 67804, 1387), 66999.41399999999, (2933, 798, 140, 274),
        {"bidiagonalization": 64855.57000000001, "sweeps": 2143.8439999999828,
         "total": 66999.41399999999},
    ),
    ("gk", (256, 256), 8): (
        (283545529, 344059744, 140250, 5609), 264543.374, (11761, 3102, 525, 1042),
        {"bidiagonalization": 262233.127, "sweeps": 2310.247000000032, "total": 264543.374},
    ),
    ("gk", (1024, 1024), 8): (
        (17958584249, 21611134816, 2133978, 22505), 1176848.0300000003, (55273, 12318, 2061, 4114),
        {"bidiagonalization": 1174537.7829999998, "sweeps": 2310.2470000004396,
         "total": 1176848.0300000003},
    ),
}


@pytest.mark.parametrize(
    "algorithm,dims,iters", list(_PINNED), ids=[f"{a}-{m}x{k}" for a, (m, k), _ in _PINNED]
)
def test_closed_forms_pinned(algorithm, dims, iters):
    ops, ns, path, phases = _PINNED[(algorithm, dims, iters)]
    assert total_ops(algorithm, dims, iters) == OpCount(*ops)
    est = analytic_latency(algorithm, dims, iters, FP)
    assert est.ns == ns
    assert est.critical_path == OpCount(*path)
    assert latency_breakdown(algorithm, dims, iters, FP) == phases


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


def _traced_dc_values(t, iters):
    tb = TraceBuilder()
    lams, _ = trace_dc(tb, [tb.input(x) for x in t.diag], [tb.input(x) for x in t.offdiag], iters)
    return np.array([lam.value for lam in lams])


def test_trace_dc_values_stop_where_the_solver_stops(rng):
    # a root that meets the solver's stopping test keeps its value through
    # the remaining steps, so the trace computes the eigenvalues it prices
    def assert_eigenvalues(t, iters, rel):
        dense = t.to_dense()
        np.testing.assert_allclose(
            _traced_dc_values(t, iters), np.linalg.eigvalsh(dense),
            rtol=0, atol=rel * np.linalg.norm(dense, 2),
        )

    for iters in (1, 2, 3):
        assert_eigenvalues(TridiagonalReal(diag=[1.0, 2.0], offdiag=[1.0]), iters, 1e-15)
    for k in range(2, 9):
        assert_eigenvalues(tridiagonalize(gram(rand_complex(rng, 2 * k, k)))[0], 8, 1e-12)


def test_trace_size_limit(rng):
    big = np.eye(40, dtype=complex)
    with pytest.raises(TraceLimitError) as err:
        trace_run("tridiag", big)
    assert "analytic" in str(err.value)


def test_traced_graphs_pinned():
    # edges, census, critical path and labels of every traced schedule,
    # pinned by digest, so that a change of node order, of any edge or of
    # any label fails here
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for alg in ("tridiag", "4step-dc", "4step-qr", "gk"):
        for k in (1, 2, 3, 5, 8, 12, 16):
            a = rand_complex(rng, k + 2, k)
            dfg = trace_run(alg, a if alg == "gk" else gram(a).mat, 2)
            est = critical_path(dfg, FP)
            for part in (dfg.export_edges(), repr(dfg.census()), repr(est), repr(dfg.labels)):
                h.update(part.encode())
    assert h.hexdigest() == "be75354e131de24649a1e794a8f640ecc0849a09e316b40844d69d64c285b1df"


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
