import hashlib
from collections import Counter

import numpy as np
import pytest

from parsvd.errors import DimensionError, ParsvdError, ProfileError, TraceLimitError
from parsvd.gram_svd import HermitianMatrix, TridiagonalReal, gram, tridiagonalize
from parsvd.latency_model import (
    BUILTIN_PROFILES,
    OP_KINDS,
    Dfg,
    HardwareProfile,
    LatencyEstimate,
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
from parsvd.latency_model.dfg import KINDS
from parsvd.latency_model.trace import ZERO, TraceBuilder, trace_dc

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


def test_profile_file_key_equals_value(tmp_path):
    # "key=value" pairs, comments and blank lines read as the plain form does
    path = tmp_path / "equals.profile"
    path.write_text(
        "# board timings\n\nname = myboard  # trailing comment\n"
        "add.ns=1.5\nmul.ns = 2.0\n   \ndiv.ns 4.0\nsqrt.ns=3.0\n"
        "add.lut=10\nmul.lut=20\ndiv.lut=30\nsqrt.lut=40\n# end\n"
    )
    prof = load_profile(str(path))
    assert prof.name == "myboard"
    assert prof.latency_ns == {"add": 1.5, "mul": 2.0, "div": 4.0, "sqrt": 3.0}
    assert prof.lut == {"add": 10, "mul": 20, "div": 30, "sqrt": 40}


def test_profile_zero_latency_rejected(tmp_path):
    path = tmp_path / "bad.profile"
    path.write_text(
        "add.ns 0\nmul.ns 2.0\ndiv.ns 4.0\nsqrt.ns 3.0\n"
        "add.lut 10\nmul.lut 20\ndiv.lut 30\nsqrt.lut 40\n"
    )
    with pytest.raises(ProfileError):
        load_profile(str(path))


def test_profile_infinite_latency_rejected(tmp_path):
    path = tmp_path / "inf.profile"
    path.write_text(
        "add.ns inf\nmul.ns 2.0\ndiv.ns 4.0\nsqrt.ns 3.0\n"
        "add.lut 10\nmul.lut 20\ndiv.lut 30\nsqrt.lut 40\n"
    )
    with pytest.raises(ProfileError, match="add.ns"):
        load_profile(str(path))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize("table, key", [("latency_ns", "div.ns"), ("lut", "sqrt.lut")])
def test_profile_non_finite_figure_rejected(bad, table, key):
    figures = {"latency_ns": dict.fromkeys(OP_KINDS, 1.0), "lut": dict.fromkeys(OP_KINDS, 1)}
    figures[table][key.split(".")[0]] = bad
    with pytest.raises(ProfileError, match=key):
        HardwareProfile(name="bad", **figures)


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


def _priced(emit):
    # census, critical-path ops and value of what ``emit(tb)`` computes
    tb = TraceBuilder()
    out = emit(tb)
    tb.output(out)
    return tb.dfg.census(), critical_path(tb.dfg, FP).critical_path, out.val.tolist()


def test_complex_multiply_price():
    # four products and two sums; one product and one sum on the path
    got = _priced(lambda tb: tb.cmul(tb.cinput(1 + 2j), tb.cinput(3 - 1j)))
    assert got == (OpCount(add=2, mul=4), OpCount(add=1, mul=1), [5.0, 5.0])


def test_conjugate_self_product_price():
    got = _priced(lambda tb: tb.cabs2(tb.cinput(3 + 4j)))
    assert got == (OpCount(add=1, mul=2), OpCount(add=1, mul=1), 25.0)


@pytest.mark.parametrize(
    "free, want", [("conj", [1.0, -2.0]), ("shift", [2.0, 4.0])], ids=["conj", "shift"]
)
def test_conjugate_and_shift_are_free(free, want):
    tb = TraceBuilder()
    z = tb.cinput(1 + 2j)
    out = tb.conj(z) if free == "conj" else tb.shift(z, 2.0)
    assert len(tb.dfg) == 2  # the two inputs, nothing else
    assert out.node.tolist() == z.node.tolist() and out.val.tolist() == want


def test_structural_zero_imaginary_lane():
    # a real value times a complex one: the products with the structural
    # zero drop out, and so do the sums they fed
    def real_times_complex(tb):
        x = tb.cinput(2.0)
        x[1] = ZERO
        return tb.cmul(x, tb.cinput(1 + 1j))

    assert _priced(real_times_complex) == (OpCount(mul=2), OpCount(mul=1), [2.0, 2.0])


def test_complex_ops_price_per_element():
    n = 5
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    census, path, val = _priced(lambda tb: tb.cmul(tb.cinput(x), tb.cinput(y)))
    assert (census, path) == (OpCount(add=2 * n, mul=4 * n), OpCount(add=1, mul=1))
    np.testing.assert_allclose(np.array(val) @ [1, 1j], x * y, rtol=1e-15)
    census, path, val = _priced(lambda tb: tb.cabs2(tb.cinput(x)))
    assert (census, path) == (OpCount(add=n, mul=2 * n), OpCount(add=1, mul=1))
    np.testing.assert_allclose(val, np.abs(x) ** 2, rtol=1e-15)


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


def _reference_critical_path(dfg, profile):
    # the node-at-a-time loop that critical_path relaxes in blocks: a
    # node's distance is its weight plus the largest operand distance, the
    # first operand in order winning while strictly greater than the best
    # so far (which starts at zero), and the path ends at the first argmax
    lat = profile.latency_ns
    nodes = list(dfg.nodes())
    n = len(nodes)
    if n == 0:
        return LatencyEstimate(ns=0.0, normalized_adders=0.0, critical_path=OpCount())
    dist = [0.0] * n
    pred = [-1] * n
    for i, (kind, deps, over, _) in enumerate(nodes):
        best = 0.0
        best_pred = -1
        for d in deps:
            if d >= i:
                raise ParsvdError(f"dfg inconsistency: node {i} depends on {d} (cycle)")
            if dist[d] > best:
                best = dist[d]
                best_pred = d
        dist[i] = best + (0.0 if over else lat.get(kind, 0.0))
        pred[i] = best_pred
    end = max(range(n), key=dist.__getitem__)
    counts = dict.fromkeys(OP_KINDS, 0)
    i = end
    while i != -1:
        kind, _, over, _ = nodes[i]
        if kind in counts and not over:
            counts[kind] += 1
        i = pred[i]
    return LatencyEstimate.from_path_counts(OpCount(**counts), profile)


# every operator costs the same, so that paths of different operations tie
UNIT = HardwareProfile(
    name="unit", latency_ns=dict.fromkeys(OP_KINDS, 1.0), lut=dict.fromkeys(OP_KINDS, 1)
)


def _graph(nodes, blocks):
    # nodes: (kind, operand ids, overlapped)
    deps = np.full((len(nodes), 2), -1)
    for i, (_, ops, _) in enumerate(nodes):
        deps[i, : len(ops)] = ops
    return Dfg(
        kinds=np.array([KINDS.index(kind) for kind, _, _ in nodes], dtype=np.int8),
        deps=deps,
        overlapped=np.array([over for _, _, over in nodes], dtype=bool),
        blocks=np.array(blocks),
        labels=[None] * len(blocks),
    )


_TIES = [
    ("input", (), False),           # 0
    ("input", (), False),           # 1
    ("add", (0, 1), False),         # 2: operands at distance zero
    ("mul", (0, 0), False),         # 3: a duplicate operand
    ("sqrt", (1,), True),           # 4: overlapped, so at distance zero
    ("div", (2, 3), False),         # 5: operands at equal distance, add first
    ("div", (3, 2), False),         # 6: the same, mul first
    ("mul", (4, 4), False),         # 7: an overlapped operand at distance zero
    ("add", (4, 2), False),         # 8: zero then positive distance
    ("sqrt", (6,), True),           # 9: an overlapped terminal, tied with 5 and 6
    ("output", (5,), False),        # 10
    ("output", (6,), False),        # 11
]


@pytest.mark.parametrize(
    "blocks",
    [list(range(12)), [0, 2, 5, 9, 10], [0], [0, 5]],
    ids=["per-node", "runs", "one-block", "two-blocks"],
)
def test_critical_path_ties_match_reference(blocks):
    # blocks that hold nodes depending on each other ("one-block",
    # "two-blocks") relax node by node
    g = _graph(_TIES, blocks)
    for profile in (UNIT, FP, FXP):
        assert critical_path(g, profile) == _reference_critical_path(g, profile)
    # the first of the equal terminals ends the path, through the first
    # of its equally distant operands
    assert critical_path(g, UNIT).critical_path == OpCount(add=1, div=1)
    swapped = [_TIES[i] for i in (0, 1, 2, 3, 4, 6, 5)]
    assert critical_path(_graph(swapped, [0]), UNIT).critical_path == OpCount(mul=1, div=1)


def test_critical_path_matches_reference_on_random_graphs():
    # many ties: integer weights, few kinds, runs of blocks of every size
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 80))
        nodes, blocks, start = [], [], 0
        while start < n:
            size = int(rng.integers(1, 6))
            blocks.append(start)
            for i in range(start, min(start + size, n)):
                arity = 0 if start == 0 else int(rng.integers(0, 3))
                ops = tuple(int(d) for d in rng.integers(0, start, arity)) if arity else ()
                kind = "input" if not ops else str(rng.choice(OP_KINDS + ("output",)))
                nodes.append((kind, ops, bool(rng.random() < 0.2)))
            start += size
        g = _graph(nodes, blocks)
        for profile in (UNIT, FP):
            assert critical_path(g, profile) == _reference_critical_path(g, profile)


@pytest.mark.parametrize("alg", ["tridiag", "4step-dc", "4step-qr", "gk"])
def test_critical_path_matches_reference_on_traces(rng, alg):
    for k in (1, 2, 3, 6):
        a = rand_complex(rng, k + 2, k)
        g = trace_run(alg, a if alg == "gk" else gram(a).mat, 2)
        for profile in (UNIT, FP, FXP):
            assert critical_path(g, profile) == _reference_critical_path(g, profile)


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
    # node 0 reads node 1, which comes after it
    dfg = Dfg(
        kinds=np.array([KINDS.index("add"), KINDS.index("input")], dtype=np.int8),
        deps=np.array([[1, -1], [-1, -1]]),
        overlapped=np.zeros(2, dtype=bool),
        blocks=np.array([0, 1]),
        labels=[None, None],
    )
    with pytest.raises(ParsvdError, match="node 0 depends on 1"):
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


@pytest.mark.parametrize("algorithm", ["tridiag", "4step-dc", "4step-qr", "gk"])
@pytest.mark.parametrize("k_dim", [1, 2, 4])
def test_zero_matrix_trace_equals_analytic(algorithm, k_dim):
    # a zero matrix divides by zero norms (TraceBuilder.div's zero-divisor
    # branch): every division is still an operator of the census, and the
    # path is the closed form's
    for iters in (1, 3):
        dfg = trace_run(algorithm, np.zeros((k_dim, k_dim)), iters=iters)
        assert dfg.census() == total_ops(algorithm, (k_dim, k_dim), iters)
        got = critical_path(dfg, FP)
        want = analytic_latency(algorithm, (k_dim, k_dim), iters, FP)
        assert got.critical_path == want.critical_path
        assert got.ns == pytest.approx(want.ns, abs=1e-9)


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


def _merkle_keys(dfg):
    # a key per node that no renumbering changes: it hashes the node's
    # kind, label, overlapped flag and its operands' keys in operand
    # order; an input or output also hashes its ordinal among its kind
    keys = []
    ordinals = Counter()
    for kind, deps, over, label in dfg.nodes():
        ordinal = None
        if kind in ("input", "output"):
            ordinal = ordinals[kind]
            ordinals[kind] += 1
        text = repr((kind, label, bool(over), ordinal, [keys[d] for d in deps]))
        keys.append(hashlib.blake2b(text.encode(), digest_size=16).digest())
    return keys


def test_traced_graphs_pinned():
    # every traced schedule's graph up to a renumbering of its nodes (the
    # multiset of node keys), its census, critical path and label counts,
    # pinned by digest, so that a change of any edge, operand order, label
    # or overlapped flag fails here
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for alg in ("tridiag", "4step-dc", "4step-qr", "gk"):
        for k in (1, 2, 3, 5, 8, 12, 16):
            a = rand_complex(rng, k + 2, k)
            dfg = trace_run(alg, a if alg == "gk" else gram(a).mat, 2)
            labels = Counter(label for _, _, _, label in dfg.nodes())
            h.update(b"".join(sorted(_merkle_keys(dfg))))
            for part in (dfg.census(), critical_path(dfg, FP), sorted(labels.items(), key=repr)):
                h.update(repr(part).encode())
    assert h.hexdigest() == "7dc6f353016ff220fb2dd7d14494ab4b53926e4cc28a9722e27fe5ad739d7fae"


@pytest.mark.parametrize(
    "dims", [(8.5, 4), (4, 4.0), (True, True), (4, True), (4,), (4, 4, 4), 4, None]
)
def test_dims_must_be_a_pair_of_integers(dims):
    # a float, a bool or anything but a pair is a DimensionError, as a
    # size below 1 is, in every closed-form entry point
    for call in (
        lambda: total_ops("gk", dims, 1),
        lambda: analytic_latency("4step-dc", dims, 2, FP),
        lambda: latency_breakdown("4step-qr", dims, 2, FP),
    ):
        with pytest.raises(DimensionError, match="pair of integers"):
            call()


def test_numpy_integer_dims_are_plain_ints():
    dims = (np.int64(12), np.int64(8))
    for alg in ("tridiag", "4step-dc", "4step-qr", "gk"):
        assert total_ops(alg, dims, 3) == total_ops(alg, (12, 8), 3)
        assert analytic_latency(alg, dims, 3, FP) == analytic_latency(alg, (12, 8), 3, FP)
        assert latency_breakdown(alg, dims, 3, FP) == latency_breakdown(alg, (12, 8), 3, FP)


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
