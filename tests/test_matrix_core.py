import numpy as np
import pytest

from parsvd import gram_svd
from parsvd.errors import DimensionError, ValidationError
from parsvd.gram_svd import TridiagonalReal, svd_4step, svd_4step_stack, truncated_dc_eigen
from parsvd.latency_model import BUILTIN_PROFILES, analytic_latency, total_ops, trace_run
from parsvd.latency_model.analytic import latency_breakdown
from parsvd.matrix_core import as_matrix, fro_norm
from parsvd.mimo_harness import ChannelConfig, iterations_to_mse, mmimo_rate
from parsvd.reference_solvers import (
    gk_bidiagonalize,
    gk_fixed_sweeps,
    gk_fixed_sweeps_stack,
    gk_singular_value_history,
    qr_eigenvalue_history,
    qr_fixed_sweeps,
    qr_fixed_sweeps_stack,
)


def test_fro_norm_cases():
    assert fro_norm(np.zeros((3, 2))) == 0.0
    assert fro_norm(np.eye(5)) == pytest.approx(np.sqrt(5), rel=1e-15)
    assert fro_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, rel=1e-15)


def test_nan_rejected():
    with pytest.raises(ValidationError):
        as_matrix(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValidationError):
        as_matrix(np.array([[1.0, np.inf * 1j]]))


def test_empty_rejected():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((0, 2)))


_RNG = np.random.default_rng(7)
_A = (_RNG.standard_normal((8, 4)) + 1j * _RNG.standard_normal((8, 4))) / np.sqrt(2.0)
_T = TridiagonalReal(np.array([2.0, 1.0, 3.0, 0.5]), np.array([0.5, -1.0, 0.25]))
_FP = BUILTIN_PROFILES["zynq-fp32"]
_CFG = ChannelConfig(m=8, k=4, trials=2)

# every entry point that takes an iteration budget, a sweep count, a panel or
# a trial count, with a fingerprint of its result
_COUNT_ENTRY_POINTS = {
    "truncated_dc_eigen": lambda n: truncated_dc_eigen(_T, n).q.tobytes(),
    "svd_4step": lambda n: svd_4step(_A, n).sigma.tobytes(),
    "svd_4step_stack": lambda n: svd_4step_stack([_A, _A], n)[1].sigma.tobytes(),
    "trace_run": lambda n: trace_run("4step-dc", _A.conj().T @ _A, n).export_edges(),
    "total_ops": lambda n: total_ops("4step-qr", (4, 4), n),
    "analytic_latency": lambda n: analytic_latency("4step-dc", (4, 4), n, _FP),
    "latency_breakdown": lambda n: latency_breakdown("gk", (6, 4), n, _FP),
    "qr_fixed_sweeps": lambda n: qr_fixed_sweeps(_T, n).q.tobytes(),
    "gk_fixed_sweeps": lambda n: gk_fixed_sweeps(gk_bidiagonalize(_A), n).u.tobytes(),
    "qr_fixed_sweeps_stack": lambda n: qr_fixed_sweeps_stack([_T, _T], n)[1].q.tobytes(),
    "gk_fixed_sweeps_stack": lambda n: gk_fixed_sweeps_stack([gk_bidiagonalize(_A)] * 2, n)[1].u.tobytes(),
    "qr_eigenvalue_history": lambda n: [lam.tobytes() for lam in qr_eigenvalue_history(_T, n)],
    "gk_singular_value_history": lambda n: [
        sigma.tobytes() for sigma in gk_singular_value_history(gk_bidiagonalize(_A), n)
    ],
    "ChannelConfig.panels": lambda n: ChannelConfig(m=8, k=4, panels=n),
    "ChannelConfig.trials": lambda n: ChannelConfig(m=8, k=4, trials=n),
    "iterations_to_mse": lambda n: iterations_to_mse("gk", _CFG, 1.0, sweep_cap=n),
    "mmimo_rate": lambda n: mmimo_rate(_CFG, n, "4step-qr"),
}


@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRY_POINTS))
def test_counts_are_integers_at_least_one(monkeypatch, entry):
    call = _COUNT_ENTRY_POINTS[entry]

    # a bad count is rejected before any work: no Gram matrix is formed
    def no_gram(*args):
        raise AssertionError("gram ran")

    with monkeypatch.context() as patch:
        patch.setattr(gram_svd, "gram", no_gram)
        for bad in (2.5, True, 0, -1):
            with pytest.raises(ValidationError, match=f"integer >= 1, got {bad!r}"):
                call(bad)
    assert call(np.int64(2)) == call(2)
