import math

import numpy as np
import pytest

from parsvd.errors import DimensionError, ValidationError
from parsvd.gram_svd import (
    DcDiagnostics,
    HermitianMatrix,
    TridiagonalReal,
    dc_eigen,
    gram,
    householder_vector,
    svd_4step,
    tridiagonalize,
    truncated_dc_eigen,
)
from parsvd.gram_svd import _PANEL, _rank1_eigen, _secular_root
from parsvd.matrix_core import fro_norm
from parsvd.reference_solvers import gk_svd, jacobi_eigen_oracle

from conftest import rand_complex, rand_hermitian


# ---------------------------------------------------------------------------
# gram


def test_gram_identity():
    b = gram(np.eye(2))
    np.testing.assert_allclose(b.mat, np.eye(2), atol=0)


def test_gram_single_column():
    b = gram(np.array([[1.0], [1j]]))
    np.testing.assert_allclose(b.mat, np.array([[2.0]]), atol=1e-15)


def test_gram_matches_matmul_oracle(rng):
    a = rand_complex(rng, 8, 4)
    want = a.conj().T @ a
    assert fro_norm(gram(a).mat - want) <= 1e-13 * fro_norm(want)


def test_gram_wide_rejected():
    with pytest.raises(DimensionError) as err:
        gram(np.ones((2, 4)))
    assert "adjoint" in str(err.value)


def test_gram_is_exactly_hermitian(rng):
    b = gram(rand_complex(rng, 6, 5)).mat
    np.testing.assert_array_equal(b, b.conj().T)


def test_gram_overflow_is_loud(rng):
    # A^H A overflows: a typed error that names A's scale, and no warning
    with pytest.raises(ValidationError, match="largest magnitude"):
        gram(rand_complex(rng, 6, 4, scale=1e160))


# ---------------------------------------------------------------------------
# householder


def test_householder_already_aligned():
    step = householder_vector(np.array([1.0, 0.0]))
    np.testing.assert_allclose(step.apply([1.0, 0.0]), [1.0, 0.0], atol=1e-15)


def test_householder_3_4():
    step = householder_vector(np.array([3.0, 4.0]))
    assert step.xnorm == pytest.approx(5.0)
    np.testing.assert_allclose(step.v, np.array([8.0, 4.0]) / np.sqrt(80.0), atol=1e-15)
    np.testing.assert_allclose(step.apply([3.0, 4.0]), [5.0, 0.0], atol=1e-14)


def test_householder_scalar_phase():
    step = householder_vector(np.array([1j]))
    assert step.phase == pytest.approx(1j)
    np.testing.assert_allclose(step.apply([1j]), [1.0], atol=1e-15)


def test_householder_zero_is_skip():
    step = householder_vector(np.zeros(3, dtype=complex))
    assert step.skip
    y = np.array([1.0, 2j, 3.0])
    np.testing.assert_array_equal(step.apply(y), y)


def test_householder_zero_pivot_unit_phase(rng):
    x = np.array([0.0, 3.0 + 4j])
    step = householder_vector(x)
    assert step.phase == 1.0 + 0.0j
    out = step.apply(x)
    np.testing.assert_allclose(out, [5.0, 0.0], atol=1e-14)


def test_householder_random_maps_to_e1(rng):
    # real nonnegative leading entry on arbitrary complex inputs
    for _ in range(200):
        n = int(rng.integers(1, 9))
        x = rand_complex(rng, n, 1)[:, 0]
        step = householder_vector(x)
        out = step.apply(x)
        nrm = np.sqrt(np.sum(np.abs(x) ** 2))
        assert abs(out[0] - nrm) <= 1e-12 * max(nrm, 1.0)
        assert abs(out[0].imag) <= 1e-12 * max(nrm, 1.0)
        if n > 1:
            assert np.max(np.abs(out[1:])) <= 1e-12 * max(nrm, 1.0)
        assert np.sqrt(np.sum(np.abs(step.v) ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert abs(step.phase) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# tridiagonalization


def test_tridiagonalize_k1():
    t, q = tridiagonalize(HermitianMatrix.from_matrix([[4.0]]))
    np.testing.assert_array_equal(t.diag, [4.0])
    assert t.offdiag.size == 0
    np.testing.assert_array_equal(q, np.eye(1))


def test_tridiagonalize_diagonal_skips():
    b = np.diag([3.0, 1.0, 2.0]).astype(complex)
    t, q = tridiagonalize(HermitianMatrix.from_matrix(b))
    np.testing.assert_array_equal(t.diag, [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(t.offdiag, [0.0, 0.0])
    np.testing.assert_array_equal(q, np.eye(3))


def test_tridiagonalize_similarity_and_unitarity(rng):
    for k in (2, 3, 4, 8, 16):
        b = rand_hermitian(rng, k)
        t, q = tridiagonalize(HermitianMatrix.from_matrix(b))
        scale = fro_norm(b)
        assert fro_norm(q.conj().T @ b @ q - t.to_dense()) <= 1e-11 * scale
        assert fro_norm(q.conj().T @ q - np.eye(k)) <= 1e-11
        assert np.all(t.offdiag >= 0.0)


def test_tridiagonalize_eigenvalues_match_jacobi(rng):
    b = rand_hermitian(rng, 4)
    t, _ = tridiagonalize(HermitianMatrix.from_matrix(b))
    lam_t = jacobi_eigen_oracle(HermitianMatrix.from_matrix(t.to_dense().astype(complex))).lam
    lam_b = jacobi_eigen_oracle(HermitianMatrix.from_matrix(b)).lam
    assert np.max(np.abs(lam_t - lam_b)) <= 1e-10 * np.max(np.abs(lam_b))


def test_tridiagonalize_rejects_non_hermitian(rng):
    with pytest.raises(ValidationError):
        tridiagonalize(rand_complex(rng, 3, 3))


def test_tridiagonalize_rejects_complex_diagonal():
    # built without from_matrix's check, so the imaginary part gets through
    b = HermitianMatrix(mat=np.diag([1.0 + 1e-3j, 2.0, 3.0]))
    with pytest.raises(ValidationError, match="complex diagonal"):
        tridiagonalize(b)


@pytest.mark.parametrize("scale", [1e-20, 1e200])
def test_hermitian_checks_are_relative(scale):
    # far from norm 1, each check must still compare a deviation with the
    # matrix's own norm: no absolute floor below, no overflow above
    with pytest.raises(ValidationError, match="not Hermitian"):
        HermitianMatrix.from_matrix(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
    # an imaginary diagonal a tenth of the scale
    mat = scale * np.diag([1.0 + 0.1j, 2.0, 3.0])
    with pytest.raises(ValidationError, match="not Hermitian"):
        tridiagonalize(mat)
    with pytest.raises(ValidationError, match="complex diagonal"):
        tridiagonalize(HermitianMatrix(mat=mat))


@pytest.mark.parametrize("scale", [1e-20, 1e200, 0.0])
def test_from_matrix_accepts_scaled_hermitian(rng, scale):
    b = scale * rand_hermitian(rng, 6)
    np.testing.assert_array_equal(HermitianMatrix.from_matrix(b).mat, b)


def _per_step_tridiagonalize(b):
    # the unblocked reduction: one reflection, one full trailing update
    # B' = B - v w^H - w v^H and one update of Q_T per step
    k = b.shape[0]
    work = b.copy()
    q = np.eye(k, dtype=complex)
    off = np.zeros(k - 1)
    for j in range(k - 1):
        step = householder_vector(work[j + 1 :, j])
        off[j] = step.xnorm
        if step.skip:
            continue
        v = step.v
        sub = work[j + 1 :, j + 1 :]
        p = 2.0 * (sub @ v)
        w = p - np.vdot(v, p) * v
        work[j + 1 :, j + 1 :] = sub - np.outer(v, w.conj()) - np.outer(w, v.conj())
        block = q[:, j + 1 :]
        q[:, j + 1 :] = -step.phase * (block - 2.0 * np.outer(block @ v, v.conj()))
    return np.diag(work).real, off, q


def _check_blocked_reduction(b):
    # similarity, unitarity and sign bounds, agreement with the per-step
    # loop, and an input left as it was by the in-place update
    k = b.shape[0]
    herm = HermitianMatrix.from_matrix(b)
    before = herm.mat.copy()
    t, q = tridiagonalize(herm)
    np.testing.assert_array_equal(herm.mat, before)
    scale = fro_norm(b)
    assert fro_norm(q.conj().T @ b @ q - t.to_dense()) <= 1e-11 * scale
    assert fro_norm(q.conj().T @ q - np.eye(k)) <= 1e-11
    assert np.all(t.offdiag >= 0.0)
    d_ref, e_ref, q_ref = _per_step_tridiagonalize(herm.mat)
    assert np.max(np.abs(t.diag - d_ref), initial=0.0) <= 1e-11 * scale
    assert np.max(np.abs(t.offdiag - e_ref), initial=0.0) <= 1e-11 * scale
    assert fro_norm(q - q_ref) <= 1e-11 * k
    return t


@pytest.mark.parametrize("k", [1, 2, _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 1, 100])
def test_tridiagonalize_blocked_sizes(k):
    rng = np.random.default_rng(100 + k)
    _check_blocked_reduction(rand_hermitian(rng, k))


def test_tridiagonalize_skips_inside_a_panel(rng):
    # decoupled blocks and diagonal entries make columns 5, 6, 7, 19,
    # _PANEL - 1 and _PANEL zero below the subdiagonal: they skip inside
    # the first panel, at its last step and at the first step of the second
    k, edge = 2 * _PANEL + 4, _PANEL
    b = np.zeros((k, k), dtype=complex)
    b[:6, :6] = rand_hermitian(rng, 6)
    b[6:8, 6:8] = np.diag([2.0, -1.0])
    b[8:20, 8:20] = rand_hermitian(rng, 12)
    b[20:edge, 20:edge] = rand_hermitian(rng, edge - 20)
    b[edge, edge] = 0.5
    b[edge + 1 :, edge + 1 :] = rand_hermitian(rng, k - edge - 1)
    skips = [5, 6, 7, 19, edge - 1, edge]
    t = _check_blocked_reduction(b)
    np.testing.assert_array_equal(t.offdiag[skips], 0.0)
    assert np.all(np.delete(t.offdiag, skips) > 0.0)


def test_tridiagonalize_nearly_hermitian_input(rng):
    # within from_matrix's tolerance: an anti-Hermitian deviation and an
    # imaginary diagonal just under 1e-12 of the norm; the lower triangle
    # and the real diagonal are what gets reduced
    k = _PANEL + 9
    b = rand_hermitian(rng, k)
    noise = rand_complex(rng, k, k)
    noise = noise - noise.conj().T
    b = b + 0.4e-12 * fro_norm(b) / fro_norm(noise) * noise
    assert fro_norm(b - b.conj().T) > 0.0
    assert np.max(np.abs(np.diag(b).imag)) > 0.0
    _check_blocked_reduction(b)


def test_vector_update_equals_explicit_reflection(rng):
    # B' = B - v w^H - w v^H must equal P B P^H with P = -e^{-jt}(I - 2vv^H)
    for _ in range(20):
        b = rand_hermitian(rng, 6)
        x = rand_complex(rng, 6, 1)[:, 0]
        step = householder_vector(x)
        v = step.v
        p_mat = -np.conj(step.phase) * (np.eye(6) - 2.0 * np.outer(v, v.conj()))
        explicit = p_mat @ b @ p_mat.conj().T
        p_vec = 2.0 * (b @ v)
        w = p_vec - np.vdot(v, p_vec) * v
        vector_form = b - np.outer(v, w.conj()) - np.outer(w, v.conj())
        assert fro_norm(vector_form - explicit) <= 1e-12 * fro_norm(b)


@pytest.mark.parametrize("exp", [-565, 930])
def test_tridiagonalize_extreme_scale(exp):
    # about 1e-170 and 1e280: squaring the entries underflows or overflows
    # unless B is reduced at a power-of-two scale; with an exact scale, T
    # is the unscaled T times 2**exp and Q_T does not change at all
    b = rand_hermitian(np.random.default_rng(5), 8)
    t_ref, q_ref = tridiagonalize(b)
    t, q = tridiagonalize(b * 2.0**exp)
    np.testing.assert_array_equal(t.diag, np.ldexp(t_ref.diag, exp))
    np.testing.assert_array_equal(t.offdiag, np.ldexp(t_ref.offdiag, exp))
    np.testing.assert_array_equal(q, q_ref)


# ---------------------------------------------------------------------------
# divide and conquer


def residual(t: TridiagonalReal, eig):
    dense = t.to_dense()
    return np.max(np.abs(dense @ eig.q - eig.q * eig.lam))


def test_dc_diagonal_full_deflation():
    t = TridiagonalReal(diag=[3.0, 1.0, 2.0], offdiag=[0.0, 0.0])
    eig = dc_eigen(t)
    np.testing.assert_array_equal(eig.lam, [1.0, 2.0, 3.0])
    # permutation matrix columns
    q = np.abs(eig.q)
    assert np.all(np.isin(q.round(12), [0.0, 1.0]))


def test_dc_split_overflow_raises():
    # taking the coupling off the two facing diagonal entries can overflow,
    # and so can the top root of a merge
    cases = [
        ([1.7e308, 1.7e308, 0.0, 1.0], [-1.7e308, 1.0, 1.0]),
        ([1e308, 1e308], [1e308]),
        ([1.7e308, 1.7e308, 0.0, 1.0], [1.7e308, 1.0, 1.0]),
    ]
    for diag, offdiag in cases:
        t = TridiagonalReal(diag=diag, offdiag=offdiag)
        for solve in (dc_eigen, lambda t: truncated_dc_eigen(t, 1)):
            with np.errstate(over="ignore"), pytest.raises(ValidationError, match="finite"):
                solve(t)


def _assert_matches_lapack(t: TridiagonalReal, eig, rtol: float):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    ref = scipy_linalg.eigh_tridiagonal(t.diag, t.offdiag, eigvals_only=True)
    assert np.max(np.abs(eig.lam - ref)) <= rtol * max(1.0, np.max(np.abs(ref)))
    assert fro_norm(eig.q.T @ eig.q - np.eye(t.dim)) <= 1e-13


# components of every merge of a diagonal band: all of them deflate
_DIAGONAL_DEFLATIONS = {2: 2, 3: 5, 8: 24, 16: 64, 33: 167}


@pytest.mark.parametrize("k", sorted(_DIAGONAL_DEFLATIONS))
def test_dc_exact_splits(rng, k):
    # a zero coupling is a merge in which every weight deflates; with 2x2
    # blocks, every merge that does not deflate whole is a 2x2 secular
    # problem, which two model steps solve exactly
    d = rng.standard_normal(k)
    diagonal = TridiagonalReal(diag=d, offdiag=np.zeros(k - 1))
    for solve in (dc_eigen, lambda t: truncated_dc_eigen(t, 2)):
        eig = solve(diagonal)
        _assert_matches_lapack(diagonal, eig, 1e-13)
        assert eig.diagnostics.deflation_count == _DIAGONAL_DEFLATIONS[k]
        for first_zero in (0, 1):
            e = rng.standard_normal(k - 1)
            e[first_zero::2] = 0.0
            blocks = TridiagonalReal(diag=d, offdiag=e)
            _assert_matches_lapack(blocks, solve(blocks), 1e-13)


def test_dc_2x2_closed_form():
    # one rank-1 merge: the secular equation of diag(1, 2) + 1 * u u^T with
    # u = (1, 1)/sqrt(2), whose roots are the eigenvalues 2 -/+ sqrt(0.5)
    eig = dc_eigen(TridiagonalReal(diag=[1.5, 2.5], offdiag=[0.5]))
    assert eig.lam[0] == pytest.approx(2.0 - np.sqrt(0.5), rel=1e-12)
    assert eig.lam[1] == pytest.approx(2.0 + np.sqrt(0.5), rel=1e-12)


def test_secular_interlacing(rng):
    # every root of the secular equation lies strictly between its poles;
    # the last one below d[-1] + alpha * |u|^2
    d = np.sort(rng.standard_normal(6))
    u = rng.standard_normal(6) + np.sign(rng.standard_normal(6)) * 0.2
    asq = 0.7 * u * u
    rho_sum = float(np.sum(asq))
    for i in range(6):
        origin, tau, _ = _secular_root(d, asq, i, None)
        lam = d[origin] + tau
        lo = d[i]
        hi = d[i + 1] if i < 5 else d[5] + rho_sum
        assert lo < lam < hi


def test_dc_2x2_analytic():
    t = TridiagonalReal(diag=[2.0, 2.0], offdiag=[1.0])
    eig = dc_eigen(t)
    np.testing.assert_allclose(eig.lam, [1.0, 3.0], rtol=1e-13)
    want = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for col, pattern in ((0, np.array([1.0, -1.0]) / np.sqrt(2)), (1, want)):
        v = eig.q[:, col].real
        assert min(np.max(np.abs(v - pattern)), np.max(np.abs(v + pattern))) < 1e-12


def test_dc_matches_jacobi_8x8(rng):
    d = rng.standard_normal(8)
    e = rng.standard_normal(7)
    t = TridiagonalReal(diag=d, offdiag=e)
    eig = dc_eigen(t)
    oracle = jacobi_eigen_oracle(HermitianMatrix.from_matrix(t.to_dense().astype(complex)))
    assert np.max(np.abs(eig.lam - oracle.lam)) <= 1e-10 * np.max(np.abs(oracle.lam))
    assert eig.diagnostics.recursion_depth == 3
    assert eig.diagnostics.interlacing_violations == 0


def test_dc_negative_couplings(rng):
    # general tridiagonals have signed off-diagonals
    t = TridiagonalReal(diag=[1.0, -2.0, 0.5, 3.0], offdiag=[-1.0, 2.0, -0.3])
    eig = dc_eigen(t)
    oracle = jacobi_eigen_oracle(HermitianMatrix.from_matrix(t.to_dense().astype(complex)))
    np.testing.assert_allclose(eig.lam, oracle.lam, atol=1e-10 * np.max(np.abs(oracle.lam)))
    assert residual(t, eig) <= 1e-10 * np.max(np.abs(eig.lam))
    # a negative coupling is split off with weight |alpha| and its sign in
    # the coupling vector
    for k in (2, 3, 5, 16, 33, 64, 128):
        for _ in range(3):
            t = TridiagonalReal(diag=rng.standard_normal(k), offdiag=rng.standard_normal(k - 1))
            _assert_matches_lapack(t, dc_eigen(t), 1e-12)


def test_dc_orthonormality_and_residual(rng):
    for k in (2, 5, 16, 33, 64):
        d = rng.standard_normal(k)
        e = rng.standard_normal(max(k - 1, 0))
        t = TridiagonalReal(diag=d, offdiag=e)
        eig = dc_eigen(t)
        assert np.all(np.diff(eig.lam) >= 0)
        dev = fro_norm(eig.q.conj().T @ eig.q - np.eye(k))
        assert dev <= 1e-10 * np.sqrt(k)
        assert residual(t, eig) <= 1e-10 * np.max(np.abs(eig.lam))
        assert eig.diagnostics.recursion_depth == int(np.ceil(np.log2(k)))
        assert eig.diagnostics.interlacing_violations == 0


def test_dc_deflation_paths():
    # coincident poles trigger the rotation-based deflation
    t = TridiagonalReal(diag=[1.0, 1.0], offdiag=[0.5])
    eig = dc_eigen(t)
    np.testing.assert_allclose(eig.lam, [0.5, 1.5], rtol=1e-13)
    assert eig.diagnostics.deflation_count >= 1
    # negligible coupling deflates everything
    t2 = TridiagonalReal(diag=[2.0, 5.0], offdiag=[1e-300])
    eig2 = dc_eigen(t2)
    np.testing.assert_allclose(eig2.lam, [2.0, 5.0], atol=1e-12)


def test_merge_matches_per_root_loops(rng):
    # the recomputed weights and the eigenvector columns of a merge are
    # whole-array expressions; per-root loops with the same order of
    # operations are the reference and must give the same bits
    n = 40
    d = np.sort(rng.standard_normal(n))
    u = rng.standard_normal(n)
    rho = 0.7
    lam, s = _rank1_eigen(d, u, rho, None, DcDiagnostics())
    asq = rho * u * u
    roots = [_secular_root(d, asq, i, None) for i in range(n)]
    uhat = np.empty(n)
    for i in range(n):
        diffs = np.array([(d[o] - d[i]) + tau for o, tau, _ in roots])
        prod = diffs[i]
        if i > 0:
            prod *= np.prod(diffs[:i] / (d[:i] - d[i]))
        if i < n - 1:
            prod *= np.prod(diffs[i + 1 :] / (d[i + 1 :] - d[i]))
        uhat[i] = math.sqrt(max(prod, 0.0))
    uhat *= np.sign(u)
    want = np.empty((n, n))
    for i, (o, tau, _) in enumerate(roots):
        w = uhat / -((d - d[o]) - tau)
        want[:, i] = w / math.sqrt(float(np.sum(w * w)))
    np.testing.assert_array_equal(lam, [d[o] + tau for o, tau, _ in roots])
    np.testing.assert_array_equal(s, want)


def _haar_columns(rng, m, k):
    q, r = np.linalg.qr(rand_complex(rng, m, k))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _pinned_tridiagonal(spectrum):
    rng = np.random.default_rng(11)
    if spectrum == "gaussian":
        a = rand_complex(rng, 64, 32)
    else:
        sigma = np.concatenate([np.ones(16), np.linspace(0.9, 0.1, 16)])
        a = (_haar_columns(rng, 64, 32) * sigma) @ _haar_columns(rng, 32, 32).conj().T
    return tridiagonalize(gram(a))[0]


@pytest.mark.parametrize(
    "spectrum, budget, want",
    [
        ("gaussian", None, (641, 7, 5, 0, 0)),
        ("gaussian", 1, (160, 1, 5, 0, 0)),
        ("gaussian", 4, (572, 4, 5, 0, 0)),
        ("gaussian", 60, (641, 7, 5, 0, 0)),
        ("one-cluster", None, (334, 6, 5, 76, 0)),
    ],
)
def test_dc_counts_pinned(spectrum, budget, want):
    # DcDiagnostics (iterations total and max per root, depth, deflations,
    # interlacing violations) on the Gram tridiagonal of a 64x32 input; an
    # iteration is one rational-model step, the origin probe not counted
    t = _pinned_tridiagonal(spectrum)
    eig = dc_eigen(t) if budget is None else truncated_dc_eigen(t, budget)
    d = eig.diagnostics
    got = (
        d.newton_iterations_total,
        d.newton_iterations_max_per_root,
        d.recursion_depth,
        d.deflation_count,
        d.interlacing_violations,
    )
    assert got == want


def test_budget_bounds_iterations_per_root():
    t = _pinned_tridiagonal("gaussian")
    for budget in range(1, 9):
        assert truncated_dc_eigen(t, budget).diagnostics.newton_iterations_max_per_root <= budget


def test_truncated_budget_not_binding(rng):
    d = rng.standard_normal(8)
    e = rng.standard_normal(7)
    t = TridiagonalReal(diag=d, offdiag=e)
    full = dc_eigen(t)
    for budget in (50, 60):
        capped = truncated_dc_eigen(t, iter_budget=budget)
        np.testing.assert_array_equal(full.lam, capped.lam)
        np.testing.assert_array_equal(full.q, capped.q)


def test_truncated_single_step_2x2():
    t = TridiagonalReal(diag=[1.0, 2.0], offdiag=[1.0])
    one = truncated_dc_eigen(t, iter_budget=1)
    full = dc_eigen(t)
    # after the origin probe, one step of the two-pole model, which is
    # exact on a 2x2; the converged solve spends a second iteration on
    # confirming the root
    assert np.max(np.abs(one.lam - full.lam)) < 0.7
    assert one.diagnostics.newton_iterations_max_per_root == 1
    assert full.diagnostics.newton_iterations_max_per_root > 1
    np.testing.assert_array_equal(one.lam, full.lam)
    np.testing.assert_array_equal(one.q, full.q)


def test_truncated_mse_trend(rng):
    errs = []
    d = rng.standard_normal(16) * 3
    e = rng.standard_normal(15)
    t = TridiagonalReal(diag=d, offdiag=e)
    ref = dc_eigen(t).lam
    for budget in range(1, 11):
        lam = truncated_dc_eigen(t, budget).lam
        errs.append(np.mean((lam - ref) ** 2))
    assert errs[-1] <= 1e-18 or errs[-1] < errs[0] * 1e-6
    assert errs[5] <= errs[0]


# ---------------------------------------------------------------------------
# recovery and full pipeline


def test_recover_diag_matrix():
    a = np.diag([3.0, 2.0]).astype(complex)
    res = svd_4step(a)
    np.testing.assert_allclose(res.sigma, [3.0, 2.0], rtol=1e-12)
    assert fro_norm(a - res.reconstruct()) <= 1e-12
    assert fro_norm(res.u.conj().T @ res.u - np.eye(2)) <= 1e-12
    assert fro_norm(res.v.conj().T @ res.v - np.eye(2)) <= 1e-12


def test_recover_zero_matrix_rank_zero():
    res = svd_4step(np.zeros((3, 2)))
    np.testing.assert_array_equal(res.sigma, [0.0, 0.0])
    assert not np.any(res.valid)
    np.testing.assert_array_equal(res.u, np.zeros((3, 2)))


@pytest.mark.parametrize("factor", [1e150, 1e200, 1e-160, 1e-170])
def test_extreme_scaling(factor):
    # A^H A of these overflows or underflows unless A is scaled first, and
    # so do the reflector norms of the GK bidiagonalization
    a = rand_complex(np.random.default_rng(16), 16, 8) * factor
    ref = np.linalg.svd(a, compute_uv=False)
    for res in (svd_4step(a), gk_svd(a)[0]):
        assert np.max(np.abs(res.sigma - ref)) <= 1e-9 * ref[0]
        assert np.all(res.valid)
        assert fro_norm(res.u.conj().T @ res.u - np.eye(8)) <= 1e-10 * np.sqrt(8)


@pytest.mark.parametrize("exp", [-256, -252, 254])
def test_svd_4step_inside_unscaled_window(exp):
    # A left unscaled: the secular solve squares values on the scale of
    # A^H A, so the window must keep that square far from the subnormal
    # range and from overflow
    a = rand_complex(np.random.default_rng(3), 64, 64)
    ref = np.linalg.svd(a, compute_uv=False)
    res = svd_4step(a * 2.0**exp)
    assert np.max(np.abs(np.ldexp(res.sigma, -exp) - ref)) <= 1e-12 * ref[0]
    assert np.all(res.valid)
    assert fro_norm(res.u.conj().T @ res.u - np.eye(64)) <= 1e-10 * np.sqrt(64)


def test_identity_sigma():
    res = svd_4step(np.eye(4))
    np.testing.assert_allclose(res.sigma, np.ones(4), rtol=1e-12)


def test_sigma_matches_gk(rng):
    for m, k in ((8, 4), (32, 32)):
        a = rand_complex(rng, m, k)
        mine = svd_4step(a).sigma
        ref = gk_svd(a)[0].sigma
        assert np.max(np.abs(mine - ref)) <= 1e-9 * mine[0]


def test_large_reconstruction(rng):
    a = rand_complex(rng, 128, 16)
    res = svd_4step(a)
    assert fro_norm(a - res.reconstruct()) <= 1e-9 * fro_norm(a)


def test_unitarity_across_sizes(rng):
    for k in (2, 3, 7, 16, 64):
        a = rand_complex(rng, k + 5, k)
        res = svd_4step(a)
        bound = 1e-10 * np.sqrt(k)
        assert fro_norm(res.v.conj().T @ res.v - np.eye(k)) <= bound
        assert fro_norm(res.u.conj().T @ res.u - np.eye(k)) <= bound
        assert np.all(np.diff(res.sigma) <= 1e-12)


def test_gram_spectral_map(rng):
    a = rand_complex(rng, 12, 6)
    b = gram(a)
    lam = jacobi_eigen_oracle(b).lam
    sig = svd_4step(a).sigma
    np.testing.assert_allclose(np.sort(sig**2), lam, rtol=1e-9)


def test_unitary_preserves_fro_norm(rng):
    a = rand_complex(rng, 6, 6)
    res = svd_4step(a)
    x = rand_complex(rng, 6, 3)
    assert fro_norm(res.v @ x) == pytest.approx(fro_norm(x), rel=1e-10)


def test_determinism(rng):
    a = rand_complex(rng, 12, 5)
    r1 = svd_4step(a)
    r2 = svd_4step(a)
    np.testing.assert_array_equal(r1.sigma, r2.sigma)
    np.testing.assert_array_equal(r1.u, r2.u)
    np.testing.assert_array_equal(r1.v, r2.v)


def test_dc_config_validation():
    with pytest.raises(ValidationError):
        svd_4step(np.eye(2), sv_threshold=2.0)
