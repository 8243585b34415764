import math

import numpy as np
import pytest

from parsvd import gram_svd
from parsvd.errors import ConvergenceError, DimensionError, ValidationError
from parsvd.gram_svd import (
    DcDiagnostics,
    HermitianMatrix,
    TridiagonalReal,
    dc_eigen,
    gram,
    householder_vector,
    svd_4step,
    svd_4step_stack,
    tridiagonalize,
    tridiagonalize_stack,
    truncated_dc_eigen,
)
from parsvd.gram_svd import (
    _EPS,
    _MAX_NEWTON_ITERS,
    _PANEL,
    _SECULAR_TOL,
    _dc,
    _merge_level,
    _reflector_product,
    _secular_roots,
)
from parsvd.matrix_core import fro_norm, pow2_scale
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


@pytest.mark.parametrize("scale", [1e-160, 1e-170])
def test_gram_underflow_is_loud(scale):
    # A^H A underflows to a subnormal (1e-160) or a zero (1e-170) diagonal;
    # a zero A still has the zero Gram matrix
    a = rand_complex(np.random.default_rng(5), 10, 4)
    with pytest.raises(ValidationError, match="largest magnitude"):
        gram(scale * a)
    np.testing.assert_array_equal(gram(0.0 * a).mat, np.zeros((4, 4)))


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


def _lone_householder(x):
    # householder_vector as the one-matrix reduction computed it, on scalars:
    # (v, phase, ||x||), v None for a zero column
    xnorm = float(np.sqrt((x.real**2 + x.imag**2).sum()))
    if xnorm == 0.0:
        return None, 1.0 + 0.0j, 0.0
    a1 = np.abs(x[0])
    phase = x[0] / a1 if a1 > 0.0 else complex(1.0)
    w = x.copy()
    w[0] = x[0] + phase * xnorm
    wnorm = float(np.sqrt((w.real**2 + w.imag**2).sum()))
    return w / wnorm, complex(phase), xnorm


def _pair_swap(y):
    return y.reshape(-1, 2)[:, ::-1].ravel()


def _one_matrix_tridiagonalize(b):
    # the blocked reduction of one matrix, step by step on vectors, that
    # tridiagonalize_stack replaced: the bit-for-bit reference of every member
    k = b.shape[0]
    b_s, e = pow2_scale(b)
    work = np.tril(b_s, -1)
    work += work.conj().T
    np.fill_diagonal(work, b_s.diagonal().real)
    diag = np.empty(k, dtype=np.complex128)
    off = np.zeros(k - 1)
    turn = np.ones(k - 1, dtype=np.complex128)
    panels = []
    for j0 in range(0, k - 1, _PANEL):
        j1 = min(j0 + _PANEL, k - 1)
        vw = np.zeros((k, 2 * (j1 - j0)), dtype=np.complex128)
        for c, j in enumerate(range(j0, j1)):
            col = work[j:, j]
            done = vw[j:, : 2 * c]
            col -= done @ _pair_swap(done[0]).conj()
            diag[j] = col[0]
            v, phase, off[j] = _lone_householder(col[1:])
            if v is None:
                continue
            turn[j] = -phase
            p = work[j + 1 :, j + 1 :] @ v
            p -= done[1:] @ _pair_swap(v.conj() @ done[1:]).conj()
            p *= 2.0
            vw[j + 1 :, 2 * c] = v
            vw[j + 1 :, 2 * c + 1] = p - np.vdot(v, p) * v
        x = vw[j1:, 0::2] @ vw[j1:, 1::2].conj().T
        work[j1:, j1:] -= x + x.conj().T
        panels.append((j0, vw[None, :, 0::2]))
    diag[k - 1] = work[k - 1, k - 1]
    q = _reflector_product(panels, turn[None], 1)[0]
    return np.ldexp(diag.real, e), np.ldexp(off, e), q


def _assert_members_match_lone_reductions(mats):
    stacked = tridiagonalize_stack(mats)
    assert len(stacked) == len(mats)
    for i, (mat, (t, q)) in enumerate(zip(mats, stacked)):
        d_ref, e_ref, q_ref = _one_matrix_tridiagonalize(np.asarray(mat, dtype=complex))
        assert t.diag.tobytes() == d_ref.tobytes(), i
        assert t.offdiag.tobytes() == e_ref.tobytes(), i
        assert q.tobytes() == q_ref.tobytes(), i
        lone_t, lone_q = tridiagonalize(mat)
        assert lone_t.diag.tobytes() == d_ref.tobytes() and lone_q.tobytes() == q_ref.tobytes(), i


@pytest.mark.parametrize("k", [1, 2, 3, _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL, 2 * _PANEL + 1, 100])
def test_tridiagonalize_stack_members_match_lone_reductions(k):
    # a mixed stack across the panel edges: Gram matrices, a Hermitian
    # matrix with negative eigenvalues, a diagonal one (every step skips)
    # and a nearly Hermitian one; every member's T and Q_T are the
    # one-matrix reduction's, byte for byte
    rng = np.random.default_rng(200 + k)
    noisy = rand_hermitian(rng, k)
    noise = rand_complex(rng, k, k)
    noisy = noisy + 0.4e-12 * fro_norm(noisy) / fro_norm(noise - noise.conj().T) * (noise - noise.conj().T)
    indefinite = rand_complex(rng, k, k)
    mats = [
        rand_hermitian(rng, k),
        gram(rand_complex(rng, 2 * k, k)).mat,
        indefinite + indefinite.conj().T,
        np.diag(rng.standard_normal(k)).astype(complex),
        noisy,
    ]
    _assert_members_match_lone_reductions(mats)


def test_tridiagonalize_stack_skipped_reflector_beside_full_steps(rng):
    # one member is block diagonal, so its column 3 and the first column of
    # its second panel reduce to zero (identity steps) while its
    # neighbours' do not
    k = 2 * _PANEL + 5
    skipping = np.zeros((k, k), dtype=complex)
    for lo, hi in ((0, 4), (4, _PANEL + 1), (_PANEL + 1, k)):
        skipping[lo:hi, lo:hi] = rand_hermitian(rng, hi - lo)
    mats = [rand_hermitian(rng, k), skipping, rand_hermitian(rng, k)]
    _assert_members_match_lone_reductions(mats)
    t, _ = tridiagonalize_stack(mats)[1]
    np.testing.assert_array_equal(t.offdiag[[3, _PANEL]], 0.0)


def test_tridiagonalize_stack_members_keep_their_scales(rng):
    # every member is reduced at its own power-of-two scale: T scales back
    # exactly, and Q_T is the same at every scale
    k = _PANEL + 7
    b = rand_hermitian(rng, k)
    mats = [1e-200 * b, b, 1e200 * b, rand_hermitian(rng, k)]
    _assert_members_match_lone_reductions(mats)
    (_, q_small), (_, q_one), (_, q_big), _ = tridiagonalize_stack([2.0**-664 * b, b, 2.0**664 * b, b])
    assert q_small.tobytes() == q_one.tobytes() == q_big.tobytes()


def test_tridiagonalize_stack_typed_errors(rng):
    good = rand_hermitian(rng, 4)
    complex_diagonal = HermitianMatrix(mat=np.diag([1.0 + 1e-3j, 2.0, 3.0, 4.0]))
    with pytest.raises(ValidationError, match="not Hermitian"):
        tridiagonalize_stack([good, rand_complex(rng, 4, 4)])
    with pytest.raises(ValidationError, match="complex diagonal"):
        tridiagonalize_stack([good, complex_diagonal, good])
    # every member is checked as Hermitian before any is reduced
    with pytest.raises(ValidationError, match="not Hermitian"):
        tridiagonalize_stack([complex_diagonal, rand_complex(rng, 4, 4)])
    with pytest.raises(DimensionError, match="one shape"):
        tridiagonalize_stack([good, rand_hermitian(rng, 5)])
    with pytest.raises(DimensionError, match="one shape"):
        tridiagonalize_stack([])


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
    origins, taus, _ = _secular_roots(d[None, :], asq[None, :], None)
    for i in range(6):
        origin, tau = origins[0, i], taus[0, i]
        lam = d[origin] + tau
        lo = d[i]
        hi = d[i + 1] if i < 5 else d[5] + rho_sum
        assert lo < lam < hi


def _stable_quadratic(aq, bq, cq):
    """Roots of aq*x^2 - bq*x + cq = 0, computed without cancellation."""
    if aq == 0.0:
        if bq == 0.0:
            return math.nan, math.nan
        r = cq / bq
        return r, r
    disc = bq * bq - 4.0 * aq * cq
    if disc < 0.0:
        return math.nan, math.nan
    sq = math.sqrt(disc)
    if bq >= 0.0:
        big = (bq + sq) / (2.0 * aq)
    else:
        big = (bq - sq) / (2.0 * aq)
    if big == 0.0:
        return 0.0, 0.0
    other = cq / (aq * big)
    return big, other


def _secular_root(d, asq, i, cap):
    # the scalar reference of the lockstep kernel: root i on its own, with
    # the kernel's probe, bracket, model step and stopping tests
    n = d.size
    if n == 1:
        return 0, float(asq[0]), 0
    if i == n - 1:
        origin, lo, hi = i, 0.0, float(asq.sum())
        p1 = i - 1
    else:
        gap = float(d[i + 1] - d[i])
        fmid = 1.0 + float(np.sum(asq / ((d - d[i]) - 0.5 * gap)))
        origin, lo, hi = (i, 0.0, 0.5 * gap) if fmid >= 0.0 else (i + 1, -0.5 * gap, 0.0)
        p1 = i
    p2 = p1 + 1
    dd = d - d[origin]
    limit = _MAX_NEWTON_ITERS if cap is None else min(_MAX_NEWTON_ITERS, cap)
    tau = 0.5 * (lo + hi)
    # the signs of f (True where negative) and the bracket widths so far
    signs, widths = [], []
    for it in range(1, limit + 1):
        delta = dd - tau
        t = asq / delta
        fval = 1.0 + t.sum()
        if abs(fval) <= _SECULAR_TOL * (1.0 + np.abs(t).sum()):
            return origin, tau, it
        if fval < 0.0:
            lo = tau
        else:
            hi = tau
        if (hi - lo) <= 2.0 * _EPS * (abs(lo) + abs(hi)):
            return origin, tau, it
        signs.append(fval < 0.0)
        widths.append(hi - lo)
        # f changed sign on each of the last two steps while the bracket
        # did not halve over them: the next iterate is the midpoint
        cycling = (
            it >= 3
            and signs[-1] != signs[-2] != signs[-3]
            and widths[-1] > 0.5 * widths[-3]
        )
        s = t / delta
        fder = s.sum()
        d1 = delta[p1]
        d2 = delta[p2]
        sp = s[p1] + s[p2]
        beta = fder / sp if sp != 0.0 else 0.0
        c1 = beta * asq[p1]
        c2 = beta * asq[p2]
        c3 = fval - beta * (t[p1] + t[p2])
        bq = c3 * (d1 + d2) + c1 + c2
        cq = c3 * d1 * d2 + c1 * d2 + c2 * d1
        steps = [tau + eta for eta in _stable_quadratic(c3, bq, cq) if lo < tau + eta < hi]
        tau = min(steps, key=lambda c: abs(c - tau)) if steps else 0.5 * (lo + hi)
        if cycling:
            tau = 0.5 * (lo + hi)
    if cap is None:
        raise ConvergenceError(
            f"secular root did not converge in {_MAX_NEWTON_ITERS} iterations", bracket=(lo, hi)
        )
    return origin, tau, limit


def _scalar_roots(d, asq, cap):
    # the kernel's (origin, tau, iterations) from one scalar solve per root
    m, n = d.shape
    roots = [[_secular_root(d[g], asq[g], i, cap) for i in range(n)] for g in range(m)]
    return tuple(np.array([[root[c] for root in row] for row in roots]) for c in range(3))


@pytest.mark.parametrize("budget", [None, 1, 2, 4])
@pytest.mark.parametrize("spectrum", ["gaussian", "one-cluster", "glued", "clustered"])
def test_lockstep_roots_match_scalar_solves(monkeypatch, spectrum, budget):
    # every merge that a solve of a 128x64 Gram tridiagonal hands to the
    # kernel: each root's origin, tau and iteration count carry the bits of
    # the scalar solve of that root alone, and where the kernel raises (the
    # clustered draw without a budget), the first root to fail alone raises
    # the same error
    calls = []

    def recorded(d, asq, cap):
        try:
            out = _secular_roots(d, asq, cap)
        except ConvergenceError as exc:
            calls.append((d, asq, cap, exc))
            raise
        calls.append((d, asq, cap, out))
        return out

    monkeypatch.setattr(gram_svd, "_secular_roots", recorded)
    rng = np.random.default_rng(17)
    if spectrum == "gaussian":
        a = rand_complex(rng, 128, 64)
    else:
        sigma = {
            "one-cluster": np.concatenate([np.ones(32), np.linspace(0.9, 0.1, 32)]),
            "glued": 1.0 + 1e-9 * np.arange(64),
            "clustered": np.repeat([1.0, 0.75, 0.5, 0.25], 16),
        }[spectrum]
        a = (_haar_columns(rng, 128, 64) * sigma) @ _haar_columns(rng, 64, 64).conj().T
    t = tridiagonalize(gram(a))[0]
    try:
        dc_eigen(t) if budget is None else truncated_dc_eigen(t, budget)
    except ConvergenceError:
        pass
    assert calls
    raised = isinstance(calls[-1][3], ConvergenceError)
    assert raised == (spectrum == "clustered" and budget is None)
    for d, asq, cap, got in calls:
        if isinstance(got, ConvergenceError):
            with pytest.raises(ConvergenceError) as err:
                _scalar_roots(d, asq, cap)
            assert str(err.value) == str(got)
            assert err.value.bracket == got.bracket
            continue
        for have, want in zip(got, _scalar_roots(d, asq, cap)):
            assert have.shape == want.shape
            assert have.tobytes() == want.astype(have.dtype).tobytes()


def _bisected_root(d, asq, origin, lo, hi):
    # the root of 1 + sum asq / ((d - d[origin]) - tau) in (lo, hi), by
    # bisection to the last representable midpoint
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if 1.0 + np.sum(asq / ((d - d[origin]) - mid)) < 0.0:
            lo = mid
        else:
            hi = mid


def test_stall_merge_root_converges():
    # ROADMAP item 1's stall merge: from step 2 on, the model's iterates
    # alternated between the ends of the middle root's bracket, which was
    # still (4.33e-07, 2.06e-06) after _MAX_NEWTON_ITERS steps; the
    # two-cycle guard bisects it, and the root converges in 18 steps
    d = np.array([-1.66870738e-02, -1.79670915e-07, 9.82735371e-01, 1.0])
    u = np.array([1.0, 4.04190502e-06, 1.0, 0.0])
    rho = 0.016976349009189977
    [(lam, _)] = _merge_level([(d[None], u[None], np.array([rho]))], None, [DcDiagnostics()])
    # the zero weight deflates; the three kept roots converge
    asq = rho * u[:3] * u[:3]
    origin, tau, iters = _secular_roots(d[None, :3], asq[None, :], None)
    np.testing.assert_array_equal(iters, [[4, 18, 3]])
    want = _bisected_root(d[:3], asq, origin[0, 1], 4.3276538870171653e-07, 2.0614259683679092e-06)
    # the kernel stops at |f| <= _SECULAR_TOL (1 + sum |terms|), 2e-12 of
    # this root away from the bisected one
    assert abs(tau[0, 1] - want) <= 1e-11 * abs(want)
    assert lam[0, 1] == d[origin[0, 1]] + tau[0, 1]
    # a cap above the steps taken changes nothing
    capped = _secular_roots(d[None, :3], asq[None, :], 60)
    for have, got in zip((origin, tau, iters), capped):
        np.testing.assert_array_equal(have, got)


def test_gaussian_merge_root_converges():
    # ROADMAP item 1's benchmarked failure: the merge that stalled in
    # svd_4step on workloads.build("svd-gaussian", seed=51, cycle=48), its
    # 512x256 draw with BLAS at one thread; it is row 3 of a 4 x 64 kernel
    # group, 64 kept poles with weights rho u^2. Root 11 alternated between
    # the ends of its bracket, still (0.0016, 0.609) after _MAX_NEWTON_ITERS
    # steps; the two-cycle guard bisects it, and it converges in 10 steps
    d = np.array(
        [
            106.19777672691124, 110.06505073571432, 123.620504653543, 127.01169604961315,
            134.87013020519868, 135.17655409431592, 141.4019112454699, 146.9759226111659,
            152.27767315087442, 155.64661518788517, 171.82389682076655, 172.56495541509588,
            176.59472032249076, 181.63113534519488, 185.4485943944518, 192.32327569800148,
            203.9685622117735, 209.46668838389866, 217.09658451139353, 218.82213206604203,
            223.92424966034815, 230.36960289411115, 237.82716720993858, 238.95075361738074,
            247.13417216671226, 253.96286770675306, 258.6446467902402, 264.5933521068898,
            277.2394550730592, 282.4567572516955, 282.70256150304635, 286.8166587741773,
            295.73443291362975, 300.57788156162, 309.6728387958618, 320.82613495691163,
            330.81657874218814, 336.5334008483544, 336.78196113997734, 348.36483845386306,
            353.6039376647001, 363.87255592769213, 374.9042773436579, 379.3498187597958,
            386.2441305061644, 392.5391286772534, 398.48031061406283, 419.7304751553593,
            430.37226594764917, 439.18118749876527, 445.9209577892786, 457.6111823976436,
            461.40063868327286, 486.9053276786925, 488.5198065637136, 502.9427074816681,
            513.2974480268944, 531.8546423628013, 542.2295809603079, 569.9133699680418,
            575.2571485786532, 607.0197169298926, 627.8984065180297, 641.8734175796085
        ]
    )
    asq = np.array(
        [
            1.806117734066051e-05, 0.00010178137362939348, 0.8603347911973568, 6.107925747888647,
            24.724607031440797, 10.844271533656961, 5.156152381383283, 1.7515802884337914,
            2.832715755630473, 2.1500064354413113, 4.098019171651604, 0.00036787208437969625,
            11.693669472287818, 8.290762865937515, 3.0308825928097036, 0.48645976057262097,
            15.912713194411383, 2.6397902531300055, 1.0555566076640022, 9.322200487805459,
            1.8630203733280166, 5.374745019135474, 2.1601712642187625, 10.814711956125949,
            3.655951580804607, 6.834339139688797, 0.49995684802973217, 1.5802832863751857,
            1.2887712381657097, 1.1215227344128433, 0.6762046366624802, 2.5265898686510693,
            2.149972668183543, 0.6026149547825108, 2.2635160848974683, 0.177852486422444,
            1.440560583130781, 1.5886231908775883, 0.6238089375148239, 0.11472403668059002,
            2.915162663359076, 0.42210259881150175, 1.9841806908172688, 3.137221919405754,
            0.9431479569026886, 1.6586562750632128, 0.721337901948463, 1.0735186580846001,
            0.4771721203896768, 0.7055586781405353, 0.7504529107346617, 1.9600372065335177,
            0.5017777725895913, 0.7280212260590637, 0.24384679535277046, 0.7827664185144049,
            0.10910457297330421, 0.11561967121239392, 0.0017021197565491302, 1.433553079489849e-05,
            3.4090290884155996e-06, 1.7857106094136214e-10, 3.2543273840437147e-12,
            4.31057373323159e-15
        ]
    )
    origin, tau, iters = _secular_roots(d[None], asq[None], None)
    want = _bisected_root(d, asq, origin[0, 11], 0.0016242733609712623, 0.6088923057406935)
    assert abs(tau[0, 11] - want) <= 1e-12 * want
    # the other 63 roots never trip the guard: they take the 298 steps they
    # took before it, at most 7 each
    assert iters[0, 11] == 10
    assert iters.sum() == 308
    assert np.delete(iters[0], 11).max() == 7


# a clustered merge on which the two-cycle guard does not help: the first
# failure of workloads.build("svd-known-defects", seed=1, cycle=0), in its
# 256 x 128 clustered draw, captured with BLAS at one thread from the error
# it raises (ConvergenceError.poles and .weights, root 5)
_CLUSTERED_D = np.array(
    [
        0.06205237030351865, 0.062247567737319924, 0.2486109763670305, 0.2495373560970675,
        0.5624999966322441, 0.5624999982657898, 0.9999871825559824, 0.9999999185868917,
    ]
)
_CLUSTERED_ASQ = np.array(
    [
        0.0004487404169749392, 5.571654526837522e-29, 1.2206778407720532e-28,
        0.0004615472055938827, 3.3598675636303743e-09, 1.337974199974099e-23,
        1.2803428751379727e-05, 1.4095384200012462e-26,
    ]
)


def test_clustered_merge_raises_with_its_equation():
    # root 5's origin pole weighs 1.3e-23 against 3.4e-09 for its
    # neighbour; its bracket shrinks about 2x per step and is still open
    # after _MAX_NEWTON_ITERS steps. The error carries the bracket and the
    # equation it failed on, ready to be solved again
    d, asq = _CLUSTERED_D, _CLUSTERED_ASQ
    with pytest.raises(ConvergenceError) as err:
        _secular_roots(d[None], asq[None], None)
    assert err.value.bracket == (1.7342098176925817e-09, 1.7342098215517366e-09)
    assert err.value.root == 5
    assert err.value.poles.tobytes() == d.tobytes()
    assert err.value.weights.tobytes() == asq.tobytes()
    _, _, iters = _secular_roots(d[None], asq[None], 60)
    np.testing.assert_array_equal(iters, [[7, 7, 6, 4, 3, _MAX_NEWTON_ITERS, 3, 3]])


def test_convergence_error_names_the_first_open_root():
    # in a group of two equations whose first one converges, the error
    # carries the second one, and the bracket of its open root
    rng = np.random.default_rng(3)
    d_ok = np.sort(rng.standard_normal(8))
    asq_ok = 0.5 * rng.random(8)
    with pytest.raises(ConvergenceError) as alone:
        _secular_roots(_CLUSTERED_D[None], _CLUSTERED_ASQ[None], None)
    with pytest.raises(ConvergenceError) as err:
        _secular_roots(np.array([d_ok, _CLUSTERED_D]), np.array([asq_ok, _CLUSTERED_ASQ]), None)
    assert err.value.root == 5
    assert err.value.bracket == alone.value.bracket
    assert err.value.poles.tobytes() == _CLUSTERED_D.tobytes()
    assert err.value.weights.tobytes() == _CLUSTERED_ASQ.tobytes()


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
    [(lam, s)] = _merge_level([(d[None], u[None], np.array([rho]))], None, [DcDiagnostics()])
    lam, s = lam[0], s[0]
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


def _stack_members(k, rng):
    # one tridiagonal of every kind a stack must keep apart: Gram bands of
    # Gaussian, one-cluster, glued and clustered spectra, a diagonal band
    # (every merge deflates whole) and a band with exact splits
    members = {"gaussian": tridiagonalize(gram(rand_complex(rng, 2 * k, k)))[0]}
    for name, sigma in (
        ("one-cluster", np.concatenate([np.ones(k // 2), np.linspace(0.9, 0.1, k - k // 2)])),
        ("glued", 1.0 + 1e-9 * np.arange(k)),
        ("clustered", np.repeat([1.0, 0.75, 0.5, 0.25], -(-k // 4))[:k]),
    ):
        a = (_haar_columns(rng, 2 * k, k) * sigma) @ _haar_columns(rng, k, k).conj().T
        members[name] = tridiagonalize(gram(a))[0]
    members["diagonal"] = TridiagonalReal(diag=rng.standard_normal(k), offdiag=np.zeros(k - 1))
    e = rng.standard_normal(k - 1)
    e[::3] = 0.0
    members["exact-split"] = TridiagonalReal(diag=rng.standard_normal(k), offdiag=e)
    return members


@pytest.mark.parametrize("budget", [None, 1, 2, 4])
def test_stack_members_match_their_own_solves(budget):
    # every member of a stacked solve gets the bits of its solve alone:
    # eigenvalues, eigenvectors and every DcDiagnostics field
    rng = np.random.default_rng(18)
    for k in list(range(1, 41)) + [64]:
        members = _stack_members(k, rng)
        alone = {}
        for name, t in members.items():
            try:
                alone[name] = dc_eigen(t) if budget is None else truncated_dc_eigen(t, budget)
            except ConvergenceError:
                pass
        assert len(alone) >= 5, k
        names = list(alone)
        stacked = _dc([members[name] for name in names], budget)
        for name, got in zip(names, stacked):
            want = alone[name]
            assert got.lam.shape == want.lam.shape and got.q.shape == want.q.shape
            assert got.lam.tobytes() == want.lam.tobytes(), (k, name)
            assert got.q.tobytes() == want.q.tobytes(), (k, name)
            assert got.diagnostics == want.diagnostics, (k, name)


def test_stack_raises_when_a_member_raises():
    # one failing member fails the stack with the error type and message
    # of its own solve; its merges share kernel groups with the other
    # members', so where its roots fail in two merges the bracket can be
    # the other merge's
    rng = np.random.default_rng(17)
    sigma = np.repeat([1.0, 0.75, 0.5, 0.25], 16)
    a = (_haar_columns(rng, 128, 64) * sigma) @ _haar_columns(rng, 64, 64).conj().T
    stalls = tridiagonalize(gram(a))[0]
    good = tridiagonalize(gram(rand_complex(rng, 128, 64)))[0]
    with pytest.raises(ConvergenceError) as alone:
        dc_eigen(stalls)
    for stack in ([good, stalls], [stalls, good, good]):
        with pytest.raises(ConvergenceError) as err:
            _dc(stack, None)
        assert str(err.value) == str(alone.value)
    wide = TridiagonalReal(diag=[-9e307, 9e307], offdiag=[5e307])
    fine = TridiagonalReal(diag=[1.0, 2.0], offdiag=[0.5])
    with pytest.raises(ValidationError, match="finite"):
        _dc([fine, wide, fine], None)


def test_dc_overflowing_pole_spread_is_loud():
    # the two poles of this merge, -1.4e308 and 4e307, are 1.8e308 apart:
    # no secular solve can take their difference
    t = TridiagonalReal(diag=[-9e307, 9e307], offdiag=[5e307])
    for solve in (dc_eigen, lambda t: truncated_dc_eigen(t, 3)):
        with pytest.raises(ValidationError, match="finite"):
            solve(t)
    # a merge that deflates whole solves nothing, however far apart its poles
    wide = TridiagonalReal(diag=[-1e308, 1e308], offdiag=[1.0])
    np.testing.assert_array_equal(dc_eigen(wide).lam, [-1e308, 1e308])


@pytest.mark.parametrize("budget", [None, 3])
def test_svd_4step_stack_matches_svd_4step(budget):
    # scaled and unscaled members, and a threshold that leaves some
    # U columns invalid: each result is svd_4step's, bit for bit
    rng = np.random.default_rng(19)
    a = rand_complex(rng, 24, 12)
    low_rank = rand_complex(rng, 24, 3) @ rand_complex(rng, 3, 12)
    mats = [a, 1e200 * rand_complex(rng, 24, 12), low_rank, np.zeros((24, 12))]
    for sv_threshold in (1e-10, 0.5):
        stacked = svd_4step_stack(mats, budget, sv_threshold=sv_threshold)
        for mat, got in zip(mats, stacked):
            want = svd_4step(mat, budget, sv_threshold=sv_threshold)
            for field in ("u", "sigma", "v", "valid"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            assert got.diagnostics == want.diagnostics


def test_svd_4step_stack_rejects_mixed_shapes():
    with pytest.raises(DimensionError, match="one shape"):
        svd_4step_stack([np.eye(3), np.eye(4)])
    with pytest.raises(DimensionError, match="one shape"):
        svd_4step_stack([])
    with pytest.raises(ValidationError, match="sv_threshold"):
        svd_4step_stack([np.eye(3)], sv_threshold=1.0)


def test_svd_4step_stack_mixed_scales_match_lone_solves():
    # members far apart in scale (1e-200, 1 and 1e200) and a rank-deficient
    # one share one stacked reduction: every field of every member is its
    # lone svd_4step's, byte for byte
    rng = np.random.default_rng(23)
    mats = [
        1e-200 * rand_complex(rng, 64, 32),
        rand_complex(rng, 64, 32),
        1e200 * rand_complex(rng, 64, 32),
        rand_complex(rng, 64, 5) @ rand_complex(rng, 5, 32),
    ]
    for budget in (None, 2):
        for mat, got in zip(mats, svd_4step_stack(mats, budget)):
            want = svd_4step(mat, budget)
            for field in ("u", "sigma", "v", "valid"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            assert got.diagnostics == want.diagnostics


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
