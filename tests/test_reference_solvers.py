from dataclasses import replace

import numpy as np
import pytest

from parsvd import reference_solvers
from parsvd.errors import ConvergenceError, DimensionError, ValidationError
from parsvd.gram_svd import (
    HermitianMatrix,
    TridiagonalReal,
    dc_eigen,
    gram,
    householder_vector,
    svd_4step,
    tridiagonalize,
)
from parsvd.matrix_core import fro_norm
from parsvd.reference_solvers import (
    Bidiagonal,
    _apply_col_rotations,
    _converge,
    _qr_sweeper,
    gk_bidiagonalize,
    gk_bidiagonalize_stack,
    gk_diagonalize,
    gk_fixed_sweeps,
    gk_fixed_sweeps_stack,
    gk_singular_value_history,
    gk_svd,
    jacobi_eigen_oracle,
    qr_eigenvalue_history,
    qr_fixed_sweeps,
    qr_fixed_sweeps_stack,
    qr_tridiag_eigen,
)

from conftest import rand_complex, rand_hermitian


# ---------------------------------------------------------------------------
# bidiagonalization


def test_bidiagonalize_already_bidiagonal_skips():
    a = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
    bd = gk_bidiagonalize(a)
    np.testing.assert_array_equal(bd.diag, [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(bd.superdiag, [1.0, 0.5])
    np.testing.assert_array_equal(bd.u0, np.eye(4))
    np.testing.assert_array_equal(bd.v0, np.eye(3))


def test_bidiagonalize_residual_and_band(rng):
    for m, k in ((2, 2), (4, 4), (8, 4), (16, 16), (12, 5)):
        a = rand_complex(rng, m, k)
        bd = gk_bidiagonalize(a)
        assert np.all(bd.diag >= 0.0)
        assert np.all(bd.superdiag >= 0.0)
        res = fro_norm(bd.u0.conj().T @ a @ bd.v0 - bd.to_dense(rows=m))
        assert res <= 1e-11 * fro_norm(a)
        assert fro_norm(bd.u0.conj().T @ bd.u0 - np.eye(m)) <= 1e-11
        assert fro_norm(bd.v0.conj().T @ bd.v0 - np.eye(k)) <= 1e-11


def test_bidiagonalize_rejects_underflowed_band(rng):
    # the reflector norms underflow, so the band keeps complex entries of
    # the input's own size; the bound is relative to that size
    with pytest.raises(ValidationError, match="complex band"):
        gk_bidiagonalize(1e-170 * rand_complex(rng, 16, 8))


def _two_sided_bidiagonalize(a):
    """Reference copy of the earlier gk_bidiagonalize loop, which kept a
    left and a right copy of each reduction step."""
    m, k = a.shape
    work = a.copy()
    u0 = np.eye(m, dtype=np.complex128)
    v0 = np.eye(k, dtype=np.complex128)

    def already_reduced(vec):
        return np.all(vec[1:] == 0.0) and vec[0].imag == 0.0 and vec[0].real >= 0.0

    for j in range(k):
        x = work[j:, j]
        if x.size > 1 and already_reduced(x):
            pass
        elif x.size > 1:
            step = householder_vector(x)
            if not step.skip:
                v = step.v
                block = work[j:, j:]
                work[j:, j:] = -np.conj(step.phase) * (block - 2.0 * np.outer(v, v.conj() @ block))
                work[j:, j] = 0.0
                work[j, j] = step.xnorm
                ub = u0[:, j:]
                u0[:, j:] = -step.phase * (ub - 2.0 * np.outer(ub @ v, v.conj()))
        else:
            piv = work[j, j]
            ap = abs(piv)
            if ap > 0.0:
                ph = piv / ap
                work[j, j:] = np.conj(ph) * work[j, j:]
                work[j, j] = ap
                u0[:, j] = ph * u0[:, j]
        if j < k - 2:
            xr = work[j, j + 1 :]
            if already_reduced(xr):
                continue
            step = householder_vector(np.conj(xr))
            if not step.skip:
                v = step.v
                block = work[j:, j + 1 :]
                work[j:, j + 1 :] = -step.phase * (block - 2.0 * np.outer(block @ v, v.conj()))
                work[j, j + 1 :] = 0.0
                work[j, j + 1] = step.xnorm
                vb = v0[:, j + 1 :]
                v0[:, j + 1 :] = -step.phase * (vb - 2.0 * np.outer(vb @ v, v.conj()))
        elif j == k - 2:
            piv = work[j, j + 1]
            ap = abs(piv)
            if ap > 0.0:
                ph = piv / ap
                work[:, j + 1] = np.conj(ph) * work[:, j + 1]
                v0[:, j + 1] = np.conj(ph) * v0[:, j + 1]
    diag = work[range(k), range(k)].real
    sup = work[range(k - 1), range(1, k)].real
    return diag, sup, u0, v0


def _zero_first_column(rng, m, k):
    a = rand_complex(rng, m, k)
    a[:, 0] = 0.0
    return a


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: rand_complex(rng, 6, 6),  # M = K: a bare-phase column
        lambda rng: rand_complex(rng, 7, 4),  # a bare-phase row, M > K
        lambda rng: rand_complex(rng, 5, 1),
        lambda rng: rand_complex(rng, 1, 1),
        lambda rng: rand_complex(rng, 4, 2),
        lambda rng: rand_complex(rng, 2, 2),
        lambda rng: _zero_first_column(rng, 6, 4),
        lambda rng: _zero_first_column(rng, 5, 5),
        lambda rng: np.array(
            [[3.0, 1.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex
        ),
        lambda rng: np.array([[2.0, -1.0j, 0.0], [0.0, -3.0, 1.0 + 1.0j], [0.0, 0.0, 1.0j]]),
    ],
    ids=["square", "tall", "k1", "1x1", "k2", "k2-square", "zero-col", "zero-col-square",
         "bidiagonal", "bidiagonal-complex"],
)
def test_bidiagonalize_matches_two_sided_reference(rng, make):
    # one reduction step serves both sides; the earlier two-sided loop is
    # the reference, entry by entry
    a = make(rng)
    bd = gk_bidiagonalize(a)
    diag, sup, u0, v0 = _two_sided_bidiagonalize(a)
    tol = 1e-13 * fro_norm(a)
    for got, want in ((bd.diag, diag), (bd.superdiag, sup), (bd.u0, u0), (bd.v0, v0)):
        assert np.max(np.abs(got - want), initial=0.0) <= tol


def _per_step_bidiagonalize(a):
    """Reference copy of the one-matrix gk_bidiagonalize loop that updated
    U^H and V^T at every step; the stacked reduction must give its band
    bit for bit."""
    m, k = a.shape
    work = a.copy()
    uh = np.eye(m, dtype=np.complex128)
    vt = np.eye(k, dtype=np.complex128)

    def reduce_first_column(block, factor):
        x = block[:, 0]
        if not np.any(x[1:]) and x[0].imag == 0.0 and x[0].real >= 0.0:
            return
        if x.size == 1:
            xnorm = abs(x[0])
            turn = np.conj(x[0] / xnorm)
            block *= turn
            factor *= turn
        else:
            step = householder_vector(x)
            if step.skip:
                return
            v, turn, xnorm = step.v, -np.conj(step.phase), step.xnorm
            block[:] = turn * (block - 2.0 * np.outer(v, v.conj() @ block))
            factor[:] = turn * (factor - 2.0 * np.outer(v, v.conj() @ factor))
            block[:, 0] = 0.0
        block[0, 0] = xnorm

    for j in range(k):
        reduce_first_column(work[j:, j:], uh[j:])
        if j < k - 1:
            reduce_first_column(work.T[j + 1 :, j:], vt[j + 1 :])
    diag = work[range(k), range(k)].real
    sup = work[range(k - 1), range(1, k)].real
    return diag, sup, uh.conj().T, vt.T


def _mixed_stack(rng, m, k):
    """Same-shape members that take every path of a reduction step: generic
    draws, a zero column, exact zeros from rounding, a real nonnegative
    bidiagonal (every step skipped), a complex bidiagonal (bare phases),
    and tiny entries whose squares underflow, below a pivot or in a whole
    column (a zero norm: the step is skipped)."""
    generic = [rand_complex(rng, m, k) for _ in range(3)]
    zero_col = rand_complex(rng, m, k)
    zero_col[:, k // 2] = 0.0
    rounded = np.round(2.0 * rand_complex(rng, m, k))
    band = np.zeros((m, k), dtype=complex)
    band[range(k), range(k)] = np.abs(rng.standard_normal(k))
    band[range(k - 1), range(1, k)] = np.abs(rng.standard_normal(k - 1))
    phased = band * np.exp(1j * rng.uniform(0.0, 6.0, (m, k)))
    tiny = rand_complex(rng, m, k)
    tiny[1:, 0] = 1e-170
    tinier = rand_complex(rng, m, k)
    tinier[:, 0] = 1e-170 + 1e-170j
    # (a lone tiny column would be all of A, whose complex band is loud)
    return generic[:1] + [zero_col, rounded, band] + generic[1:] + [phased, tiny] + [tinier] * (k > 1)


@pytest.mark.parametrize("m, k", [(6, 6), (7, 4), (9, 1), (2, 2), (64, 32)])
def test_stacked_bidiagonalize_matches_per_step_reference(rng, m, k):
    # each member's band has the bytes of the per-step loop, whatever the
    # other members' steps do; U0 and V0, formed once from the reflectors,
    # agree to rounding
    mats = _mixed_stack(rng, m, k)
    for a, bd in zip(mats, gk_bidiagonalize_stack(mats)):
        diag, sup, u0, v0 = _per_step_bidiagonalize(a)
        assert bd.diag.tobytes() == diag.tobytes()
        assert bd.superdiag.tobytes() == sup.tobytes()
        tol = 1e-13 * fro_norm(a)
        assert np.max(np.abs(bd.u0 - u0)) <= tol
        assert np.max(np.abs(bd.v0 - v0)) <= tol


def test_stacked_bidiagonalize_checks_the_stack(rng):
    with pytest.raises(DimensionError, match="one shape"):
        gk_bidiagonalize_stack([rand_complex(rng, 6, 4), rand_complex(rng, 6, 3)])
    with pytest.raises(DimensionError, match="one shape"):
        gk_bidiagonalize_stack([])
    with pytest.raises(DimensionError, match="rows >= cols"):
        gk_bidiagonalize_stack([rand_complex(rng, 3, 4)])
    with pytest.raises(ValidationError, match="complex band"):
        gk_bidiagonalize_stack([rand_complex(rng, 16, 8), 1e-170 * rand_complex(rng, 16, 8)])


def _decoupled(band, offdiag, cuts):
    """``band`` with the couplings at ``cuts`` set to zero (one of them -0.0)."""
    e = np.array(offdiag, dtype=float)
    e[cuts] = 0.0
    if cuts:
        e[cuts[0]] = -0.0
    return replace(band, superdiag=e) if isinstance(band, Bidiagonal) else TridiagonalReal(band.diag, e)


@pytest.mark.parametrize("sweeps", [1, 3, 12])
def test_stacked_fixed_sweeps_match_stack_of_one(rng, sweeps):
    # members with different deflated couplings chase different blocks, so
    # their rotation lists differ in length and position; each member
    # still gets the bytes of its own solve
    a = [rand_complex(rng, 12, 7) for _ in range(5)]
    cuts = [[], [3], [0, 5], [1, 2, 4], [2]]
    bds = [_decoupled(bd, bd.superdiag, c) for bd, c in zip(gk_bidiagonalize_stack(a), cuts)]
    bds.append(replace(bds[0], superdiag=np.zeros(6)))  # already diagonal: no rotation at all
    for got, bd in zip(gk_fixed_sweeps_stack(bds, sweeps), bds):
        want = gk_fixed_sweeps(bd, sweeps)
        for field in ("sigma", "u", "v", "valid"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    ts = [tridiagonalize(gram(x))[0] for x in a]
    ts = [_decoupled(t, t.offdiag, c) for t, c in zip(ts, cuts)]
    ts.append(TridiagonalReal(ts[0].diag, np.zeros(6)))
    for got, t in zip(qr_fixed_sweeps_stack(ts, sweeps), ts):
        want = qr_fixed_sweeps(t, sweeps)
        assert got.lam.tobytes() == want.lam.tobytes()
        assert got.q.tobytes() == want.q.tobytes()


def test_stacked_fixed_sweeps_check_the_stack(rng):
    bd = gk_bidiagonalize(rand_complex(rng, 6, 4))
    with pytest.raises(DimensionError, match="one shape"):
        gk_fixed_sweeps_stack([bd, gk_bidiagonalize(rand_complex(rng, 5, 4))], 2)
    with pytest.raises(DimensionError, match="one shape"):
        qr_fixed_sweeps_stack([TridiagonalReal([1.0], []), TridiagonalReal([1.0, 2.0], [0.5])], 2)


def test_permutation_matrix_singular_values():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sv, _ = gk_svd(a)
    np.testing.assert_allclose(sv.sigma, [1.0, 1.0], rtol=1e-12)
    assert fro_norm(a - sv.reconstruct()) <= 1e-12


# ---------------------------------------------------------------------------
# GK diagonalization


def test_gk_already_diagonal_zero_sweeps():
    bd = gk_bidiagonalize(np.diag([3.0, 2.0, 1.0]).astype(complex))
    sv, rep = gk_diagonalize(bd)
    assert rep.sweeps == 0
    assert len(rep.offdiag_norm_history) == 1
    np.testing.assert_allclose(sv.sigma, [3.0, 2.0, 1.0], rtol=0)


def test_gk_2x2_closed_form():
    # singular values of [[3, 1], [0, 2]]
    bd = Bidiagonal(
        diag=np.array([3.0, 2.0]),
        superdiag=np.array([1.0]),
        u0=np.eye(2, dtype=complex),
        v0=np.eye(2, dtype=complex),
    )
    sv, rep = gk_diagonalize(bd)
    tr = 9.0 + 4.0 + 1.0
    det = 36.0
    want_hi = np.sqrt((tr + np.sqrt(tr * tr - 4 * det)) / 2.0)
    want_lo = np.sqrt((tr - np.sqrt(tr * tr - 4 * det)) / 2.0)
    np.testing.assert_allclose(sv.sigma, [want_hi, want_lo], rtol=1e-12)
    assert rep.sweeps >= 1
    assert len(rep.offdiag_norm_history) == rep.sweeps + 1


def test_gk_matches_4step(rng):
    a = rand_complex(rng, 16, 16)
    sv, rep = gk_diagonalize(gk_bidiagonalize(a))
    mine = svd_4step(a).sigma
    assert np.max(np.abs(sv.sigma - mine)) <= 1e-9 * mine[0]
    assert fro_norm(a - sv.reconstruct()) <= 1e-10 * fro_norm(a)


def test_gk_history_decreases(rng):
    a = rand_complex(rng, 8, 8)
    _, rep = gk_diagonalize(gk_bidiagonalize(a))
    hist = rep.offdiag_norm_history
    assert hist[-1] <= 1e-12
    assert hist[-1] < hist[0]


def test_non_finite_band_raises():
    # both bands overflow to NaN in their first sweep; the loop used to
    # stop there and return NaN
    bd = Bidiagonal(
        diag=np.array([3e200, 2e200, 1e200]),
        superdiag=np.array([1e200, 1e200]),
        u0=np.eye(3, dtype=complex),
        v0=np.eye(3, dtype=complex),
    )
    t = TridiagonalReal(diag=[3e300, 2e300, 1e300], offdiag=[1e300, 1e300])
    for solve, band in ((gk_diagonalize, bd), (qr_tridiag_eigen, t)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError, match="non-finite") as err:
                solve(band)
        assert np.isnan(err.value.history[-1])


def test_zero_diagonal_is_not_converged():
    # an all-zero diagonal has converged only when the off-diagonal is
    # zero too
    eig, rep = qr_tridiag_eigen(TridiagonalReal(diag=[0.0, 0.0], offdiag=[1.0]))
    np.testing.assert_allclose(eig.lam, [-1.0, 1.0], rtol=1e-14)
    assert rep.sweeps == 1
    eig, _ = qr_tridiag_eigen(TridiagonalReal(diag=[0.0, 0.0, 0.0], offdiag=[1.0, 1.0]))
    np.testing.assert_allclose(eig.lam, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], atol=1e-14)
    # GK's zero-shift chase makes no progress here: loud, not wrong
    with pytest.raises(ConvergenceError):
        gk_svd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for solve, arg in ((qr_tridiag_eigen, TridiagonalReal(diag=[0.0, 0.0], offdiag=[0.0])),
                       (gk_svd, np.zeros((2, 2)))):
        assert solve(arg)[1].sweeps == 0


def test_gk_nonconvergence_raises(rng, monkeypatch):
    monkeypatch.setattr(reference_solvers, "_sweep_cap", lambda k: 1)
    a = rand_complex(rng, 8, 8)
    with pytest.raises(ConvergenceError) as err:
        gk_diagonalize(gk_bidiagonalize(a))
    assert err.value.history is not None


def test_baselines_converge_at_k320():
    # both need about 525 sweeps on this draw: the cap must grow with K
    a = rand_complex(np.random.default_rng(0), 320, 320)
    ref = np.linalg.svd(a, compute_uv=False)
    gk_sig = gk_svd(a)[0].sigma
    qr_lam = qr_tridiag_eigen(tridiagonalize(gram(a))[0])[0].lam
    qr_sig = np.sqrt(np.maximum(qr_lam[::-1], 0.0))
    for sig in (gk_sig, qr_sig):
        assert np.max(np.abs(sig - ref)) <= 1e-9 * ref[0]


def test_gk_fixed_sweeps_converges_to_full(rng):
    a = rand_complex(rng, 8, 4)
    bd = gk_bidiagonalize(a)
    full, _ = gk_diagonalize(bd)
    capped = gk_fixed_sweeps(bd, 200)
    assert np.max(np.abs(full.sigma - capped.sigma)) <= 1e-10 * full.sigma[0]
    assert fro_norm(a - capped.reconstruct()) <= 1e-10 * fro_norm(a)


def test_givens_rotations_preserve_norm(rng):
    mat = rand_complex(rng, 6, 6)
    before = fro_norm(mat)
    rots = [(0, 0.6, 0.8), (2, 0.8, -0.6), (4, 1.0, 0.0)]
    _apply_col_rotations(mat[None], [rots])
    assert fro_norm(mat) == pytest.approx(before, rel=1e-12)


# ---------------------------------------------------------------------------
# QR iteration


def test_qr_diagonal_zero_iterations():
    t = TridiagonalReal(diag=[3.0, 1.0, 2.0], offdiag=[0.0, 0.0])
    eig, rep = qr_tridiag_eigen(t)
    assert rep.sweeps == 0
    np.testing.assert_array_equal(eig.lam, [1.0, 2.0, 3.0])


def test_qr_2x2_analytic():
    t = TridiagonalReal(diag=[2.0, 2.0], offdiag=[1.0])
    eig, _ = qr_tridiag_eigen(t)
    np.testing.assert_allclose(eig.lam, [1.0, 3.0], rtol=1e-12)


def test_qr_matches_dc(rng):
    d = rng.standard_normal(16) * 2
    e = rng.standard_normal(15)
    t = TridiagonalReal(diag=d, offdiag=e)
    eig, _ = qr_tridiag_eigen(t)
    ref = dc_eigen(t)
    assert np.max(np.abs(eig.lam - ref.lam)) <= 1e-10 * np.max(np.abs(ref.lam))
    # reconstruction through the accumulated eigenvectors
    dense = t.to_dense()
    recon = (eig.q * eig.lam) @ eig.q.conj().T
    assert fro_norm(recon - dense) <= 1e-10 * fro_norm(dense)


def test_qr_unshifted_mode_converges_slower(rng, monkeypatch):
    # plain sweeps converge linearly: this band needs 407 of them to reach
    # 1e-10, and more than 500 for the converge mode's 1e-12
    monkeypatch.setattr(reference_solvers, "_SWEEP_TOL", 1e-10)
    monkeypatch.setattr(reference_solvers, "_sweep_cap", lambda k: 500)
    d = np.abs(rng.standard_normal(8)) * 3 + 1
    e = rng.standard_normal(7) * 0.5
    t = TridiagonalReal(diag=d, offdiag=e)
    shifted = _converge(_qr_sweeper(t, shift=True), "shifted")
    plain = _converge(_qr_sweeper(t, shift=False), "plain")
    assert plain.sweeps >= shifted.sweeps


def test_qr_fixed_sweeps_matches_converged(rng):
    d = rng.standard_normal(6)
    e = rng.standard_normal(5)
    t = TridiagonalReal(diag=d, offdiag=e)
    ref = dc_eigen(t)
    eig = qr_fixed_sweeps(t, 400)
    assert np.max(np.abs(eig.lam - ref.lam)) <= 1e-9 * np.max(np.abs(ref.lam))


@pytest.mark.parametrize("n", [1, 3, 10])
def test_history_entry_equals_fixed_sweeps(rng, n):
    # the n-th history entry and an n-sweep fixed run come from the same
    # plain sweeps, so they agree bit for bit
    a = rand_complex(rng, 12, 6)
    bd = gk_bidiagonalize(a)
    sigma = list(gk_singular_value_history(bd, 10))[n - 1]
    assert sigma.tobytes() == gk_fixed_sweeps(bd, n).sigma.tobytes()
    t, _ = tridiagonalize(gram(a))
    lam = list(qr_eigenvalue_history(t, 10))[n - 1]
    assert lam.tobytes() == qr_fixed_sweeps(t, n).lam.tobytes()


def test_histories_are_lazy(rng):
    # a history sweeps only as far as its consumer reads, whatever the cap
    a = rand_complex(rng, 6, 4)
    assert next(gk_singular_value_history(gk_bidiagonalize(a), 10**5)).shape == (4,)
    t, _ = tridiagonalize(gram(a))
    assert next(qr_eigenvalue_history(t, 10**5)).shape == (4,)


@pytest.mark.parametrize("bad", [0, -1, True, 2.5])
def test_history_counts_checked_at_the_call(rng, bad):
    # a bad count raises when the history is asked for, not at its first
    # next(), and never gives an empty or one-sweep history
    a = rand_complex(rng, 6, 4)
    t, _ = tridiagonalize(gram(a))
    with pytest.raises(ValidationError, match="max_sweeps must be an integer >= 1"):
        gk_singular_value_history(gk_bidiagonalize(a), bad)
    with pytest.raises(ValidationError, match="max_iters must be an integer >= 1"):
        qr_eigenvalue_history(t, bad)


# ---------------------------------------------------------------------------
# Jacobi oracle


def test_jacobi_diagonal_immediate():
    eig = jacobi_eigen_oracle(HermitianMatrix.from_matrix(np.diag([3.0, 1.0]).astype(complex)))
    np.testing.assert_array_equal(eig.lam, [1.0, 3.0])


def test_jacobi_2x2_hermitian():
    eig = jacobi_eigen_oracle(HermitianMatrix.from_matrix([[2.0, 1j], [-1j, 2.0]]))
    np.testing.assert_allclose(eig.lam, [1.0, 3.0], rtol=1e-12)


def test_jacobi_reconstruction(rng):
    b = HermitianMatrix.from_matrix(rand_hermitian(rng, 8))
    eig = jacobi_eigen_oracle(b)
    recon = (eig.q * eig.lam) @ eig.q.conj().T
    assert fro_norm(recon - b.mat) <= 1e-11 * fro_norm(b.mat)
    res = np.max(np.abs(b.mat @ eig.q - eig.q * eig.lam))
    assert res <= 1e-11 * fro_norm(b.mat)


# ---------------------------------------------------------------------------
# cross-solver agreement


def test_all_solvers_agree(rng):
    for k in (3, 8, 17, 32):
        a = rand_complex(rng, k + 3, k)
        sig = svd_4step(a).sigma
        gk_sig = gk_svd(a)[0].sigma
        b = gram(a)
        t, _ = tridiagonalize(b)
        qr_lam = qr_tridiag_eigen(t)[0].lam
        jb_lam = jacobi_eigen_oracle(b).lam
        qr_sig = np.sqrt(np.maximum(qr_lam[::-1], 0.0))
        jb_sig = np.sqrt(np.maximum(jb_lam[::-1], 0.0))
        scale = sig[0]
        for other in (gk_sig, qr_sig, jb_sig):
            assert np.max(np.abs(other - sig)) <= 1e-9 * scale
        assert np.max(np.abs(gk_sig - qr_sig)) <= 1e-9 * scale
        assert np.max(np.abs(gk_sig - jb_sig)) <= 1e-9 * scale
