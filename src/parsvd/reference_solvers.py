"""Baseline decompositions: Golub-Kahan SVD, QR tridiagonal eigensolver,
and a cyclic complex Jacobi eigensolver used as a brute-force test oracle.

The Golub-Kahan (GK) path works directly on the rectangular matrix A
(bidiagonalize, then Givens sweeps); the QR path diagonalizes the
tridiagonal matrix produced by the Gram pipeline. Both chase implicit-shift
bulges through the unreduced blocks of a real band and share one sweeper,
one block scan, one rotation accumulator and one convergence loop. Besides running to convergence, each runs a
fixed budget of plain (unshifted) sweeps, or yields a lazy per-sweep
history of plain-sweep estimates, so iteration-versus-accuracy searches
stop at the first sweep count that meets their target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError
from .gram_svd import (
    EigenDecomposition,
    HermitianMatrix,
    SvdResult,
    TridiagonalReal,
    householder_vector,
)
from .matrix_core import as_count, as_matrix, fro_norm, pow2_scale

_EPS = np.finfo(np.float64).eps
_SWEEP_TOL = 1e-12  # a converging solve stops at max |e| <= _SWEEP_TOL * max |d|
_JACOBI_TOL = 1e-13  # the oracle stops at an off-diagonal mass of _JACOBI_TOL * norm
_JACOBI_SWEEPS = 30


@dataclass(frozen=True)
class Bidiagonal:
    """Real upper bidiagonal factor with its accumulated unitary factors.

    u0^H A v0 equals the (M x K) matrix holding diag/superdiag in its top
    K x K block and zeros below.
    """

    diag: np.ndarray
    superdiag: np.ndarray
    u0: np.ndarray
    v0: np.ndarray

    @property
    def dim(self) -> int:
        return self.diag.size

    def to_dense(self, rows: int | None = None) -> np.ndarray:
        k = self.dim
        rows = k if rows is None else rows
        b = np.zeros((rows, k))
        b[range(k), range(k)] = self.diag
        b[range(k - 1), range(1, k)] = self.superdiag
        return b


@dataclass
class SweepReport:
    """Iteration bookkeeping for the sweep-based solvers: the number of
    sweeps run, and the convergence metric before the first sweep and after
    each one in ``offdiag_norm_history``."""

    sweeps: int = 0
    offdiag_norm_history: list[float] = field(default_factory=list)


def _givens(a: float, b: float) -> tuple[float, float, float]:
    """c, s, r with [c s; -s c]^T applied to (a, b) giving (r, 0)."""
    r = math.hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


def _unreduced_blocks(d, e):
    """Yield the unreduced blocks [lo, hi] of a band left to right, zeroing
    negligible couplings; each block is chased before the scan reads on."""
    k = d.size
    lo = 0
    while lo < k - 1:
        if abs(e[lo]) <= _EPS * (abs(d[lo]) + abs(d[lo + 1])):
            e[lo] = 0.0
            lo += 1
            continue
        hi = lo
        while hi < k - 1 and abs(e[hi]) > _EPS * (abs(d[hi]) + abs(d[hi + 1])):
            hi += 1
        yield lo, hi
        lo = hi + 1


def _sweep_cap(k: int) -> int:
    """6 K sweeps: LAPACK dbdsqr allows 6 K^2 inner steps (Demmel & Kahan,
    SIAM J. Sci. Stat. Comput. 11(5), 1990), and a sweep chases about K."""
    return 6 * k


def _converge(sweeper, name: str) -> SweepReport:
    """Sweep until max |e| <= _SWEEP_TOL * max |d|, raising ConvergenceError
    after _sweep_cap(K) sweeps, or as soon as the band holds a NaN or an
    infinity."""
    d, e = sweeper.d, sweeper.e
    cap = _sweep_cap(d.size)

    def metric():
        dmax = np.max(np.abs(d))
        emax = np.max(np.abs(e), initial=0.0)
        if not (np.isfinite(dmax) and np.isfinite(emax)):
            return math.nan
        return emax / dmax if dmax > 0 else (math.inf if emax > 0 else 0.0)

    report = SweepReport(offdiag_norm_history=[metric()])
    while not report.offdiag_norm_history[-1] <= _SWEEP_TOL:
        if math.isnan(report.offdiag_norm_history[-1]):
            raise ConvergenceError(
                f"{name} left a non-finite band after {report.sweeps} sweeps",
                history=report.offdiag_norm_history,
            )
        if report.sweeps >= cap:
            raise ConvergenceError(
                f"{name} did not converge in {cap} sweeps", history=report.offdiag_norm_history
            )
        sweeper.sweep()
        report.sweeps += 1
        report.offdiag_norm_history.append(metric())
    return report


def _apply_col_rotations(mat, rots):
    """Rotate the column pairs (j, j + 1) of ``mat`` in place by each
    (j, c, s) of ``rots``, in order."""
    for j, c, s in rots:
        cp = mat[:, j].copy()
        cq = mat[:, j + 1]
        mat[:, j] = c * cp + s * cq
        mat[:, j + 1] = -s * cp + c * cq


class _Sweeper:
    """Working band (d, e) of a sweep solve and the matrices its rotations
    accumulate into.

    ``step(d, e, lo, hi, mu, *rots)`` chases one bulge over a block with
    the shift ``shift(d, e, lo, hi)`` (zero when ``shift`` is None) and
    appends its rotations to one list per matrix of ``factors``; an empty
    ``factors`` keeps no vectors.
    """

    def __init__(self, d, e, step, shift, factors):
        self.d = d.copy()
        self.e = e.copy()
        self.step = step
        self.shift = shift
        self.factors = factors

    def sweep(self):
        """Chase one bulge across every unreduced block, then rotate the
        factors' columns."""
        d, e = self.d, self.e
        rots = [[] for _ in self.factors]
        for lo, hi in _unreduced_blocks(d, e):
            mu = self.shift(d, e, lo, hi) if self.shift else 0.0
            self.step(d, e, lo, hi, mu, *rots)
        for mat, r in zip(self.factors, rots):
            _apply_col_rotations(mat, r)


# ---------------------------------------------------------------------------
# Golub-Kahan


def _reduce_first_column(block, factor):
    """Left-multiply ``block`` and ``factor`` in place by the unitary that
    maps x = block[:, 0] onto (||x||, 0, ..., 0).

    Nothing is done when x already has that form (a real nonnegative pivot
    over exact zeros). A single row takes a bare phase; otherwise the
    unitary is the reflection -conj(phase) (I - 2 v v^H) of
    householder_vector, skipped when ||x|| underflows to zero.
    """
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


def gk_bidiagonalize(a) -> Bidiagonal:
    """Reduce an M x K matrix (M >= K) to real upper bidiagonal form.

    Column j is reduced by a left unitary and row j by a right one, which
    is a left unitary of the transposed view; both come from
    _reduce_first_column, so the produced diagonal and superdiagonal are
    real and nonnegative. U is accumulated as U^H and V as V^T, so that
    every update of a factor is a left multiplication too.
    """
    a = as_matrix(a)
    m, k = a.shape
    if m < k:
        raise DimensionError(f"gk_bidiagonalize expects rows >= cols, got {m}x{k}")
    work = a.copy()
    uh = np.eye(m, dtype=np.complex128)
    vt = np.eye(k, dtype=np.complex128)
    for j in range(k):
        _reduce_first_column(work[j:, j:], uh[j:])
        if j < k - 1:
            _reduce_first_column(work.T[j + 1 :, j:], vt[j + 1 :])

    diag = work[range(k), range(k)]
    sup = work[range(k - 1), range(1, k)]
    imag = max(np.max(np.abs(diag.imag)), np.max(np.abs(sup.imag), initial=0.0))
    a_s, e = pow2_scale(a)
    if np.ldexp(imag, -e) > 1e-10 * fro_norm(a_s):
        raise ValidationError("bidiagonalization left complex band entries")
    return Bidiagonal(diag=diag.real.copy(), superdiag=sup.real.copy(), u0=uh.conj().T, v0=vt.T)


def _gk_step(d, e, lo, hi, mu, urot=None, vrot=None):
    """One implicit-shift bulge chase over the block [lo, hi] of a bidiagonal.

    Rotations are appended to urot/vrot as (j, c, s) when provided.
    """
    f = d[lo] * d[lo] - mu
    g = d[lo] * e[lo]
    for j in range(lo, hi):
        c, s, r = _givens(f, g)
        if j > lo:
            e[j - 1] = r
        f = c * d[j] + s * e[j]
        e[j] = c * e[j] - s * d[j]
        g = s * d[j + 1]
        d[j + 1] = c * d[j + 1]
        if vrot is not None:
            vrot.append((j, c, s))
        c2, s2, r2 = _givens(f, g)
        d[j] = r2
        f = c2 * e[j] + s2 * d[j + 1]
        d[j + 1] = c2 * d[j + 1] - s2 * e[j]
        if j < hi - 1:
            g = s2 * e[j + 1]
            e[j + 1] = c2 * e[j + 1]
        if urot is not None:
            urot.append((j, c2, s2))
    e[hi - 1] = f


def _gk_shift(d, e, lo, hi):
    """Shift: smallest eigenvalue of the trailing 2x2 of B^T B."""
    if hi == lo:
        return 0.0
    dm, em = d[hi - 1], e[hi - 1]
    dn = d[hi]
    a11 = dm * dm + (e[hi - 2] * e[hi - 2] if hi - 1 > lo else 0.0)
    a12 = dm * em
    a22 = dn * dn + em * em
    tr = 0.5 * (a11 + a22)
    det = a11 * a22 - a12 * a12
    disc = max(tr * tr - det, 0.0)
    root = math.sqrt(disc)
    lam = tr - root if tr >= 0 else tr + root
    return lam


def _gk_sweeper(bd: Bidiagonal, shift: bool, vectors: bool = True) -> _Sweeper:
    """Sweeper on a copy of ``bd``, with U and V accumulated unless
    ``vectors`` is False."""
    factors = (bd.u0[:, : bd.dim].copy(), bd.v0.copy()) if vectors else ()
    return _Sweeper(bd.diag, bd.superdiag, _gk_step, _gk_shift if shift else None, factors)


def _gk_result(sw: _Sweeper) -> SvdResult:
    """Economy SVD of the current band: sigma descending, signs absorbed
    into U."""
    sigma = np.abs(sw.d)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u, v = sw.factors
    u = (u * np.where(sw.d < 0, -1.0, 1.0))[:, order]
    valid = sigma > 0
    return SvdResult(u=u, sigma=sigma, v=v[:, order], valid=valid, diagnostics=None)


def gk_diagonalize(bd: Bidiagonal) -> tuple[SvdResult, SweepReport]:
    """Diagonalize a bidiagonal factor with shifted implicit QR sweeps.

    One sweep chases a bulge across every unreduced block. Iterates until
    the largest superdiagonal magnitude drops below 1e-12 times the
    largest diagonal magnitude, and raises ConvergenceError after 6 K
    sweeps or on a non-finite band. Returns the economy SVD (sigma descending, signs absorbed into
    U) together with a SweepReport.
    """
    sw = _gk_sweeper(bd, shift=True)
    report = _converge(sw, "gk_diagonalize")
    return _gk_result(sw), report


def gk_svd(a) -> tuple[SvdResult, SweepReport]:
    """Bidiagonalize then diagonalize. A is first scaled by a power of two
    as in svd_4step (matrix_core.pow2_scale), and sigma scaled back."""
    a_s, e = pow2_scale(as_matrix(a))
    res, report = gk_diagonalize(gk_bidiagonalize(a_s))
    return replace(res, sigma=np.ldexp(res.sigma, e)), report


def gk_fixed_sweeps(bd: Bidiagonal, sweeps: int) -> SvdResult:
    """Run exactly ``sweeps`` plain sweeps, an integer >= 1, and return the
    (possibly unconverged) decomposition; used for accuracy-versus-iterations
    studies."""
    sw = _gk_sweeper(bd, shift=False)
    for _ in range(as_count(sweeps, "sweeps")):
        sw.sweep()
    return _gk_result(sw)


def gk_singular_value_history(bd: Bidiagonal, max_sweeps: int):
    """Yield |d| of the band sorted descending, the singular-value
    estimates, after each of up to ``max_sweeps`` plain sweeps.

    Lazy, and runs without accumulating U/V, so it is cheap enough for
    Monte Carlo iteration-count measurements.
    """
    sw = _gk_sweeper(bd, shift=False, vectors=False)
    for _ in range(max_sweeps):
        sw.sweep()
        yield -np.sort(-np.abs(sw.d))


# ---------------------------------------------------------------------------
# QR iteration for the symmetric tridiagonal eigenproblem


def _wilkinson_shift(d, e, lo, hi):
    a = d[hi - 1]
    b = e[hi - 1]
    c = d[hi]
    delta = 0.5 * (a - c)
    if delta == 0.0 and b == 0.0:
        return c
    sgn = 1.0 if delta >= 0 else -1.0
    return c - b * b / (delta + sgn * math.hypot(delta, b))


def _qr_tridiag_step(d, e, lo, hi, mu, rots=None):
    """One implicit-shift bulge chase over the block [lo, hi] of a
    tridiagonal. Rotations are appended to rots as (j, c, s) when provided."""
    x = d[lo] - mu
    z = e[lo]
    for j in range(lo, hi):
        c, s, r = _givens(x, z)
        if j > lo:
            e[j - 1] = r
        a, b, d1 = d[j], e[j], d[j + 1]
        d[j] = c * c * a + 2.0 * c * s * b + s * s * d1
        d[j + 1] = s * s * a - 2.0 * c * s * b + c * c * d1
        e[j] = (c * c - s * s) * b + c * s * (d1 - a)
        if j < hi - 1:
            z = s * e[j + 1]
            e[j + 1] = c * e[j + 1]
            x = e[j]
        if rots is not None:
            rots.append((j, c, s))


def _qr_sweeper(t: TridiagonalReal, shift: bool, vectors: bool = True) -> _Sweeper:
    """Sweeper on a copy of ``t``, with the eigenvectors accumulated from
    the identity unless ``vectors`` is False."""
    factors = (np.eye(t.diag.size),) if vectors else ()
    return _Sweeper(t.diag, t.offdiag, _qr_tridiag_step, _wilkinson_shift if shift else None, factors)


def _qr_result(sw: _Sweeper) -> EigenDecomposition:
    """Eigenvalues ascending with their real eigenvectors."""
    order = np.argsort(sw.d, kind="stable")
    return EigenDecomposition(lam=sw.d[order], q=sw.factors[0][:, order], diagnostics=None)


def qr_fixed_sweeps(t: TridiagonalReal, sweeps: int) -> EigenDecomposition:
    """Run exactly ``sweeps`` plain QR iterations, an integer >= 1, and
    return the (possibly unconverged) eigendecomposition with the
    accumulated real eigenvectors."""
    sw = _qr_sweeper(t, shift=False)
    for _ in range(as_count(sweeps, "sweeps")):
        sw.sweep()
    return _qr_result(sw)


def qr_eigenvalue_history(t: TridiagonalReal, max_iters: int):
    """Yield the diagonal of the band sorted ascending, the eigenvalue
    estimates, after each of up to ``max_iters`` plain QR iterations,
    lazily and without eigenvectors."""
    sw = _qr_sweeper(t, shift=False, vectors=False)
    for _ in range(max_iters):
        sw.sweep()
        yield np.sort(sw.d, kind="stable")


def qr_tridiag_eigen(t: TridiagonalReal) -> tuple[EigenDecomposition, SweepReport]:
    """Symmetric tridiagonal eigensolver by Wilkinson-shifted implicit QR.

    Converges and fails as gk_diagonalize does (1e-12, 6 K sweeps, or a
    non-finite band); plain sweeps are qr_fixed_sweeps and
    qr_eigenvalue_history. The eigenvectors start from the identity and
    take each sweep's rotations as GK's factors do.
    """
    sw = _qr_sweeper(t, shift=True)
    report = _converge(sw, "qr_tridiag_eigen")
    return _qr_result(sw), report


# ---------------------------------------------------------------------------
# Jacobi oracle


def jacobi_eigen_oracle(b) -> EigenDecomposition:
    """Cyclic two-sided complex Jacobi eigensolver for Hermitian matrices.

    Used as an independent oracle in tests: it shares no code with the
    tridiagonal pipeline. Sweeps rotate away each off-diagonal entry in
    turn until the off-diagonal Frobenius mass is below 1e-13 of the
    matrix norm, and raise ConvergenceError after 30 sweeps.
    """
    if isinstance(b, HermitianMatrix):
        work = b.mat.copy()
    else:
        work = HermitianMatrix.from_matrix(b).mat.copy()
    n = work.shape[0]
    vec = np.eye(n, dtype=np.complex128)
    scale = fro_norm(work)
    if scale == 0.0:
        return EigenDecomposition(lam=np.zeros(n), q=vec, diagnostics=None)

    def offnorm():
        o = work - np.diag(np.diag(work))
        return fro_norm(o)

    for _ in range(_JACOBI_SWEEPS):
        if offnorm() <= _JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                m = abs(apq)
                if m <= 1e-300:
                    continue
                phase = apq / m
                app = work[p, p].real
                aqq = work[q, q].real
                tau = (aqq - app) / (2.0 * m)
                tsign = 1.0 if tau >= 0 else -1.0
                tt = tsign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + tt * tt)
                s = tt * c
                # J = diag(1, conj(phase)) rotation in the (p, q) plane
                jp = np.array([c, -s * np.conj(phase)], dtype=np.complex128)
                jq = np.array([s, c * np.conj(phase)], dtype=np.complex128)
                colp = work[:, p].copy()
                colq = work[:, q].copy()
                work[:, p] = jp[0] * colp + jp[1] * colq
                work[:, q] = jq[0] * colp + jq[1] * colq
                rowp = work[p, :].copy()
                rowq = work[q, :].copy()
                work[p, :] = np.conj(jp[0]) * rowp + np.conj(jp[1]) * rowq
                work[q, :] = np.conj(jq[0]) * rowp + np.conj(jq[1]) * rowq
                work[p, q] = 0.0
                work[q, p] = 0.0
                vp = vec[:, p].copy()
                vq = vec[:, q].copy()
                vec[:, p] = jp[0] * vp + jp[1] * vq
                vec[:, q] = jq[0] * vp + jq[1] * vq
    else:
        raise ConvergenceError(
            f"jacobi oracle did not converge in {_JACOBI_SWEEPS} sweeps",
            history=[offnorm() / scale],
        )

    lam = np.real(np.diag(work))
    order = np.argsort(lam, kind="stable")
    return EigenDecomposition(lam=lam[order], q=vec[:, order], diagnostics=None)
