"""Baseline decompositions: Golub-Kahan SVD, QR tridiagonal eigensolver,
and a cyclic complex Jacobi eigensolver used as a brute-force test oracle.

The Golub-Kahan (GK) path works directly on the rectangular matrix A
(bidiagonalize, then Givens sweeps); the QR path diagonalizes the
tridiagonal matrix produced by the Gram pipeline. Both chase implicit-shift
bulges through the unreduced blocks of a real band and share one block
scan and one convergence loop. Besides running to convergence, each runs a
fixed budget of plain (unshifted) sweeps, or yields a lazy per-sweep
history of plain-sweep estimates, so iteration-versus-accuracy searches
stop at the first sweep count that meets their target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError
from .gram_svd import (
    EigenDecomposition,
    HermitianMatrix,
    SvdResult,
    TridiagonalReal,
    householder_vector,
)
from .matrix_core import as_matrix, fro_norm, pow2_scale

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
    """Iteration bookkeeping for the sweep-based solvers.

    ``offdiag_norm_history`` records the convergence metric before the
    first sweep and after each one. ``effective_pipeline_iterations``
    counts the rotations left on the critical path once successive sweeps
    are overlapped: each extra sweep costs four rotations on a bidiagonal
    chase and two on a tridiagonal one, because a new sweep only waits
    for the first couple of updates of the previous one.
    ``trivial_mul_skips`` counts scalar multiplications avoided in the
    eigenvector accumulation thanks to structural zeros and ones.
    """

    sweeps: int = 0
    offdiag_norm_history: list[float] = field(default_factory=list)
    effective_pipeline_iterations: int = 0
    trivial_mul_skips: int = 0


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
    after _sweep_cap(K) sweeps. A chase step costs ``rotations_per_step``
    rotations on the critical path: two for GK, one for QR."""
    d, e = sweeper.d, sweeper.e
    cap = _sweep_cap(d.size)

    def metric():
        dmax = np.max(np.abs(d))
        emax = np.max(np.abs(e)) if e.size else 0.0
        return emax / dmax if dmax > 0 else 0.0

    report = SweepReport(offdiag_norm_history=[metric()])
    while report.offdiag_norm_history[-1] > _SWEEP_TOL:
        if report.sweeps >= cap:
            raise ConvergenceError(
                f"{name} did not converge in {cap} sweeps", history=report.offdiag_norm_history
            )
        sweeper.sweep()
        report.sweeps += 1
        report.offdiag_norm_history.append(metric())
    if report.sweeps:
        k, r = d.size, sweeper.rotations_per_step
        offset = r * min(2, max(k - 1, 1))
        report.effective_pipeline_iterations = r * (k - 1) + offset * (report.sweeps - 1)
    return report


# ---------------------------------------------------------------------------
# Golub-Kahan


def gk_bidiagonalize(a) -> Bidiagonal:
    """Reduce an M x K matrix (M >= K) to real upper bidiagonal form.

    Alternating left and right Householder reflections with a unit-phase
    factor that keeps the produced diagonal and superdiagonal real and
    nonnegative. Zero columns/rows take the skip path.
    """
    a = as_matrix(a)
    m, k = a.shape
    if m < k:
        raise DimensionError(f"gk_bidiagonalize expects rows >= cols, got {m}x{k}")
    work = a.copy()
    u0 = np.eye(m, dtype=np.complex128)
    v0 = np.eye(k, dtype=np.complex128)

    def _already_reduced(vec):
        # pivot real nonnegative with exact zeros below: nothing to do
        return (
            np.all(vec[1:] == 0.0)
            and vec[0].imag == 0.0
            and vec[0].real >= 0.0
        )

    for j in range(k):
        x = work[j:, j]
        if x.size > 1 and _already_reduced(x):
            pass
        elif x.size > 1:
            step = householder_vector(x)
            if not step.skip:
                v = step.v
                block = work[j:, j:]
                # P = -conj(phase) (I - 2 v v^H) applied from the left
                work[j:, j:] = -np.conj(step.phase) * (
                    block - 2.0 * np.outer(v, v.conj() @ block)
                )
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
            if _already_reduced(xr):
                continue
            step = householder_vector(np.conj(xr))
            if not step.skip:
                v = step.v
                block = work[j:, j + 1 :]
                # right-multiply by P^H built from the conjugated row
                work[j:, j + 1 :] = -step.phase * (
                    block - 2.0 * np.outer(block @ v, v.conj())
                )
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

    diag = work[range(k), range(k)]
    sup = work[range(k - 1), range(1, k)]
    imag = max(np.max(np.abs(diag.imag)), np.max(np.abs(sup.imag), initial=0.0))
    a_s, e = pow2_scale(a)
    if np.ldexp(imag, -e) > 1e-10 * fro_norm(a_s):
        raise ValidationError("bidiagonalization left complex band entries")
    return Bidiagonal(diag=diag.real.copy(), superdiag=sup.real.copy(), u0=u0, v0=v0)


def _gk_step(d, e, lo, hi, mu, urot, vrot):
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


def _apply_col_rotations(mat, rots, base):
    for j, c, s in rots:
        p = base + j
        cp = mat[:, p].copy()
        cq = mat[:, p + 1]
        mat[:, p] = c * cp + s * cq
        mat[:, p + 1] = -s * cp + c * cq


class _GkSweeper:
    """Working bidiagonal (d, e) of a GK solve, with U and V accumulated
    unless ``vectors`` is False."""

    rotations_per_step = 2

    def __init__(self, bd: Bidiagonal, shift: bool, vectors: bool = True):
        self.d = bd.diag.copy()
        self.e = bd.superdiag.copy()
        self.shift = shift
        k = self.d.size
        self.u = bd.u0[:, :k].copy() if vectors else None
        self.v = bd.v0.copy() if vectors else None

    def sweep(self):
        """Chase one bulge across every unreduced block."""
        d, e = self.d, self.e
        urot, vrot = ([], []) if self.u is not None else (None, None)
        for lo, hi in _unreduced_blocks(d, e):
            mu = _gk_shift(d, e, lo, hi) if self.shift else 0.0
            _gk_step(d, e, lo, hi, mu, urot, vrot)
        if self.u is not None:
            _apply_col_rotations(self.u, urot, 0)
            _apply_col_rotations(self.v, vrot, 0)


def _gk_result(sw: _GkSweeper) -> SvdResult:
    """Economy SVD of the current band: sigma descending, signs absorbed
    into U. U and V are None when the sweeper keeps no vectors."""
    sigma = np.abs(sw.d)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = v = None
    if sw.u is not None:
        u = (sw.u * np.where(sw.d < 0, -1.0, 1.0))[:, order]
        v = sw.v[:, order]
    valid = sigma > 0 if sigma.size and sigma[0] > 0 else np.zeros(sigma.size, dtype=bool)
    return SvdResult(u=u, sigma=sigma, v=v, valid=valid, diagnostics=None)


def gk_diagonalize(bd: Bidiagonal) -> tuple[SvdResult, SweepReport]:
    """Diagonalize a bidiagonal factor with shifted implicit QR sweeps.

    One sweep chases a bulge across every unreduced block. Iterates until
    the largest superdiagonal magnitude drops below 1e-12 times the
    largest diagonal magnitude, and raises ConvergenceError after 6 K
    sweeps. Returns the economy SVD (sigma descending, signs absorbed into
    U) together with a SweepReport.
    """
    sw = _GkSweeper(bd, shift=True)
    report = _converge(sw, "gk_diagonalize")
    return _gk_result(sw), report


def gk_svd(a) -> tuple[SvdResult, SweepReport]:
    """Convenience wrapper: bidiagonalize then diagonalize."""
    return gk_diagonalize(gk_bidiagonalize(a))


def gk_fixed_sweeps(bd: Bidiagonal, sweeps: int) -> SvdResult:
    """Run exactly ``sweeps`` plain sweeps and return the (possibly
    unconverged) decomposition; used for accuracy-versus-iterations studies."""
    sw = _GkSweeper(bd, shift=False)
    for _ in range(sweeps):
        sw.sweep()
    return _gk_result(sw)


def gk_singular_value_history(bd: Bidiagonal, max_sweeps: int):
    """Yield the descending singular-value estimates after each of up to
    ``max_sweeps`` plain sweeps.

    Lazy, and runs without accumulating U/V, so it is cheap enough for
    Monte Carlo iteration-count measurements.
    """
    sw = _GkSweeper(bd, shift=False, vectors=False)
    for _ in range(max_sweeps):
        sw.sweep()
        yield _gk_result(sw).sigma


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


class _BandAccumulator:
    """Eigenvector accumulation that skips structurally zero/one entries.

    Columns of Q start as identity basis vectors; each rotation widens the
    row-support interval of the two columns it touches. Rows outside the
    union of supports are untouched and the corresponding multiplications
    are counted as skipped relative to a dense column update.
    """

    def __init__(self, n: int):
        self.q = np.eye(n)
        self.lo = np.arange(n)
        self.hi = np.arange(n)
        self.n = n
        self.skipped = 0

    def rotate(self, j: int, c: float, s: float):
        lo = min(self.lo[j], self.lo[j + 1])
        hi = max(self.hi[j], self.hi[j + 1])
        rows = slice(lo, hi + 1)
        span = hi - lo + 1
        # dense cost is 4n multiplications; identity-start structure leaves
        # 4*span genuine ones minus the two pure basis entries
        self.skipped += 4 * (self.n - span)
        cp = self.q[rows, j].copy()
        cq = self.q[rows, j + 1]
        self.q[rows, j] = c * cp + s * cq
        self.q[rows, j + 1] = -s * cp + c * cq
        self.lo[j] = self.lo[j + 1] = lo
        self.hi[j] = self.hi[j + 1] = hi


def _qr_tridiag_step(d, e, lo, hi, mu, acc: _BandAccumulator | None):
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
        if acc is not None:
            acc.rotate(j, c, s)


class _QrSweeper:
    """Working tridiagonal (d, e) of a QR solve, with the eigenvectors
    accumulated unless ``vectors`` is False."""

    rotations_per_step = 1

    def __init__(self, t: TridiagonalReal, shift: bool, vectors: bool = True):
        self.d = t.diag.copy()
        self.e = t.offdiag.copy()
        self.shift = shift
        self.acc = _BandAccumulator(self.d.size) if vectors else None

    def sweep(self):
        """One QR iteration: a bulge chase over every unreduced block."""
        d, e = self.d, self.e
        for lo, hi in _unreduced_blocks(d, e):
            mu = _wilkinson_shift(d, e, lo, hi) if self.shift else 0.0
            _qr_tridiag_step(d, e, lo, hi, mu, self.acc)


def _qr_result(sw: _QrSweeper) -> EigenDecomposition:
    """Eigenvalues ascending with their eigenvectors; q is None when the
    sweeper keeps no vectors."""
    order = np.argsort(sw.d, kind="stable")
    q = None if sw.acc is None else sw.acc.q[:, order].astype(np.complex128)
    return EigenDecomposition(lam=sw.d[order], q=q, diagnostics=None)


def qr_fixed_sweeps(t: TridiagonalReal, sweeps: int) -> EigenDecomposition:
    """Run exactly ``sweeps`` plain QR iterations and return the (possibly
    unconverged) eigendecomposition with accumulated eigenvectors."""
    sw = _QrSweeper(t, shift=False)
    for _ in range(sweeps):
        sw.sweep()
    return _qr_result(sw)


def qr_eigenvalue_history(t: TridiagonalReal, max_iters: int):
    """Yield the ascending eigenvalue estimates after each of up to
    ``max_iters`` plain QR iterations, lazily and without eigenvectors."""
    sw = _QrSweeper(t, shift=False, vectors=False)
    for _ in range(max_iters):
        sw.sweep()
        yield _qr_result(sw).lam


def qr_tridiag_eigen(t: TridiagonalReal) -> tuple[EigenDecomposition, SweepReport]:
    """Symmetric tridiagonal eigensolver by Wilkinson-shifted implicit QR.

    Converges and fails as gk_diagonalize does (1e-12, 6 K sweeps); plain
    sweeps are qr_fixed_sweeps and qr_eigenvalue_history. The eigenvector
    matrix exploits its identity start: rotations only touch the filled
    band and the skipped multiplications are reported.
    """
    sw = _QrSweeper(t, shift=True)
    report = _converge(sw, "qr_tridiag_eigen")
    report.trivial_mul_skips = sw.acc.skipped
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
