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

The bidiagonalization and the plain sweeps take a stack of same-shape
problems (``gk_bidiagonalize_stack``, ``gk_fixed_sweeps_stack``,
``qr_fixed_sweeps_stack``); the one-matrix functions are stacks of one.
Each member's band is its own solve, bit for bit.
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
    _householder_stack,
    _reflector_product,
)
from .matrix_core import as_count, as_matrix, fro_norm, one_shape, pow2_scale

_EPS = np.finfo(np.float64).eps
_SWEEP_TOL = 1e-12  # a converging solve stops at max |e| <= _SWEEP_TOL * max |d|
_JACOBI_TOL = 1e-13  # the oracle stops at an off-diagonal mass of _JACOBI_TOL * norm
_JACOBI_SWEEPS = 30


@dataclass(frozen=True)
class Bidiagonal:
    """Real upper bidiagonal factor with its unitary factors.

    u0^H A v0 equals the (M x K) matrix holding diag/superdiag in its top
    K x K block and zeros below. gk_bidiagonalize forms u0 (M x M) and
    v0 (K x K) once, from the reduction's reflectors and phases.
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
    negligible couplings; each block is chased before the scan reads on.
    A block has hi > lo, and e[lo:hi] holds no zero."""
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
    """Sweep a stack of one until max |e| <= _SWEEP_TOL * max |d|, raising
    ConvergenceError after _sweep_cap(K) sweeps, or as soon as the band
    holds a NaN or an infinity."""
    d, e = sweeper.d[0], sweeper.e[0]
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


def _apply_col_rotations(mats, rots):
    """Rotate the column pairs (j, j + 1) of each ``mats[i]`` in place by
    each (j, c, s) of ``rots[i]``, in order.

    The t-th rotations of all members are applied together; a member with
    fewer than t + 1 rotations is left out of that step rather than given
    an identity rotation, which would turn -0.0 into +0.0.
    """
    counts = np.array([len(r) for r in rots])
    table = np.zeros((len(rots), counts.max(), 3))
    for row, r in zip(table, rots):
        if r:
            row[: len(r)] = r
    js = table[:, :, 0].astype(np.intp)
    # a step that every member takes at one column pair works on views
    shared = (js == js[0]).all(axis=0) & (np.arange(js.shape[1]) < counts.min())
    cols = list(mats.transpose(2, 0, 1))
    if len(rots) == 1:
        # a lone member's (c, s) as floats, which numpy applies faster
        # than a broadcast column
        coefs = table[0, :, 1:].tolist()
    else:
        coefs = [(cs[:, :1], cs[:, 1:]) for cs in table[:, :, 1:].transpose(1, 0, 2)]
    for t, (common, j, (c, s)) in enumerate(zip(shared.tolist(), js[0].tolist(), coefs)):
        if common:
            cp, cq = cols[j], cols[j + 1]
            sp = s * cp
            cp *= c
            cp += s * cq
            cq *= c
            cq -= sp
        else:
            members = np.flatnonzero(counts > t)
            j, c, s = js[members, t], c[members], s[members]
            cp, cq = mats[members, :, j], mats[members, :, j + 1]
            mats[members, :, j] = c * cp + s * cq
            mats[members, :, j + 1] = c * cq - s * cp


class _Sweeper:
    """Working bands of a stack of sweep solves, ``d[i]`` and ``e[i]``
    being member i's, and the stacked matrices their rotations accumulate
    into.

    ``step(d, e, lo, hi, mu, *rots)`` chases one bulge over a block of one
    member's band with the shift ``shift(d, e, lo, hi)`` (zero when
    ``shift`` is None) and appends its rotations to one list per matrix of
    ``factors``; an empty ``factors`` keeps no vectors.
    """

    def __init__(self, d, e, step, shift, factors):
        self.d = [np.array(x, dtype=np.float64) for x in d]
        self.e = [np.array(x, dtype=np.float64) for x in e]
        self.step = step
        self.shift = shift
        self.factors = factors

    def sweep(self):
        """Chase one bulge across every unreduced block of every member,
        one member at a time, then rotate the factors' columns."""
        rots = [[[] for _ in self.factors] for _ in self.d]
        for d, e, r in zip(self.d, self.e, rots):
            for lo, hi in _unreduced_blocks(d, e):
                mu = self.shift(d, e, lo, hi) if self.shift else 0.0
                self.step(d, e, lo, hi, mu, *r)
        for i, mat in enumerate(self.factors):
            _apply_col_rotations(mat, [r[i] for r in rots])


def _identities(count: int, k: int) -> np.ndarray:
    """A stack of K x K identities for rotations to accumulate into, each
    member's columns contiguous, as the rotations read them."""
    return np.tile(np.eye(k), (count, 1, 1)).transpose(0, 2, 1)


def _history(sw: _Sweeper, sweeps: int, estimate):
    """Yield ``estimate`` of a stack of one's band after each of ``sweeps``
    sweeps."""
    for _ in range(sweeps):
        sw.sweep()
        yield estimate(sw.d[0])


# ---------------------------------------------------------------------------
# Golub-Kahan


def _reduce_first_column(block, refl, turn):
    """Left-multiply each member's ``block[i]`` in place by the unitary
    turn_i (I - 2 v_i v_i^H) that maps x = block[i, :, 0] onto
    (||x||, 0, ..., 0); write v_i to ``refl[i]`` and turn_i to ``turn[i]``.

    A member whose x already has that form (a real nonnegative pivot over
    exact zeros), or whose ||x|| underflows to zero, is left as it is. A
    single row takes a bare phase, member by member. Otherwise v and turn
    are householder_vector's, and every member's block takes the
    operations a lone matrix would, with one batched vector-matrix product.
    """
    x = block[:, :, 0].copy()
    a1 = np.abs(x[:, 0])
    todo = x[:, 1:].any(axis=1) | (x[:, 0] != a1)
    if x.shape[1] == 1:
        for i in np.flatnonzero(todo):
            xnorm = abs(x[i, 0])
            turn[i] = np.conj(x[i, 0] / xnorm)
            block[i] *= turn[i]
            block[i, 0, 0] = xnorm
        return
    v, phase, xnorm = _householder_stack(x, a1)
    t = -np.conj(phase)
    todo &= xnorm > 0.0
    # turn (block - 2 v (v^H block)), in one temporary of the block's size
    new = np.multiply(v[:, :, None], v.conj()[:, None, :] @ block)
    np.multiply(2.0, new, out=new)
    np.subtract(block, new, out=new)
    np.multiply(t[:, None, None], new, out=new)
    new[:, :, 0] = 0.0
    new[:, 0, 0] = xnorm
    np.copyto(block, new, where=todo[:, None, None])
    np.copyto(refl, v, where=todo[:, None])
    np.copyto(turn, t, where=todo)


def gk_bidiagonalize_stack(mats) -> list[Bidiagonal]:
    """gk_bidiagonalize of every matrix of a stack, reduced together.

    ``mats`` is a nonempty sequence of M x K matrices of one shape, else
    DimensionError. Column j of every member is reduced by a left unitary
    and row j by a right one, which is a left unitary of the transposed
    view; both come from _reduce_first_column, so the produced diagonal and
    superdiagonal are real and nonnegative, and each member's are bit for
    bit those of its reduction alone. No factor is updated step by step:
    each step's reflector and unit phase are kept, and U0 and V0 are formed
    once at the end in compact-WY form (gram_svd._reflector_product, as
    tridiagonalize forms Q_T), the phases as one cumulative column scaling.
    A member that fails fails the call.
    """
    mats = [as_matrix(m) for m in mats]
    one_shape((m.shape for m in mats), "gk_bidiagonalize_stack")
    work = np.stack(mats)
    count, m, k = work.shape
    if m < k:
        raise DimensionError(f"gk_bidiagonalize expects rows >= cols, got {m}x{k}")
    # every step's reflector (zero where it was skipped) and unit phase
    uref = np.zeros((count, m, k), dtype=np.complex128)
    vref = np.zeros((count, k, k - 1), dtype=np.complex128)
    uturn = np.ones((count, m), dtype=np.complex128)
    vturn = np.ones((count, k - 1), dtype=np.complex128)
    for j in range(k):
        _reduce_first_column(work[:, j:, j:], uref[:, j:, j], uturn[:, j])
        if j < k - 1:
            _reduce_first_column(
                work[:, j:, j + 1 :].transpose(0, 2, 1), vref[:, j + 1 :, j], vturn[:, j]
            )

    diag = work[:, range(k), range(k)]
    sup = work[:, range(k - 1), range(1, k)]
    # each stack is freed once read, which keeps the call's peak memory
    # near that of the factors it returns
    del work
    if not (np.isfinite(diag).all() and np.isfinite(sup).all()):
        raise ValidationError("bidiagonalization overflowed: scale A first (gk_svd does)")
    for a_i, d_i, s_i in zip(mats, diag, sup):
        imag = max(np.max(np.abs(d_i.imag)), np.max(np.abs(s_i.imag), initial=0.0))
        a_s, e = pow2_scale(a_i)
        if np.ldexp(imag, -e) > 1e-10 * fro_norm(a_s):
            raise ValidationError("bidiagonalization left complex band entries")
    # a left step multiplies U^H by turn (I - 2 v v^H), so U takes v and
    # conj(turn); a right step does so to V^T, so V takes conj(v) and turn
    v0 = _reflector_product([(0, vref.conj())], vturn, 1)
    del vref
    u0 = _reflector_product([(0, uref)], uturn.conj(), 0)
    return [
        Bidiagonal(diag=d_i.real.copy(), superdiag=s_i.real.copy(), u0=u_i, v0=v_i)
        for d_i, s_i, u_i, v_i in zip(diag, sup, u0, v0)
    ]


def gk_bidiagonalize(a) -> Bidiagonal:
    """Reduce an M x K matrix (M >= K) to real upper bidiagonal form with
    unitary U0 and V0: the stack of one of gk_bidiagonalize_stack."""
    return gk_bidiagonalize_stack([a])[0]


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


def _gk_sweeper(*bds: Bidiagonal, shift: bool, vectors: bool = True) -> _Sweeper:
    """Sweeper on copies of a stack of bands of one size, accumulating the
    left and right rotations, from the identity, unless ``vectors`` is
    False."""
    _, k = one_shape(((bd.u0.shape[0], bd.dim) for bd in bds), "a GK sweep")
    factors = (_identities(len(bds), k), _identities(len(bds), k)) if vectors else ()
    d, e = [bd.diag for bd in bds], [bd.superdiag for bd in bds]
    return _Sweeper(d, e, _gk_step, _gk_shift if shift else None, factors)


def _gk_results(sw: _Sweeper, bds) -> list[SvdResult]:
    """Economy SVD of each member's current band: sigma descending, signs
    absorbed into U, and U = U0 R_u, V = V0 R_v with the rotations R that
    the sweeps accumulated (real, K x K: cheaper to rotate than U0 and V0,
    and applied with one product each)."""
    out = []
    for d, bd, ru, rv in zip(sw.d, bds, *sw.factors):
        sigma = np.abs(d)
        order = np.argsort(-sigma, kind="stable")
        sigma = sigma[order]
        u = bd.u0[:, : bd.dim] @ (ru * np.where(d < 0, -1.0, 1.0))[:, order]
        out.append(SvdResult(u=u, sigma=sigma, v=bd.v0 @ rv[:, order], valid=sigma > 0, diagnostics=None))
    return out


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
    return _gk_results(sw, [bd])[0], report


def gk_svd(a) -> tuple[SvdResult, SweepReport]:
    """Bidiagonalize then diagonalize. A is first scaled by a power of two
    as in svd_4step (matrix_core.pow2_scale), and sigma scaled back."""
    a_s, e = pow2_scale(as_matrix(a))
    res, report = gk_diagonalize(gk_bidiagonalize(a_s))
    return replace(res, sigma=np.ldexp(res.sigma, e)), report


def gk_fixed_sweeps_stack(bds, sweeps: int) -> list[SvdResult]:
    """gk_fixed_sweeps of every band of a stack of one size (M and K), the
    count checked before any work. Each member's band is chased as it
    would be alone; the rotations of all members are applied together, and
    each result is bit for bit the member's stack of one."""
    sweeps = as_count(sweeps, "sweeps")
    sw = _gk_sweeper(*bds, shift=False)
    for _ in range(sweeps):
        sw.sweep()
    return _gk_results(sw, bds)


def gk_fixed_sweeps(bd: Bidiagonal, sweeps: int) -> SvdResult:
    """Run exactly ``sweeps`` plain sweeps, an integer >= 1, and return the
    (possibly unconverged) decomposition; used for accuracy-versus-iterations
    studies."""
    return gk_fixed_sweeps_stack([bd], sweeps)[0]


def gk_singular_value_history(bd: Bidiagonal, max_sweeps: int):
    """Yield |d| of the band sorted descending, the singular-value
    estimates, after each of up to ``max_sweeps`` plain sweeps, an integer
    >= 1 checked at the call.

    Lazy, and runs without accumulating U/V, so it is cheap enough for
    Monte Carlo iteration-count measurements.
    """
    sweeps = as_count(max_sweeps, "max_sweeps")
    return _history(_gk_sweeper(bd, shift=False, vectors=False), sweeps, lambda d: -np.sort(-np.abs(d)))


# ---------------------------------------------------------------------------
# QR iteration for the symmetric tridiagonal eigenproblem


def _wilkinson_shift(d, e, lo, hi):
    a = d[hi - 1]
    b = e[hi - 1]
    c = d[hi]
    delta = 0.5 * (a - c)
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


def _qr_sweeper(*ts: TridiagonalReal, shift: bool, vectors: bool = True) -> _Sweeper:
    """Sweeper on copies of a stack of tridiagonals of one size, with the
    eigenvectors accumulated from the identity unless ``vectors`` is False."""
    k = one_shape((t.dim for t in ts), "a QR sweep")
    factors = (_identities(len(ts), k),) if vectors else ()
    d, e = [t.diag for t in ts], [t.offdiag for t in ts]
    return _Sweeper(d, e, _qr_tridiag_step, _wilkinson_shift if shift else None, factors)


def _qr_results(sw: _Sweeper) -> list[EigenDecomposition]:
    """Each member's eigenvalues ascending with their real eigenvectors."""
    out = []
    for d, q in zip(sw.d, sw.factors[0]):
        order = np.argsort(d, kind="stable")
        out.append(EigenDecomposition(lam=d[order], q=q[:, order], diagnostics=None))
    return out


def qr_fixed_sweeps_stack(ts, sweeps: int) -> list[EigenDecomposition]:
    """qr_fixed_sweeps of every tridiagonal of a stack of one size, the
    count checked before any work; as gk_fixed_sweeps_stack, each result
    is bit for bit the member's stack of one."""
    sweeps = as_count(sweeps, "sweeps")
    sw = _qr_sweeper(*ts, shift=False)
    for _ in range(sweeps):
        sw.sweep()
    return _qr_results(sw)


def qr_fixed_sweeps(t: TridiagonalReal, sweeps: int) -> EigenDecomposition:
    """Run exactly ``sweeps`` plain QR iterations, an integer >= 1, and
    return the (possibly unconverged) eigendecomposition with the
    accumulated real eigenvectors."""
    return qr_fixed_sweeps_stack([t], sweeps)[0]


def qr_eigenvalue_history(t: TridiagonalReal, max_iters: int):
    """Yield the diagonal of the band sorted ascending, the eigenvalue
    estimates, after each of up to ``max_iters`` plain QR iterations, an
    integer >= 1 checked at the call, lazily and without eigenvectors."""
    iters = as_count(max_iters, "max_iters")
    return _history(_qr_sweeper(t, shift=False, vectors=False), iters, lambda d: np.sort(d, kind="stable"))


def qr_tridiag_eigen(t: TridiagonalReal) -> tuple[EigenDecomposition, SweepReport]:
    """Symmetric tridiagonal eigensolver by Wilkinson-shifted implicit QR.

    Converges and fails as gk_diagonalize does (1e-12, 6 K sweeps, or a
    non-finite band); plain sweeps are qr_fixed_sweeps and
    qr_eigenvalue_history. The eigenvectors start from the identity and
    take each sweep's rotations as GK's factors do.
    """
    sw = _qr_sweeper(t, shift=True)
    report = _converge(sw, "qr_tridiag_eigen")
    return _qr_results(sw)[0], report


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
