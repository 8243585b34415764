"""Four-step SVD of a complex matrix via its Gram matrix.

Pipeline: form B = A^H A, reduce B to real symmetric tridiagonal form with
Householder reflections (applied in panels, with one matrix-matrix update
of the trailing block per panel), diagonalize the tridiagonal matrix with
a divide-and-conquer rank-1 eigensolver, then recover U, sigma, V.

Each merge of the divide and conquer deflates negligible weights and
coincident poles, then solves every secular root on its own with one
scalar function (a midpoint probe, then a bracketed two-pole rational
iteration). One secular iteration is one rational-model step; iteration
counts and budgets leave the probe out. From the roots it recomputes the
rank-1 weights (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16(1), 1995),
so that the eigenvectors come out orthogonal; the weights, the
eigenvector columns and the interlacing check are whole-array
expressions over the root-by-pole differences.

Everything operates on numpy arrays; all functions are pure and the merge
step treats its inputs as read-only, so the roots of one merge, and the
subproblems of one level, could run concurrently under any schedule
without changing the result. Single-threaded execution is used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError
from .matrix_core import as_count, as_matrix, as_vector, fro_norm, pow2_scale

_EPS = np.finfo(np.float64).eps
_HERMITIAN_TOL = 1e-12  # relative deviation from Hermitian that from_matrix accepts
_SECULAR_TOL = 1e-13  # a root converges at |f| <= _SECULAR_TOL * (1 + sum |terms|)
_MAX_NEWTON_ITERS = 50  # model steps per secular root before ConvergenceError
_DEFLATION_TOL = 1e-14  # merge weights and pole gaps below this, relative, deflate
_SV_THRESHOLD = 1e-10  # default relative sigma below which U gets no column


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class HermitianMatrix:
    """A K x K Hermitian matrix, validated on construction."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_matrix(cls, mat) -> "HermitianMatrix":
        """Accept a square matrix within 1e-12 of Hermitian, relative to its norm."""
        m = as_matrix(mat)
        if m.shape[0] != m.shape[1]:
            raise DimensionError(f"Hermitian matrix must be square, got {m.shape}")
        s, _ = pow2_scale(m)
        scale = fro_norm(s)
        dev = fro_norm(s - s.conj().T)
        if dev > _HERMITIAN_TOL * scale:
            raise ValidationError(
                f"matrix is not Hermitian: relative deviation {dev / scale:.3e} exceeds 1e-12"
            )
        return cls(mat=m)


@dataclass(frozen=True)
class TridiagonalReal:
    """Real symmetric tridiagonal matrix as (diag, offdiag) arrays."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=np.float64)
        e = np.asarray(self.offdiag, dtype=np.float64)
        if d.ndim != 1 or d.size < 1:
            raise DimensionError("diag must be a 1-D array of length >= 1")
        if e.shape != (d.size - 1,):
            raise DimensionError(
                f"offdiag must have length {d.size - 1}, got {e.shape}"
            )
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValidationError("tridiagonal entries must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def dim(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        t = np.diag(self.diag)
        j = np.arange(self.dim - 1)
        t[j, j + 1] = t[j + 1, j] = self.offdiag
        return t


@dataclass(frozen=True)
class HouseholderStep:
    """One Householder reflection P = -e^{-j theta} (I - 2 v v^H).

    ``skip`` marks the degenerate zero-column case where P is the identity.
    """

    v: np.ndarray | None
    phase: complex
    xnorm: float
    skip: bool = False

    def apply(self, y) -> np.ndarray:
        """Apply P to a vector of matching length."""
        y = as_vector(y)
        if self.skip:
            return y.copy()
        proj = 2.0 * np.vdot(self.v, y)
        return -np.conj(self.phase) * (y - proj * self.v)


@dataclass
class DcDiagnostics:
    """Counters collected while running the divide-and-conquer eigensolver;
    ``deflation_count`` sums the components each merge deflates, all at an exact split."""

    newton_iterations_total: int = 0
    newton_iterations_max_per_root: int = 0
    recursion_depth: int = 0
    deflation_count: int = 0
    interlacing_violations: int = 0


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix.

    ``q`` is real from the tridiagonal solvers; only the Jacobi oracle's is complex.
    """

    lam: np.ndarray
    q: np.ndarray
    diagnostics: DcDiagnostics | None = None


@dataclass(frozen=True)
class SvdResult:
    """Economy SVD A = U diag(sigma) V^H with sigma descending.

    ``valid[i]`` is False where sigma_i fell below the relative threshold;
    those U columns are zero and must not be used.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    valid: np.ndarray
    diagnostics: DcDiagnostics | None = None

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.conj().T


# ---------------------------------------------------------------------------
# step 1: Gram matrix


def gram(a) -> HermitianMatrix:
    """Form B = A^H A for an M x K matrix with M >= K.

    The full product is formed; its strict upper triangle is kept and
    mirrored into the lower one, and the diagonal is forced real, so the
    result is Hermitian by construction.
    """
    a = as_matrix(a)
    m, k = a.shape
    if m < k:
        raise DimensionError(
            f"gram expects rows >= cols, got {m}x{k}; adjoint the input first"
        )
    b = a.conj().T @ a
    upper = np.triu(b, 1)
    bh = upper + upper.conj().T + np.diag(np.real(np.diag(b)))
    return HermitianMatrix(mat=bh)


# ---------------------------------------------------------------------------
# step 2: Householder tridiagonalization


def householder_vector(x) -> HouseholderStep:
    """Build the unit reflector v for a column x.

    With phase = x_1/|x_1| (phase = 1 when x_1 = 0), the reflection
    P = -conj(phase) (I - 2 v v^H) maps x onto ||x|| e_1 with a real
    nonnegative leading entry. A zero column yields a skip step.
    """
    x = as_vector(x)
    xnorm = float(np.sqrt((x.real**2 + x.imag**2).sum()))
    if xnorm == 0.0:
        return HouseholderStep(v=None, phase=1.0 + 0.0j, xnorm=0.0, skip=True)
    a1 = np.abs(x[0])
    phase = x[0] / a1 if a1 > 0.0 else complex(1.0)
    w = x.copy()
    w[0] = x[0] + phase * xnorm
    wnorm = float(np.sqrt((w.real**2 + w.imag**2).sum()))
    v = w / wnorm
    return HouseholderStep(v=v, phase=complex(phase), xnorm=xnorm, skip=False)


# reflectors per panel of the blocked reduction (LAPACK's zhetrd default)
_PANEL = 32


def _pair_swap(y: np.ndarray) -> np.ndarray:
    """Swap the entries of each consecutive pair: (a, b, c, d) -> (b, a, d, c)."""
    return y.reshape(-1, 2)[:, ::-1].ravel()


def tridiagonalize(b) -> tuple[TridiagonalReal, np.ndarray]:
    """Reduce a Hermitian matrix to real symmetric tridiagonal form.

    Returns (T, Q_T) with Q_T^H B Q_T = T. Only the strictly lower
    triangle of B and the real part of its diagonal are read: they are
    mirrored once into a work copy, which is then updated in place, so B
    is left unchanged. An imaginary part of the diagonal, in B or in the
    reduced matrix, above 1e-10 of B's norm raises ValidationError.

    Step j reflects column j with H = I - 2 v v^H, p = 2 B v and
    w = p - (v^H p) v, so that H B H = B - v w^H - w v^H. Steps run in
    panels of ``_PANEL`` (Dongarra, Sorensen & Hammarling, J. Comput. Appl.
    Math. 27, 1989, as in LAPACK zhetrd/zlatrd): inside a panel, column j
    and its product B v are corrected on the fly by the panel's earlier
    V W^H + W V^H, and after the panel one rank-2nb product
    X = V W^H updates the trailing block, B -= X + X^H. Q_T is built
    backward from the same panels, each as I - V S V^H in compact-WY form
    (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10(1), 1989). The
    unit phase that makes each off-diagonal entry real and nonnegative is
    a diagonal factor that commutes to the right, so all of them become
    one final column scaling of Q_T.
    """
    if isinstance(b, HermitianMatrix):
        bh = b
    else:
        bh = HermitianMatrix.from_matrix(b)
    k = bh.dim
    work = np.tril(bh.mat, -1)
    work += work.conj().T
    np.fill_diagonal(work, bh.mat.diagonal().real)
    diag = np.empty(k, dtype=np.complex128)
    off = np.zeros(k - 1, dtype=np.float64)
    # -phase of each reflection, 1 for a skipped (zero) column
    turn = np.ones(k - 1, dtype=np.complex128)
    panels = []

    for j0 in range(0, k - 1, _PANEL):
        j1 = min(j0 + _PANEL, k - 1)
        # column 2c holds the panel's reflector v_c, column 2c + 1 its w_c
        vw = np.zeros((k, 2 * (j1 - j0)), dtype=np.complex128)
        for c, j in enumerate(range(j0, j1)):
            col = work[j:, j]
            done = vw[j:, : 2 * c]
            # V conj(W_j) + W conj(V_j), row j of V W^H + W V^H (empty at c = 0)
            col -= done @ _pair_swap(done[0]).conj()
            diag[j] = col[0]
            step = householder_vector(col[1:])
            off[j] = step.xnorm
            if step.skip:
                continue
            v = step.v
            turn[j] = -step.phase
            p = work[j + 1 :, j + 1 :] @ v
            # (V W^H + W V^H) v
            p -= done[1:] @ _pair_swap(v.conj() @ done[1:]).conj()
            p *= 2.0
            vw[j + 1 :, 2 * c] = v
            vw[j + 1 :, 2 * c + 1] = p - np.vdot(v, p) * v
        x = vw[j1:, 0::2] @ vw[j1:, 1::2].conj().T
        work[j1:, j1:] -= x + x.conj().T
        panels.append((j0, vw[:, 0::2]))
    diag[k - 1] = work[k - 1, k - 1]
    imag = np.abs(diag.imag) + np.abs(bh.mat.diagonal().imag)
    b_s, e = pow2_scale(bh.mat)
    if np.ldexp(np.max(imag), -e) > 1e-10 * fro_norm(b_s):
        raise ValidationError("tridiagonalization produced a complex diagonal")

    # Q_T = H_0 H_1 ... H_{k-2} diag(phases); each panel's product of
    # reflections is I - V S V^H with S upper triangular (a skipped step's
    # v is zero, so its entries of S never reach the product)
    q = np.eye(k, dtype=np.complex128)
    for j0, vs in reversed(panels):
        nb = vs.shape[1]
        gv = vs.conj().T @ vs
        s = 2.0 * np.eye(nb, dtype=np.complex128)
        for c in range(1, nb):
            s[:c, c] = -2.0 * (s[:c, :c] @ gv[:c, c])
        vb = vs[j0 + 1 :]
        q[j0 + 1 :, j0 + 1 :] -= vb @ (s @ (vb.conj().T @ q[j0 + 1 :, j0 + 1 :]))
    q[:, 1:] *= np.cumprod(turn)
    return TridiagonalReal(diag=diag.real, offdiag=off), q


# ---------------------------------------------------------------------------
# step 3: divide and conquer diagonalization


def _stable_quadratic(aq: float, bq: float, cq: float) -> tuple[float, float]:
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


def _secular_root(d: np.ndarray, asq: np.ndarray, i: int, cap: int | None) -> tuple[int, float, int]:
    """Root i of 1 + sum(asq_j / (d_j - lam)), the deflated secular equation
    with ascending poles ``d`` and alpha folded into ``asq``.

    Returns (origin, tau, iterations) with lam = d[origin] + tau. An
    interior root first probes the secular function at the midpoint of its
    poles and takes the nearer pole as origin, so the pole difference that
    dominates the eigenvector stays fully accurate; the last root keeps its
    left pole (its upper bound d[-1] + sum(asq) is not a pole). The search
    starts at the middle of the remaining bracket, fits a two-pole rational
    model at the poles on either side, and clamps every step to the
    bisection bracket, so it cannot escape.

    One iteration is one rational-model step (f at the iterate, then a
    move unless it has converged); the probe is setup and is not counted.
    Without a cap, a root still open after ``_MAX_NEWTON_ITERS`` iterations
    raises ConvergenceError with its bracket; with one, the iterate after
    min(cap, ``_MAX_NEWTON_ITERS``) iterations is returned.
    """
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
        # two-pole rational model: the local poles keep their exact
        # weights scaled by beta to match f'; the rest is the constant c3
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
    if cap is None:
        raise ConvergenceError(
            f"secular root did not converge in {_MAX_NEWTON_ITERS} iterations", bracket=(lo, hi)
        )
    return origin, tau, limit


def _rank1_eigen(
    d: np.ndarray, u: np.ndarray, rho: float, cap: int | None, diag: DcDiagnostics
) -> tuple[np.ndarray, np.ndarray]:
    """Eigen decomposition of diag(d) + rho * u u^T (d in any order, rho >= 0)."""
    n = d.size
    p = np.argsort(d, kind="stable")
    ds = d[p]
    us = u[p]
    scale = max(abs(ds[0]), abs(ds[-1]), 1e-300)
    unorm = float(np.sqrt(np.sum(us * us)))

    deflated = np.abs(us) <= _DEFLATION_TOL * unorm
    # a negligible rho |u|^2, zero at an exact split, deflates every component
    if rho * unorm * unorm <= _DEFLATION_TOL * scale:
        deflated[:] = True

    rots: list[tuple[int, int, float, float]] = []
    prev = -1
    for j in range(n):
        if deflated[j]:
            continue
        if prev >= 0 and ds[j] - ds[prev] <= _DEFLATION_TOL * scale:
            r = math.hypot(us[prev], us[j])
            cs = us[j] / r
            sn = us[prev] / r
            rots.append((prev, j, cs, sn))
            dc_, dj_ = ds[prev], ds[j]
            ds[prev] = cs * cs * dc_ + sn * sn * dj_
            ds[j] = sn * sn * dc_ + cs * cs * dj_
            us[j] = r
            us[prev] = 0.0
            deflated[prev] = True
        prev = j

    keep = np.nonzero(~deflated)[0]
    drop = np.nonzero(deflated)[0]
    diag.deflation_count += int(drop.size)

    n_keep = keep.size
    s_hat = np.zeros((n, n))
    lam_all = np.empty(n)
    if n_keep > 0:
        dk = ds[keep]
        asq = rho * us[keep] * us[keep]
        roots = [_secular_root(dk, asq, i, cap) for i in range(n_keep)]
        origin, tau, iters = (np.array(col) for col in zip(*roots))
        lam_all[:n_keep] = dk[origin] + tau
        # the top root is the only one not bracketed by two poles
        if not math.isfinite(lam_all[n_keep - 1]):
            raise ValidationError("merge eigenvalue overflowed: tridiagonal entries must be finite")
        diag.newton_iterations_total += int(iters.sum())
        diag.newton_iterations_max_per_root = max(
            diag.newton_iterations_max_per_root, int(iters.max())
        )
        # strict interlacing, verified on the shifted (origin, tau) values
        # where pole differences are exact; a single surviving component is
        # the closed-form case whose root sits exactly on the upper bound
        if n_keep > 1:
            hi = np.append(np.diff(dk), asq.sum())
            ok = np.where(
                origin == np.arange(n_keep), (0.0 < tau) & (tau < hi), (-hi < tau) & (tau < 0.0)
            )
            diag.interlacing_violations += int(np.count_nonzero(~ok))
        # Gu-Eisenstat: rank-1 weights recomputed from the roots make the
        # eigenvectors mutually orthogonal; magnitudes come from the
        # product formula, signs from u. Row i holds lam_j - d_i, each
        # lam_j through its shifted representation.
        diffs = (dk[origin] - dk[:, None]) + tau
        den = dk - dk[:, None]
        np.fill_diagonal(den, 1.0)
        ratio = diffs / den
        left = np.tri(n_keep, k=-1, dtype=bool)
        prod = np.diagonal(diffs) * np.where(left, ratio, 1.0).prod(axis=1)
        prod = prod * np.where(left.T, ratio, 1.0).prod(axis=1)
        # clamp as max(prod, 0.0) does: NaN and -0.0 pass through
        uhat = np.sqrt(np.where(prod < 0.0, 0.0, prod)) * np.sign(us[keep])
        # row i is the eigenvector of root i over the kept components
        w = uhat / -((dk - dk[origin][:, None]) - tau[:, None])
        w /= np.sqrt(np.sum(w * w, axis=1))[:, None]
        s_hat[keep, :n_keep] = w.T
    lam_all[n_keep:] = ds[drop]
    s_hat[drop, np.arange(n_keep, n)] = 1.0

    # map eigenvectors back through the deflation rotations (apply R, the
    # inverse of the R^T that zeroed the duplicate-pole weights)
    for c, j, cs, sn in reversed(rots):
        row_c = s_hat[c, :].copy()
        row_j = s_hat[j, :]
        s_hat[c, :] = cs * row_c + sn * row_j
        s_hat[j, :] = -sn * row_c + cs * row_j

    s_orig = np.empty_like(s_hat)
    s_orig[p, :] = s_hat
    order = np.argsort(lam_all, kind="stable")
    return lam_all[order], s_orig[:, order]


def _dc_recurse(
    d: np.ndarray, e: np.ndarray, cap: int | None, diag: DcDiagnostics
) -> tuple[np.ndarray, np.ndarray]:
    """Eigen decomposition of the tridiagonal (d, e), split at the middle as
    blockdiag(T1, T2) + rho v v^T with alpha = e[cut - 1], rho = |alpha| and
    v = e_{cut-1} + sign(alpha) e_cut (Cuppen)."""
    k = d.size
    if k == 1:
        return d.copy(), np.ones((1, 1))
    cut = (k + 1) // 2
    alpha = float(e[cut - 1])
    rho = abs(alpha)
    d1, d2 = d[:cut].copy(), d[cut:].copy()
    d1[-1] -= rho
    d2[0] -= rho
    # taking rho off the two facing entries can overflow them
    if not (math.isfinite(d1[-1]) and math.isfinite(d2[0])):
        raise ValidationError("tridiagonal entries must be finite")
    lam1, q1 = _dc_recurse(d1, e[: cut - 1], cap, diag)
    lam2, q2 = _dc_recurse(d2, e[cut:], cap, diag)

    d0 = np.concatenate([lam1, lam2])
    u0 = np.concatenate([q1[-1, :], math.copysign(1.0, alpha) * q2[0, :]])
    lam, s = _rank1_eigen(d0, u0, rho, cap, diag)
    return lam, np.vstack([q1 @ s[:cut, :], q2 @ s[cut:, :]])


def _dc(t: TridiagonalReal, cap: int | None) -> EigenDecomposition:
    # the first half of every split is the larger, so the middle split sets the depth
    diag = DcDiagnostics(recursion_depth=(t.dim - 1).bit_length())
    lam, q = _dc_recurse(t.diag, t.offdiag, cap, diag)
    return EigenDecomposition(lam=lam, q=q, diagnostics=diag)


def dc_eigen(t: TridiagonalReal) -> EigenDecomposition:
    """Divide-and-conquer eigendecomposition of a real symmetric tridiagonal.

    Splits at the middle recursively, solves the secular equation of each
    rank-1 merge (with deflation of negligible components and coincident
    poles), and accumulates eigenvectors level by level. Eigenvalues come
    out ascending, with a real eigenvector matrix. A secular root that does
    not converge in ``_MAX_NEWTON_ITERS`` (50) model steps raises
    ConvergenceError; an overflowing split or merge raises ValidationError.
    """
    return _dc(t, None)


def truncated_dc_eigen(t: TridiagonalReal, iter_budget: int) -> EigenDecomposition:
    """dc_eigen with each secular root capped at ``iter_budget`` iterations.

    One iteration is one rational-model step; an interior root's midpoint
    probe is setup and does not count. From a budget of
    ``_MAX_NEWTON_ITERS`` (50) on, the output therefore does not depend on
    the budget, and equals dc_eigen's whenever dc_eigen converges; where it
    would raise ConvergenceError, the capped solve keeps the last iterate
    instead. Small budgets trade accuracy for fewer sequential steps.
    ``iter_budget`` must be an integer >= 1 (matrix_core.as_count).
    """
    return _dc(t, as_count(iter_budget, "iter_budget"))


# ---------------------------------------------------------------------------
# step 4: SVD recovery


def _check_sv_threshold(sv_threshold: float) -> None:
    if not 0 < sv_threshold < 1:
        raise ValidationError("sv_threshold must lie in (0, 1)")


def recover_svd(
    a, eig: EigenDecomposition, q_t, *, sv_threshold: float = _SV_THRESHOLD
) -> SvdResult:
    """Recover U, sigma, V from the eigendecomposition of the Gram matrix.

    sigma_i = sqrt(max(lambda_i, 0)) sorted descending, V = Q_T Q_D with
    columns permuted to match, and U columns A v_i / sigma_i computed only
    where sigma_i > sv_threshold * sigma_max (sv_threshold in (0, 1),
    else ValidationError); the rest are flagged invalid. A zero matrix
    yields a rank-zero result rather than an error.
    """
    _check_sv_threshold(sv_threshold)
    a = as_matrix(a)
    q_t = as_matrix(q_t)
    v0 = q_t @ eig.q
    lam = np.maximum(eig.lam, 0.0)
    sig_asc = np.sqrt(lam)
    order = np.argsort(-sig_asc, kind="stable")
    sigma = sig_asc[order]
    v = v0[:, order]
    valid = sigma > sv_threshold * sigma[0]
    u = np.zeros((a.shape[0], sigma.size), dtype=np.complex128)
    u[:, valid] = (a @ v[:, valid]) / sigma[valid]
    return SvdResult(u=u, sigma=sigma, v=v, valid=valid, diagnostics=eig.diagnostics)


def svd_4step(
    a, iter_budget: int | None = None, *, sv_threshold: float = _SV_THRESHOLD
) -> SvdResult:
    """Full pipeline: Gram matrix, tridiagonalization, divide-and-conquer
    diagonalization, and SVD recovery.

    When the largest real or imaginary part of A lies outside
    [2**-256, 2**256], A is first scaled by the power of two 2**-e that
    brings it into [0.5, 1) (matrix_core.pow2_scale), so that A^H A
    neither overflows nor underflows, and sigma is scaled back by 2**e at
    the end; U is then formed from the scaled copy as A_s V / sigma_s,
    which equals A V / sigma because the scale is exact. Inside that range
    A is used as it is (LAPACK zgesvd also scales only outside a safe
    range): the Gram matrix and everything derived from it stay far from
    overflow and from the subnormal range, where a power-of-two scale
    changes no rounding and would only cost a copy of A.

    ``iter_budget`` caps the iterations per secular root as in
    truncated_dc_eigen (used for accuracy-versus-latency sweeps); None
    means run to convergence. ``sv_threshold`` is recover_svd's; both are
    checked before any work is done.
    """
    _check_sv_threshold(sv_threshold)
    if iter_budget is not None:
        as_count(iter_budget, "iter_budget")
    a_s, e = pow2_scale(as_matrix(a))
    b = gram(a_s)
    t, q_t = tridiagonalize(b)
    if iter_budget is None:
        eig = dc_eigen(t)
    else:
        eig = truncated_dc_eigen(t, iter_budget)
    res = recover_svd(a_s, eig, q_t, sv_threshold=sv_threshold)
    return replace(res, sigma=np.ldexp(res.sigma, e))
