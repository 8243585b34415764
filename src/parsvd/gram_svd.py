"""Four-step SVD of a complex matrix via its Gram matrix.

Pipeline: form B = A^H A, reduce B to real symmetric tridiagonal form with
Householder reflections (applied in panels, with one matrix-matrix update
of the trailing block per panel), diagonalize the tridiagonal matrix with
a divide-and-conquer rank-1 eigensolver, then recover U, sigma, V.

The reduction takes a stack of Hermitian matrices of one size, and runs
each step once for every member, each at its own scale and with its own
reflector (a single reduction is a stack of one); every member gets the
bits of its reduction alone.

The divide and conquer fixes every split first, top down, then merges
bottom up one recursion level at a time. It takes a stack of tridiagonals
of one size, whose split trees are the same, so a level holds the merges
of every member (a single solve is a stack of one). The merges of one
size, at most two sizes per level, are one batch, and the batches run
one after the other, the smaller size first. A batch is sorted and
deflated as array expressions, and only a merge with coincident poles
rotates them on its own; the batch's merges are then grouped by their
number n of kept poles, and one lockstep kernel solves every secular
root of a group as one (roots x n poles) array: a midpoint probe, then
a bracketed two-pole rational iteration, which bisects a root whose
iterates cycle between the ends of its bracket, with each root's own
origin, bracket and pole pair, and an active set that shrinks as roots
converge. One secular iteration
is one rational-model step; iteration counts and budgets leave the probe
out. From the roots it recomputes the rank-1 weights (Gu & Eisenstat,
SIAM J. Matrix Anal. Appl. 16(1), 1995), so that the eigenvectors come
out orthogonal; the weights, the eigenvector columns and the interlacing
check are (merges, n, n) array expressions, and the products that carry
the eigenvectors up are one stacked matmul per batch. Groups are not
padded to a common n: numpy's pairwise sum groups a row's terms by the
row's length, so a padded row would add in another order. Unpadded, every root gets
the operations, in the order, of a scalar solve of that root alone, and
the result does not depend on how the merges are batched.

Everything operates on numpy arrays; all functions are pure and the merge
step treats its inputs as read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError
from .matrix_core import as_count, as_matrix, as_vector, fro_norm, one_shape, pow2_scale

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
    result is Hermitian by construction. A product that overflows, or a
    nonzero A whose B has no diagonal entry in the normal range (B has
    underflowed), raises ValidationError; svd_4step scales A first, so it
    never does. A zero A gives the zero B.
    """
    a = as_matrix(a)
    m, k = a.shape
    if m < k:
        raise DimensionError(
            f"gram expects rows >= cols, got {m}x{k}; adjoint the input first"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        b = a.conj().T @ a
        if not np.all(np.isfinite(b)):
            raise ValidationError(
                f"A^H A is not finite: A's largest magnitude {np.max(np.abs(a)):.3e} "
                "is too large to square; scale A first"
            )
    diag = np.real(np.diag(b))
    if np.max(diag) < np.finfo(np.float64).tiny and np.any(a):
        raise ValidationError(
            f"A^H A underflowed: A's largest magnitude {np.max(np.abs(a)):.3e} "
            "is too small to square; scale A first"
        )
    upper = np.triu(b, 1)
    bh = upper + upper.conj().T + np.diag(diag)
    return HermitianMatrix(mat=bh)


# ---------------------------------------------------------------------------
# step 2: Householder tridiagonalization


def householder_vector(x) -> HouseholderStep:
    """Build the unit reflector v for a column x.

    With phase = x_1/|x_1| (phase = 1 when x_1 = 0), the reflection
    P = -conj(phase) (I - 2 v v^H) maps x onto ||x|| e_1 with a real
    nonnegative leading entry. A zero column yields a skip step. It is the
    vector case of _householder_stack, which the reductions call.
    """
    x = as_vector(x)
    v, phase, xnorm = _householder_stack(x, np.abs(x[0]))
    if xnorm == 0.0:
        return HouseholderStep(v=None, phase=1.0 + 0.0j, xnorm=0.0, skip=True)
    return HouseholderStep(v=v, phase=complex(phase), xnorm=float(xnorm), skip=False)


# reflectors per panel of the blocked reduction (LAPACK's zhetrd default)
_PANEL = 32
# a panel's columns (v_0, w_0, v_1, w_1, ...) in the order (w_0, v_0, w_1, v_1, ...)
_SWAP = np.arange(2 * _PANEL) ^ 1


def _householder_stack(x: np.ndarray, a1: np.ndarray):
    """householder_vector of a vector x, or of every row of an (S, n)
    stack, whose leading magnitudes |x[..., 0]| are ``a1``, as arrays: the
    reflectors v, the phases and the norms ||x||.

    Each row gets the operations of a lone vector: the squares are one
    temporary with contiguous rows, so each row's sum runs as a lone
    vector's does, and ||w|| sums the same squares with the first
    replaced. A row whose norm is zero gets a finite v, which the caller
    must not use.
    """
    sq = np.square(x.real) + np.square(x.imag)
    xnorm = np.sqrt(np.add.reduce(sq, axis=-1))
    x0 = x[..., 0]
    # a zero pivot takes the unit phase, and a zero column a unit norm of w
    # (a product that underflows takes the same, exact, slower path)
    usual = np.count_nonzero(a1 * xnorm) == np.size(a1)
    if usual:
        phase = x0 / a1
    else:
        phase = np.divide(x0, a1, out=np.ones_like(x0), where=a1 > 0.0)
    w0 = x0 + phase * xnorm
    sq[..., 0] = np.square(w0.real) + np.square(w0.imag)
    wnorm = np.sqrt(np.add.reduce(sq, axis=-1))
    if not usual:
        wnorm = np.where(wnorm == 0.0, 1.0, wnorm)
    v = x / wnorm[..., None]
    v[..., 0] = w0 / wnorm
    return v, phase, xnorm


def tridiagonalize(b) -> tuple[TridiagonalReal, np.ndarray]:
    """Reduce a Hermitian matrix to real symmetric tridiagonal form: the
    stack of one of tridiagonalize_stack.

    Returns (T, Q_T) with Q_T^H B Q_T = T. Only the strictly lower
    triangle of B and the real part of its diagonal are read, and B is
    left unchanged. A non-Hermitian B (HermitianMatrix.from_matrix), or an
    imaginary part of the diagonal, in B or in the reduced matrix, above
    1e-10 of B's norm, raises ValidationError.
    """
    return tridiagonalize_stack([b])[0]


def tridiagonalize_stack(bs) -> list[tuple[TridiagonalReal, np.ndarray]]:
    """tridiagonalize of every Hermitian matrix of a stack, reduced together.

    ``bs`` is a nonempty sequence of K x K matrices or HermitianMatrix of
    one size, else DimensionError. Each member is checked as Hermitian
    (HermitianMatrix.from_matrix), in stack order, before any is reduced;
    after the reduction, the first member in stack order whose diagonal,
    in B or in the reduced matrix, has an imaginary part above 1e-10 of
    its norm raises ValidationError. The lower triangles and real
    diagonals are mirrored once into an (S, K, K) work copy, which is then
    updated in place. Each member is reduced at its own power-of-two scale
    (matrix_core.pow2_scale), so that the reflector norms neither
    overflow nor underflow, and its T is scaled back exactly; Q_T does
    not depend on the scale. Every step runs once for the whole stack: its
    products are batched matrix-vector products, which BLAS runs member by
    member on contiguous vectors, and the rest are array expressions; a
    member whose column is already reduced (a zero column) takes an
    identity step. Each member's T and Q_T are bit for bit its reduction
    alone, and a stack of one is reduced as a single matrix.

    Step j reflects column j with H = I - 2 v v^H, p = 2 B v and
    w = p - (v^H p) v, so that H B H = B - v w^H - w v^H. Steps run in
    panels of ``_PANEL`` (Dongarra, Sorensen & Hammarling, J. Comput. Appl.
    Math. 27, 1989, as in LAPACK zhetrd/zlatrd): inside a panel, column j
    and its product B v are corrected on the fly by the panel's earlier
    V W^H + W V^H, and after the panel one rank-2nb product
    X = V W^H updates the trailing block, B -= X + X^H. Q_T is built
    backward from the same panels by _reflector_product, each as
    I - V S V^H in compact-WY form. The unit phase that makes each
    off-diagonal entry real and nonnegative is a diagonal factor that
    commutes to the right, so all of them become one final column scaling
    of Q_T.
    """
    herms = [b if isinstance(b, HermitianMatrix) else HermitianMatrix.from_matrix(b) for b in bs]
    k = one_shape((h.mat.shape for h in herms), "tridiagonalize_stack")[0]
    scaled = [pow2_scale(h.mat) for h in herms]
    count = len(scaled)
    work = np.zeros((count, k, k), dtype=np.complex128)
    lower = np.tri(k, k, -1, dtype=bool)
    for w_i, (m_i, _) in zip(work, scaled):
        np.copyto(w_i, m_i, where=lower)
    work += work.conj().transpose(0, 2, 1)
    # a lone member is reduced as a matrix rather than as a stack of one:
    # numpy's fixed cost per call is lower on vectors than on stacks of them
    if count == 1:
        work = work[0]
    lead = work.shape[:-2]
    # a view of every member's diagonal
    diag = work.reshape(lead + (k * k,))[..., :: k + 1]
    diag[...] = np.reshape([m_i.diagonal().real for m_i, _ in scaled], diag.shape)
    off = np.zeros(lead + (k - 1,))
    phases = np.ones(lead + (k - 1,), dtype=np.complex128)
    panels = []

    for j0 in range(0, k - 1, _PANEL):
        j1 = min(j0 + _PANEL, k - 1)
        # column 2c holds the panel's reflector v_c, column 2c + 1 its w_c
        vw = np.zeros(lead + (k, 2 * (j1 - j0)), dtype=np.complex128)
        for c, j in enumerate(range(j0, j1)):
            col = work[..., j:, j]
            done = vw[..., j + 1 :, : 2 * c]
            swap = _SWAP[: 2 * c]
            # each member's vector must be contiguous (take copies it so): a
            # strided one sends BLAS to another loop, which rounds otherwise
            if c:
                # V conj(W_j) + W conj(V_j), row j of V W^H + W V^H, into a
                # contiguous copy: below the diagonal, column j is not read again
                col = col - np.matvec(vw[..., j:, : 2 * c], vw[..., j, :].take(swap, axis=-1).conj())
                diag[..., j] = col[..., 0]
            v, phases[..., j], off[..., j] = _householder_stack(col[..., 1:], np.abs(col[..., 1]))
            p = np.matvec(work[..., j + 1 :, j + 1 :], v)
            if c:
                # (V W^H + W V^H) v
                vd = np.matvec(done.mT, v.conj())
                p -= np.matvec(done, vd.take(swap, axis=-1).conj())
            p *= 2.0
            vw[..., j + 1 :, 2 * c] = v
            np.subtract(p, np.vecdot(v, p)[..., None] * v, out=vw[..., j + 1 :, 2 * c + 1])
            if np.count_nonzero(off[..., j]) < count:
                # a zero column is an identity step
                skip = (off[..., j] == 0.0)[..., None, None]
                np.copyto(vw[..., j + 1 :, 2 * c : 2 * c + 2], 0.0, where=skip)
        x = vw[..., j1:, 0::2] @ vw[..., j1:, 1::2].conj().mT
        work[..., j1:, j1:] -= x + x.conj().mT
        panels.append((j0, vw[..., 0::2].reshape(count, k, -1)))
    # no step writes an entry of the diagonal after its own column's
    diag, off, phases = (a.reshape(count, -1) for a in (diag, off, phases))
    for d_i, (m_i, _) in zip(diag, scaled):
        if np.max(np.abs(d_i.imag) + np.abs(m_i.diagonal().imag)) > 1e-10 * fro_norm(m_i):
            raise ValidationError("tridiagonalization produced a complex diagonal")

    # -phase of each reflection, 1 for a skipped (zero) column
    turn = np.where(off == 0.0, 1.0, -phases)
    q = _reflector_product(panels, turn, 1)
    return [
        (TridiagonalReal(diag=np.ldexp(d_i.real, e), offdiag=np.ldexp(o_i, e)), q_i)
        for d_i, o_i, (_, e), q_i in zip(diag, off, scaled, q)
    ]


def _reflector_product(panels, turn: np.ndarray, offset: int) -> np.ndarray:
    """Q = H_0 H_1 ... H_{r-1} diag(1, ..., 1, cumprod(turn)) for each
    member of a stack, with H_j = I - 2 v_j v_j^H.

    ``panels`` lists (j0, vs) in order, vs an (S, n, nb) stack whose column
    c is v_{j0+c}, zero above row j0 + c + ``offset``; a zero column is an
    identity step. ``turn`` is (S, n - offset): the unit phase of step j
    scales rows j + offset onward, and as it commutes with every later
    reflection, all of them become one cumulative scaling of the columns
    from ``offset`` on. Q is built backward from the panels, each as
    I - V S V^H with S upper triangular, in compact-WY form (Schreiber &
    Van Loan, SIAM J. Sci. Stat. Comput. 10(1), 1989).
    """
    count, n = turn.shape[0], turn.shape[1] + offset
    q = np.zeros((count, n, n), dtype=np.complex128)
    q[:, range(n), range(n)] = 1.0
    for j0, vs in reversed(panels):
        nb = vs.shape[2]
        # S is built for the whole stack; products and scalings run member
        # by member, so that no temporary is the size of the stack
        gv = np.array([v.conj().T @ v for v in vs])
        s = np.zeros((count, nb, nb), dtype=np.complex128)
        s[:, range(nb), range(nb)] = 2.0
        for c in range(1, nb):
            s[:, :c, c : c + 1] = -2.0 * (s[:, :c, :c] @ gv[:, :c, c : c + 1])
        del gv
        lo = j0 + offset
        for q_i, s_i, vb in zip(q, s, vs[:, lo:]):
            q_i[lo:, lo:] -= vb @ (s_i @ (vb.conj().T @ q_i[lo:, lo:]))
    for q_i, phases in zip(q, np.cumprod(turn, axis=1)):
        q_i[:, offset:] *= phases
    return q


# ---------------------------------------------------------------------------
# step 3: divide and conquer diagonalization


def _rational_step(tau, lo, hi, aq, bq, cq) -> np.ndarray:
    """Next iterate of each open secular root: tau plus the root of
    aq*x^2 - bq*x + cq = 0 nearer to zero among those that stay inside
    (lo, hi), else the bracket midpoint.

    The quadratic is solved without cancellation: ``big`` takes the sign of
    bq, and ``other`` = cq / (aq * big); a linear model (aq = 0) has the one
    root cq / bq (none when bq = 0 too), and a zero ``big`` makes both steps
    zero. On a tie the ``big`` step wins. Every branch is evaluated for
    every root and then masked, so the masked-off lanes may divide by zero
    or take the root of a negative number; np.errstate keeps them quiet.
    """
    with np.errstate(all="ignore"):
        sq = np.sqrt(bq * bq - 4.0 * aq * cq)
        big = np.where(bq >= 0.0, bq + sq, bq - sq) / (2.0 * aq)
        other = np.where(big == 0.0, 0.0, cq / (aq * big))
        big = np.where(big == 0.0, 0.0, big)
        linear = np.where(bq == 0.0, np.nan, cq / bq)
        to_big = tau + np.where(aq == 0.0, linear, big)
        to_other = tau + np.where(aq == 0.0, linear, other)
        ok_big = (lo < to_big) & (to_big < hi)
        ok_other = (lo < to_other) & (to_other < hi)
        take_other = ok_other & (~ok_big | (np.abs(to_other - tau) < np.abs(to_big - tau)))
        return np.where(take_other, to_other, np.where(ok_big, to_big, 0.5 * (lo + hi)))


def _secular_roots(
    d: np.ndarray, asq: np.ndarray, cap: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every root of m secular equations 1 + sum_j asq[g, j] / (d[g, j] - lam),
    the deflated merges of one group, each with n ascending poles d[g] and
    alpha folded into asq[g], solved in lockstep.

    Returns (origin, tau, iterations), each (m, n), with root i of equation
    g at lam = d[g, origin[g, i]] + tau[g, i]. An interior root first probes
    the secular function at the midpoint of its poles and takes the nearer
    pole as origin, so the pole difference that dominates the eigenvector
    stays fully accurate; the last root keeps its left pole (its upper
    bound d[-1] + sum(asq) is not a pole). The search starts at the middle
    of the remaining bracket, fits a two-pole rational model at the poles
    on either side, and clamps every step to the bisection bracket, so it
    cannot escape. Where the origin pole's weight is negligible next to
    its neighbour's, the model can overshoot to the far side of the root
    on every step, so that the bracket never halves: a root whose f has
    changed sign on each of its last two steps while its bracket stayed
    wider than half of what it was two steps before takes the bracket's
    midpoint as its next iterate.

    Each root keeps its own origin, bracket and pole pair. The open roots
    are the rows of one (roots x n) array, which drops a row as its root
    converges; each row sums over the n poles of its own equation, so every
    root gets the operations, in the order, of a solve on its own. One
    iteration is one rational-model step (f at the iterate, then a move
    unless it has converged); the probe is setup and is not counted.
    Without a cap, a root still open after ``_MAX_NEWTON_ITERS`` iterations
    raises ConvergenceError with the bracket of the first such root (lowest
    g, then lowest i), and with its equation's poles d[g], weights asq[g]
    and root index i; with one, the iterate after
    min(cap, ``_MAX_NEWTON_ITERS``) iterations is returned.
    """
    m, n = d.shape
    if n == 1:
        zero = np.zeros((m, 1), dtype=np.intp)
        return zero, asq.copy(), zero
    # row r is root r % n of equation r // n
    poles = np.repeat(d, n, axis=0)
    w = np.repeat(asq, n, axis=0)
    root = np.tile(np.arange(n), m)
    inner = root < n - 1
    half = 0.5 * np.diff(d, axis=1).ravel()
    shifted = (poles[inner] - d[:, :-1].reshape(-1, 1)) - half[:, None]
    up = 1.0 + np.sum(w[inner] / shifted, axis=1) >= 0.0
    origin = root.copy()
    origin[inner] += ~up
    lo = np.zeros(m * n)
    hi = np.zeros(m * n)
    lo[inner] = np.where(up, 0.0, -half)
    hi[inner] = np.where(up, half, 0.0)
    hi[n - 1 :: n] = asq.sum(axis=1)
    # the model's pole pair straddles the root: (i, i + 1), or (n - 2, n - 1) for the last
    p1 = root - ~inner
    every = np.arange(m * n)
    dd = poles - poles[every, origin][:, None]
    limit = _MAX_NEWTON_ITERS if cap is None else min(_MAX_NEWTON_ITERS, cap)
    tau = 0.5 * (lo + hi)
    tau_out = np.empty(m * n)
    iters = np.full(m * n, limit)
    act = every
    # the two-cycle guard's state one and two steps back: whether f was
    # negative, whether it had just changed sign, and the bracket's width,
    # infinite before the first step so that the guard cannot fire early
    neg1 = flip1 = np.zeros(m * n, dtype=bool)
    wide1 = wide2 = np.full(m * n, np.inf)
    for it in range(1, limit + 1):
        delta = dd - tau[:, None]
        t = w / delta
        fval = 1.0 + t.sum(axis=1)
        neg = fval < 0.0
        lo = np.where(neg, tau, lo)
        hi = np.where(neg, hi, tau)
        wide = hi - lo
        # a root that passes the f test never reads its new bracket
        with np.errstate(all="ignore"):
            narrow = wide <= 2.0 * _EPS * (np.abs(lo) + np.abs(hi))
        done = (np.abs(fval) <= _SECULAR_TOL * (1.0 + np.abs(t).sum(axis=1))) | narrow
        if done.any():
            tau_out[act[done]] = tau[done]
            iters[act[done]] = it
            keep = np.flatnonzero(~done)
            act = act[keep]
            if act.size == 0:
                break
            dd, w, p1, lo, hi, tau, delta, t, fval = (
                x[keep] for x in (dd, w, p1, lo, hi, tau, delta, t, fval)
            )
            neg, wide, neg1, flip1, wide1, wide2 = (
                x[keep] for x in (neg, wide, neg1, flip1, wide1, wide2)
            )
        # a model that overshoots to the far side of the root on each of
        # the last two steps, while the bracket has not halved over them,
        # is cycling between the bracket's ends: bisect instead
        flip = neg != neg1
        cycling = flip & flip1 & (wide > 0.5 * wide2)
        neg1, flip1, wide1, wide2 = neg, flip, wide, wide1
        # two-pole rational model: the local poles keep their exact
        # weights scaled by beta to match f'; the rest is the constant c3
        s = t / delta
        fder = s.sum(axis=1)
        r = np.arange(act.size)
        d1 = delta[r, p1]
        d2 = delta[r, p1 + 1]
        sp = s[r, p1] + s[r, p1 + 1]
        beta = np.divide(fder, sp, out=np.zeros_like(fder), where=sp != 0.0)
        c1 = beta * w[r, p1]
        c2 = beta * w[r, p1 + 1]
        c3 = fval - beta * (t[r, p1] + t[r, p1 + 1])
        bq = c3 * (d1 + d2) + c1 + c2
        cq = c3 * d1 * d2 + c1 * d2 + c2 * d1
        tau = _rational_step(tau, lo, hi, c3, bq, cq)
        if np.count_nonzero(cycling):
            tau = np.where(cycling, 0.5 * (lo + hi), tau)
    if act.size:
        if cap is None:
            g, i = divmod(int(act[0]), n)
            raise ConvergenceError(
                f"secular root did not converge in {_MAX_NEWTON_ITERS} iterations",
                bracket=(lo[0], hi[0]),
                poles=d[g].copy(),
                weights=asq[g].copy(),
                root=i,
            )
        tau_out[act] = tau
    return origin.reshape(m, n), tau_out.reshape(m, n), iters.reshape(m, n)


def _eigenvectors(
    dk: np.ndarray, us: np.ndarray, origin: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Eigenvector rows w[g, i] of root i of merge g over its n kept
    components, from (m, n) poles, weights u and roots as (origin, tau).

    Gu-Eisenstat: rank-1 weights recomputed from the roots make the
    eigenvectors mutually orthogonal; magnitudes come from the product
    formula, signs from u. diffs[g, i, j] holds lam_j - d_i, each lam_j
    through its shifted representation.
    """
    n = dk.shape[1]
    dko = np.take_along_axis(dk, origin, axis=1)
    diffs = (dko[:, None, :] - dk[:, :, None]) + tau[:, None, :]
    den = dk[:, None, :] - dk[:, :, None]
    den[:, np.arange(n), np.arange(n)] = 1.0
    ratio = diffs / den
    left = np.tri(n, k=-1, dtype=bool)
    prod = np.diagonal(diffs, axis1=1, axis2=2) * np.where(left, ratio, 1.0).prod(axis=2)
    prod = prod * np.where(left.T, ratio, 1.0).prod(axis=2)
    # clamp as max(prod, 0.0) does: NaN and -0.0 pass through
    uhat = np.sqrt(np.where(prod < 0.0, 0.0, prod)) * np.sign(us)
    w = uhat[:, None, :] / -((dk[:, None, :] - dko[:, :, None]) - tau[:, :, None])
    w /= np.sqrt(np.sum(w * w, axis=2))[:, :, None]
    return w


def _rotate_coincident(
    ds: np.ndarray, us: np.ndarray, deflated: np.ndarray, tol: float
) -> list[tuple[int, int, float, float]]:
    """Deflate the coincident kept poles of one sorted merge, in place.

    Walking the kept poles upward, a pole within ``tol`` of the previous
    kept pole takes that pole's weight by a Givens rotation, and the
    previous pole deflates. Returns the rotations as (prev, j, c, s).
    """
    rots: list[tuple[int, int, float, float]] = []
    prev = -1
    for j in range(ds.size):
        if deflated[j]:
            continue
        if prev >= 0 and ds[j] - ds[prev] <= tol:
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
    return rots


def _merge_level(
    batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    cap: int | None,
    diags: list[DcDiagnostics],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigen decompositions (ascending) of the rank-1 updates
    diag(d) + rho * u u^T (d in any order, rho >= 0) of one recursion level.

    Each batch (d, u, rho) holds m merges of one size n as (m, n), (m, n)
    and (m,) arrays and gets back (lam, s) as (m, n) and (m, n, n) arrays.
    Row r of every batch is a merge of member r % len(diags) of the stack,
    which gets its counts.

    A batch is finished before the next is read. The sort, the deflation
    tests, the placement of the kept eigenvectors and of the deflated unit
    vectors, the unsort and the final sort are array expressions over the
    batch. The coincident-pole rotations run merge by merge, and only in a
    merge with two adjacent sorted poles within the deflation tolerance:
    anywhere else they rotate nothing. A merge whose weight rho |u|^2 or
    whose spread of kept poles is not finite raises ValidationError before
    any root of its batch is solved. The batch's merges are then grouped,
    unpadded, by their number n of kept poles, groups in the order of their
    first merge: one lockstep solve finds every root of a group, and
    (m, n, n) array expressions give its weights, eigenvector columns and
    interlacing count.
    """
    members = len(diags)
    deflations, iters_total, iters_max, violations = (
        np.zeros(members, dtype=np.int64) for _ in range(4)
    )
    out = []
    for d, u, rho in batches:
        m, n = d.shape
        r = np.arange(m)[:, None]
        owner = r[:, 0] % members
        p = np.argsort(d, axis=1, kind="stable")
        ds = d[r, p]
        us = u[r, p]
        scale = np.maximum(np.maximum(np.abs(ds[:, 0]), np.abs(ds[:, -1])), 1e-300)
        tol = _DEFLATION_TOL * scale
        unorm = np.sqrt(np.sum(us * us, axis=1))
        with np.errstate(over="ignore"):
            weight = rho * unorm * unorm
            spread = ds[:, -1] - ds[:, 0]
            close = np.diff(ds, axis=1) <= tol[:, None]
        deflated = np.abs(us) <= (_DEFLATION_TOL * unorm)[:, None]
        # a negligible rho |u|^2, zero at an exact split, deflates every component
        deflated[weight <= tol] = True
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(spread))):
            # a merge that deflates whole may span the float range: it solves nothing
            for i in np.nonzero(~(np.isfinite(weight) & np.isfinite(spread)))[0]:
                kept = ds[i, ~deflated[i]]
                with np.errstate(over="ignore"):
                    if kept.size and not np.isfinite([weight[i], kept[-1] - kept[0]]).all():
                        raise ValidationError(
                            "merge weight or pole spread overflowed: "
                            "tridiagonal entries must be finite"
                        )
        rots = {
            i: _rotate_coincident(ds[i], us[i], deflated[i], tol[i])
            for i in np.nonzero(close.any(axis=1))[0]
        }
        counts = n - np.count_nonzero(deflated, axis=1)
        np.add.at(deflations, owner, n - counts)
        # kept components first, then the deflated ones, each in sorted order;
        # a deflated component keeps its pole as its eigenvalue
        perm = np.argsort(deflated, axis=1, kind="stable")
        kd, ku = ds[r, perm], us[r, perm]
        lam_all = kd.copy()
        vt = np.zeros((m, n, n))
        # groups in the order of their first merge
        for n_keep in dict.fromkeys(counts.tolist()):
            if n_keep == 0:
                continue
            rows = np.nonzero(counts == n_keep)[0]
            dk, uk = kd[rows, :n_keep], ku[rows, :n_keep]
            asq = rho[rows, None] * uk * uk
            origin, tau, iters = _secular_roots(dk, asq, cap)
            lam = np.take_along_axis(dk, origin, axis=1) + tau
            # the top root is the only one not bracketed by two poles
            if not np.all(np.isfinite(lam[:, -1])):
                raise ValidationError(
                    "merge eigenvalue overflowed: tridiagonal entries must be finite"
                )
            np.add.at(iters_total, owner[rows], iters.sum(axis=1))
            np.maximum.at(iters_max, owner[rows], iters.max(axis=1))
            # strict interlacing, verified on the shifted (origin, tau) values
            # where pole differences are exact; a single surviving component is
            # the closed-form case whose root sits exactly on the upper bound
            if n_keep > 1:
                hi = np.concatenate([np.diff(dk, axis=1), asq.sum(axis=1)[:, None]], axis=1)
                ok = np.where(
                    origin == np.arange(n_keep), (0.0 < tau) & (tau < hi), (-hi < tau) & (tau < 0.0)
                )
                np.add.at(violations, owner[rows], np.count_nonzero(~ok, axis=1))
            lam_all[rows, :n_keep] = lam
            # row i holds root i's eigenvector (row i of w) over the kept components
            vt[rows, :n_keep, :n_keep] = _eigenvectors(dk, uk, origin, tau)
        # a deflated component keeps its unit vector, as eigenvector j >= n_keep
        i_idx, j_idx = np.nonzero(np.arange(n) >= counts[:, None])
        vt[i_idx, j_idx, j_idx] = 1.0
        order = np.argsort(lam_all, axis=1, kind="stable")
        # Every s[i] is Fortran-ordered (eigenvector c is row c of the memory
        # under s): BLAS picks its kernel, and so its rounding, by operand
        # layout, and this is the layout in which dc_eigen has always formed
        # its eigenvector products. Entry a of an eigenvector in vt is sorted
        # component perm[a], so input component p[perm[a]].
        s = np.empty_like(vt).transpose(0, 2, 1)
        s[r, p[r, perm]] = vt[r, order].transpose(0, 2, 1)
        # map eigenvectors back through the deflation rotations (apply R, the
        # inverse of the R^T that zeroed the duplicate-pole weights)
        for i, rot in rots.items():
            for c, jj, cs, sn in reversed(rot):
                row_c = s[i, p[i, c], :].copy()
                row_j = s[i, p[i, jj], :]
                s[i, p[i, c], :] = cs * row_c + sn * row_j
                s[i, p[i, jj], :] = -sn * row_c + cs * row_j
        out.append((lam_all[r, order], s))
    for diag, defl, total, most, bad in zip(diags, deflations, iters_total, iters_max, violations):
        diag.deflation_count += int(defl)
        diag.newton_iterations_total += int(total)
        diag.newton_iterations_max_per_root = max(diag.newton_iterations_max_per_root, int(most))
        diag.interlacing_violations += int(bad)
    return out


def _dc(ts: list[TridiagonalReal], cap: int | None) -> list[EigenDecomposition]:
    """Divide and conquer over a stack of tridiagonals of one size K; one
    EigenDecomposition, with its own DcDiagnostics, per member.

    The split tree depends only on K, so every split is made for the whole
    stack at once, and every merge of a recursion level, across the stack,
    goes to one _merge_level call, as one batch per merge size. A member
    gets the bits of its solve alone: nothing in a merge reads another
    merge.
    """
    k = ts[0].dim
    members = len(ts)
    # the first half of every split is the larger, so the middle split sets the depth
    depth = (k - 1).bit_length()
    diags = [DcDiagnostics(recursion_depth=depth) for _ in ts]
    d = np.array([t.diag for t in ts])
    e = np.array([t.offdiag for t in ts])
    # top down, parent before children: each split writes T as
    # blockdiag(T1, T2) + rho v v^T with alpha = e[cut - 1], rho = |alpha|
    # and v = e_{cut-1} + sign(alpha) e_cut (Cuppen), so rho comes off the
    # two facing diagonal entries
    levels: list[list[tuple[int, int, int]]] = [[] for _ in range(depth)]
    todo = [(0, k, 0)]
    while todo:
        lo, hi, level = todo.pop()
        if hi - lo > 1:
            cut = lo + (hi - lo + 1) // 2
            levels[level].append((lo, cut, hi))
            todo += [(cut, hi, level + 1), (lo, cut, level + 1)]
    # the splits of one level touch disjoint entries, and an entry touched
    # twice gets its ancestor's rho first
    for level in levels:
        cuts = np.array([cut for _, cut, _ in level])
        rho = np.abs(e[:, cuts - 1])
        d[:, cuts - 1] -= rho
        d[:, cuts] -= rho
        # taking rho off the two facing entries can overflow them
        if not np.all(np.isfinite(d)):
            raise ValidationError("tridiagonal entries must be finite")

    # bottom up, one level at a time: a merge joins the eigen decompositions
    # of its two halves, keyed by their first row, each as (members, ...)
    # arrays. The merges of one size, at most two per level, are one batch,
    # ordered by size; row i * members + s of a batch is member s of its
    # merge i, in tree order.
    solved = {i: (d[:, i : i + 1], np.ones((members, 1, 1))) for i in range(k)}
    for level in reversed(levels):
        sizes = sorted({hi - lo for lo, _, hi in level})
        runs = [[x for x in level if x[2] - x[0] == n] for n in sizes]
        batches, halves = [], []
        for run in runs:
            n = run[0][2] - run[0][0]
            lam1, q1 = (np.array(x) for x in zip(*(solved.pop(lo) for lo, _, _ in run)))
            lam2, q2 = (np.array(x) for x in zip(*(solved.pop(cut) for _, cut, _ in run)))
            alpha = e[:, [cut - 1 for _, cut, _ in run]].T
            u = np.concatenate(
                [q1[:, :, -1, :], np.copysign(1.0, alpha)[:, :, None] * q2[:, :, 0, :]], axis=2
            )
            lam12 = np.concatenate([lam1, lam2], axis=2)
            batches.append((lam12.reshape(-1, n), u.reshape(-1, n), np.abs(alpha).ravel()))
            halves.append((q1.reshape(-1, *q1.shape[2:]), q2.reshape(-1, *q2.shape[2:])))
        for run, (q1, q2), (lam, s) in zip(runs, halves, _merge_level(batches, cap, diags)):
            n1 = q1.shape[1]
            q = np.concatenate([q1 @ s[:, :n1, :], q2 @ s[:, n1:, :]], axis=1)
            for i, (lo, _, _) in enumerate(run):
                rows = slice(i * members, (i + 1) * members)
                solved[lo] = (lam[rows], q[rows])
    lam, q = solved[0]
    return [EigenDecomposition(lam=lam[s], q=q[s], diagnostics=diag) for s, diag in enumerate(diags)]


def dc_eigen(t: TridiagonalReal) -> EigenDecomposition:
    """Divide-and-conquer eigendecomposition of a real symmetric tridiagonal.

    Splits at the middle recursively (every split first, top down), then
    merges one recursion level at a time, deepest first, and within a
    level the merges of one size at a time, the smaller size first: each
    rank-1 merge deflates negligible components and coincident poles,
    every secular root is solved in lockstep with the other roots of
    merges of its size that keep as many poles, and the eigenvectors are
    accumulated per size. Eigenvalues come out ascending, with a real
    eigenvector matrix. A secular root that does not converge in ``_MAX_NEWTON_ITERS`` (50)
    model steps raises ConvergenceError; an overflowing split, a merge
    whose weight or spread of kept poles overflows, and a merge whose top
    root overflows raise ValidationError. Since all splits come before any
    merge, and the merges of one size are solved together, an input with
    more than one such fault reports the first split fault if there is
    one, and otherwise the first fault of the deepest level that has one,
    in its smallest merge size that has one: an overflowing weight or
    spread, else the fault of the first group of merges to hit one. With
    roots failing in two merges, the bracket may belong to a different
    root than a depth-first recursion would report. It is the solve of a
    stack of one (svd_4step_stack).
    """
    return _dc([t], None)[0]


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
    return _dc([t], as_count(iter_budget, "iter_budget"))[0]


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
    if valid.all():
        u = a @ v
        u /= sigma
    else:
        u = np.zeros((a.shape[0], sigma.size), dtype=np.complex128)
        u[:, valid] = (a @ v[:, valid]) / sigma[valid]
    return SvdResult(u=u, sigma=sigma, v=v, valid=valid, diagnostics=eig.diagnostics)


def _solve_cap(iter_budget, sv_threshold: float) -> int | None:
    """Check the arguments of svd_4step and svd_4step_stack before any
    work; returns the per-root iteration cap, None to run to convergence."""
    _check_sv_threshold(sv_threshold)
    return None if iter_budget is None else as_count(iter_budget, "iter_budget")


def svd_4step(
    a, iter_budget: int | None = None, *, sv_threshold: float = _SV_THRESHOLD
) -> SvdResult:
    """Full pipeline: Gram matrix, tridiagonalization, divide-and-conquer
    diagonalization, and SVD recovery.

    When the largest real or imaginary part of A lies outside
    [2**-128, 2**128], A is first scaled by the power of two 2**-e that
    brings it into [0.5, 1) (matrix_core.pow2_scale), so that A^H A
    neither overflows nor underflows, and sigma is scaled back by 2**e at
    the end; U is then formed from the scaled copy as A_s V / sigma_s,
    which equals A V / sigma because the scale is exact. Inside that range
    A is used as it is (LAPACK zgesvd also scales only outside a safe
    range): the Gram matrix, and the secular solve that squares values on
    its scale, stay far from overflow and from the subnormal range, where
    a power-of-two scale changes no rounding and would only cost a copy
    of A.

    ``iter_budget`` caps the iterations per secular root as in
    truncated_dc_eigen (used for accuracy-versus-latency sweeps); None
    means run to convergence. ``sv_threshold`` is recover_svd's; both are
    checked before any work is done.
    """
    cap = _solve_cap(iter_budget, sv_threshold)
    a_s, e = pow2_scale(as_matrix(a))
    b = gram(a_s)
    t, q_t = tridiagonalize(b)
    if cap is None:
        eig = dc_eigen(t)
    else:
        eig = truncated_dc_eigen(t, cap)
    res = recover_svd(a_s, eig, q_t, sv_threshold=sv_threshold)
    return replace(res, sigma=np.ldexp(res.sigma, e))


def svd_4step_stack(
    mats, iter_budget: int | None = None, *, sv_threshold: float = _SV_THRESHOLD
) -> list[SvdResult]:
    """svd_4step of every matrix of a stack, with one divide and conquer
    over all of them.

    ``mats`` is a nonempty sequence of M x K matrices of one shape, else
    DimensionError; ``iter_budget`` and ``sv_threshold`` are svd_4step's,
    checked as svd_4step checks them, before any work. Each matrix is
    scaled, and goes through the public gram and recover_svd, on its own;
    one tridiagonalize_stack reduces every Gram matrix, and the divide and
    conquer solves every merge of a recursion level, across the stack,
    together. Result i is bit for bit
    svd_4step(mats[i], iter_budget, sv_threshold=sv_threshold).

    A member whose own solve raises makes the whole call raise, with the
    same error type. With faults in several members, the first stage to
    fail reports: scaling and gram run member by member, in stack order;
    then every Gram matrix is checked as Hermitian, in stack order, before
    the one stacked reduction, after which the first member in stack
    order with a complex reduced diagonal reports; the divide and conquer
    reports as dc_eigen does, with a level's merges ordered by size, then
    position in the tree, then member.
    """
    cap = _solve_cap(iter_budget, sv_threshold)
    mats = [as_matrix(a) for a in mats]
    one_shape((a.shape for a in mats), "svd_4step_stack")
    scaled = [pow2_scale(a) for a in mats]
    reduced = tridiagonalize_stack([gram(a_s) for a_s, _ in scaled])
    eigs = _dc([t for t, _ in reduced], cap)
    out = []
    for (a_s, e), (_, q_t), eig in zip(scaled, reduced, eigs):
        res = recover_svd(a_s, eig, q_t, sv_threshold=sv_threshold)
        out.append(replace(res, sigma=np.ldexp(res.sigma, e)))
    return out
