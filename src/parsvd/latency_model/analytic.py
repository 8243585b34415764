"""Closed-form operation counts and critical-path model for the solvers.

Mirrors the traced schedules without materializing graphs, in two
separate parts. The census is a set of exact closed-form sums that need
no profile. The path lengths are propagated per value with max/extend
bookkeeping. For a given size and iteration budget the census equals the
trace node census exactly, and the path equals
``critical_path(trace_run(...))`` exactly for tridiag, 4step-qr and gk
(tested for every size up to 12). The 4step-dc path is exact at powers of
two. Elsewhere it is an upper bound, because the traced merges pair their
adder trees in the sorted order of the values, which the balanced-tree
depths here bound from above. On random inputs at K <= 16 it was over by
at most 1 multiplication and a few additions, more with more iterations:
up to 2 at 1 iteration, 4 at 3 and 7 at 8.

Iteration semantics per algorithm: ``4step-dc`` counts rational-model
steps per secular root, ``4step-qr`` counts tridiagonal QR sweeps, and
``gk`` counts bidiagonal sweeps (pipelined: successive sweeps overlap
after four rotations, which the dependency bookkeeping reproduces).
``4step-dc`` prices the no-deflation schedule, the worst case, and not
the solver's origin probe, one secular evaluation per interior root.
"""

from __future__ import annotations

from ..errors import DimensionError, ValidationError
from ..matrix_core import as_count
from .dfg import LatencyEstimate, OpCount
from .profiles import OP_KINDS, HardwareProfile
from .table_counts import ceil_log2

ALGORITHMS = ("tridiag", "4step", "4step-dc", "4step-qr", "gk")

# path lengths are tuples (ns, add, mul, div, sqrt): tuple order makes
# ``max`` take the longest path, and of equally long ones the one with the
# most additions, then multiplications, divisions and square roots. Steps
# along a path are (add, mul, div, sqrt) tuples.
_ZERO = (0.0, 0, 0, 0, 0)
_A1 = (1, 0, 0, 0)
_M1 = (0, 1, 0, 0)
_D1 = (0, 0, 1, 0)
_AS = (1, 0, 0, 1)  # an addition, then a square root
_M2 = (0, 2, 0, 0)


def _weights(prof: HardwareProfile) -> tuple:
    return tuple(prof.latency_ns[k] for k in OP_KINDS)


def _plus(dep: tuple, ops: tuple, w: tuple) -> tuple:
    """The path ``dep`` extended by the steps ``ops``, priced at the
    latencies ``w``; the ns term is OpCount.ns of the new counts, summed in
    the same order, so it does not depend on how the steps were grouped."""
    _, add, mul, div, sqrt = dep
    add += ops[0]
    mul += ops[1]
    div += ops[2]
    sqrt += ops[3]
    return (add * w[0] + mul * w[1] + div * w[2] + sqrt * w[3], add, mul, div, sqrt)


# ---------------------------------------------------------------------------
# operation census


def _tridiag_census(k_dim: int) -> OpCount:
    # the eight stages of householder_step_counts, summed over the steps
    add = mul = div = sqrt = 0
    for i in range(1, k_dim):
        add += 8 * i * i + 8 * i - 1 + (2 if i >= 2 else 1) + 10 * i * k_dim - 2 * k_dim
        mul += 8 * i * i + 10 * i + 4 + 12 * i * k_dim
        div += 2 * i + 2
        sqrt += 3
    return OpCount(add=add, mul=mul, div=div, sqrt=sqrt)


def _dc_census(ll: int, iters: int) -> OpCount:
    """Merge tree over ``ll`` tridiagonal entries."""
    if ll == 1:
        return OpCount()
    cut = (ll + 1) // 2
    total = _dc_census(cut, iters) + _dc_census(ll - cut, iters)
    # split, weight-sum tree and midpoints
    total = total + OpCount(add=2 + (ll - 1) + ll)
    total = total + OpCount(
        add=(3 * ll + 10) * ll * iters,
        mul=10 * ll * iters,
        div=(2 * ll + 2) * ll * iters,
        sqrt=ll * iters,
    )
    total = total + OpCount(add=(2 * ll - 1) * ll, mul=ll * ll, div=2 * ll * ll, sqrt=ll)
    for half in (cut, ll - cut):
        if half > 1:
            # scaled squared weights, then the product with the dense half's vectors
            total = total + OpCount(add=half * (half - 1) * ll, mul=2 * half + half * half * ll)
    return total


def _qr_census(k_dim: int, sweeps: int) -> OpCount:
    # every rotation after the first also rescales the deferred bulge
    rotations = OpCount(add=8, mul=16, div=2, sqrt=1).scaled(k_dim - 1) + OpCount(mul=2 * (k_dim - 2))
    # eigenvector accumulation from the identity, skipping structural
    # zeros and ones: sweep s still meets r_s = max(K - s, 0) zero rows
    mul, add = (k_dim - 2) * (k_dim + 1), 0
    for s in range(2, sweeps + 1):
        r = max(k_dim - s, 0)
        mul += 4 * k_dim * (k_dim - 1) - 2 * r * r
        add += 2 * k_dim * (k_dim - 1) - r * (r + 1)
    return rotations.scaled(sweeps) + OpCount(add=add, mul=mul)


def _gk_census(m_dim: int, k_dim: int, sweeps: int) -> OpCount:
    def step(n, width):
        # a reflector of length n > 1, or a bare phase at n == 1, applied
        # to ``width`` rows and columns of the work matrix and its factor
        if n > 1:
            return OpCount(add=2 * n + 3 + (10 * n - 2) * width, mul=2 * n + 4 + 12 * n * width,
                           div=2 * n + 2, sqrt=3)
        return OpCount(add=1 + 2 * width, mul=2 + 4 * width, div=2, sqrt=1)

    total = OpCount()
    for j in range(k_dim):
        total = total + step(m_dim - j, k_dim - j - 1 + m_dim)
        if j < k_dim - 1:
            r = k_dim - 1 - j
            # a bare row phase leaves the pivot row alone
            total = total + step(r, (m_dim - j if r > 1 else m_dim - j - 1) + k_dim)
    per_pair = OpCount(mul=16 + 8 * (k_dim + m_dim), add=6 + 4 * (k_dim + m_dim), sqrt=2, div=4)
    return total + per_pair.scaled((k_dim - 1) * sweeps)


# ---------------------------------------------------------------------------
# tridiagonalization


def _tridiag_model(k_dim: int, w: tuple):
    """Returns (d_depths, e_depths, chain_end)."""
    d_dep = [_ZERO] * k_dim
    e_dep: list = [None] * max(k_dim - 1, 0)
    chain = _ZERO
    for k1 in range(1, k_dim):
        i = k_dim - k1
        # the time rows of householder_step_counts: stage 1 yields the
        # band entry, stages 1 and 3-7 make up the step
        s1 = ceil_log2(i - 1) + 2 if i >= 2 else 1
        e_dep[k1 - 1] = _plus(chain, (s1, 1, 0, 1), w)
        s4 = 2 if i >= 2 else 1
        chain = _plus(chain, (s1 + s4 + 8 + 2 * ceil_log2(i), 7, 1, 2), w)
        d_dep[k1] = chain
    return d_dep, e_dep, chain


# ---------------------------------------------------------------------------
# divide and conquer


def _dc_model(iters: int, d_dep: list, e_dep: list, w: tuple):
    """Returns the final eigenvector depth of the merge tree over the inputs."""

    def rec(ds, es):
        ll = len(ds)
        if ll == 1:
            return ds[0], None
        cut = (ll + 1) // 2
        alpha = es[cut - 1]
        dl = list(ds[:cut])
        dl[-1] = _plus(max(dl[-1], alpha), _A1, w)
        dr = list(ds[cut:])
        dr[0] = _plus(max(dr[0], alpha), _A1, w)
        lam1, q1 = rec(dl, es[: cut - 1])
        lam2, q2 = rec(dr, es[cut:])
        l1 = cut

        lam_in = max(lam1, lam2)
        if q1 is None and q2 is None:
            rho = _plus(alpha, _A1, w)
        else:
            cands = []
            if q1 is not None:
                cands.append(_plus(q1, _M2, w))
            if q2 is not None:
                cands.append(_plus(q2, _M2, w))
            if q1 is None or q2 is None:
                cands.append(alpha)
            rho = _plus(max(cands), (ceil_log2(ll), 0, 0, 0), w)
        # the start, then ``iters`` rational-model steps
        steps = (1 + (7 + ceil_log2(ll)) * iters, 3 * iters, 4 * iters, iters)
        lam = _plus(max(lam_in, rho), steps, w)
        # the eigenvector entries, then their product with the half's vectors
        eig = (1 + ceil_log2(ll), 1, 2, 1)
        if l1 > 1:
            eig = (eig[0] + ceil_log2(l1), 2, 2, 1)
        return lam, _plus(lam, eig, w)

    lam, q = rec(list(d_dep), list(e_dep))
    return q if q is not None else lam


# ---------------------------------------------------------------------------
# QR iteration


def _givens(x, z, w: tuple):
    """Depths of r = sqrt(x^2 + z^2) and of (c, s) = (x, z) / r, from the
    depths of x and z."""
    r = _plus(max(_plus(x, _M1, w), _plus(z, _M1, w)), _AS, w)
    return r, _plus(r, _D1, w)


def _qr_model(k_dim: int, sweeps: int, d_dep: list, e_dep: list, w: tuple):
    """Returns the path depth of ``sweeps`` pipelined plain QR sweeps."""
    d = list(d_dep)
    e = list(e_dep)
    for _ in range(sweeps):
        x = d[0]
        cd_prev = None
        for j in range(k_dim - 1):
            if j > 0:
                z = _plus(max(cd_prev, e[j]), _M1, w)
                e_eff = z
            else:
                z = e[0]
                e_eff = e[0]
            r, cd = _givens(x, z, w)
            if j > 0:
                e[j - 1] = r
            # p1 and q1, p2 and q2 have equal depths, and so have the three
            # band entries that the rotation writes back
            ce = _plus(max(cd, e_eff), _M1, w)
            p1 = _plus(max(_plus(max(cd, d[j]), _M1, w), ce), _A1, w)
            p2 = _plus(max(ce, _plus(max(cd, d[j + 1]), _M1, w)), _A1, w)
            dj = _plus(max(_plus(max(cd, p1), _M1, w), _plus(max(cd, p2), _M1, w)), _A1, w)
            d[j] = e[j] = d[j + 1] = x = dj
            cd_prev = cd
    return max(d + e)


# ---------------------------------------------------------------------------
# Golub-Kahan


def _gk_bidiag_model(m_dim: int, k_dim: int, w: tuple):
    """Returns (d_depths, e_depths, loose_end) of the bidiagonalization.

    ``loose_end`` is the reflector tail of a final column step that has no
    trailing columns left (zero when there is none): it feeds only the
    overlapped transform update, but its own nodes still carry weight and
    can end the critical path.
    """
    d_dep: list = [None] * k_dim
    e_dep: list = [None] * max(k_dim - 1, 0)
    block = _ZERO
    loose_end = _ZERO

    # a reflector's path from its norm to the normalized vector
    to_vector = (3, 2, 1, 1)

    def reduce(n, trailing):
        # one column or row step on a length-n vector: the depths of the
        # band entry it produces and of the trailing block after it
        if n == 1:
            head, tail = (1, 1, 0, 1), (1, 1, 0, 0)
        else:
            head = (ceil_log2(n - 1) + 2, 1, 0, 1)
            tail = (7 + ceil_log2(n), 5, 1, 1)  # to_vector, then the update
        dep = _plus(block, head, w)
        return dep, _plus(dep, tail, w) if trailing else block

    for j in range(k_dim):
        d_dep[j], block = reduce(m_dim - j, j < k_dim - 1)
        if j < k_dim - 1:
            e_dep[j], block = reduce(k_dim - 1 - j, True)
        elif m_dim > k_dim:
            loose_end = _plus(d_dep[j], to_vector, w)
    return d_dep, e_dep, loose_end


def _gk_sweep_model(k_dim, sweeps, d_dep, e_dep, w: tuple):
    """Returns the path depth of pipelined zero-shift bidiagonal sweeps."""
    d = list(d_dep)
    e = list(e_dep)
    for _ in range(sweeps):
        f = _plus(d[0], _M1, w)
        g = _plus(max(d[0], e[0]), _M1, w)
        c2p = None
        for j in range(k_dim - 1):
            if j > 0:
                g = _plus(max(c2p, e[j]), _M1, w)
                e_eff = g
            else:
                e_eff = e[j]
            r1, cd = _givens(f, g, w)
            if j > 0:
                e[j - 1] = r1
            f = _plus(max(_plus(max(cd, d[j]), _M1, w), _plus(max(cd, e_eff), _M1, w)), _A1, w)
            e_tmp = f
            g2 = _plus(max(cd, d[j + 1]), _M1, w)
            dj1 = g2
            r2, c2 = _givens(f, g2, w)
            d[j] = r2
            f = _plus(max(_plus(max(c2, e_tmp), _M1, w), _plus(max(c2, dj1), _M1, w)), _A1, w)
            d[j + 1] = f
            c2p = c2
        e[k_dim - 2] = f
    return max(d + e)


# ---------------------------------------------------------------------------
# dispatch


def _resolve(algorithm: str) -> str:
    if algorithm == "4step":
        return "4step-dc"
    if algorithm not in ALGORITHMS:
        raise ValidationError(
            f"unknown algorithm {algorithm!r}: expected one of {', '.join(ALGORITHMS)}"
        )
    return algorithm


def _checked(algorithm: str, dims, iters: int):
    """Returns (algorithm, M, K) with the alias resolved and the inputs
    checked: DimensionError unless ``dims`` is a pair of integers >= 1
    (numpy integers included, a bool not)."""
    alg = _resolve(algorithm)
    try:
        m_dim, k_dim = (as_count(d, "dims") for d in dims)
    except (TypeError, ValueError, ValidationError):
        raise DimensionError(f"dims must be a pair of integers >= 1, got {dims!r}") from None
    as_count(iters, "iters")
    if alg == "gk" and m_dim < k_dim:
        raise DimensionError(f"gk expects rows >= cols, got {dims}")
    return alg, m_dim, k_dim


def _model(alg: str, m_dim: int, k_dim: int, iters: int, prof: HardwareProfile):
    """Returns (front, path): the depth at the end of the reduction phase
    and the depth of the whole schedule."""
    w = _weights(prof)
    if alg == "gk":
        d_dep, e_dep, loose = _gk_bidiag_model(m_dim, k_dim, w)
        front = max(d_dep + e_dep + [loose])
        if k_dim == 1:
            return front, front
        return front, max(_gk_sweep_model(k_dim, iters, d_dep, e_dep, w), loose)
    d_dep, e_dep, chain = _tridiag_model(k_dim, w)
    if alg == "tridiag" or k_dim == 1:
        return chain, chain
    if alg == "4step-dc":
        return chain, _dc_model(iters, d_dep, e_dep, w)
    return chain, _qr_model(k_dim, iters, d_dep, e_dep, w)


def analytic_latency(algorithm: str, dims, iters: int, profile: HardwareProfile) -> LatencyEstimate:
    """Critical-path latency of ``algorithm`` on an M x K problem.

    ``dims`` is (M, K); only K matters for the Gram-side algorithms, both
    for gk. ``iters`` is the per-algorithm iteration count (secular steps
    per root, or sweeps).
    """
    _, path = _model(*_checked(algorithm, dims, iters), iters, profile)
    return LatencyEstimate.from_path_counts(OpCount(*path[1:]), profile)


def total_ops(algorithm: str, dims, iters: int = 1) -> OpCount:
    """Total expanded real-operation count of ``algorithm`` on M x K."""
    alg, m_dim, k_dim = _checked(algorithm, dims, iters)
    if alg == "gk":
        return _gk_census(m_dim, k_dim, iters)
    total = _tridiag_census(k_dim)
    if alg == "tridiag" or k_dim == 1:
        return total
    if alg == "4step-dc":
        return total + _dc_census(k_dim, iters)
    return total + _qr_census(k_dim, iters)


def latency_breakdown(algorithm: str, dims, iters: int, profile: HardwareProfile) -> dict:
    """Per-phase critical-path latency in ns: the direct reduction phase
    and the iterative diagonalization on top of it."""
    alg, m_dim, k_dim = _checked(algorithm, dims, iters)
    front, path = _model(alg, m_dim, k_dim, iters, profile)
    front, total = front[0], path[0]
    if alg == "gk":
        return {"bidiagonalization": front, "sweeps": max(total - front, 0.0), "total": total}
    if alg == "tridiag":
        return {"tridiagonalization": front, "total": front}
    return {"tridiagonalization": front, "diagonalization": max(total - front, 0.0), "total": total}
