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
from .profiles import HardwareProfile
from .table_counts import ceil_log2, householder_step_counts

ALGORITHMS = ("tridiag", "4step", "4step-dc", "4step-qr", "gk")

_A1 = OpCount(add=1)
_M1 = OpCount(mul=1)
_D1 = OpCount(div=1)
_S1 = OpCount(sqrt=1)


class _Depth(tuple):
    """Profile-weighted path length with its op counts: (ns, add, mul, div,
    sqrt). Tuple order makes ``max`` take the longest path, and of equally
    long ones the one with the most additions, then multiplications,
    divisions and square roots."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "_Depth":
        return cls((0.0, 0, 0, 0, 0))

    @property
    def ns(self) -> float:
        return self[0]

    @property
    def ops(self) -> OpCount:
        return OpCount(*self[1:])

    def plus(self, ops: OpCount, prof: HardwareProfile) -> "_Depth":
        add, mul = self[1] + ops.add, self[2] + ops.mul
        div, sqrt = self[3] + ops.div, self[4] + ops.sqrt
        lat = prof.latency_ns
        # the sum of OpCount.ns, in the same order
        return _Depth((add * lat["add"] + mul * lat["mul"] + div * lat["div"] + sqrt * lat["sqrt"],
                       add, mul, div, sqrt))


# ---------------------------------------------------------------------------
# operation census


def _tridiag_census(k_dim: int) -> OpCount:
    total = OpCount()
    for k1 in range(1, k_dim):
        for comp, _ in householder_step_counts(k_dim, k1):
            total = total + comp
    return total


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


def _tridiag_model(k_dim: int, prof: HardwareProfile):
    """Returns (d_depths, e_depths, chain_end)."""
    d_dep = [_Depth.zero() for _ in range(k_dim)]
    e_dep: list = [None] * max(k_dim - 1, 0)
    chain = _Depth.zero()
    for k1 in range(1, k_dim):
        stages = householder_step_counts(k_dim, k1)
        s1 = stages[0][1]
        e_dep[k1 - 1] = chain.plus(s1, prof)
        step_time = s1
        for idx in (2, 3, 4, 5, 6):
            step_time = step_time + stages[idx][1]
        chain = chain.plus(step_time, prof)
        d_dep[k1] = chain
    return d_dep, e_dep, chain


# ---------------------------------------------------------------------------
# divide and conquer


def _dc_iter_path(ll: int) -> OpCount:
    return OpCount(add=7 + ceil_log2(ll), mul=3, div=4, sqrt=1)


def _dc_model(iters: int, d_dep: list, e_dep: list, prof: HardwareProfile):
    """Returns the final eigenvector depth of the merge tree over the inputs."""

    def rec(ds, es):
        ll = len(ds)
        if ll == 1:
            return ds[0], None
        cut = (ll + 1) // 2
        alpha = es[cut - 1]
        dl = list(ds[:cut])
        dl[-1] = max(dl[-1], alpha).plus(_A1, prof)
        dr = list(ds[cut:])
        dr[0] = max(dr[0], alpha).plus(_A1, prof)
        lam1, q1 = rec(dl, es[: cut - 1])
        lam2, q2 = rec(dr, es[cut:])
        l1 = cut

        lam_in = max(lam1, lam2)
        if q1 is None and q2 is None:
            rho = alpha.plus(_A1, prof)
        else:
            cands = []
            if q1 is not None:
                cands.append(q1.plus(OpCount(mul=2), prof))
            if q2 is not None:
                cands.append(q2.plus(OpCount(mul=2), prof))
            if q1 is None or q2 is None:
                cands.append(alpha)
            rho = max(cands).plus(OpCount(add=ceil_log2(ll)), prof)
        base = max(lam_in, rho)
        lam = base.plus(_A1, prof).plus(_dc_iter_path(ll).scaled(iters), prof)
        eigp = OpCount(add=1 + ceil_log2(ll), mul=1, div=2, sqrt=1)
        q_depth = lam.plus(eigp, prof)
        if l1 > 1:
            q_depth = q_depth.plus(OpCount(add=ceil_log2(l1), mul=1), prof)
        return lam, q_depth

    lam, q = rec(list(d_dep), list(e_dep))
    return q if q is not None else lam


# ---------------------------------------------------------------------------
# QR iteration


def _qr_model(k_dim: int, sweeps: int, d_dep: list, e_dep: list, prof: HardwareProfile):
    """Returns the path depth of ``sweeps`` pipelined plain QR sweeps."""
    d = list(d_dep)
    e = list(e_dep)
    for _ in range(sweeps):
        x = d[0]
        cd_prev = None
        for j in range(k_dim - 1):
            if j > 0:
                z = max(cd_prev, e[j]).plus(_M1, prof)
                e_eff = z
            else:
                z = e[0]
                e_eff = e[0]
            r = max(x.plus(_M1, prof), z.plus(_M1, prof)).plus(_A1, prof).plus(_S1, prof)
            cd = r.plus(_D1, prof)
            if j > 0:
                e[j - 1] = r
            p1 = max(max(cd, d[j]).plus(_M1, prof), max(cd, e_eff).plus(_M1, prof)).plus(_A1, prof)
            p2 = max(max(cd, e_eff).plus(_M1, prof), max(cd, d[j + 1]).plus(_M1, prof)).plus(_A1, prof)
            q1 = p1
            q2 = p2
            dj = max(max(cd, p1).plus(_M1, prof), max(cd, p2).plus(_M1, prof)).plus(_A1, prof)
            ej = dj
            dj1 = max(max(cd, q2).plus(_M1, prof), max(cd, q1).plus(_M1, prof)).plus(_A1, prof)
            d[j] = dj
            e[j] = ej
            d[j + 1] = dj1
            x = ej
            cd_prev = cd
    return max(d + e)


# ---------------------------------------------------------------------------
# Golub-Kahan


def _gk_bidiag_model(m_dim: int, k_dim: int, prof: HardwareProfile):
    """Returns (d_depths, e_depths, loose_end) of the bidiagonalization.

    ``loose_end`` is the reflector tail of a final column step that has no
    trailing columns left (zero when there is none): it feeds only the
    overlapped transform update, but its own nodes still carry weight and
    can end the critical path.
    """
    d_dep: list = [None] * k_dim
    e_dep: list = [None] * max(k_dim - 1, 0)
    block = _Depth.zero()
    loose_end = _Depth.zero()

    # a reflector's path from its norm to the normalized vector
    to_vector = OpCount(add=3, mul=2, div=1, sqrt=1)

    def reduce(n, trailing):
        # one column or row step on a length-n vector: the depths of the
        # band entry it produces and of the trailing block after it
        if n == 1:
            head, tail = OpCount(add=1, mul=1, sqrt=1), OpCount(add=1, mul=1)
        else:
            head = OpCount(add=ceil_log2(n - 1) + 2, mul=1, sqrt=1)
            tail = to_vector + OpCount(add=4 + ceil_log2(n), mul=3)
        dep = block.plus(head, prof)
        return dep, dep.plus(tail, prof) if trailing else block

    for j in range(k_dim):
        d_dep[j], block = reduce(m_dim - j, j < k_dim - 1)
        if j < k_dim - 1:
            e_dep[j], block = reduce(k_dim - 1 - j, True)
        elif m_dim > k_dim:
            loose_end = d_dep[j].plus(to_vector, prof)
    return d_dep, e_dep, loose_end


def _gk_sweep_model(k_dim, sweeps, d_dep, e_dep, prof):
    """Returns the path depth of pipelined zero-shift bidiagonal sweeps."""
    d = list(d_dep)
    e = list(e_dep)
    for _ in range(sweeps):
        f = d[0].plus(_M1, prof)
        g = max(d[0], e[0]).plus(_M1, prof)
        c2p = None
        for j in range(k_dim - 1):
            if j > 0:
                g = max(c2p, e[j]).plus(_M1, prof)
                e_eff = max(c2p, e[j]).plus(_M1, prof)
            else:
                e_eff = e[j]
            r1 = max(f.plus(_M1, prof), g.plus(_M1, prof)).plus(_A1, prof).plus(_S1, prof)
            cd = r1.plus(_D1, prof)
            if j > 0:
                e[j - 1] = r1
            f = max(max(cd, d[j]).plus(_M1, prof), max(cd, e_eff).plus(_M1, prof)).plus(_A1, prof)
            e_tmp = f
            g2 = max(cd, d[j + 1]).plus(_M1, prof)
            dj1 = g2
            r2 = max(f.plus(_M1, prof), g2.plus(_M1, prof)).plus(_A1, prof).plus(_S1, prof)
            c2 = r2.plus(_D1, prof)
            d[j] = r2
            f = max(max(c2, e_tmp).plus(_M1, prof), max(c2, dj1).plus(_M1, prof)).plus(_A1, prof)
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
    """Returns (algorithm, M, K) with the alias resolved and the inputs checked."""
    alg = _resolve(algorithm)
    m_dim, k_dim = dims
    if m_dim < 1 or k_dim < 1:
        raise DimensionError(f"dims must be positive, got {dims}")
    as_count(iters, "iters")
    if alg == "gk" and m_dim < k_dim:
        raise DimensionError(f"gk expects rows >= cols, got {dims}")
    return alg, m_dim, k_dim


def _model(alg: str, m_dim: int, k_dim: int, iters: int, prof: HardwareProfile):
    """Returns (front, path): the depth at the end of the reduction phase
    and the depth of the whole schedule."""
    if alg == "gk":
        d_dep, e_dep, loose = _gk_bidiag_model(m_dim, k_dim, prof)
        front = max(d_dep + e_dep + [loose])
        if k_dim == 1:
            return front, front
        return front, max(_gk_sweep_model(k_dim, iters, d_dep, e_dep, prof), loose)
    d_dep, e_dep, chain = _tridiag_model(k_dim, prof)
    if alg == "tridiag" or k_dim == 1:
        return chain, chain
    if alg == "4step-dc":
        return chain, _dc_model(iters, d_dep, e_dep, prof)
    return chain, _qr_model(k_dim, iters, d_dep, e_dep, prof)


def analytic_latency(algorithm: str, dims, iters: int, profile: HardwareProfile) -> LatencyEstimate:
    """Critical-path latency of ``algorithm`` on an M x K problem.

    ``dims`` is (M, K); only K matters for the Gram-side algorithms, both
    for gk. ``iters`` is the per-algorithm iteration count (secular steps
    per root, or sweeps).
    """
    _, path = _model(*_checked(algorithm, dims, iters), iters, profile)
    return LatencyEstimate.from_path_counts(path.ops, profile)


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
    front, total = front.ns, path.ns
    if alg == "gk":
        return {"bidiagonalization": front, "sweeps": max(total - front, 0.0), "total": total}
    if alg == "tridiag":
        return {"tridiagonalization": front, "total": front}
    return {"tridiagonalization": front, "diagonalization": max(total - front, 0.0), "total": total}
