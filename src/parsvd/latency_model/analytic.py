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

Cost of one query, in scalar steps: O(K * iters) for the QR and GK sweep
paths, O(K) for the reduction paths and the D&C path, and O(log K) for
the D&C census, which counts each distinct merge size once. Each step
extends a path inline on its unpacked counts. The order in which paths
are compared and the tie-break between equally long ones (below) are
those of a step-by-step reference that extends one path per helper call
(``tests/test_closed_form_reference.py``), and every path, ns value and
breakdown equals it bit for bit.
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
# most additions, then multiplications, divisions and square roots
# (``y if y > x else x`` is ``max(x, y)``). A path is extended inline on its
# unpacked counts, and its ns term is recomputed from the new counts as
# OpCount.ns sums them (add, mul, div, sqrt), so it does not depend on how
# the steps were grouped. Every comparison is between the two extended
# paths, never the paths before a shared extension, whose order rounding
# could change. The counts are floats, exact far beyond any path here, so
# that each extension is float arithmetic; analytic_latency returns ints.
_ZERO = (0.0, 0.0, 0.0, 0.0, 0.0)


def _weights(prof: HardwareProfile) -> tuple:
    return tuple(prof.latency_ns[k] for k in OP_KINDS)


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


def _dc_census(k_dim: int, iters: int) -> OpCount:
    """Merge tree over ``k_dim`` tridiagonal entries. A level of the tree
    holds at most two merge sizes, so each distinct size is counted once."""
    sizes = {1: (0, 0, 0, 0)}

    def count(ll):
        if ll not in sizes:
            cut = (ll + 1) // 2
            a1, m1, d1, s1 = count(cut)
            a2, m2, d2, s2 = count(ll - cut)
            # split, weight-sum tree and midpoints; the secular steps; the
            # eigenvector entries
            add = a1 + a2 + 2 + (ll - 1) + ll + (3 * ll + 10) * ll * iters + (2 * ll - 1) * ll
            mul = m1 + m2 + 10 * ll * iters + ll * ll
            div = d1 + d2 + (2 * ll + 2) * ll * iters + 2 * ll * ll
            sqrt = s1 + s2 + ll * iters + ll
            for half in (cut, ll - cut):
                if half > 1:
                    # scaled squared weights, then the product with the dense half's vectors
                    add += half * (half - 1) * ll
                    mul += 2 * half + half * half * ll
            sizes[ll] = (add, mul, div, sqrt)
        return sizes[ll]

    return OpCount(*count(k_dim))


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
    add = mul = div = sqrt = 0
    for j in range(k_dim):
        steps = [(m_dim - j, k_dim - j - 1 + m_dim)]
        if j < k_dim - 1:
            r = k_dim - 1 - j
            # a bare row phase leaves the pivot row alone
            steps.append((r, (m_dim - j if r > 1 else m_dim - j - 1) + k_dim))
        for n, width in steps:
            # a reflector of length n > 1, or a bare phase at n == 1, applied
            # to ``width`` rows and columns of the work matrix and its factor
            if n > 1:
                add += 2 * n + 3 + (10 * n - 2) * width
                mul += 2 * n + 4 + 12 * n * width
                div += 2 * n + 2
                sqrt += 3
            else:
                add += 1 + 2 * width
                mul += 2 + 4 * width
                div += 2
                sqrt += 1
    pairs = (k_dim - 1) * sweeps
    return OpCount(
        add=add + (6 + 4 * (k_dim + m_dim)) * pairs,
        mul=mul + (16 + 8 * (k_dim + m_dim)) * pairs,
        div=div + 4 * pairs,
        sqrt=sqrt + 2 * pairs,
    )


# ---------------------------------------------------------------------------
# tridiagonalization


def _tridiag_model(k_dim: int, w: tuple):
    """Returns (d_depths, e_depths, chain_end)."""
    w0, w1, w2, w3 = w
    d_dep = [_ZERO]
    e_dep = []
    a = m = v = s = 0.0
    for i in range(k_dim - 1, 0, -1):
        # the time rows of householder_step_counts: stage 1 yields the
        # band entry, stages 1 and 3-7 make up the step
        s1 = ceil_log2(i - 1) + 2 if i >= 2 else 1
        ea, em, es = a + s1, m + 1.0, s + 1.0
        e_dep.append((ea * w0 + em * w1 + v * w2 + es * w3, ea, em, v, es))
        a += s1 + (2 if i >= 2 else 1) + 8 + 2 * ceil_log2(i)
        m += 7.0
        v += 1.0
        s += 2.0
        d_dep.append((a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s))
    return d_dep, e_dep, d_dep[-1]


# ---------------------------------------------------------------------------
# divide and conquer


def _dc_model(iters: int, d_dep: list, e_dep: list, w: tuple):
    """Returns the final eigenvector depth of the merge tree over the
    inputs (at least two)."""
    w0, w1, w2, w3 = w
    d = list(d_dep)

    def merge(lo, hi):
        # returns the (eigenvalue, eigenvector) depths of the merge over
        # entries lo..hi-1, at least two; the split rewrites the two
        # entries beside the cut before the halves read them
        ll = hi - lo
        lg = ceil_log2(ll)
        cut = (ll + 1) // 2
        mid = lo + cut
        alpha = e_dep[mid - 1]
        for i in (mid - 1, mid):
            x = d[i]
            _, a, m, v, s = alpha if alpha > x else x
            a += 1.0
            d[i] = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
        # a half of one entry is a leaf: its eigenvalue is the entry, and
        # it has no eigenvector product
        lam1, q1 = merge(lo, mid) if cut > 1 else (d[lo], None)
        lam2, q2 = merge(mid, hi) if ll - cut > 1 else (d[mid], None)

        lam_in = lam2 if lam2 > lam1 else lam1
        if q1 is None:  # two leaves
            _, a, m, v, s = alpha
            a += 1.0
        else:
            _, a, m, v, s = q1
            m += 2.0
            rho = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            if q2 is None:
                other = alpha
            else:
                _, a, m, v, s = q2
                m += 2.0
                other = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = other if other > rho else rho
            a += lg
        rho = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
        # the start, then ``iters`` rational-model steps
        _, a, m, v, s = rho if rho > lam_in else lam_in
        a += 1 + (7 + lg) * iters
        m += 3 * iters
        v += 4 * iters
        s += iters
        lam = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
        # the eigenvector entries, then their product with the half's vectors
        a += 1 + lg
        if cut > 1:
            a += ceil_log2(cut)
            m += 2.0
        else:
            m += 1.0
        v += 2.0
        s += 1.0
        return lam, (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)

    return merge(0, len(d))[1]


# ---------------------------------------------------------------------------
# QR iteration


def _qr_model(k_dim: int, sweeps: int, d_dep: list, e_dep: list, w: tuple):
    """Returns the path depth of ``sweeps`` pipelined plain QR sweeps."""
    w0, w1, w2, w3 = w
    d = list(d_dep)
    e = list(e_dep)
    for _ in range(sweeps):
        x = d[0]
        cd = None
        for j in range(k_dim - 1):
            # the rotation's second input: the band entry, or after the
            # first rotation the bulge, the band entry times the previous
            # rotation's (c, s)
            z = e[j]
            if j > 0:
                _, a, m, v, s = z if z > cd else cd
                m += 1.0
                z = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            # r = sqrt(x^2 + z^2), then (c, s) = (x, z) / r
            _, a, m, v, s = x
            m += 1.0
            xx = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = z
            m += 1.0
            zz = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = zz if zz > xx else xx
            a += 1.0
            s += 1.0
            if j > 0:
                e[j - 1] = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            v += 1.0
            cd = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            # p1 and q1, p2 and q2 have equal depths, and so have the three
            # band entries that the rotation writes back
            _, a, m, v, s = z if z > cd else cd
            m += 1.0
            ce = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            y = d[j]
            _, a, m, v, s = y if y > cd else cd
            m += 1.0
            y = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = ce if ce > y else y
            a += 1.0
            p1 = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            y = d[j + 1]
            _, a, m, v, s = y if y > cd else cd
            m += 1.0
            y = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = y if y > ce else ce
            a += 1.0
            p2 = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = p1 if p1 > cd else cd
            m += 1.0
            y = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = p2 if p2 > cd else cd
            m += 1.0
            y2 = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = y2 if y2 > y else y
            a += 1.0
            d[j] = e[j] = d[j + 1] = x = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
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
    w0, w1, w2, w3 = w
    d_dep = []
    e_dep = []
    # the counts of the trailing block's path; its own ns is never compared
    a = m = v = s = 0.0
    # the column steps j = 0..K-1 and, between them, the row steps
    for t in range(2 * k_dim - 1):
        j, row = divmod(t, 2)
        n = k_dim - 1 - j if row else m_dim - j
        # one column or row step on a length-n vector: the band entry it
        # produces, then the trailing block after it, which the last column
        # step does not have
        a += ceil_log2(n - 1) + 2 if n > 1 else 1
        m += 1
        s += 1
        (e_dep if row else d_dep).append((a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s))
        if t == 2 * k_dim - 2:
            break
        if n > 1:
            a += 7 + ceil_log2(n)  # to_vector, then the update
            m += 5
            v += 1
            s += 1
        else:
            a += 1
            m += 1
    loose_end = _ZERO
    if m_dim > k_dim:
        # a reflector's path from its norm to the normalized vector
        a += 3
        m += 2
        v += 1
        s += 1
        loose_end = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
    return d_dep, e_dep, loose_end


def _gk_sweep_model(k_dim, sweeps, d_dep, e_dep, w: tuple):
    """Returns the path depth of pipelined zero-shift bidiagonal sweeps."""
    w0, w1, w2, w3 = w
    d = list(d_dep)
    e = list(e_dep)
    for _ in range(sweeps):
        _, a, m, v, s = d[0]
        m += 1.0
        f = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
        x = d[0]
        y = e[0]
        _, a, m, v, s = y if y > x else x
        m += 1.0
        g = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
        for j in range(k_dim - 1):
            if j > 0:
                y = e[j]
                _, a, m, v, s = y if y > c2 else c2
                m += 1.0
                g = e_eff = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            else:
                e_eff = e[0]
            # the first rotation, of (f, g)
            _, a, m, v, s = f
            m += 1.0
            x = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = g
            m += 1.0
            y = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = y if y > x else x
            a += 1.0
            s += 1.0
            if j > 0:
                e[j - 1] = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            v += 1.0
            cd = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            y = d[j]
            _, a, m, v, s = y if y > cd else cd
            m += 1.0
            x = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = e_eff if e_eff > cd else cd
            m += 1.0
            y = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = y if y > x else x
            a += 1.0
            f = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            y = d[j + 1]
            _, a, m, v, s = y if y > cd else cd
            m += 1.0
            g2 = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            # the second rotation, of (f, g2)
            _, a, m, v, s = f
            m += 1.0
            x = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = g2
            m += 1.0
            y = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = y if y > x else x
            a += 1.0
            s += 1.0
            d[j] = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            v += 1.0
            c2 = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = f if f > c2 else c2
            m += 1.0
            x = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = g2 if g2 > c2 else c2
            m += 1.0
            y = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
            _, a, m, v, s = y if y > x else x
            a += 1.0
            d[j + 1] = f = (a * w0 + m * w1 + v * w2 + s * w3, a, m, v, s)
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
    return LatencyEstimate.from_path_counts(OpCount(*map(int, path[1:])), profile)


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
