"""Instrumented solver schedules that build dataflow graphs.

Each schedule executes the algorithm on wrapped scalar values: every real
addition, multiplication, division, and square root emits one node, with
edges following the actual data dependencies. Complex arithmetic is
expanded on the spot (a generic complex multiply costs four real
multiplies and two adds, a conjugate-self product two multiplies and one
add, scaling by a power of two is free). Reductions use balanced adder
trees. Values are carried along, so a trace both prices and computes the
algorithm.

Structural bookkeeping:

- entries known to be 0 or 1 by construction (identity-start eigenvector
  accumulators in the QR iteration, base-case eigenvectors in the divide
  and conquer merge) propagate as structural constants and their
  operations are skipped, which is exactly the trivial-multiplication
  elimination the cost model assumes;
- dense accumulators (the tridiagonalization transform and the
  bidiagonalization factors) are treated as full complex data, matching
  the closed-form cost of their updates;
- phase computations and transform-accumulation updates are marked
  ``overlapped``: they stay in the operation census but are hidden from
  the timing path, mirroring their off-critical-path scheduling;
- comparisons, selects, and clamps are control, not datapath, and emit
  nothing.

Convergence checks never gate the arithmetic here: iterative stages run
a fixed number of iterations/sweeps, so the node count and the census
depend only on the problem dimensions, never on the input values. The
edges mostly do not either; the exception is divide and conquer, whose
merges pair their adder trees in the sorted order of the values.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from ..errors import DimensionError, TraceLimitError
from ..gram_svd import _SECULAR_TOL, HermitianMatrix
from ..matrix_core import as_count, as_matrix
from .analytic import _resolve
from .dfg import Dfg

EXPLICIT_TRACE_LIMIT = 32

_GENERIC = 0
_S_ZERO = 1
_S_ONE = 2


class TracedReal:
    __slots__ = ("value", "node", "flag")

    def __init__(self, value: float, node: int | None = None, flag: int = _GENERIC):
        self.value = value
        self.node = node
        self.flag = flag


ZERO = TracedReal(0.0, None, _S_ZERO)
ONE = TracedReal(1.0, None, _S_ONE)


def const(v: float) -> TracedReal:
    return TracedReal(float(v), None, _GENERIC)


class TracedComplex:
    __slots__ = ("re", "im")

    def __init__(self, re: TracedReal, im: TracedReal):
        self.re = re
        self.im = im


CZERO = TracedComplex(ZERO, ZERO)


class TraceBuilder:
    """Runs traced arithmetic and appends one node per operation to
    ``dfg``, the graph that trace_run returns: its kind, the ids of the
    operands that are not structural constants, whether an ``overlapped``
    block is open, and the innermost ``label``."""

    def __init__(self):
        self.dfg = Dfg()
        self._overlap = 0
        self._label = None

    # -- node plumbing

    def _emit(self, kind, value, operands):
        g = self.dfg
        idx = len(g.kinds)
        g.kinds.append(kind)
        g.deps.append(tuple(o.node for o in operands if o.node is not None))
        g.overlapped.append(self._overlap > 0)
        g.labels.append(self._label)
        return TracedReal(value, idx, _GENERIC)

    def input(self, value: float) -> TracedReal:
        return self._emit("input", float(value), ())

    def output(self, traced: TracedReal):
        if traced.node is not None:
            self._emit("output", traced.value, (traced,))

    @contextmanager
    def label(self, lab):
        prev = self._label
        self._label = lab
        try:
            yield
        finally:
            self._label = prev

    @contextmanager
    def overlapped(self):
        self._overlap += 1
        try:
            yield
        finally:
            self._overlap -= 1

    # -- real scalar ops

    def add(self, a: TracedReal, b: TracedReal) -> TracedReal:
        if a.flag == _S_ZERO:
            return b
        if b.flag == _S_ZERO:
            return a
        return self._emit("add", a.value + b.value, (a, b))

    def sub(self, a: TracedReal, b: TracedReal) -> TracedReal:
        if b.flag == _S_ZERO:
            return a
        if a.flag == _S_ZERO:
            return self.neg(b)
        return self._emit("add", a.value - b.value, (a, b))

    def neg(self, a: TracedReal) -> TracedReal:
        if a.flag == _S_ZERO:
            return a
        return TracedReal(-a.value, a.node, _GENERIC)

    def mul(self, a: TracedReal, b: TracedReal) -> TracedReal:
        if a.flag == _S_ZERO or b.flag == _S_ZERO:
            return ZERO
        if a.flag == _S_ONE:
            return b
        if b.flag == _S_ONE:
            return a
        return self._emit("mul", a.value * b.value, (a, b))

    def div(self, a: TracedReal, b: TracedReal) -> TracedReal:
        if a.flag == _S_ZERO:
            return a
        if b.flag == _S_ONE:
            return a
        val = a.value / b.value if b.value != 0.0 else math.inf
        return self._emit("div", val, (a, b))

    def sqrt(self, a: TracedReal) -> TracedReal:
        if a.flag in (_S_ZERO, _S_ONE):
            return a
        return self._emit("sqrt", math.sqrt(max(a.value, 0.0)), (a,))

    def shift(self, a: TracedReal, factor: float) -> TracedReal:
        # multiplication by a power of two: a wire, not an operator
        if a.flag == _S_ZERO:
            return a
        return TracedReal(a.value * factor, a.node, _GENERIC)

    def tree_sum(self, items) -> TracedReal:
        return _pairwise(items, self.add, ZERO)

    # -- complex helpers

    def cinput(self, z: complex) -> TracedComplex:
        return TracedComplex(self.input(z.real), self.input(z.imag))

    def cadd(self, x: TracedComplex, y: TracedComplex) -> TracedComplex:
        return TracedComplex(self.add(x.re, y.re), self.add(x.im, y.im))

    def csub(self, x: TracedComplex, y: TracedComplex) -> TracedComplex:
        return TracedComplex(self.sub(x.re, y.re), self.sub(x.im, y.im))

    def cmul(self, x: TracedComplex, y: TracedComplex) -> TracedComplex:
        re = self.sub(self.mul(x.re, y.re), self.mul(x.im, y.im))
        im = self.add(self.mul(x.re, y.im), self.mul(x.im, y.re))
        return TracedComplex(re, im)

    def conj(self, x: TracedComplex) -> TracedComplex:
        return TracedComplex(x.re, self.neg(x.im))

    def cneg(self, x: TracedComplex) -> TracedComplex:
        return TracedComplex(self.neg(x.re), self.neg(x.im))

    def cabs2(self, x: TracedComplex) -> TracedReal:
        return self.add(self.mul(x.re, x.re), self.mul(x.im, x.im))

    def cscale(self, x: TracedComplex, r: TracedReal) -> TracedComplex:
        return TracedComplex(self.mul(x.re, r), self.mul(x.im, r))

    def cdivr(self, x: TracedComplex, r: TracedReal) -> TracedComplex:
        return TracedComplex(self.div(x.re, r), self.div(x.im, r))

    def ctree_sum(self, items) -> TracedComplex:
        return _pairwise(items, self.cadd, CZERO)

    def cshift(self, x: TracedComplex, factor: float) -> TracedComplex:
        return TracedComplex(self.shift(x.re, factor), self.shift(x.im, factor))


def _pairwise(items, combine, empty):
    # balanced reduction tree: adjacent pairs, an odd tail carried up
    work = list(items)
    if not work:
        return empty
    while len(work) > 1:
        nxt = [combine(work[i], work[i + 1]) for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def _real_entry(re: TracedReal) -> TracedComplex:
    # diagonal entries are real by construction; the vanished imaginary
    # part rides along as a plain zero constant so multiplications with
    # these entries still price as full complex products
    return TracedComplex(re, const(0.0))


def _reflect(tb: TraceBuilder, xs, label: tuple):
    """Head of every Householder reflection, stages 1-4 under ``label + (stage,)``:
    norm, pivot phase, reflector numerator and normalized reflector."""
    with tb.label(label + (1,)):
        sq = [tb.cabs2(xe) for xe in xs]
        if len(xs) >= 2:
            partial = tb.tree_sum(sq[1:])
            total = tb.add(sq[0], partial)
        else:
            partial = None
            total = sq[0]
        xnorm = tb.sqrt(total)
    with tb.label(label + (2,)), tb.overlapped():
        absx1 = tb.sqrt(sq[0])
        phase = TracedComplex(tb.div(xs[0].re, absx1), tb.div(xs[0].im, absx1))
    with tb.label(label + (3,)):
        v1 = tb.cadd(xs[0], tb.cscale(phase, xnorm))
    with tb.label(label + (4,)):
        vnsq = tb.cabs2(v1)
        if partial is not None:
            vnsq = tb.add(vnsq, partial)
        vnorm = tb.sqrt(vnsq)
        v = [tb.cdivr(v1, vnorm)] + [tb.cdivr(xe, vnorm) for xe in xs[1:]]
    return xnorm, phase, v


# ---------------------------------------------------------------------------
# Householder tridiagonalization schedule


def trace_tridiagonalize(tb: TraceBuilder, bmat: np.ndarray):
    """Traced Householder reduction; returns (diag, offdiag) traced values."""
    k = bmat.shape[0]
    up: dict = {}
    for p in range(k):
        for q in range(p + 1, k):
            up[(p, q)] = tb.cinput(complex(bmat[p, q]))
    dg = [tb.input(float(bmat[p, p].real)) for p in range(k)]
    qmat = [[tb.cinput(complex(1.0 if r == c else 0.0)) for c in range(k)] for r in range(k)]

    def entry(p, q) -> TracedComplex:
        if p == q:
            return _real_entry(dg[p])
        if p < q:
            return up[(p, q)]
        return tb.conj(up[(q, p)])

    off = []
    for step in range(k - 1):
        i = k - 1 - step
        x = [entry(r, step) for r in range(step + 1, k)]
        xnorm, phase, v = _reflect(tb, x, ("tridiag", step))
        off.append(xnorm)

        with tb.label(("tridiag", step, 5)):
            p_vec = []
            for r in range(i):
                prods = [tb.cmul(entry(step + 1 + r, step + 1 + c), v[c]) for c in range(i)]
                p_vec.append(tb.cshift(tb.ctree_sum(prods), 2.0))

        with tb.label(("tridiag", step, 6)):
            sdot = tb.ctree_sum([tb.cmul(tb.conj(p_vec[j]), v[j]) for j in range(i)])
            w = [tb.csub(p_vec[j], tb.cmul(sdot, v[j])) for j in range(i)]

        with tb.label(("tridiag", step, 7)):
            # in place: each entry is read once, just before it is replaced
            for a in range(i):
                ga = step + 1 + a
                r1 = tb.add(tb.mul(v[a].re, w[a].re), tb.mul(v[a].im, w[a].im))
                r2 = tb.add(tb.mul(w[a].re, v[a].re), tb.mul(w[a].im, v[a].im))
                dg[ga] = tb.sub(tb.sub(dg[ga], r1), r2)
                for b in range(a + 1, i):
                    gb = step + 1 + b
                    t1 = tb.cmul(v[a], tb.conj(w[b]))
                    t2 = tb.cmul(w[a], tb.conj(v[b]))
                    up[(ga, gb)] = tb.csub(tb.csub(up[(ga, gb)], t1), t2)

        with tb.label(("tridiag", step, 8)), tb.overlapped():
            nphase = tb.cneg(phase)
            y = [
                tb.cshift(tb.ctree_sum([tb.cmul(qmat[r][step + 1 + c], v[c]) for c in range(i)]), 2.0)
                for r in range(k)
            ]
            for r in range(k):
                for c in range(i):
                    t = tb.cmul(y[r], tb.conj(v[c]))
                    qmat[r][step + 1 + c] = tb.cmul(nphase, tb.csub(qmat[r][step + 1 + c], t))

    return dg, off, qmat


# ---------------------------------------------------------------------------
# divide and conquer schedule


def trace_dc(tb: TraceBuilder, diag, offdiag, iters: int):
    """Traced divide-and-conquer on traced tridiagonal values.

    Every secular root takes exactly ``iters`` rational-model steps, the
    unit of the solver's budget. The bracket safeguard, and the hold on a
    value that meets the solver's stopping test, are free clamps, so the
    node count depends only on the matrix size and the iteration budget.
    Each merge sorts its poles by value, so which nodes its adder trees
    pair follows the input. This prices the no-deflation schedule, the
    worst case, and not the solver's origin probe, one secular
    evaluation per interior root.
    """

    def rec(d, e):
        ll = len(d)
        if ll == 1:
            return [d[0]], [[ONE]]
        cut = (ll + 1) // 2
        alpha = e[cut - 1]
        with tb.label(("dc", ll, "split")):
            dl = list(d[:cut])
            dl[-1] = tb.sub(dl[-1], alpha)
            dr = list(d[cut:])
            dr[0] = tb.sub(dr[0], alpha)
        lam1, q1 = rec(dl, e[: cut - 1])
        lam2, q2 = rec(dr, e[cut:])
        l1 = cut

        d_all = lam1 + lam2
        u_all = list(q1[-1]) + list(q2[0])
        order = sorted(range(ll), key=lambda j: d_all[j].value)
        ds = [d_all[j] for j in order]
        us = [u_all[j] for j in order]

        with tb.label(("dc", ll, "secular")):
            asq = [tb.mul(alpha, tb.mul(uj, uj)) for uj in us]
            rho = tb.tree_sum(asq)
            lams = []
            for r in range(ll):
                if r < ll - 1:
                    p1, p2 = r, r + 1
                    blo, bhi = ds[r].value, ds[r + 1].value
                    y = tb.shift(tb.add(ds[r], ds[r + 1]), 0.5)
                else:
                    p1, p2 = ll - 2, ll - 1
                    blo = ds[-1].value
                    bhi = ds[-1].value + rho.value
                    y = tb.add(ds[-1], tb.shift(rho, 0.5))
                for _ in range(iters):
                    delta = [tb.sub(ds[j], y) for j in range(ll)]
                    t = [tb.div(asq[j], delta[j]) for j in range(ll)]
                    s = [tb.div(t[j], delta[j]) for j in range(ll)]
                    fv = tb.add(tb.tree_sum(t), const(1.0))
                    fder = tb.tree_sum(s)
                    done = abs(fv.value) <= _SECULAR_TOL * (1.0 + sum(abs(tj.value) for tj in t))
                    if fv.value < 0.0:
                        blo = y.value
                    else:
                        bhi = y.value
                    d1 = delta[p1]
                    d2 = delta[p2]
                    beta = tb.div(fder, tb.add(s[p1], s[p2]))
                    c1 = tb.mul(beta, asq[p1])
                    c2 = tb.mul(beta, asq[p2])
                    c3 = tb.sub(fv, tb.mul(beta, tb.add(t[p1], t[p2])))
                    sumd = tb.add(d1, d2)
                    bq = tb.add(tb.add(tb.mul(c3, sumd), c1), c2)
                    cq = tb.tree_sum(
                        [tb.mul(c3, tb.mul(d1, d2)), tb.mul(c1, d2), tb.mul(c2, d1)]
                    )
                    disc = tb.sub(tb.mul(bq, bq), tb.shift(tb.mul(c3, cq), 4.0))
                    sq = tb.sqrt(disc)
                    denom = tb.add(bq, sq) if bq.value >= 0.0 else tb.sub(bq, sq)
                    eta = tb.div(tb.shift(cq, 2.0), denom)
                    cand = tb.add(y, eta)
                    val = cand.value
                    if done:
                        val = y.value
                    elif not blo < val < bhi:
                        val = 0.5 * (blo + bhi)
                    # free clamp: the value saturates, the dependency stays
                    y = TracedReal(val, cand.node, _GENERIC)
                lams.append(y)

        with tb.label(("dc", ll, "eigvec")):
            s_rows = [[None] * ll for _ in range(ll)]
            for r in range(ll):
                delta = [tb.sub(ds[j], lams[r]) for j in range(ll)]
                w = [tb.div(us[j], delta[j]) for j in range(ll)]
                nrm = tb.sqrt(tb.tree_sum([tb.mul(wj, wjb) for wj, wjb in zip(w, w)]))
                col = [tb.div(wj, nrm) for wj in w]
                for j in range(ll):
                    s_rows[order[j]][r] = col[j]

        with tb.label(("dc", ll, "qacc")):
            q_new = []
            for r in range(ll):
                if r < l1:
                    qrow, base = q1[r], 0
                    span = l1
                else:
                    qrow, base = q2[r - l1], l1
                    span = ll - l1
                row = []
                for c in range(ll):
                    prods = [tb.mul(qrow[j], s_rows[base + j][c]) for j in range(span)]
                    row.append(tb.tree_sum(prods))
                q_new.append(row)

        perm = sorted(range(ll), key=lambda j: lams[j].value)
        lams_sorted = [lams[j] for j in perm]
        q_sorted = [[q_new[r][c] for c in perm] for r in range(ll)]
        return lams_sorted, q_sorted

    return rec(list(diag), list(offdiag))


# ---------------------------------------------------------------------------
# QR iteration schedule


def trace_qr_sweeps(tb: TraceBuilder, diag, offdiag, sweeps: int):
    """Traced plain QR sweeps on a tridiagonal, in deferred-bulge form.

    Each rotation reads the raw band entry it needs and applies the
    previous rotation's scaling itself, so a new sweep depends only on
    the first two rotations of the previous one: successive sweeps add
    two rotations each to the critical path.
    """
    d = list(diag)
    e = list(offdiag)
    kk = len(d)
    qcols = [[ONE if r == c else ZERO for r in range(kk)] for c in range(kk)]
    for s in range(sweeps):
        with tb.label(("qr", s, "rot")):
            x = d[0]
            c_prev = None
            s_prev = None
            for j in range(kk - 1):
                if j > 0:
                    z = tb.mul(s_prev, e[j])
                    e_eff = tb.mul(c_prev, e[j])
                else:
                    z = e[0]
                    e_eff = e[0]
                r = tb.sqrt(tb.add(tb.mul(x, x), tb.mul(z, z)))
                c = tb.div(x, r)
                sn = tb.div(z, r)
                if j > 0:
                    e[j - 1] = r
                p1 = tb.add(tb.mul(c, d[j]), tb.mul(sn, e_eff))
                p2 = tb.add(tb.mul(c, e_eff), tb.mul(sn, d[j + 1]))
                q1 = tb.sub(tb.mul(c, e_eff), tb.mul(sn, d[j]))
                q2 = tb.sub(tb.mul(c, d[j + 1]), tb.mul(sn, e_eff))
                d[j] = tb.add(tb.mul(c, p1), tb.mul(sn, p2))
                e[j] = tb.sub(tb.mul(c, p2), tb.mul(sn, p1))
                d[j + 1] = tb.sub(tb.mul(c, q2), tb.mul(sn, q1))
                x = e[j]
                c_prev, s_prev = c, sn
                with tb.label(("qr", s, "qacc")):
                    colj = qcols[j]
                    colj1 = qcols[j + 1]
                    newj = [None] * kk
                    newj1 = [None] * kk
                    for row in range(kk):
                        a_, b_ = colj[row], colj1[row]
                        newj[row] = tb.add(tb.mul(c, a_), tb.mul(sn, b_))
                        newj1[row] = tb.sub(tb.mul(c, b_), tb.mul(sn, a_))
                    qcols[j] = newj
                    qcols[j + 1] = newj1
    return d, e, qcols


# ---------------------------------------------------------------------------
# Golub-Kahan schedule


def _reflect_rows(tb: TraceBuilder, rows, lo: int, v, phase):
    """Right-multiply each row's entries lo, lo + 1, ... by a reflector:
    row <- -phase (row - 2 (row . v) v^H), in place."""
    nphase = tb.cneg(phase)
    n = len(v)
    for row in rows:
        seg = row[lo : lo + n]
        dot = tb.cshift(tb.ctree_sum([tb.cmul(seg[t], v[t]) for t in range(n)]), 2.0)
        for t in range(n):
            row[lo + t] = tb.cmul(nphase, tb.csub(seg[t], tb.cmul(dot, tb.conj(v[t]))))


def _bare_phase(tb: TraceBuilder, piv: TracedComplex, label: tuple):
    """Head of a one-entry reduction, stages 1-2 under ``label + (stage,)``:
    |piv| and the conjugated unit phase that maps piv onto it."""
    with tb.label(label + (1,)):
        ap = tb.sqrt(tb.cabs2(piv))
    with tb.label(label + (2,)), tb.overlapped():
        cph = TracedComplex(tb.div(piv.re, ap), tb.neg(tb.div(piv.im, ap)))
    return ap, cph


def trace_gk_bidiagonalize(tb: TraceBuilder, amat: np.ndarray):
    """Traced complex Householder bidiagonalization of an M x K matrix."""
    m, k = amat.shape
    work = [[tb.cinput(complex(amat[r, c])) for c in range(k)] for r in range(m)]
    umat = [[tb.cinput(complex(1.0 if r == c else 0.0)) for c in range(m)] for r in range(m)]
    vmat = [[tb.cinput(complex(1.0 if r == c else 0.0)) for c in range(k)] for r in range(k)]
    dvals = [None] * k
    evals = [None] * max(k - 1, 0)

    for j in range(k):
        i = m - j
        col = ("gk-bidiag", j, "col")
        if i > 1:
            xs = [work[r][j] for r in range(j, m)]
            xnorm, phase, v = _reflect(tb, xs, col)
            nphase = tb.cneg(tb.conj(phase))
            with tb.label(col + (5,)):
                for c in range(j + 1, k):
                    colv = [work[r][c] for r in range(j, m)]
                    dot = tb.ctree_sum([tb.cmul(tb.conj(v[t]), colv[t]) for t in range(i)])
                    dot2 = tb.cshift(dot, 2.0)
                    for t in range(i):
                        work[j + t][c] = tb.cmul(
                            nphase, tb.csub(colv[t], tb.cmul(dot2, v[t]))
                        )
            dvals[j] = xnorm
            for r in range(j + 1, m):
                work[r][j] = CZERO
            with tb.label(col + (6,)), tb.overlapped():
                _reflect_rows(tb, umat, j, v, phase)
        else:
            dvals[j], cph = _bare_phase(tb, work[j][j], col)
            with tb.label(col + (5,)):
                for c in range(j + 1, k):
                    work[j][c] = tb.cmul(cph, work[j][c])
            with tb.label(col + (6,)), tb.overlapped():
                phc = tb.conj(cph)
                for r in range(m):
                    umat[r][j] = tb.cmul(phc, umat[r][j])

        row = ("gk-bidiag", j, "row")
        if j < k - 2:
            xs = [tb.conj(work[j][c]) for c in range(j + 1, k)]
            xnorm, phase, v = _reflect(tb, xs, row)
            with tb.label(row + (5,)):
                _reflect_rows(tb, work[j:], j + 1, v, phase)
            evals[j] = xnorm
            for c in range(j + 2, k):
                work[j][c] = CZERO
            with tb.label(row + (6,)), tb.overlapped():
                _reflect_rows(tb, vmat, j + 1, v, phase)
        elif j == k - 2:
            evals[j], cph = _bare_phase(tb, work[j][j + 1], row)
            with tb.label(row + (5,)):
                for r in range(j + 1, m):
                    work[r][j + 1] = tb.cmul(cph, work[r][j + 1])
            with tb.label(row + (6,)), tb.overlapped():
                for r in range(k):
                    vmat[r][j + 1] = tb.cmul(cph, vmat[r][j + 1])

    return dvals, evals, umat, vmat


def trace_gk_sweeps(tb: TraceBuilder, dvals, evals, sweeps: int, m_rows: int):
    """Traced zero-shift bidiagonal sweeps with the deferred bulge form.

    A new sweep only needs the first few updates of the previous one, so
    successive sweeps overlap naturally in the graph: each extra sweep
    adds four rotations to the critical path.
    """
    d = list(dvals)
    e = list(evals)
    kk = len(d)
    ucols = [
        [tb.cinput(complex(1.0 if r == c else 0.0)) for r in range(m_rows)]
        for c in range(kk)
    ]
    vcols = [
        [tb.cinput(complex(1.0 if r == c else 0.0)) for r in range(kk)]
        for c in range(kk)
    ]

    def rotate_cols(cols, a, b, c, s, lab):
        # real plane rotation applied to complex accumulator columns
        with tb.label(lab):
            ca, cb = cols[a], cols[b]
            na = [tb.cadd(tb.cscale(ca[r], c), tb.cscale(cb[r], s)) for r in range(len(ca))]
            nb = [tb.csub(tb.cscale(cb[r], c), tb.cscale(ca[r], s)) for r in range(len(ca))]
            cols[a] = na
            cols[b] = nb

    for s in range(sweeps):
        with tb.label(("gk", s, "rot")):
            f = tb.mul(d[0], d[0])
            g = tb.mul(d[0], e[0])
            c2_prev = None
            s2_prev = None
            for j in range(kk - 1):
                if j > 0:
                    g = tb.mul(s2_prev, e[j])
                    e_eff = tb.mul(c2_prev, e[j])
                else:
                    e_eff = e[j]
                r1 = tb.sqrt(tb.add(tb.mul(f, f), tb.mul(g, g)))
                c = tb.div(f, r1)
                sn = tb.div(g, r1)
                if j > 0:
                    e[j - 1] = r1
                f = tb.add(tb.mul(c, d[j]), tb.mul(sn, e_eff))
                e_tmp = tb.sub(tb.mul(c, e_eff), tb.mul(sn, d[j]))
                g2 = tb.mul(sn, d[j + 1])
                dj1 = tb.mul(c, d[j + 1])
                rotate_cols(vcols, j, j + 1, c, sn, ("gk", s, "vacc"))
                r2 = tb.sqrt(tb.add(tb.mul(f, f), tb.mul(g2, g2)))
                c2 = tb.div(f, r2)
                s2 = tb.div(g2, r2)
                d[j] = r2
                f = tb.add(tb.mul(c2, e_tmp), tb.mul(s2, dj1))
                d[j + 1] = tb.sub(tb.mul(c2, dj1), tb.mul(s2, e_tmp))
                rotate_cols(ucols, j, j + 1, c2, s2, ("gk", s, "uacc"))
                c2_prev, s2_prev = c2, s2
            e[kk - 2] = f
    return d, e, ucols, vcols


# ---------------------------------------------------------------------------
# entry point


def trace_run(algorithm: str, matrix, iters: int = 4) -> Dfg:
    """Run an instrumented solver on a concrete matrix and return its DFG.

    ``iters`` fixes the iteration budget: rational-model steps per secular
    root (4step), sweeps (4step-qr, gk). For a given size and budget the
    node count and the census do not depend on the input; the edges of
    the D&C merges follow the sorted order of the values. Sizes above
    EXPLICIT_TRACE_LIMIT are rejected; use the closed-form model instead.
    """
    a = as_matrix(matrix)
    as_count(iters, "iters")
    if max(a.shape) > EXPLICIT_TRACE_LIMIT:
        raise TraceLimitError(
            f"matrix {a.shape} exceeds the explicit trace limit "
            f"({EXPLICIT_TRACE_LIMIT}); use analytic_latency for larger sizes"
        )
    alg = _resolve(algorithm)
    tb = TraceBuilder()
    if alg == "gk":
        if a.shape[0] < a.shape[1]:
            raise DimensionError(f"gk trace expects rows >= cols, got {a.shape}")
        dv, ev, _, _ = trace_gk_bidiagonalize(tb, a)
        outs = dv if a.shape[1] == 1 else trace_gk_sweeps(tb, dv, ev, iters, a.shape[0])[0]
    else:
        herm = HermitianMatrix.from_matrix(a)
        diag, off, _ = trace_tridiagonalize(tb, herm.mat)
        if alg == "tridiag" or herm.dim == 1:
            outs = diag + off
        elif alg == "4step-dc":
            lams, qrows = trace_dc(tb, diag, off, iters)
            outs = lams + [t for row in qrows for t in row]
        else:
            d, _, qcols = trace_qr_sweeps(tb, diag, off, iters)
            outs = d + [t for col in qcols for t in col]
    for t in outs:
        tb.output(t)
    return tb.dfg
