"""Instrumented solver schedules that build dataflow graphs.

Each schedule executes the algorithm on traced values: arrays that carry,
per element, the value, the id of the graph node that computes it (-1 for
a constant) and a structural flag. A complex value is one such array
with a trailing (re, im) axis of length 2. Every real addition,
multiplication, division, and square root emits one node, with edges
following the actual data dependencies. An operation on arrays emits one
block of nodes, one per element that needs one, with ids in element
order, so a node's id is its place in emission order; one block covers
both lanes of a complex operation. Complex arithmetic is expanded on the
spot (a generic complex multiply costs four real multiplies, one block,
and two adds, another; a conjugate-self product two multiplies and one
add; conjugation and scaling by a power of two are free). Reductions use
balanced adder trees, whose levels are emitted as blocks. Values are
carried along, so a trace both prices and computes the algorithm; each
element follows the IEEE operation of the scalar schedule, so the values
are those of a scalar run.

Structural bookkeeping:

- entries known to be 0 or 1 by construction (identity-start eigenvector
  accumulators in the QR iteration, base-case eigenvectors in the divide
  and conquer merge) propagate as structural constants and their
  operations are skipped element by element, which is exactly the
  trivial-multiplication elimination the cost model assumes;
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

import functools
from contextlib import contextmanager

import numpy as np

from ..errors import DimensionError, TraceLimitError
from ..gram_svd import _SECULAR_TOL, HermitianMatrix
from ..matrix_core import as_count, as_matrix
from .analytic import _resolve
from .dfg import ID, KINDS, Dfg

EXPLICIT_TRACE_LIMIT = 32

_GENERIC = 0
_S_ZERO = 1
_S_ONE = 2

_ADD, _MUL, _DIV, _SQRT, _INPUT, _OUTPUT = (
    KINDS.index(k) for k in ("add", "mul", "div", "sqrt", "input", "output")
)

_IM = np.array([False, True])  # the imaginary lane of a trailing (re, im) axis


class Traced:
    """Traced real values: an array ``val``, the node id of each element
    (-1 for a constant) and each element's structural flag. ``flag`` is
    None when every element is a node, which is the common case. A
    complex array holds (re, im) on its last axis."""

    __slots__ = ("val", "node", "flag")

    def __init__(self, val, node, flag=None):
        self.val = val
        self.node = node
        self.flag = flag

    @property
    def value(self):
        """The value: a float for a single element, else the array."""
        return self.val.item() if np.ndim(self.val) == 0 else self.val

    @property
    def T(self) -> "Traced":
        return self.swapaxes(0, 1)

    def swapaxes(self, a: int, b: int) -> "Traced":
        flag = None if self.flag is None else self.flag.swapaxes(a, b)
        return Traced(self.val.swapaxes(a, b), self.node.swapaxes(a, b), flag)

    def __len__(self) -> int:
        return len(self.val)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, idx) -> "Traced":
        # a copy, never a view, so that later writes to self leave it alone
        node = np.array(self.node[idx])
        flag = None
        if self.flag is not None and not (node >= 0).all():
            flag = np.array(self.flag[idx])
        return Traced(np.array(self.val[idx]), node, flag)

    def ravel(self) -> "Traced":
        return Traced(self.val.ravel(), self.node.ravel(), None if self.flag is None else self.flag.ravel())

    def __setitem__(self, idx, other: "Traced"):
        self.val[idx] = other.val
        self.node[idx] = other.node
        if self.flag is None and other.flag is None:
            return
        if self.flag is None:
            self.flag = np.zeros(self.val.shape, dtype=np.int8)
        self.flag[idx] = _flags(other)


def _constant(v: float, flag: int) -> Traced:
    return Traced(np.array(v), np.array(-1, dtype=ID), np.array(flag, dtype=np.int8))


ZERO = _constant(0.0, _S_ZERO)
ONE = _constant(1.0, _S_ONE)


def const(v: float) -> Traced:
    return _constant(float(v), _GENERIC)


def _flags(t: Traced):
    return _GENERIC if t.flag is None else t.flag


def _is(t: Traced, flag: int):
    return False if t.flag is None else t.flag == flag


def _select(mask, a: Traced, b: Traced) -> Traced:
    """a where ``mask`` holds, else b, elementwise: a free select."""
    node = np.where(mask, a.node, b.node)
    flag = np.where(mask, _flags(a), _flags(b))
    return Traced(np.where(mask, a.val, b.val), node, None if (node >= 0).all() else flag)


def _join(join, items, axis=0) -> Traced:
    # np.stack or np.concatenate, column by column
    flag = None
    if any(t.flag is not None for t in items):
        flag = join([np.broadcast_to(_flags(t), np.shape(t.val)) for t in items], axis=axis)
    return Traced(
        join([t.val for t in items], axis=axis), join([t.node for t in items], axis=axis), flag
    )


def _stack(items, axis=0) -> Traced:
    if isinstance(items, Traced):
        return items
    items = list(items)
    return _join(np.stack, items, axis) if items else Traced(np.zeros(0), np.zeros(0, dtype=ID))


def _concat(items, axis=0) -> Traced:
    return _join(np.concatenate, items, axis)


def _quiet(fn):
    """Runs ``fn`` with numpy's floating-point warnings off: the scalar
    schedule's Python floats overflow to inf and nan silently, and their
    elementwise twins here must do the same."""

    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)

    return quiet


class TraceBuilder:
    """Runs traced arithmetic and appends one block of nodes per operation
    to ``dfg``, the graph that trace_run returns: their kind, the ids of
    the operands that are not constants, whether an ``overlapped`` block
    is open, and the innermost ``label``."""

    def __init__(self):
        self._dfg = Dfg()
        self._count = 0
        self._blocks: list = []  # (kind, size, overlapped, label) not yet in _dfg
        self._deps: list = []
        self._overlap = 0
        self._label = None

    @property
    def dfg(self) -> Dfg:
        if self._blocks:
            g = self._dfg
            kinds, sizes, over, labels = zip(*self._blocks)
            sizes = np.array(sizes)
            g.blocks = np.concatenate([g.blocks, len(g) + np.cumsum(sizes) - sizes])
            g.kinds = np.concatenate([g.kinds, np.repeat(np.array(kinds, dtype=np.int8), sizes)])
            g.overlapped = np.concatenate([g.overlapped, np.repeat(np.array(over), sizes)])
            g.deps = np.concatenate([g.deps] + self._deps)
            g.labels.extend(labels)
            self._blocks, self._deps = [], []
        return self._dfg

    # -- node plumbing

    def _emit(self, kind, val, a=None, b=None, mask=None) -> Traced:
        """One block: a ``kind`` node for each element of ``val`` (each
        where ``mask`` holds), with operand ids ``a`` and ``b``. Elements
        without a node get id -1, for the caller to fill."""
        shape = val.shape
        start = self._count
        deps = np.empty(shape + (2,), dtype=ID)
        deps[..., 0] = -1 if a is None else a
        deps[..., 1] = -1 if b is None else b
        if mask is None:
            size = deps.size // 2
            ids = np.arange(start, start + size, dtype=ID).reshape(shape)
            deps = deps.reshape(size, 2)
        else:
            full = np.empty(shape, dtype=bool)
            full[...] = mask
            deps = deps[full]
            size = len(deps)
            ids = np.full(shape, -1, dtype=ID)
            ids[full] = np.arange(start, start + size, dtype=ID)
            # constants are not operands: close the gap they leave
            gap = deps[:, 0] < 0
            deps[gap] = deps[gap][:, ::-1]
        if size:
            self._count = start + size
            self._blocks.append((kind, size, self._overlap > 0, self._label))
            self._deps.append(deps)
        return Traced(val, ids)

    def input(self, value) -> Traced:
        return self._emit(_INPUT, np.array(value, dtype=float))

    def output(self, traced: Traced):
        """An output node for each element that is not a constant."""
        self._emit(_OUTPUT, traced.val, traced.node, mask=traced.node >= 0)

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

    # -- real elementwise ops

    def _sum(self, a: Traced, b: Traced, val) -> Traced:
        # an addition of value ``val``; a structural zero forwards the
        # other operand
        if a.flag is None and b.flag is None:
            return self._emit(_ADD, val, a.node, b.node)
        za, zb = _is(a, _S_ZERO), _is(b, _S_ZERO)
        out = self._emit(_ADD, val, a.node, b.node, ~(za | zb))
        return _select(za, b, _select(zb, a, out))

    def add(self, a: Traced, b: Traced) -> Traced:
        return self._sum(a, b, a.val + b.val)

    def sub(self, a: Traced, b: Traced) -> Traced:
        return self._sum(a, self.neg(b), a.val - b.val)

    def add_or_sub(self, a: Traced, b: Traced, plus) -> Traced:
        """a + b where ``plus`` holds, a - b elsewhere."""
        b_signed = _select(plus, b, self.neg(b))
        return self._sum(a, b_signed, np.where(plus, a.val + b.val, a.val - b.val))

    def neg(self, a: Traced) -> Traced:
        if a.flag is None:
            return Traced(-a.val, a.node)
        zero = a.flag == _S_ZERO
        return Traced(np.where(zero, a.val, -a.val), a.node, np.where(zero, a.flag, _GENERIC))

    def mul(self, a: Traced, b: Traced) -> Traced:
        val = a.val * b.val
        if a.flag is None and b.flag is None:
            return self._emit(_MUL, val, a.node, b.node)
        zero = _is(a, _S_ZERO) | _is(b, _S_ZERO)
        oa, ob = _is(a, _S_ONE), _is(b, _S_ONE)
        out = self._emit(_MUL, val, a.node, b.node, ~(zero | oa | ob))
        return _select(zero, ZERO, _select(oa, b, _select(ob, a, out)))

    def div(self, a: Traced, b: Traced) -> Traced:
        val = a.val / b.val
        if not b.val.all():
            val = np.where(b.val != 0.0, val, np.inf)
        if a.flag is None and b.flag is None:
            return self._emit(_DIV, val, a.node, b.node)
        keep = _is(a, _S_ZERO) | _is(b, _S_ONE)
        return _select(keep, a, self._emit(_DIV, val, a.node, b.node, ~keep))

    def sqrt(self, a: Traced) -> Traced:
        val = np.sqrt(np.where(a.val < 0.0, 0.0, a.val))
        if a.flag is None:
            return self._emit(_SQRT, val, a.node)
        keep = a.flag != _GENERIC
        return _select(keep, a, self._emit(_SQRT, val, a.node, mask=~keep))

    def shift(self, a: Traced, factor: float) -> Traced:
        # multiplication by a power of two: a wire, not an operator
        if a.flag is None:
            return Traced(a.val * factor, a.node)
        zero = a.flag == _S_ZERO
        return Traced(
            np.where(zero, a.val, a.val * factor), a.node, np.where(zero, a.flag, _GENERIC)
        )

    def tree_sum(self, items) -> Traced:
        """Balanced adder tree over the last axis (or over a list of
        values): adjacent pairs, an odd tail carried up, one block per
        level."""
        x = _stack(items, axis=-1)
        n = x.val.shape[-1]
        if n == 0:
            return _select(np.ones(x.val.shape[:-1], dtype=bool), ZERO, ZERO)
        while n > 1:
            half = n // 2
            pairs = self.add(x[..., 0 : 2 * half : 2], x[..., 1 : 2 * half : 2])
            x = _concat([pairs, x[..., n - 1 :]], axis=-1) if n % 2 else pairs
            n = half + n % 2
        return x[..., 0]

    # -- complex values: a trailing (re, im) axis, which the real ops
    # above broadcast over; a real scale r needs r[..., None]

    def cinput(self, z) -> Traced:
        # each element's real part, then its imaginary part
        z = np.asarray(z, dtype=complex)
        return self.input(np.stack([z.real, z.imag], axis=-1))

    def cmul(self, x: Traced, y: Traced) -> Traced:
        # (re re, im im, re im, im re), then re re - im im and re im + im re
        p = self.mul(x[..., [0, 1, 0, 1]], y[..., [0, 1, 1, 0]])
        return self.add_or_sub(p[..., 0::2], p[..., 1::2], _IM)

    def conj(self, x: Traced) -> Traced:
        return _concat([x[..., :1], self.neg(x[..., 1:])], axis=-1)

    def rdot(self, x: Traced, y: Traced) -> Traced:
        """Re(x conj(y)): re re + im im."""
        p = self.mul(x, y)
        return self.add(p[..., 0], p[..., 1])

    def cabs2(self, x: Traced) -> Traced:
        return self.rdot(x, x)

    def ctree_sum(self, x: Traced) -> Traced:
        """Adder tree over the element axis, the one before (re, im)."""
        return self.tree_sum(x.swapaxes(-1, -2))


def _reflect(tb: TraceBuilder, x: Traced, label: tuple):
    """Head of every Householder reflection, stages 1-4 under ``label + (stage,)``:
    norm, pivot phase, reflector numerator and normalized reflector."""
    with tb.label(label + (1,)):
        sq = tb.cabs2(x)
        if len(x) >= 2:
            partial = tb.tree_sum(sq[1:])
            total = tb.add(sq[0], partial)
        else:
            partial = None
            total = sq[0]
        xnorm = tb.sqrt(total)
    with tb.label(label + (2,)), tb.overlapped():
        phase = tb.div(x[0], tb.sqrt(sq[0])[..., None])
    with tb.label(label + (3,)):
        v1 = tb.add(x[0], tb.mul(phase, xnorm[..., None]))
    with tb.label(label + (4,)):
        vnsq = tb.cabs2(v1)
        if partial is not None:
            vnsq = tb.add(vnsq, partial)
        v = tb.div(_concat([v1[None], x[1:]]), tb.sqrt(vnsq)[..., None])
    return xnorm, phase, v


# ---------------------------------------------------------------------------
# Householder tridiagonalization schedule


@_quiet
def trace_tridiagonalize(tb: TraceBuilder, bmat: np.ndarray):
    """Traced Householder reduction; returns (diag, offdiag, Q) traced values."""
    k = bmat.shape[0]
    upper = np.triu_indices(k, 1)
    up = tb.cinput(bmat[upper])
    dg = tb.input(bmat.diagonal().real)
    qmat = tb.cinput(np.eye(k))

    # the Hermitian working matrix: the upper triangle's entries, their
    # conjugates below it, and the real diagonal, whose vanished imaginary
    # part rides along as a plain zero constant so that multiplications
    # with it still price as full complex products
    node = np.zeros((k, k, 2), dtype=ID)
    node[..., 1] = -1
    h = Traced(np.zeros((k, k, 2)), node, np.zeros((k, k, 2), np.int8))

    def put_upper(rows, cols, z: Traced):
        h[rows, cols] = z
        h[cols, rows] = tb.conj(z)

    put_upper(*upper, up)
    diag = np.arange(k)
    h[diag, diag, 0] = dg

    off = []
    for step in range(k - 1):
        lo = step + 1
        xnorm, phase, v = _reflect(tb, h[lo:, step], ("tridiag", step))
        off.append(xnorm)

        with tb.label(("tridiag", step, 5)):
            p = tb.shift(tb.ctree_sum(tb.cmul(h[lo:, lo:], v[None, :])), 2.0)

        with tb.label(("tridiag", step, 6)):
            sdot = tb.ctree_sum(tb.cmul(tb.conj(p), v))
            w = tb.sub(p, tb.cmul(sdot, v))

        with tb.label(("tridiag", step, 7)):
            # every entry of the trailing block is read once and replaced
            r1, r2 = tb.rdot(v, w), tb.rdot(w, v)
            h[diag[lo:], diag[lo:], 0] = tb.sub(tb.sub(h[diag[lo:], diag[lo:], 0], r1), r2)
            a, b = np.triu_indices(k - lo, 1)
            t1 = tb.cmul(v[a], tb.conj(w[b]))
            t2 = tb.cmul(w[a], tb.conj(v[b]))
            put_upper(lo + a, lo + b, tb.sub(tb.sub(h[lo + a, lo + b], t1), t2))

        with tb.label(("tridiag", step, 8)), tb.overlapped():
            qmat[:, lo:] = _reflect_rows(tb, qmat[:, lo:], v, phase)

    return h[diag, diag, 0], _stack(off), qmat


# ---------------------------------------------------------------------------
# divide and conquer schedule


@_quiet
def trace_dc(tb: TraceBuilder, diag, offdiag, iters: int):
    """Traced divide-and-conquer on traced tridiagonal values.

    Every secular root takes exactly ``iters`` rational-model steps, the
    unit of the solver's budget. The bracket safeguard, and the hold on a
    value that meets the solver's stopping test, are free clamps, so the
    node count depends only on the matrix size and the iteration budget.
    A merge solves all its roots in lockstep, as arrays over (root, pole).
    Each merge sorts its poles by value, so which nodes its adder trees
    pair follows the input. This prices the no-deflation schedule, the
    worst case, and not the solver's origin probe, one secular
    evaluation per interior root.
    """

    def rec(d: Traced, e: Traced):
        ll = len(d)
        if ll == 1:
            return d, ONE[None, None]
        cut = (ll + 1) // 2
        alpha = e[cut - 1]
        with tb.label(("dc", ll, "split")):
            ends = tb.sub(d[cut - 1 : cut + 1], alpha)
        lam1, q1 = rec(_concat([d[: cut - 1], ends[:1]]), e[: cut - 1])
        lam2, q2 = rec(_concat([ends[1:], d[cut + 1 :]]), e[cut:])
        l1 = cut

        d_all = _concat([lam1, lam2])
        order = np.argsort(d_all.val, kind="stable")
        ds = d_all[order]
        us = _concat([q1[-1], q2[0]])[order]
        roots = np.arange(ll)
        p1 = np.minimum(roots, ll - 2)
        p2 = p1 + 1

        with tb.label(("dc", ll, "secular")):
            asq = tb.mul(alpha, tb.mul(us, us))
            rho = tb.tree_sum(asq)
            # each root starts inside its bracket: the midpoint of its two
            # poles, or the top pole plus half the weight
            blo = ds.val
            bhi = np.append(ds.val[1:], ds.val[-1] + rho.val)
            y = tb.add(ds, _concat([ds[1:], tb.shift(rho, 0.5)[None]]))
            y.val = np.where(roots < ll - 1, y.val * 0.5, y.val)
            one = const(1.0)
            for _ in range(iters):
                delta = tb.sub(ds[None, :], y[:, None])
                t = tb.div(asq[None, :], delta)
                s = tb.div(t, delta)
                fv = tb.add(tb.tree_sum(t), one)
                fder = tb.tree_sum(s)
                # the stopping test sums |t| left to right, as the solver does
                tsum = np.cumsum(np.abs(t.val), axis=1)[:, -1]
                done = np.abs(fv.val) <= _SECULAR_TOL * (1.0 + tsum)
                below = fv.val < 0.0
                blo = np.where(below, y.val, blo)
                bhi = np.where(below, bhi, y.val)
                d1 = delta[roots, p1]
                d2 = delta[roots, p2]
                beta = tb.div(fder, tb.add(s[roots, p1], s[roots, p2]))
                c1 = tb.mul(beta, asq[p1])
                c2 = tb.mul(beta, asq[p2])
                c3 = tb.sub(fv, tb.mul(beta, tb.add(t[roots, p1], t[roots, p2])))
                sumd = tb.add(d1, d2)
                bq = tb.add(tb.add(tb.mul(c3, sumd), c1), c2)
                cq = tb.tree_sum([tb.mul(c3, tb.mul(d1, d2)), tb.mul(c1, d2), tb.mul(c2, d1)])
                disc = tb.sub(tb.mul(bq, bq), tb.shift(tb.mul(c3, cq), 4.0))
                sq = tb.sqrt(disc)
                denom = tb.add_or_sub(bq, sq, bq.val >= 0.0)
                eta = tb.div(tb.shift(cq, 2.0), denom)
                cand = tb.add(y, eta)
                # free clamp: the value saturates, the dependency stays
                inside = (blo < cand.val) & (cand.val < bhi)
                val = np.where(done, y.val, np.where(inside, cand.val, 0.5 * (blo + bhi)))
                y = Traced(val, cand.node, cand.flag)
            lams = y

        with tb.label(("dc", ll, "eigvec")):
            delta = tb.sub(ds[None, :], lams[:, None])
            w = tb.div(us[None, :], delta)
            nrm = tb.sqrt(tb.tree_sum(tb.mul(w, w)))
            # row j of the merge's eigenvectors is pole j's component, in
            # the unsorted order
            s_rows = tb.div(w, nrm[:, None]).T[np.argsort(order)]

        with tb.label(("dc", ll, "qacc")):
            top = tb.tree_sum(tb.mul(q1[:, None, :], s_rows[:l1].T[None]))
            bottom = tb.tree_sum(tb.mul(q2[:, None, :], s_rows[l1:].T[None]))
            q_new = _concat([top, bottom])

        perm = np.argsort(lams.val, kind="stable")
        return lams[perm], q_new[:, perm]

    return rec(_stack(diag), _stack(offdiag))


def _combine(tb: TraceBuilder, c: Traced, s: Traced, u, v, plus, scalars_first=True) -> Traced:
    """c u + s v where ``plus`` holds, c u - s v elsewhere, elementwise,
    with c and s as the first operands of the products if
    ``scalars_first``. ``u`` and ``v`` are arrays or lists of scalars."""
    u, v = _stack(u), _stack(v)
    if scalars_first:
        return tb.add_or_sub(tb.mul(c, u), tb.mul(s, v), plus)
    return tb.add_or_sub(tb.mul(u, c), tb.mul(v, s), plus)


def _givens(tb: TraceBuilder, x: Traced, z: Traced) -> tuple[Traced, Traced]:
    """r = sqrt(x^2 + z^2) and the stacked (c, s) = (x, z) / r of the plane
    rotation that maps (x, z) onto (r, 0)."""
    r = tb.sqrt(tb.add(tb.mul(x, x), tb.mul(z, z)))
    return r, tb.div(_stack([x, z]), r)


def _rotate(tb: TraceBuilder, rows: Traced, a: int, b: int, c: Traced, s: Traced, scalars_first=True):
    """Plane rotation of rows a and b, in place:
    (row a, row b) <- (c row a + s row b, c row b - s row a)."""
    pair = rows[[a, b]]
    plus = np.array([True, False]).reshape((2,) + (1,) * (pair.val.ndim - 1))
    rows[[a, b]] = _combine(tb, c, s, pair, pair[::-1], plus, scalars_first)


# ---------------------------------------------------------------------------
# QR iteration schedule


@_quiet
def trace_qr_sweeps(tb: TraceBuilder, diag, offdiag, sweeps: int):
    """Traced plain QR sweeps on a tridiagonal, in deferred-bulge form.

    Each rotation reads the raw band entry it needs and applies the
    previous rotation's scaling itself, so a new sweep depends only on
    the first two rotations of the previous one: successive sweeps add
    two rotations each to the critical path. Row c of the returned
    accumulator is eigenvector column c.
    """
    d = list(diag)
    e = list(offdiag)
    kk = len(d)
    eye = np.eye(kk)
    qcols = Traced(eye, np.full((kk, kk), -1, dtype=ID), np.where(eye == 1.0, _S_ONE, _S_ZERO))
    for s in range(sweeps):
        with tb.label(("qr", s, "rot")):
            x = d[0]
            cs_prev = None
            for j in range(kk - 1):
                if j > 0:
                    z, e_eff = tb.mul(cs_prev[::-1], e[j])
                else:
                    z = e_eff = e[0]
                r, cs = _givens(tb, x, z)
                c, sn = cs
                if j > 0:
                    e[j - 1] = r
                p1, p2, q1, q2 = _combine(
                    tb, c, sn, [d[j], e_eff, e_eff, d[j + 1]], [e_eff, d[j + 1], d[j], e_eff],
                    (True, True, False, False),
                )
                d[j], e[j], d[j + 1] = _combine(
                    tb, c, sn, [p1, p2, q2], [p2, p1, q1], (True, False, False)
                )
                x = e[j]
                cs_prev = cs
                with tb.label(("qr", s, "qacc")):
                    _rotate(tb, qcols, j, j + 1, c, sn)
    return d, e, qcols


# ---------------------------------------------------------------------------
# Golub-Kahan schedule


def _reflect_rows(tb: TraceBuilder, seg: Traced, v: Traced, phase: Traced) -> Traced:
    """Right-multiply each row of ``seg`` by a reflector:
    row <- -phase (row - 2 (row . v) v^H)."""
    dot = tb.shift(tb.ctree_sum(tb.cmul(seg, v[None, :])), 2.0)
    return tb.cmul(tb.neg(phase), tb.sub(seg, tb.cmul(dot[:, None], tb.conj(v)[None, :])))


def _bare_phase(tb: TraceBuilder, piv: Traced, label: tuple):
    """Head of a one-entry reduction, stages 1-2 under ``label + (stage,)``:
    |piv| and the conjugated unit phase that maps piv onto it."""
    with tb.label(label + (1,)):
        ap = tb.sqrt(tb.cabs2(piv))
    with tb.label(label + (2,)), tb.overlapped():
        cph = tb.conj(tb.div(piv, ap[..., None]))
    return ap, cph


@_quiet
def trace_gk_bidiagonalize(tb: TraceBuilder, amat: np.ndarray):
    """Traced complex Householder bidiagonalization of an M x K matrix."""
    m, k = amat.shape
    work = tb.cinput(amat)
    umat = tb.cinput(np.eye(m))
    vmat = tb.cinput(np.eye(k))
    dvals = [None] * k
    evals = [None] * max(k - 1, 0)

    for j in range(k):
        col = ("gk-bidiag", j, "col")
        if m - j > 1:
            xnorm, phase, v = _reflect(tb, work[j:, j], col)
            nphase = tb.neg(tb.conj(phase))
            with tb.label(col + (5,)):
                block = work[j:, j + 1 :]
                dot2 = tb.shift(tb.ctree_sum(tb.cmul(tb.conj(v)[None, :], block.T)), 2.0)
                work[j:, j + 1 :] = tb.cmul(nphase, tb.sub(block, tb.cmul(dot2[None, :], v[:, None])))
            dvals[j] = xnorm
            work[j + 1 :, j] = ZERO
            with tb.label(col + (6,)), tb.overlapped():
                umat[:, j:] = _reflect_rows(tb, umat[:, j:], v, phase)
        else:
            dvals[j], cph = _bare_phase(tb, work[j, j], col)
            with tb.label(col + (5,)):
                work[j, j + 1 :] = tb.cmul(cph, work[j, j + 1 :])
            with tb.label(col + (6,)), tb.overlapped():
                umat[:, j] = tb.cmul(tb.conj(cph), umat[:, j])

        row = ("gk-bidiag", j, "row")
        if j < k - 2:
            xnorm, phase, v = _reflect(tb, tb.conj(work[j, j + 1 :]), row)
            with tb.label(row + (5,)):
                work[j:, j + 1 :] = _reflect_rows(tb, work[j:, j + 1 :], v, phase)
            evals[j] = xnorm
            work[j, j + 2 :] = ZERO
            with tb.label(row + (6,)), tb.overlapped():
                vmat[:, j + 1 :] = _reflect_rows(tb, vmat[:, j + 1 :], v, phase)
        elif j == k - 2:
            evals[j], cph = _bare_phase(tb, work[j, j + 1], row)
            with tb.label(row + (5,)):
                work[j + 1 :, j + 1] = tb.cmul(cph, work[j + 1 :, j + 1])
            with tb.label(row + (6,)), tb.overlapped():
                vmat[:, j + 1] = tb.cmul(cph, vmat[:, j + 1])

    return dvals, evals, umat, vmat


@_quiet
def trace_gk_sweeps(tb: TraceBuilder, dvals, evals, sweeps: int, m_rows: int):
    """Traced zero-shift bidiagonal sweeps with the deferred bulge form.

    A new sweep only needs the first few updates of the previous one, so
    successive sweeps overlap naturally in the graph: each extra sweep
    adds four rotations to the critical path. Row c of each returned
    accumulator is its column c, complex: a real plane rotation acts on
    both lanes alike.
    """
    d = list(dvals)
    e = list(evals)
    kk = len(d)
    ucols = tb.cinput(np.eye(kk, m_rows))
    vcols = tb.cinput(np.eye(kk))

    for s in range(sweeps):
        with tb.label(("gk", s, "rot")):
            f = tb.mul(d[0], d[0])
            g = tb.mul(d[0], e[0])
            cs2_prev = None
            for j in range(kk - 1):
                if j > 0:
                    g, e_eff = tb.mul(cs2_prev[::-1], e[j])
                else:
                    e_eff = e[j]
                r1, (c, sn) = _givens(tb, f, g)
                if j > 0:
                    e[j - 1] = r1
                f, e_tmp = _combine(tb, c, sn, [d[j], e_eff], [e_eff, d[j]], (True, False))
                g2, dj1 = tb.mul(_stack([sn, c]), d[j + 1])
                with tb.label(("gk", s, "vacc")):
                    _rotate(tb, vcols, j, j + 1, c, sn, scalars_first=False)
                r2, cs2 = _givens(tb, f, g2)
                c2, s2 = cs2
                d[j] = r2
                f, d[j + 1] = _combine(tb, c2, s2, [e_tmp, dj1], [dj1, e_tmp], (True, False))
                with tb.label(("gk", s, "uacc")):
                    _rotate(tb, ucols, j, j + 1, c2, s2, scalars_first=False)
                cs2_prev = cs2
            e[kk - 2] = f
    return d, e, ucols, vcols


# ---------------------------------------------------------------------------
# entry point


@_quiet
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
        outs = [_stack(dv if a.shape[1] == 1 else trace_gk_sweeps(tb, dv, ev, iters, a.shape[0])[0])]
    else:
        herm = HermitianMatrix.from_matrix(a)
        diag, off, _ = trace_tridiagonalize(tb, herm.mat)
        if alg == "tridiag" or herm.dim == 1:
            outs = [diag, off]
        elif alg == "4step-dc":
            lams, q = trace_dc(tb, diag, off, iters)
            outs = [lams, q.ravel()]
        else:
            d, _, qcols = trace_qr_sweeps(tb, diag, off, iters)
            outs = [_stack(d), qcols.ravel()]
    tb.output(_concat(outs))
    return tb.dfg
