"""The closed-form latency model against its step-by-step reference.

The reference below is the earlier ``latency_model.analytic``: each step
along a path is a ``_plus`` call on a (ns, add, mul, div, sqrt) tuple, and
the censuses add ``OpCount`` values over the whole merge tree and every
reflector. The module now extends each path inline on its unpacked counts
and recurses once per distinct merge size, with the same arithmetic, so
every output must equal the reference exactly: ns by ``==``, path counts,
breakdown dicts and censuses.
"""

import pytest

from parsvd.latency_model import (
    BUILTIN_PROFILES,
    OP_KINDS,
    HardwareProfile,
    LatencyEstimate,
    OpCount,
    analytic_latency,
    ceil_log2,
    total_ops,
)
from parsvd.latency_model.analytic import latency_breakdown

# ---------------------------------------------------------------------------
# reference: the tuple/_plus recurrences and the OpCount censuses

_ZERO = (0.0, 0, 0, 0, 0)
_A1 = (1, 0, 0, 0)
_M1 = (0, 1, 0, 0)
_D1 = (0, 0, 1, 0)
_AS = (1, 0, 0, 1)
_M2 = (0, 2, 0, 0)


def _weights(prof):
    return tuple(prof.latency_ns[k] for k in OP_KINDS)


def _plus(dep, ops, w):
    _, add, mul, div, sqrt = dep
    add += ops[0]
    mul += ops[1]
    div += ops[2]
    sqrt += ops[3]
    return (add * w[0] + mul * w[1] + div * w[2] + sqrt * w[3], add, mul, div, sqrt)


def _tridiag_census(k_dim):
    add = mul = div = sqrt = 0
    for i in range(1, k_dim):
        add += 8 * i * i + 8 * i - 1 + (2 if i >= 2 else 1) + 10 * i * k_dim - 2 * k_dim
        mul += 8 * i * i + 10 * i + 4 + 12 * i * k_dim
        div += 2 * i + 2
        sqrt += 3
    return OpCount(add=add, mul=mul, div=div, sqrt=sqrt)


def _dc_census(ll, iters):
    if ll == 1:
        return OpCount()
    cut = (ll + 1) // 2
    total = _dc_census(cut, iters) + _dc_census(ll - cut, iters)
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
            total = total + OpCount(add=half * (half - 1) * ll, mul=2 * half + half * half * ll)
    return total


def _qr_census(k_dim, sweeps):
    rotations = OpCount(add=8, mul=16, div=2, sqrt=1).scaled(k_dim - 1) + OpCount(mul=2 * (k_dim - 2))
    mul, add = (k_dim - 2) * (k_dim + 1), 0
    for s in range(2, sweeps + 1):
        r = max(k_dim - s, 0)
        mul += 4 * k_dim * (k_dim - 1) - 2 * r * r
        add += 2 * k_dim * (k_dim - 1) - r * (r + 1)
    return rotations.scaled(sweeps) + OpCount(add=add, mul=mul)


def _gk_census(m_dim, k_dim, sweeps):
    def step(n, width):
        if n > 1:
            return OpCount(add=2 * n + 3 + (10 * n - 2) * width, mul=2 * n + 4 + 12 * n * width,
                           div=2 * n + 2, sqrt=3)
        return OpCount(add=1 + 2 * width, mul=2 + 4 * width, div=2, sqrt=1)

    total = OpCount()
    for j in range(k_dim):
        total = total + step(m_dim - j, k_dim - j - 1 + m_dim)
        if j < k_dim - 1:
            r = k_dim - 1 - j
            total = total + step(r, (m_dim - j if r > 1 else m_dim - j - 1) + k_dim)
    per_pair = OpCount(mul=16 + 8 * (k_dim + m_dim), add=6 + 4 * (k_dim + m_dim), sqrt=2, div=4)
    return total + per_pair.scaled((k_dim - 1) * sweeps)


def _tridiag_model(k_dim, w):
    d_dep = [_ZERO] * k_dim
    e_dep = [None] * max(k_dim - 1, 0)
    chain = _ZERO
    for k1 in range(1, k_dim):
        i = k_dim - k1
        s1 = ceil_log2(i - 1) + 2 if i >= 2 else 1
        e_dep[k1 - 1] = _plus(chain, (s1, 1, 0, 1), w)
        s4 = 2 if i >= 2 else 1
        chain = _plus(chain, (s1 + s4 + 8 + 2 * ceil_log2(i), 7, 1, 2), w)
        d_dep[k1] = chain
    return d_dep, e_dep, chain


def _dc_model(iters, d_dep, e_dep, w):
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
        steps = (1 + (7 + ceil_log2(ll)) * iters, 3 * iters, 4 * iters, iters)
        lam = _plus(max(lam_in, rho), steps, w)
        eig = (1 + ceil_log2(ll), 1, 2, 1)
        if l1 > 1:
            eig = (eig[0] + ceil_log2(l1), 2, 2, 1)
        return lam, _plus(lam, eig, w)

    lam, q = rec(list(d_dep), list(e_dep))
    return q if q is not None else lam


def _givens(x, z, w):
    r = _plus(max(_plus(x, _M1, w), _plus(z, _M1, w)), _AS, w)
    return r, _plus(r, _D1, w)


def _qr_model(k_dim, sweeps, d_dep, e_dep, w):
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
            ce = _plus(max(cd, e_eff), _M1, w)
            p1 = _plus(max(_plus(max(cd, d[j]), _M1, w), ce), _A1, w)
            p2 = _plus(max(ce, _plus(max(cd, d[j + 1]), _M1, w)), _A1, w)
            dj = _plus(max(_plus(max(cd, p1), _M1, w), _plus(max(cd, p2), _M1, w)), _A1, w)
            d[j] = e[j] = d[j + 1] = x = dj
            cd_prev = cd
    return max(d + e)


def _gk_bidiag_model(m_dim, k_dim, w):
    d_dep = [None] * k_dim
    e_dep = [None] * max(k_dim - 1, 0)
    block = _ZERO
    loose_end = _ZERO
    to_vector = (3, 2, 1, 1)

    def reduce(n, trailing):
        if n == 1:
            head, tail = (1, 1, 0, 1), (1, 1, 0, 0)
        else:
            head = (ceil_log2(n - 1) + 2, 1, 0, 1)
            tail = (7 + ceil_log2(n), 5, 1, 1)
        dep = _plus(block, head, w)
        return dep, _plus(dep, tail, w) if trailing else block

    for j in range(k_dim):
        d_dep[j], block = reduce(m_dim - j, j < k_dim - 1)
        if j < k_dim - 1:
            e_dep[j], block = reduce(k_dim - 1 - j, True)
        elif m_dim > k_dim:
            loose_end = _plus(d_dep[j], to_vector, w)
    return d_dep, e_dep, loose_end


def _gk_sweep_model(k_dim, sweeps, d_dep, e_dep, w):
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


def _model(alg, m_dim, k_dim, iters, prof):
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


def _reference(alg, m_dim, k_dim, iters, prof):
    """(LatencyEstimate, breakdown dict, OpCount) as the reference gives them."""
    front, path = _model(alg, m_dim, k_dim, iters, prof)
    est = LatencyEstimate.from_path_counts(OpCount(*path[1:]), prof)
    front, total = front[0], path[0]
    if alg == "gk":
        ops = _gk_census(m_dim, k_dim, iters)
        phases = {"bidiagonalization": front, "sweeps": max(total - front, 0.0), "total": total}
    elif alg == "tridiag":
        ops = _tridiag_census(k_dim)
        phases = {"tridiagonalization": front, "total": front}
    else:
        ops = _tridiag_census(k_dim)
        if k_dim > 1:
            ops = ops + (_dc_census(k_dim, iters) if alg == "4step-dc" else _qr_census(k_dim, iters))
        phases = {"tridiagonalization": front, "diagonalization": max(total - front, 0.0),
                  "total": total}
    return est, phases, ops


# ---------------------------------------------------------------------------
# the grid


def _profile(name, ns):
    return HardwareProfile(name=name, latency_ns=ns, lut=dict.fromkeys(OP_KINDS, 1))


# exact ns ties between different count vectors, which the builtin profiles
# almost never produce: they exercise the tie-break on counts
PROFILES = [
    BUILTIN_PROFILES["zynq-fp32"],
    BUILTIN_PROFILES["zynq-fxp32"],
    _profile("unit", dict.fromkeys(OP_KINDS, 1.0)),
    _profile("add-mul-tie", {"add": 2.0, "mul": 2.0, "div": 1.0, "sqrt": 1.0}),
]
ITERS = (1, 2, 3, 8)
# beyond the explicit trace limit, and on and off powers of two
K_LARGE = (63, 64, 65, 127, 128, 129, 255, 256, 257)


def _gk_rows(k):
    return (k, k + 1, 2 * k + 1, 8 * k)


def _cases():
    """(algorithm, M, K, iters) of the grid, subsampled where a case costs
    the most: a path takes O(K * iters) steps, and gk's sweeps cost the
    most per step.

    - K <= 40: every Gram-side case; gk at every M for iters 1 and 2, and
      at iters 3 and 8 at two of the four M, which rotate with K;
    - the larger K: tridiag, and 4step-dc, whose path is O(K), at every
      iteration count; 4step-qr and gk each at one iteration count,
      rotating with K so that each count runs at two or three sizes, and
      gk at one M, rotating at half that pace.
    """
    for k in range(1, 41):
        yield "tridiag", k, k, 1
        for it in ITERS:
            for alg in ("4step-dc", "4step-qr"):
                yield alg, k, k, it
        for m in _gk_rows(k):
            for it in (1, 2):
                yield "gk", m, k, it
        yield "gk", _gk_rows(k)[k % 4], k, 3
        yield "gk", _gk_rows(k)[(k + 2) % 4], k, 8
    for n, k in enumerate(K_LARGE):
        yield "tridiag", k, k, 1
        for it in ITERS:
            yield "4step-dc", k, k, it
        yield "4step-qr", k, k, ITERS[n % 4]
        yield "gk", _gk_rows(k)[(n // 2) % 4], k, ITERS[n % 4]


@pytest.mark.parametrize("prof", PROFILES, ids=lambda p: p.name)
def test_closed_forms_equal_reference(prof):
    mismatches = []
    for alg, m_dim, k_dim, iters in _cases():
        dims = (m_dim, k_dim)
        want_est, want_phases, want_ops = _reference(alg, m_dim, k_dim, iters, prof)
        est = analytic_latency(alg, dims, iters, prof)
        got = (est.ns, est.critical_path, latency_breakdown(alg, dims, iters, prof),
               total_ops(alg, dims, iters))
        if got != (want_est.ns, want_est.critical_path, want_phases, want_ops):
            mismatches.append((alg, dims, iters))
    assert not mismatches, f"{len(mismatches)} cases differ, first {mismatches[:5]}"

