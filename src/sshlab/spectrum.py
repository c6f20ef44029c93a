"""Eigensolvers for the chain matrices.

Self-contained kernels, no external linear-algebra backends: Sturm-sequence
bisection for symmetric tridiagonal eigenvalues, a batched bisection of
only the four central levels of open chains, a batched shift-and-invert
kernel for their midgap pair, and Householder reduction for dense
symmetric matrices.

An even ring is bipartite, H = [[0, Q], [Q^T, 0]] in sublattice order, so
its levels are the singular values +/-sigma of the n x n block Q.  Rings
reach their gap through a batched Householder bidiagonalization of Q that
updates only the window where fill-in lives; its Golub-Kahan tridiagonal
is a zero-diagonal open chain with the same levels, and the central-level
kernel bisects it.  `chain_gap` is the one gap dispatch for every chain
matrix, `chain_gaps` the same for a stack of chains in one kernel call,
and `gap_resolution` the smallest gap they resolve.
An open chain is bipartite too, with a lower-bidiagonal block B, and its
midgap pair (a, +/-b)/sqrt(2) comes from B's smallest singular pair (a, b).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ChainMatrix

__all__ = [
    "ConvergenceError",
    "SpectralResult",
    "chain_gap",
    "chain_gaps",
    "eigenvalues_tridiagonal",
    "eigenvalues_dense",
    "eigenvector_near_zero",
    "gap_resolution",
    "midgap_levels",
    "midgap_pair",
    "midgap_vectors",
    "ring_levels",
]

_EPS = np.finfo(float).eps
# rings per `_golub_kahan_chains` call in `chain_gaps`; rows are independent,
# so the chunk bounds the buffers without changing any result
_RING_CHUNK = 8


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance."""


@dataclass(frozen=True)
class SpectralResult:
    """Sorted spectrum of a chain matrix plus the gap bookkeeping."""

    eigenvalues: np.ndarray
    gap: float

    @classmethod
    def from_eigenvalues(cls, evals: np.ndarray) -> "SpectralResult":
        evals = np.sort(np.asarray(evals, dtype=float))
        evals.setflags(write=False)
        return cls(eigenvalues=evals, gap=2.0 * np.min(np.abs(evals)))


# ----------------------------------------------------------------------
# kernels


def householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a real symmetric matrix to tridiagonal form (d, e).

    Eigenvalue-only variant: the orthogonal transforms are not accumulated.
    Each step applies A -> A - v w^T - w v^T on the trailing block, which
    keeps the work in rank-2 array updates.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]]), np.empty(0)
    e = np.zeros(n - 1)
    pair = np.empty((n, 2))
    for k in range(n - 2):
        x = a[k + 1 :, k]
        norm_x = math.sqrt(float(np.dot(x, x)))
        if norm_x == 0.0:
            e[k] = 0.0
            continue
        alpha = -math.copysign(norm_x, x[0]) if x[0] != 0.0 else -norm_x
        v = x.copy()
        v[0] -= alpha
        vv = float(np.dot(v, v))
        e[k] = alpha
        if vv == 0.0:
            continue
        sub = a[k + 1 :, k + 1 :]
        beta = 2.0 / vv
        p = beta * (sub @ v)
        w = p - (0.5 * beta * float(np.dot(v, p))) * v
        # rank-2 update sub -= v w^T + w v^T as one inner-dimension-2 GEMM
        vw = pair[: n - 1 - k]
        vw[:, 0] = v
        vw[:, 1] = w
        sub -= vw @ vw[:, ::-1].T
    e[n - 2] = a[n - 1, n - 2]
    return np.diag(a).copy(), e


def _golub_kahan_chains(u: np.ndarray, w: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """Couplings [d0, e0, d1, ..., d_{n-1}] of even rings' Golub-Kahan chains, one per row.

    Ring b has the n intra-dimer bonds u[b], the n-1 inter-dimer bonds w[b]
    and the corner bond corner[b].  Its sublattice block Q (rows A sites)
    is lower bidiagonal, Q[i, i] = u_i and Q[i+1, i] = w_i, plus
    Q[0, n-1] = corner; bidiag(d, e) is Q's Golub-Kahan form up to signs,
    so the zero-diagonal open chain with these couplings has the ring's
    levels.

    Step k reflects column k from the left and row k from the right.  Until
    the middle, the only entries that are neither finished nor untouched
    band lie in rows {k, k+1, k+2} and columns {k, k+1} (the head) and in
    rows and columns [n-k-2, n) (the tail).  So each ring lives in an m x m
    buffer, m = n - ks about n/2 + 3: the tail at fixed positions at its
    end, the head just before the tail, and each step works on the square
    window from the head to the end.  After a step the head moves two
    places toward the start, and the entries that enter the window are
    written from the couplings.  The tail starts `slack` rows (1 for even
    n, else 0) and slack + 1 columns early; those hold untouched band,
    which stays so, and they make the window at step
    ks = (n - 5 - slack) // 2 the natural trailing block [ks, n)^2.  The
    same step then runs on it to the end.

    Each ring is scaled by the power of two that brings its largest bond
    into [1/2, 1), which is exact, so no norm under- or overflows; a column
    or row whose norm is still zero skips its reflector.  Each ring's
    arithmetic is independent of the other rows.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    corner = np.atleast_1d(np.asarray(corner, dtype=float))
    rings, n = u.shape
    bonds = np.abs(np.concatenate((u, w, corner[:, None]), axis=1))
    scale = np.ldexp(1.0, np.frexp(bonds.max(axis=1))[1])[:, None]
    u, w, corner = u / scale, w / scale, corner / scale[:, 0]
    slack = 1 - n % 2
    ks = max(0, (n - 5 - slack) // 2)
    m = n - ks
    buf = np.zeros((rings, m, m))
    if ks == 0:
        i = np.arange(n)
        buf[:, i, i] = u
        buf[:, i[1:], i[:-1]] = w
        buf[:, 0, n - 1] += corner
    else:
        h = m - 5 - slack
        buf[:, h, h] = u[:, 0]
        buf[:, h + 1, h] = w[:, 0]
        buf[:, h + 1, h + 1] = u[:, 1]
        buf[:, h + 2, h + 1] = w[:, 1]
        buf[:, h, m - 1] = corner
        # tail rows [t, n) and columns [t-1, n) at their natural places m-n+g
        t = n - 2 - slack
        i = np.arange(m - n + t, m)
        buf[:, i, i] = u[:, t:]
        buf[:, i, i - 1] = w[:, t - 1 :]
    steps = []
    work = (np.empty((rings, m, 2)), np.zeros((rings, 2, m)), np.empty(rings * m * m))
    for k in range(n - 1):
        h = m - n + k if k >= ks else m - 5 - slack - k
        steps.append(_golub_kahan_step(buf, h, work))
        if k >= ks:
            continue
        # head rows k+1, k+2 and head column k+1 move two places toward the start
        buf[:, h - 1 : h + 1, h + 1 :] = buf[:, h + 1 : h + 3, h + 1 :]
        buf[:, h - 1 :, h - 1] = buf[:, h - 1 :, h + 1]
        buf[:, h - 1 :, h : h + 2] = 0.0
        buf[:, h + 1 : h + 3, h - 1 :] = 0.0
        # column k+2 and row k+3 join the head; row t and column t-1 the tail
        t = n - k - 3 - slack
        buf[:, h, h] = u[:, k + 2]
        buf[:, h + 1, h] = w[:, k + 2]
        buf[:, h + 2, h + 1] = w[:, t - 1]
        buf[:, h + 2, h + 2] = u[:, t]
        if k + 1 == ks:
            buf[:, h + 1, h + 1] = u[:, k + 3]  # row k+3 is the tail's row t-1
    steps.append((buf[:, m - 1, m - 1], np.zeros(rings)))
    # rows of (d_k, e_k) pairs, the last e a pad
    return np.array(steps).transpose(2, 0, 1).reshape(rings, -1)[:, :-1] * scale


def _golub_kahan_step(buf: np.ndarray, h: int, work) -> tuple[np.ndarray, np.ndarray]:
    """One batched Golub-Kahan step on the square windows buf[:, h:, h:].

    Returns the signed norms (alpha, beta) of the window's first column and
    of its first row after the left reflection: the step's d and e up to
    sign.  The reduced trailing block replaces the window's rows and
    columns 1:.  A 2 x 2 window has no row to reflect; beta is then the
    row's one entry.  `work` holds the (rings, m, 2) and (rings, 2, m)
    factors of the rank-2 update, the second zero left of the window, and
    room for their product.
    """
    lbuf, rbuf, room = work
    rings, m = buf.shape[:2]
    s = m - h
    win = buf[:, h:, h:]
    x, rest, trail = win[:, :, 0], win[:, :, 1:], win[:, 1:, 1:]
    lhs, rhs = lbuf[:, : s - 1], rbuf[:, :, h + 1 :]
    vt, q, p, z = lhs[:, :, 0], lhs[:, :, 1], rhs[:, 0], rhs[:, 1]
    # the reflector I - tau v v^T (v = (1, vt)) sends x to -alpha e0; its
    # first row is -x^T / alpha, so y = (x^T rest) / alpha is minus the
    # reflected row, and the rest of the window loses vt p^T
    alpha = np.copysign(np.sqrt(np.einsum("ij,ij->i", x, x)), x[:, 0])
    y = np.matmul(x[:, None, :], rest)[:, 0]
    if alpha.all():
        y /= alpha[:, None]
        np.divide(x[:, 1:], (x[:, 0] + alpha)[:, None], out=vt)
    else:
        # a zero column keeps its rows: y = -rest[0] and vt = 0
        live = alpha != 0.0
        y /= np.where(live, alpha, 1.0)[:, None]
        y[~live] = -rest[~live, 0]
        np.divide(x[:, 1:], np.where(live, x[:, 0] + alpha, 1.0)[:, None], out=vt)
        vt[~live] = 0.0
    np.add(rest[:, 0], y, out=p)
    if s == 2:
        trail[:, 0, 0] -= vt[:, 0] * p[:, 0]
        return alpha, y[:, 0]
    # the same on the reflected row from the right, with z = (1, ...) and
    # (trail - vt p^T)(I - tau z z^T) = trail - vt p^T - q z^T
    beta = np.copysign(np.sqrt(np.einsum("ij,ij->i", y, y)), y[:, 0])
    z0 = y[:, 0] + beta
    if beta.all():
        tau = z0 / beta
        np.divide(y, z0[:, None], out=z)
    else:
        live = beta != 0.0
        tau = np.where(live, z0, 0.0) / np.where(live, beta, 1.0)
        np.divide(y, np.where(live, z0, 1.0)[:, None], out=z)
    z[:, 0] = 1.0
    np.matmul(trail, z[:, :, None], out=q[:, :, None])
    q -= np.einsum("ij,ij->i", p, z)[:, None] * vt
    q *= tau[:, None]
    if 2 * (s - 1) >= m:
        # whole buffer rows are contiguous, which pays once the window is
        # half the buffer; rbuf is zero left of the window
        rbuf[:, :, h] = 0.0
        prod = room[: rings * (s - 1) * m].reshape(rings, s - 1, m)
        np.matmul(lhs, rbuf, out=prod)
        trail = buf[:, h + 1 :]
    else:
        prod = room[: rings * (s - 1) ** 2].reshape(rings, s - 1, s - 1)
        np.matmul(lhs, rhs, out=prod)
    np.subtract(trail, prod, out=trail)
    return alpha, beta


def sturm_count(d: np.ndarray, e2: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of tridiag(d, e) strictly below each shift.

    Standard negative-pivot count of the shifted LDL^T recurrence,
    vectorized over the shifts.  Zero and infinite pivots propagate
    correctly through IEEE arithmetic as long as no e2 entry is exactly
    zero; matrices with a vanishing coupling fall back to a clamped
    recurrence that never divides 0/0.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = len(d)
    if len(e2) and float(e2.min()) == 0.0:
        return _sturm_count_clamped(d, e2, xs)
    q = d[0] - xs
    count = (q < 0.0).astype(np.int64)
    tmp = np.empty_like(q)
    mask = np.empty(len(xs), dtype=bool)
    with np.errstate(divide="ignore"):
        for i in range(1, n):
            np.divide(e2[i - 1], q, out=tmp)
            np.subtract(d[i], tmp, out=tmp)
            np.subtract(tmp, xs, out=q)
            np.less(q, 0.0, out=mask)
            count += mask
    return count


def _sturm_count_clamped(d: np.ndarray, e2: np.ndarray, xs: np.ndarray) -> np.ndarray:
    pivmin = 1e-292 * max(1.0, float(e2.max()))
    q = d[0] - xs
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, len(d)):
        q = d[i] - xs - e2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0.0
    return count


def eigvals_sturm(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix by bisection.

    Every eigenvalue is bisected independently (vectorized across the
    spectrum) down to ~1e-14 of the Gershgorin bound, which makes the
    result deterministic and naturally sorted.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = len(d)
    if n == 1:
        return d.copy()
    e2 = e * e
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    bound = float(np.max(np.abs(d) + radius))
    if bound == 0.0:
        return np.zeros(n)
    lo = np.full(n, -bound)
    hi = np.full(n, bound)
    targets = np.arange(1, n + 1)
    tol = 1e-14 * bound
    for _ in range(128):
        mid = 0.5 * (lo + hi)
        below = sturm_count(d, e2, mid) >= targets
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
        if float(np.max(hi - lo)) <= tol:
            break
    else:
        raise ConvergenceError("bisection failed to localize the spectrum")
    return 0.5 * (lo + hi)


def midgap_levels(offdiag: np.ndarray) -> np.ndarray:
    """Eigenvalues N/2-2 .. N/2+1 of zero-diagonal open chains, one per row.

    `offdiag` holds the N-1 couplings of each chain (N >= 4).  Each
    value is bit-identical to the same entry of `eigvals_sturm` on that
    chain: same Gershgorin brackets, midpoints, Sturm pivots and stop rule.
    One Sturm pass evaluates every midpoint of a bisection subtree at once,
    then the bisection path is walked level by level, so the sequential
    passes over the sites drop by the subtree depth.  The depth keeps a pass
    near 1000 shifts: deep (up to 6) for a few rows, shallow for many.  Rows
    with an exactly zero squared coupling take `eigvals_sturm`'s clamped
    route.
    """
    e = np.atleast_2d(np.asarray(offdiag, dtype=float))
    rows, size = e.shape[0], e.shape[1] + 1
    if size < 4:
        raise ValueError("chains need at least 4 sites")
    half = size // 2
    out = np.empty((rows, 4))
    e2 = e * e
    clamped = e2.min(axis=1) == 0.0
    for row in np.flatnonzero(clamped):
        out[row] = eigvals_sturm(np.zeros(size), e[row])[half - 2 : half + 2]
    live = np.flatnonzero(~clamped)
    if not len(live):
        return out
    e, e2 = np.abs(e[live]), e2[live]
    # eigvals_sturm's Gershgorin bound: max over sites of |e_{i-1}| + |e_i|
    radius = np.concatenate((e[:, :1], e[:, :-1] + e[:, 1:], e[:, -1:]), axis=1)
    bound = radius.max(axis=1, keepdims=True)
    # eigvals_sturm stops on the widest of all N intervals; every interval
    # is 2*bound/2**k after k steps up to rounding far below tol, so the
    # four central ones reach tol at the same step (k = 48)
    tol = 1e-14 * bound
    targets = np.arange(half - 1, half + 3)
    lo = np.repeat(-bound, 4, axis=1)
    hi = np.repeat(bound, 4, axis=1)
    act = np.arange(len(live))
    depth = max(1, min(6, round(math.log2(256 / len(act) + 1))))
    steps = 0
    while len(act):
        # levels still needed if every interval halves cleanly
        need = np.log2(np.max((hi[act] - lo[act]) / tol[act]))
        levels = int(min(depth, max(1, math.ceil(need))))
        mids = _subtree_midpoints(lo[act], hi[act], levels)
        counts = _sturm_count_zero_diag(e2[act], mids.reshape(len(act), -1))
        counts = counts.reshape(mids.shape)
        a_lo, a_hi = lo[act], hi[act]
        node = np.zeros(a_lo.shape, dtype=np.intp)
        done = np.zeros(len(act), dtype=bool)
        for level in range(levels):
            pos = (node + (1 << level) - 1)[..., None]
            mid = np.take_along_axis(mids, pos, -1)[..., 0]
            below = np.take_along_axis(counts, pos, -1)[..., 0] >= targets
            a_hi = np.where(below & ~done[:, None], mid, a_hi)
            a_lo = np.where(below | done[:, None], a_lo, mid)
            node = 2 * node + ~below
            steps += 1
            done |= np.all(a_hi - a_lo <= tol[act], axis=1)
            if steps == 128 or done.all():
                break
        lo[act], hi[act] = a_lo, a_hi
        act = act[~done]
        if steps == 128 and len(act):
            raise ConvergenceError("bisection failed to localize the midgap levels")
    out[live] = 0.5 * (lo + hi)
    return out


def _subtree_midpoints(lo: np.ndarray, hi: np.ndarray, levels: int) -> np.ndarray:
    """Bisection midpoints of every node of a subtree, in level order.

    Node j of level l splits into nodes 2j (lower half) and 2j+1 of level
    l+1; each midpoint is 0.5*(lo+hi) of its own interval, as bisection
    computes it.
    """
    lo, hi = lo[..., None], hi[..., None]
    out = []
    for _ in range(levels):
        mid = 0.5 * (lo + hi)
        out.append(mid)
        lo = np.stack((lo, mid), axis=-1).reshape(*mid.shape[:-1], -1)
        hi = np.stack((mid, hi), axis=-1).reshape(*mid.shape[:-1], -1)
    return np.concatenate(out, axis=-1)


def _sturm_count_zero_diag(e2: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """`sturm_count` with d = 0 for row-wise chains e2 (R, N-1) at shifts xs (R, S).

    The pivot update (0 - x) - e2/q equals sturm_count's (0 - e2/q) - x
    bit for bit, signed zeros included.  Pivots are kept for 32 sites and
    their signs counted in one call.  The per-site operands are views made
    before the loop; a single chain's couplings are 0-d, which broadcast
    over the shifts at less cost per call than a (1, 1) column.
    """
    negx = 0.0 - xs
    q = negx
    count = (q < 0.0).astype(np.int64)
    if len(e2) == 1:
        sites = [e2[0, i, ...] for i in range(e2.shape[1])]
    else:
        sites = list(e2.T[:, :, None])
    buf = np.empty((min(32, len(sites)),) + xs.shape)
    pivots = list(buf)
    with np.errstate(divide="ignore"):
        for start in range(0, len(sites), len(buf)):
            block = sites[start : start + len(buf)]
            for c, out in zip(block, pivots):
                np.divide(c, q, out=out)
                np.subtract(negx, out, out=out)
                q = out
            count += np.count_nonzero(buf[: len(block)] < 0.0, axis=0)
    return count


def midgap_vectors(offdiag: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit sublattice vectors (a, b) of the midgap pair of open chains, one per row.

    `offdiag` holds the N-1 couplings of each zero-diagonal chain (N >= 4,
    even) and `levels` its `midgap_levels` row (or any levels that hold
    +/-s1 and +/-s2, the two smallest |E|); a chain whose s2 - s1 is at
    rounding level gets a warning, since its pair is then not isolated.  In
    sublattice order a chain is [[0, B], [B^T, 0]], B the lower-bidiagonal
    block with diagonal u_i and subdiagonal w, and its +/-s1 eigenvectors
    are (a, +/-b)/sqrt(2) for B's smallest singular pair, B b = s1 a.  Every
    vector in their span has its A part along a and its B part along b, so
    one shift-and-invert step near +s1, split by sublattice, gives both even
    when the pair is numerically degenerate.  The shift is floored at
    64*eps*bound (bound = Gershgorin), which bounds the inverse, so deep
    chains need no log-space scaling.  A row is accepted once
    ||H v - s1 v|| <= 1e-10*bound for v = (a, b)/sqrt(2); rows that miss
    take another step from their iterate.  Each row's arithmetic is
    independent of the other rows.
    """
    e = np.atleast_2d(np.asarray(offdiag, dtype=float))
    rows, size = e.shape[0], e.shape[1] + 1
    if size < 4 or size % 2:
        raise ValueError("midgap vectors need chains with an even number (>= 4) of sites")
    mags = np.sort(np.abs(levels), axis=1)
    s1 = mags[:, 0]
    ae = np.abs(e)
    bound = np.concatenate((ae[:, :1], ae[:, :-1] + ae[:, 1:], ae[:, -1:]), axis=1).max(axis=1)
    if np.any(mags[:, 2] - mags[:, 1] <= 1e-13 * np.maximum(bound, _EPS)):
        warnings.warn("midgap pair is degenerate with the next eigenvalue")
    shift = np.maximum(s1, 64.0 * _EPS * bound)
    start = np.random.Generator(np.random.Philox(key=[0x1D5EED, size])).standard_normal(size)
    x = np.tile(start, (rows, 1))
    a = np.empty((rows, size // 2))
    b = np.empty((rows, size // 2))
    act = np.arange(rows)
    for _ in range(4):
        ea = e[act]
        x = _shifted_solve(ea, shift[act], _EPS * bound[act], x)
        y = np.empty_like(x)
        y[:, 0::2] = _unit(x[:, 0::2])
        y[:, 1::2] = _unit(x[:, 1::2])
        resid = -s1[act, None] * y
        resid[:, :-1] += ea * y[:, 1:]
        resid[:, 1:] += ea * y[:, :-1]
        ok = np.sqrt(0.5 * np.sum(resid * resid, axis=1)) <= 1e-10 * bound[act]
        a[act[ok]], b[act[ok]] = y[ok, 0::2], y[ok, 1::2]
        act, x = act[~ok], y[~ok]
        if not len(act):
            return a, b
    raise ConvergenceError(f"midgap vectors of {len(act)} chains missed their residual")


def _shifted_solve(e, shift, pivmin, rhs):
    """(T - shift) x = rhs for zero-diagonal chains T, one per row, by unpivoted LDL^T.

    A pivot below pivmin = eps*bound in magnitude becomes -pivmin, a change
    of T within its rounding error.  (The Sturm clamp at 1e-292 is too
    small here: an exactly cancelled pivot then blows the iterate of a
    2000-dimer chain with w/u = 2 up past 1e290.)  Sites run along the
    first axis, so each step works on contiguous rows.
    """
    e, y = e.T.copy(), rhs.T.copy()
    q = np.empty_like(y)
    q[0] = -shift
    for i in range(1, len(y)):
        p = -shift - e[i - 1] * e[i - 1] / q[i - 1]
        q[i] = np.where(np.abs(p) < pivmin, -pivmin, p)
        e[i - 1] /= q[i - 1]  # now the multiplier of L
        y[i] -= e[i - 1] * y[i - 1]
    y /= q
    for i in range(len(y) - 2, -1, -1):
        y[i] -= e[i] * y[i + 1]
    return np.ascontiguousarray(y.T)


def _unit(x: np.ndarray) -> np.ndarray:
    """Rows of x scaled by their largest magnitude, then to unit length."""
    x = x / np.max(np.abs(x), axis=1, keepdims=True)
    return x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))


# ----------------------------------------------------------------------
# public operations


def eigenvalues_tridiagonal(m: ChainMatrix) -> SpectralResult:
    """Full spectrum of an open (tridiagonal) chain matrix."""
    if not m.is_tridiagonal:
        raise ValueError("matrix has a periodic corner entry; use eigenvalues_dense")
    return SpectralResult.from_eigenvalues(eigvals_sturm(np.zeros(m.size), m.offdiag))


def eigenvalues_dense(m: ChainMatrix | np.ndarray) -> SpectralResult:
    """Full spectrum of a dense symmetric matrix via Householder reduction."""
    dense = m.to_dense() if isinstance(m, ChainMatrix) else np.asarray(m, dtype=float)
    if dense.shape[0] != dense.shape[1] or not np.array_equal(dense, dense.T):
        raise ValueError("matrix must be symmetric")
    return SpectralResult.from_eigenvalues(eigvals_sturm(*householder_tridiagonalize(dense)))


def ring_levels(m: ChainMatrix) -> np.ndarray:
    """Levels N/2-2 .. N/2+1 of an even ring of N >= 4 sites: -s2, -s1, s1, s2.

    s1 <= s2 are the two smallest singular values of the sublattice block Q,
    read from the Golub-Kahan chain of its bidiagonal form
    (`_golub_kahan_chains`) by `midgap_levels`.  Neither the 2n x 2n matrix
    nor an inertia count through the ring corner is formed.
    """
    if m.is_tridiagonal or m.size % 2 or m.size < 4:
        raise ValueError("ring levels need a ring with an even number (>= 4) of sites")
    return midgap_levels(_golub_kahan_chains(m.offdiag[0::2], m.offdiag[1::2], m.corner))[0]


def _midgap_spectrum(m: ChainMatrix) -> SpectralResult:
    """The levels that carry the gap: the four central ones where a kernel gives them.

    Open chains and even rings of at least 4 sites bisect only their four
    central levels (for open chains each is bit-identical to the same entry
    of the full bisected spectrum); smaller chains and odd rings take the
    whole spectrum.
    """
    if m.size >= 4 and m.is_tridiagonal:
        return SpectralResult.from_eigenvalues(midgap_levels(m.offdiag)[0])
    if m.size >= 4 and m.size % 2 == 0:
        return SpectralResult.from_eigenvalues(ring_levels(m))
    return eigenvalues_tridiagonal(m) if m.is_tridiagonal else eigenvalues_dense(m)


def chain_gap(m: ChainMatrix) -> float:
    """Spectral gap 2*min|E| of an open chain or a ring."""
    return _midgap_spectrum(m).gap


def chain_gaps(chains) -> np.ndarray:
    """`chain_gap` of each chain in a list, from one `midgap_levels` call.

    Open chains bring their own couplings and even rings their Golub-Kahan
    chains, reduced _RING_CHUNK rings per kernel call to bound the buffers.
    Both kernels' rows are independent, so each gap is bit-identical to
    `chain_gap` of that chain alone.  Unless every chain has the same even
    size N >= 4, the chains take `chain_gap` one by one.
    """
    chains = list(chains)
    size = chains[0].size if chains else 0
    if size < 4 or size % 2 or any(m.size != size for m in chains):
        return np.array([chain_gap(m) for m in chains])
    couplings = np.array([m.offdiag for m in chains])
    rings = [k for k, m in enumerate(chains) if not m.is_tridiagonal]
    for start in range(0, len(rings), _RING_CHUNK):
        rows = rings[start : start + _RING_CHUNK]
        corners = [chains[k].corner for k in rows]
        couplings[rows] = _golub_kahan_chains(couplings[rows, 0::2], couplings[rows, 1::2], corners)
    return 2.0 * np.min(np.abs(midgap_levels(couplings)), axis=1)


def gap_resolution(m: ChainMatrix) -> float:
    """The smallest gap `chain_gap` resolves: 8*max(N, 8)*eps*||H||.

    ||H|| is taken as the Gershgorin bound.  Bisection stops at 1e-14 of
    that bound, about 64*eps*||H||, which no size goes below; a gap at or
    under this resolution cannot be told from zero.
    """
    return 8.0 * max(m.size, 8) * _EPS * m.norm_bound()


def midgap_pair(
    m: ChainMatrix, spectral: SpectralResult | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of the +/- eigenvalue pair closest to zero.

    Open chains with an even number (>= 4) of sites only.  Returns
    (v_minus, v_plus) with v_+/- = (a, +/-b)/sqrt(2) site by site, where
    (a, b) is the chain's `midgap_vectors` row, so v_plus belongs to +E_min.
    Without `spectral` the four central levels are bisected.
    """
    if not m.is_tridiagonal or m.size % 2 or m.size < 4:
        raise ValueError("midgap pair needs an open chain with an even number (>= 4) of sites")
    if spectral is None:
        spectral = _midgap_spectrum(m)
    a, b = midgap_vectors(m.offdiag, spectral.eigenvalues[None, :])
    v_plus = np.column_stack((a[0], b[0])).ravel() / math.sqrt(2.0)
    return v_plus * np.tile([1.0, -1.0], m.size // 2), v_plus


def eigenvector_near_zero(
    m: ChainMatrix, which: str, spectral: SpectralResult | None = None
) -> np.ndarray:
    """Unit eigenvector of the eigenvalue +E_min ("plus") or -E_min ("minus")."""
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    v_minus, v_plus = midgap_pair(m, spectral)
    return v_plus if which == "plus" else v_minus
