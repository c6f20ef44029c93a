"""Eigensolvers for the chain matrices.

Self-contained kernels, no external linear-algebra backends.  One batched
Sturm-bisection kernel, `_bisect_levels`, gives any levels of a stack of
symmetric tridiagonal chains: all of one chain (`eigvals_sturm`), the
four central ones of open chains (`midgap_levels`) or the two a gap needs
(`chain_gaps`), each in 48 halvings, with one IEEE Sturm counter on rows
scaled by a power of two (`_row_scale`, shared by every kernel on coupling
rows); non-finite couplings raise ValueError.  A batched shift-and-invert
kernel gives the open-chain midgap pair, and Householder reduction takes
dense symmetric matrices to tridiagonal form.

An even ring is bipartite, H = [[0, Q], [Q^T, 0]] in sublattice order, so
its levels are the singular values +/-sigma of the n x n block Q.  Rings
reach their gap through a batched Householder bidiagonalization of Q that
updates only the window where fill-in lives; its Golub-Kahan tridiagonal
is a zero-diagonal open chain with the same levels, whose central pair
is bisected.  `chain_gaps` takes the gaps of a block of open chains or even
rings given as coupling arrays; `chain_gap(m)` is its one-row call for a
single matrix, and the only route to the whole spectrum for the chains it
rejects (under 4 sites, odd rings).  `gap_resolution` is the smallest gap
they resolve.  An open chain is bipartite too, with a lower-bidiagonal
block B, and its midgap pair (a, +/-b)/sqrt(2) comes from B's smallest
singular pair (a, b).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ChainMatrix, gershgorin_radii

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
]

_EPS = np.finfo(float).eps
# rings per `_golub_kahan_chains` call in `chain_gaps`; rows are independent,
# so the chunk bounds the buffers without changing any result
_RING_CHUNK = 8
_HALVINGS = 48  # bisection steps per level; see `_bisect_levels`


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


def _row_scale(*parts: np.ndarray) -> np.ndarray:
    """Per row, the power of two that brings the largest |entry| of `parts` into [1/2, 1).

    Each part is (R, k); the result is (R, 1), 1 for an all-zero row.  A
    division by it is exact unless the quotient is subnormal, so rows times
    2^k give 2^k times the kernels' bits.
    """
    big = np.max([np.abs(p).max(axis=1) for p in parts], axis=0)
    return np.ldexp(1.0, np.frexp(big)[1])[:, None]


def _finite(name: str, *arrays) -> None:
    """Raise ValueError("<name> must be finite") if any of `arrays` holds a NaN or infinity."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{name} must be finite")


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

    Each ring is divided by its `_row_scale`, so no norm under- or
    overflows; a column or row whose norm is still zero skips its
    reflector.  Each ring's arithmetic is independent of the other rows.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    corner = np.atleast_1d(np.asarray(corner, dtype=float))
    rings, n = u.shape
    scale = _row_scale(u, w, corner[:, None])
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


def eigvals_sturm(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of tridiag(d, e), sorted: one `_bisect_levels` row, every level."""
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    _finite("d and e", d, e)
    if len(d) == 1:
        return d.copy()
    return _bisect_levels(e[None, :], np.arange(len(d)), d[None, :])[0]


def midgap_levels(offdiag: np.ndarray) -> np.ndarray:
    """Eigenvalues N/2-2 .. N/2+1 of zero-diagonal open chains, one per row.

    `offdiag` holds the N-1 couplings of each chain (N >= 4).  Every level
    takes the same 48 halvings in `_bisect_levels`, so each value is
    bit-identical to the same entry of `eigvals_sturm` on that chain.
    """
    e = np.atleast_2d(np.asarray(offdiag, dtype=float))
    if e.shape[1] < 3:
        raise ValueError("chains need at least 4 sites")
    _finite("couplings", e)
    half = (e.shape[1] + 1) // 2
    return _bisect_levels(e, np.arange(half - 2, half + 2))


def _bisect_levels(e: np.ndarray, which: np.ndarray, d: np.ndarray | None = None) -> np.ndarray:
    """Sorted eigenvalues `which` (0-based) of tridiag(d[r], e[r]), one chain per row r.

    d is None for zero diagonals.  Each row is divided by its `_row_scale`
    and its levels are multiplied back, so no squared coupling over- or
    underflows for scale alone, and a row times 2^k gives 2^k times the
    same bits.  A square that is still zero is floored at the smallest
    subnormal, which moves a level by about 1e-162 of the scaled bound at
    most; with no zero square the IEEE negative-pivot count of
    `_sturm_count` is exact (Demmel, Dhillon & Ren, ETNA 3, 1995), so every
    row takes that one counter.  Every level halves the Gershgorin interval
    [-bound, bound], bound = max_i |d_i| + |e_{i-1}| + |e_i|, at
    0.5*(lo + hi) 48 times, then is its interval's midpoint: a scaled row's
    bound is 0 (levels 0.5*(-0.0 + 0.0) = +0.0) or in [1/2, 3), where the
    intervals, 2*bound*2^-k up to rounding under 2^-51*bound, first fall
    under 1e-14*bound at k = 48 for every level.  One Sturm pass counts
    every midpoint of a bisection subtree, then the path is walked level by
    level, so the passes over the sites drop by the subtree depth, which
    keeps a pass near 1000 shifts (up to 6 for few rows x targets).  Each
    row's arithmetic is independent of the other rows and of the depth.
    """
    scale = _row_scale(e) if d is None else _row_scale(e, d)
    e = e / scale
    radius = gershgorin_radii(e)
    if d is not None:
        d = d / scale + 0.0  # -0.0 + 0.0 is +0.0: a signed zero would flip pivot signs
        radius = np.abs(d) + radius
    targets = np.asarray(which) + 1
    if not len(e):  # the subtree reshapes cannot size an empty block
        return np.empty((0, len(targets)))
    hi = np.repeat(radius.max(axis=1, keepdims=True), len(targets), axis=1)
    lo = -hi
    e2 = np.maximum(e * e, np.nextafter(0.0, 1.0))
    depth = max(1, min(6, round(math.log2(1024 / max(1, len(e) * len(targets)) + 1))))
    for start in range(0, _HALVINGS, depth):
        levels = min(depth, _HALVINGS - start)
        mids = _subtree_midpoints(lo, hi, levels)
        counts = _sturm_count(e2, mids.reshape(len(e), -1), d).reshape(mids.shape)
        node = np.zeros(lo.shape, dtype=np.intp)
        for level in range(levels):
            pos = (node + (1 << level) - 1)[..., None]
            mid = np.take_along_axis(mids, pos, -1)[..., 0]
            below = np.take_along_axis(counts, pos, -1)[..., 0] >= targets
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
            node = 2 * node + ~below
    return 0.5 * (lo + hi) * scale


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


def _sturm_count(e2: np.ndarray, xs: np.ndarray, d: np.ndarray | None) -> np.ndarray:
    """Eigenvalues of tridiag(d, e) below each shift: e2 (R, N-1), xs (R, S), d (R, N) or None.

    The negative-pivot count of the shifted LDL^T recurrence; zero and
    infinite pivots propagate through IEEE arithmetic while no e2 entry is
    zero, as `_bisect_levels` ensures.  The update is (d_i - e2/q) - x, or
    (0 - x) - e2/q for a zero diagonal, which equals (0 - e2/q) - x bit for
    bit, signed zeros included.  Pivots are kept for 32 sites, their signs
    counted in one call.  One chain's per-site operands are 0-d views, which
    broadcast over the shifts at less cost per call than a column.
    """

    def per_site(a):
        return [a[0, i, ...] for i in range(a.shape[1])] if len(a) == 1 else list(a.T[:, :, None])

    sites = per_site(e2)
    if d is None:
        q = negx = 0.0 - xs
    else:
        q = d[:, :1] - xs
        diag = per_site(d[:, 1:])
    count = (q < 0.0).astype(np.int64)
    buf = np.empty((min(32, len(sites)),) + xs.shape)
    pivots = list(buf)
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, len(sites), len(buf)):
            block = sites[start : start + len(buf)]
            if d is None:
                for c, out in zip(block, pivots):
                    np.divide(c, q, out=out)
                    np.subtract(negx, out, out=out)
                    q = out
            else:
                for c, di, out in zip(block, diag[start:], pivots):
                    np.divide(c, q, out=out)
                    np.subtract(di, out, out=out)
                    np.subtract(out, xs, out=out)
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
    chains need no log-space scaling.  Each row and its levels are first
    divided by the row's `_row_scale`, so no square under- or overflows
    and the vectors do not depend on the chain's scale.  A row is accepted
    once ||H v - s1 v|| <= 1e-10*bound for v = (a, b)/sqrt(2); rows that
    miss take another step from their iterate.  Each row's arithmetic is
    independent of the other rows.
    """
    e = np.atleast_2d(np.asarray(offdiag, dtype=float))
    rows, size = e.shape[0], e.shape[1] + 1
    if size < 4 or size % 2:
        raise ValueError("midgap vectors need chains with an even number (>= 4) of sites")
    _finite("couplings and levels", e, levels)
    scale = _row_scale(e)
    e = e / scale
    mags = np.sort(np.abs(levels / scale), axis=1)
    s1 = mags[:, 0]
    bound = gershgorin_radii(e).max(axis=1)
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
    of T within its rounding error.  (A floor near underflow such as 1e-292
    is too small: an exactly cancelled pivot then blows the iterate of a
    2000-dimer chain with w/u = 2 up past 1e290.)  Sites run along the first
    axis, so each step works on contiguous rows.
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


def chain_gap(m: ChainMatrix) -> float:
    """Spectral gap 2*min|E| of one open chain or ring.

    Chains under 4 sites and odd rings take the whole spectrum; every other
    chain is a one-row `chain_gaps` call.
    """
    if m.size < 4 or (m.size % 2 and not m.is_tridiagonal):
        full = eigenvalues_tridiagonal if m.is_tridiagonal else eigenvalues_dense
        return full(m).gap
    return chain_gaps(m.offdiag[None, :], m.corner)[0]


def chain_gaps(offdiag: np.ndarray, corner=None) -> np.ndarray:
    """Spectral gaps 2*min|E| of a block of chains of N >= 4 sites, one per row.

    `offdiag` (B, N-1) holds each chain's nearest-neighbour bonds.  With
    `corner` None the chains are open; otherwise they are even rings closed
    by `corner`, a scalar or one value per row.  One `_bisect_levels` call
    bisects levels N/2-1 and N/2 of every row (and N/2+1 for odd N): an
    open chain's own, or a ring's Golub-Kahan chain, reduced _RING_CHUNK
    rings per call to bound the buffers.  The levels are those of
    `midgap_levels` that can be the smallest in magnitude (the lower ones
    end at or below 0, the upper at or above), so the gap is 2*min|E| of
    its four, and of the full spectrum, bit for bit.  Level N/2 alone would
    not do: a zero-diagonal chain's Sturm pivots at -x are the negatives of
    those at x, except that one cancelling to zero is +0.0 at both, so the
    bisection of level N/2 need not mirror that of N/2-1.  Rows are
    independent, so each gap is bit-identical to `chain_gap` of that chain
    alone.
    """
    couplings = np.array(offdiag, dtype=float, ndmin=2)
    size = couplings.shape[1] + 1
    if size < 4:
        raise ValueError("chains need at least 4 sites")
    _finite("couplings", couplings, 0.0 if corner is None else corner)
    if corner is not None:
        if size % 2:
            raise ValueError("odd rings have no Golub-Kahan chain; take chain_gap of each")
        corner = np.broadcast_to(np.asarray(corner, dtype=float), len(couplings))
        for start in range(0, len(couplings), _RING_CHUNK):
            rows = slice(start, start + _RING_CHUNK)
            couplings[rows] = _golub_kahan_chains(
                couplings[rows, 0::2], couplings[rows, 1::2], corner[rows]
            )
    half = size // 2
    levels = _bisect_levels(couplings, np.arange(half - 1, half + 1 + size % 2))
    return 2.0 * np.min(np.abs(levels), axis=1)


def gap_resolution(m: ChainMatrix) -> float:
    """The smallest gap `chain_gap` resolves: 8*max(N, 8)*eps*||H||.

    ||H|| is taken as the Gershgorin bound.  Bisection's 48 halvings leave
    intervals of 7.1e-15 of that bound, 32*eps*||H||, which no size goes
    below; a gap at or under this resolution cannot be told from zero.
    """
    return 8.0 * max(m.size, 8) * _EPS * m.norm_bound()


def midgap_pair(m: ChainMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of the +/- eigenvalue pair closest to zero.

    Open chains with an even number (>= 4) of sites only.  Returns
    (v_minus, v_plus) with v_+/- = (a, +/-b)/sqrt(2) site by site, where
    (a, b) is the chain's `midgap_vectors` row for its `midgap_levels`, so
    v_plus belongs to +E_min.
    """
    if not m.is_tridiagonal or m.size % 2 or m.size < 4:
        raise ValueError("midgap pair needs an open chain with an even number (>= 4) of sites")
    a, b = midgap_vectors(m.offdiag, midgap_levels(m.offdiag))
    v_plus = np.column_stack((a[0], b[0])).ravel() / math.sqrt(2.0)
    return v_plus * np.tile([1.0, -1.0], m.size // 2), v_plus


def eigenvector_near_zero(m: ChainMatrix, which: str) -> np.ndarray:
    """Unit eigenvector of the eigenvalue +E_min ("plus") or -E_min ("minus")."""
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    v_minus, v_plus = midgap_pair(m)
    return v_plus if which == "plus" else v_minus
