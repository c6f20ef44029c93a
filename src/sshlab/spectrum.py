"""Eigensolvers for the chain matrices.

Every chain kernel is numpy array code written here; the ring reduction
batches its products through `np.matmul` (BLAS), and dense matrices go to
`np.linalg.eigvalsh` (numpy's own LAPACK).  One batched Sturm-bisection
kernel, `_bisect_levels`, gives any levels of a stack of zero-diagonal
(chiral) tridiagonal chains, each on adjacent doubles after 64 halvings on
their ordinals, with one IEEE Sturm counter (`_sturm_count`, one
contiguous ufunc call per site and step) on rows scaled by a power of two
(`_row_scale`, shared by every kernel on coupling rows); non-finite
couplings raise ValueError.  A chiral chain's levels are exactly +/-sigma,
so `_chiral_levels` bisects only levels at or above N/2 and mirrors the
rest, and its count has the couplings' relative accuracy (Demmel & Kahan
1990): open-chain gaps do too, however small.  A batched shift-and-invert
kernel gives the open-chain midgap pair, at the one level N/2 it bisects.

An even ring is bipartite, H = [[0, Q], [Q^T, 0]] in sublattice order, so
its levels are the singular values +/-sigma of the n x n block Q.  A
batched Householder bidiagonalization of Q, which works only on the window
where fill-in lives and holds each step's rank-2 update in a panel that is
flushed into the window every _PANEL steps, gives its Golub-Kahan chain, a
zero-diagonal open chain with the ring's levels up to about eps*||Q||
(`gap_resolution`).
`chain_gaps` takes the gaps of a block of open chains or even rings;
`chain_gap(m)` is its one-row call, and the whole spectrum for the chains
it rejects (`eigenvalues_dense` for odd rings).
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
# steps whose updates `_golub_kahan_chains` holds in its panel between flushes
_PANEL = 8


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


def _golub_kahan_chains(u: np.ndarray, w: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """Couplings [d0, e0, d1, ..., d_{n-1}] of even rings' Golub-Kahan chains, one per row.

    Ring b has intra-dimer bonds u[b], inter-dimer bonds w[b] and corner
    bond corner[b]: its sublattice block Q (rows A sites) has Q[i, i] = u_i,
    Q[i+1, i] = w_i and Q[0, n-1] = corner.  bidiag(d, e) is Q's Golub-Kahan
    form up to signs, so the zero-diagonal chain (d, e) has the ring's
    levels, up to the reduction's rounding of about eps*||Q||.

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

    A step's two reflections change the rest of its window by a rank-2
    product, which is not applied at once (the delayed update of LAPACK's
    dlabrd; Dongarra, Hammarling & Sorensen, J. Comput. Appl. Math. 27,
    1989).  Its two factors join a per-ring panel L R, in buffer
    coordinates, and the window is the buffer minus L R.  Every _PANEL
    steps one batched product subtracts L R from the window and the panel
    is emptied.  After each other step, the pending part of the head's two
    rows and one column (those that move, or the next step's row and
    column) is subtracted and their panel entries zeroed, so every step
    finds its own column and row up to date, and the last step leaves
    d_{n-1} so.

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
    # panel slot j holds a step's (vt, q) as columns 2j, 2j+1 of L = left and
    # its (p, z) as rows 2j, 2j+1 of R = right; a flush's product goes to room
    left, right = np.zeros((rings, m, 2 * _PANEL)), np.zeros((rings, 2 * _PANEL, m))
    room = np.empty(rings * (m - 1) ** 2)
    for k in range(n - 1):
        h = m - n + k if k >= ks else m - 5 - slack - k
        slot = k % _PANEL
        steps.append(_golub_kahan_step(buf, h, left, right, slot))
        lp, rp = left[:, h + 1 :, : 2 * slot + 2], right[:, : 2 * slot + 2, h + 1 :]
        if slot == _PANEL - 1:
            trail = buf[:, h + 1 :, h + 1 :]
            prod = room[: trail.size].reshape(trail.shape)
            np.matmul(lp, rp, out=prod)
            np.subtract(trail, prod, out=trail)
            left.fill(0.0)
            right.fill(0.0)
        else:
            buf[:, h + 1 : h + 3, h + 1 :] -= np.matmul(lp[:, :2], rp)
            buf[:, h + 3 :, h + 1] -= np.matmul(lp[:, 2:], rp[:, :, :1])[:, :, 0]
            lp[:, :2] = 0.0
            rp[:, :, 0] = 0.0
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


def _golub_kahan_step(
    buf: np.ndarray, h: int, left: np.ndarray, right: np.ndarray, slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """One batched Golub-Kahan step on the square windows buf[:, h:, h:] less the pending panel.

    Panel slots before `slot` are pending: the window is the buffer minus
    L R, L = left[:, h:, :2*slot] and R = right[:, :2*slot, h:], whose
    first column and row must be zero.  Returns the signed norms (alpha,
    beta) of the window's first column and of its first row after the left
    reflection: the step's d and e up to sign.  The update of the rest of
    the window, vt p^T + q z^T, goes into panel slot `slot`, which must be
    zero.  A 2 x 2 window has no row to reflect: beta is then the row's one
    entry, and q and z stay zero.
    """
    s, j = buf.shape[1] - h, 2 * slot
    win = buf[:, h:, h:]
    x, rest, trail = win[:, :, 0], win[:, :, 1:], win[:, 1:, 1:]
    vt, q = left[:, h + 1 :, j], left[:, h + 1 :, j + 1]
    p, z = right[:, j, h + 1 :], right[:, j + 1, h + 1 :]
    # the reflector I - tau v v^T (v = (1, vt)) sends x to -alpha e0; its
    # first row is -x^T / alpha, so y = (x^T rest) / alpha is minus the
    # reflected row, and the rest of the window loses vt p^T
    xt = x[:, None, :]
    xwin = np.matmul(xt, win)[:, 0]  # (x^T x, x^T rest)
    alpha = np.copysign(np.sqrt(xwin[:, 0]), x[:, 0])
    y = xwin[:, 1:]
    if j:
        y -= np.matmul(np.matmul(xt, left[:, h:, :j]), right[:, :j, h + 1 :])[:, 0]
    if np.count_nonzero(alpha) == len(alpha):
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
        return alpha, y[:, 0]
    # the same on the reflected row from the right, with z = (1, ...) and
    # (trail - vt p^T)(I - tau z z^T) = trail - vt p^T - q z^T
    beta = np.copysign(np.sqrt(np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0]), y[:, 0])
    z0 = y[:, 0] + beta
    if np.count_nonzero(beta) == len(beta):
        tau = z0 / beta
        np.divide(y, z0[:, None], out=z)
    else:
        live = beta != 0.0
        tau = np.where(live, z0, 0.0) / np.where(live, beta, 1.0)
        np.divide(y, np.where(live, z0, 1.0)[:, None], out=z)
    z[:, 0] = 1.0
    # q = tau (trail - L R - vt p^T) z, vt and p being the slot's first halves
    lp, rp = left[:, h + 1 :, : j + 1], right[:, : j + 1, h + 1 :]
    np.matmul(trail, z[:, :, None], out=q[:, :, None])
    q -= np.matmul(lp, np.matmul(rp, z[:, :, None]))[:, :, 0]
    q *= tau[:, None]
    return alpha, beta


def midgap_levels(offdiag: np.ndarray) -> np.ndarray:
    """Eigenvalues N/2-2 .. N/2+1 of zero-diagonal open chains, one per row.

    `offdiag` holds the N-1 couplings of each chain (N >= 4).  Levels N/2
    and N/2+1 are bisected and mirrored (`_chiral_levels`; odd N takes 3),
    bit-identical to the same entries of `eigenvalues_tridiagonal`.
    """
    e = np.atleast_2d(np.asarray(offdiag, dtype=float))
    if e.shape[1] < 3:
        raise ValueError("chains need at least 4 sites")
    _finite("couplings", e)
    half = (e.shape[1] + 1) // 2
    return _chiral_levels(e, np.arange(half - 2, half + 2))


def _chiral_levels(e: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues `which` of zero-diagonal chains tridiag(0, e[r]), one chain per row r.

    The spectrum is exactly +/-sigma: levels at or above N/2 are bisected,
    and a level k below is 0.0 - x of level N-1-k.  An even chain with a
    zero bond e[r, 2j] has det = +/-prod e[r, 2j]^2 = 0, so its level N/2
    is +0.0 (and its mirror 0.0).
    """
    upper = np.maximum(which, e.shape[1] - which)
    own, back = np.unique(upper, return_inverse=True)
    levels = _bisect_levels(e, own)
    if e.shape[1] % 2:
        cut = (e[:, 0::2] == 0.0).any(axis=1)
        np.copyto(levels, 0.0, where=cut[:, None] & (own == e.shape[1] // 2 + 1))
    levels = levels[:, back]
    return np.where(which < upper, 0.0 - levels, levels)


def _flip(i: np.ndarray) -> np.ndarray:
    """int64 bits of doubles to ordinals that order as the doubles do (-0.0 at -1), and back."""
    return i ^ ((i >> 63) & 0x7FFF_FFFF_FFFF_FFFF)


def _bisect_levels(e: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues `which` (0-based) of zero-diagonal chains tridiag(0, e[r]), one per row r.

    Each row is divided by its `_row_scale` and its levels multiplied back,
    so a row times 2^k gives 2^k times the same bits.  A square still zero
    is floored at the smallest subnormal (a bond under about 2^-537 of the
    row's largest counts as that large), so the IEEE count of `_sturm_count`
    is exact (Demmel, Dhillon & Ren, ETNA 3, 1995); an all-zero row gives
    +0.0.  Each level is halved 64 times on the ordinals of the doubles
    (`_flip`) from the whole finite range, and level k is then lo, the
    largest double whose count is at most k.  The count has the couplings'
    relative accuracy while the pivots, about x and e^2/x, stay normal, so
    the levels do down to about 2^-1022 of the row's scale (Demmel & Kahan
    1990).  One Sturm pass counts every midpoint of a bisection subtree (up
    to 6 levels deep, near 1000 shifts), then the path is walked level by
    level.  A subtree is kept as the 2^depth + 1 bounds of its leaves, in
    order, in one array per call, so node j of level l splits at bound
    (2j + 1) * 2^(depth - l - 1) and the walk moves by index.  Each row is
    independent of the other rows and of the depth.  `tests/oracles.py`
    keeps the general-diagonal count and bisection that give the same bits.
    """
    scale = _row_scale(e)
    e = e / scale
    live = (e != 0.0).any(axis=1)
    targets = np.asarray(which) + 1
    if not len(e):  # the subtree reshapes cannot size an empty block
        return np.empty((0, len(targets)))
    e2 = e * e
    np.maximum(e2, np.nextafter(0.0, 1.0), out=e2)
    depth = max(1, min(6, round(math.log2(1024 / max(1, len(e) * len(targets)) + 1))))
    # one subtree per (row, level), kept as the bounds of its leaves
    tree = np.empty((len(e) * len(targets), (1 << depth) + 1), dtype=np.int64)
    ids, goal = np.arange(len(tree)), np.tile(targets, len(e))
    # -max and +max are 2^64 - 2^53 ordinals apart: 64 halvings take them to adjacent ones
    lo, hi = _flip(np.array([-np.finfo(float).max, np.finfo(float).max]).view(np.int64))
    work = _sturm_work(e2.shape[1], len(tree) << depth)
    for start in range(0, 64, depth):
        span = 1 << min(depth, 64 - start)
        bounds = tree[:, : span + 1]
        bounds[:, 0], bounds[:, span] = lo, hi
        step = span
        while step > 1:  # each midpoint is its interval's floored mean, which cannot overflow
            left, right = bounds[:, 0:span:step], bounds[:, step::step]
            mid = bounds[:, step // 2 :: step]
            np.add(left >> 1, right >> 1, out=mid)
            mid += left & right & 1
            step //= 2
        shifts = _flip(bounds[:, 1:span]).view(float).reshape(len(e), -1)
        counts = _sturm_count(e2, shifts, work).reshape(-1)
        # walk down from the root; bound b of subtree i has its count at i*(span-1) + b-1
        at = ids * (span - 1) + (span // 2 - 1)
        below = counts[at] >= goal
        step = span // 2
        while step > 1:
            step //= 2
            at += np.where(below, -step, step)
            below = counts[at] >= goal
        leaf = at - ids * (span - 1) + 1 - below  # the leaf's lower bound
        lo, hi = bounds[ids, leaf], bounds[ids, leaf + 1]
    levels = _flip(lo).view(float).reshape(len(e), -1)
    return np.where(live[:, None], levels * scale, 0.0)


def _sturm_work(sites: int, shifts: int) -> tuple[np.ndarray, np.ndarray]:
    """`_sturm_count` scratch for `shifts` shifts: pivot and bool rows for up to 32 sites."""
    rows = min(32, sites)
    return np.empty((rows + 1) * shifts), np.empty(rows * shifts, dtype=bool)


def _sturm_count(e2: np.ndarray, xs: np.ndarray, work=None) -> np.ndarray:
    """Eigenvalues of zero-diagonal chains tridiag(0, e) below each shift: e2 (R, N-1), xs (R, S).

    The negative-pivot count of the shifted LDL^T recurrence; zero and
    infinite pivots propagate through IEEE arithmetic while no e2 entry is
    zero, as `_bisect_levels` ensures.  The one update is (0 - x) - e2/q,
    which equals the general (d_i - e2/q) - x at d_i = 0 bit for bit,
    signed zeros included.  Every step is one call on flat rows of R*S
    pivots: the squares of up to 32 sites at a time are broadcast into
    contiguous rows of `work` (`_sturm_work`, allocated when None), and the
    pivots overwrite them; one chain's squares are 0-d views, which need no
    copy.  Each chunk's negative pivots are summed as uint8 (at most 32)
    into the int64 count.
    """
    rows, sites = e2.shape
    x = xs.reshape(-1)
    pivot_rows, bool_rows = _sturm_work(sites, x.size) if work is None else work
    chunk = min(32, sites)
    pivots = pivot_rows[: (chunk + 1) * x.size].reshape(chunk + 1, x.size)
    carry, negative = pivots[0], bool_rows[: chunk * x.size].reshape(chunk, x.size)
    def per_site(a, start, stop, out):
        if rows == 1:
            return [a[0, i, ...] for i in range(start, stop)]
        np.copyto(out.reshape(stop - start, rows, -1), a[:, start:stop].T[:, :, None])
        return out

    q = negx = 0.0 - x
    count = (q < 0.0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, sites, chunk):
            stop = min(start + chunk, sites)
            outs = pivots[1 : stop - start + 1]
            squares = per_site(e2, start, stop, outs)
            for c, out in zip(squares, outs):
                np.divide(c, q, out=out)
                np.subtract(negx, out, out=out)
                q = out
            np.less(outs, 0.0, out=negative[: stop - start])
            count += np.add.reduce(negative[: stop - start], axis=0, dtype=np.uint8)
            np.copyto(carry, q)  # the next chunk's operands overwrite q's row
            q = carry
    return count.reshape(xs.shape)


def midgap_vectors(offdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit sublattice vectors (a, b) of the midgap pair of open chains, one per row.

    `offdiag` holds the N-1 couplings of each zero-diagonal chain (N >= 4,
    even).  In sublattice order a chain is [[0, B], [B^T, 0]], B the
    lower-bidiagonal block with diagonal u_i and subdiagonal w, and its
    +/-s1 eigenvectors are (a, +/-b)/sqrt(2) for B's smallest singular
    pair, B b = s1 a.  s1 is level N/2, bisected alone (`_chiral_levels`),
    so its bits are those of `midgap_levels`.  Every vector in the pair's
    span has its A part along a and its B part along b, so one
    shift-and-invert step near +s1, split by sublattice, gives both even
    when the pair is numerically degenerate.  A chain gets a warning when
    one Sturm count finds its level N/2+1 below s1 + 1e-13*bound (bound =
    Gershgorin), since its pair is then not isolated.  The shift is floored
    at 64*eps*bound, which bounds the inverse, so deep chains need no
    log-space scaling.  Each row and its s1 are first divided by the row's
    `_row_scale`, so no square under- or overflows and the vectors do not
    depend on the chain's scale.  A row is accepted once
    ||H v - s1 v|| <= 1e-10*bound for v = (a, b)/sqrt(2); rows that miss
    take another step from their iterate.  Each row's arithmetic is
    independent of the other rows.
    """
    e = np.atleast_2d(np.asarray(offdiag, dtype=float))
    rows, size = e.shape[0], e.shape[1] + 1
    if size < 4 or size % 2:
        raise ValueError("midgap vectors need chains with an even number (>= 4) of sites")
    _finite("couplings", e)
    s1 = _chiral_levels(e, np.array([size // 2]))[:, 0]
    scale = _row_scale(e)
    e = e / scale
    s1 = np.abs(s1 / scale[:, 0])
    bound = gershgorin_radii(e).max(axis=1)
    near = (s1 + 1e-13 * np.maximum(bound, _EPS))[:, None]
    if np.any(_sturm_count(np.maximum(e * e, np.nextafter(0.0, 1.0)), near) >= size // 2 + 2):
        warnings.warn("midgap pair is degenerate with the next eigenvalue")
    shift = np.maximum(s1, 64.0 * _EPS * bound)
    start = np.random.Generator(np.random.Philox(key=[0x1D5EED, size])).standard_normal(size)
    x = np.tile(start, (rows, 1))
    a = np.empty((rows, size // 2))
    b = np.empty((rows, size // 2))
    act = np.arange(rows)
    work = np.empty((rows, size))  # the solve's multipliers, then the residual
    for _ in range(4):
        ea = e if len(act) == rows else e[act]
        resid = work[: len(act)]
        _shifted_solve(ea, shift[act], _EPS * bound[act], x, resid[:, :-1])
        _unit(x[:, 0::2])
        _unit(x[:, 1::2])
        np.multiply(-s1[act, None], x, out=resid)
        resid[:, :-1] += ea * x[:, 1:]
        resid[:, 1:] += ea * x[:, :-1]
        resid *= resid
        ok = np.sqrt(0.5 * np.sum(resid, axis=1)) <= 1e-10 * bound[act]
        a[act[ok]], b[act[ok]] = x[ok, 0::2], x[ok, 1::2]
        act, x = act[~ok], x[~ok]
        if not len(act):
            return a, b
    raise ConvergenceError(f"midgap vectors of {len(act)} chains missed their residual")


def _shifted_solve(e, shift, pivmin, y, mult):
    """(T - shift) x = y for zero-diagonal chains T, one per row, by unpivoted LDL^T, in place.

    A pivot below pivmin = eps*bound in magnitude becomes -pivmin, a change
    of T within its rounding error.  (A floor near underflow such as 1e-292
    is too small: an exactly cancelled pivot then blows the iterate of a
    2000-dimer chain with w/u = 2 up past 1e290.)  L's multipliers go to
    `mult`, shaped as e; each site's values are divided by their pivot once
    the next site no longer needs them, so no pivot is stored.
    """
    nshift, npiv = -shift, -pivmin
    q = nshift
    for i in range(1, y.shape[1]):
        c = e[:, i - 1]
        p = c * c
        p /= q
        np.subtract(nshift, p, out=p)
        np.divide(c, q, out=mult[:, i - 1])
        y[:, i] -= mult[:, i - 1] * y[:, i - 1]
        y[:, i - 1] /= q
        q = np.where(np.abs(p) < pivmin, npiv, p)
    y[:, -1] /= q
    for i in range(y.shape[1] - 2, -1, -1):
        y[:, i] -= mult[:, i] * y[:, i + 1]


def _unit(x: np.ndarray) -> None:
    """Rows of x scaled by their largest magnitude, then to unit length, in place."""
    x /= np.max(np.abs(x), axis=1, keepdims=True)
    x /= np.sqrt(np.sum(x * x, axis=1, keepdims=True))


# ----------------------------------------------------------------------
# public operations


def eigenvalues_tridiagonal(m: ChainMatrix) -> SpectralResult:
    """Full spectrum of an open (tridiagonal) chain matrix."""
    if not m.is_tridiagonal:
        raise ValueError("matrix has a periodic corner entry; use eigenvalues_dense")
    _finite("couplings", m.offdiag)
    levels = _chiral_levels(m.offdiag[None, :], np.arange(m.size))[0] if m.size > 1 else np.zeros(1)
    return SpectralResult.from_eigenvalues(levels)


def eigenvalues_dense(m: ChainMatrix | np.ndarray) -> SpectralResult:
    """Full spectrum of a dense symmetric matrix, from numpy's LAPACK (`np.linalg.eigvalsh`).

    A NaN or infinite entry raises ValueError("matrix must be finite") before
    the symmetry check, which NaN != NaN would fail, and before LAPACK,
    which would return NaN levels.
    """
    dense = m.to_dense() if isinstance(m, ChainMatrix) else np.asarray(m, dtype=float)
    _finite("matrix", dense)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or not np.array_equal(dense, dense.T):
        raise ValueError("matrix must be symmetric")
    return SpectralResult.from_eigenvalues(np.linalg.eigvalsh(dense))


def chain_gap(m: ChainMatrix) -> float:
    """Spectral gap 2*min|E| of one open chain or ring.

    Chains under 4 sites and odd rings take the whole spectrum, open chains
    from `eigenvalues_tridiagonal` and rings from `eigenvalues_dense`
    (LAPACK); every other chain is a one-row `chain_gaps` call.
    """
    if m.size < 4 or (m.size % 2 and not m.is_tridiagonal):
        full = eigenvalues_tridiagonal if m.is_tridiagonal else eigenvalues_dense
        return full(m).gap
    return chain_gaps(m.offdiag[None, :], m.corner)[0]


def chain_gaps(offdiag: np.ndarray, corner=None) -> np.ndarray:
    """Spectral gaps 2*min|E| of a block of chains of N >= 4 sites, one per row.

    `offdiag` (B, N-1) holds each chain's bonds.  With `corner` None the
    chains are open; else they are even rings closed by `corner` (scalar or
    per row), taken to their Golub-Kahan chains _RING_CHUNK rings at a time.
    One `_chiral_levels` call bisects level N//2, the smallest |E| of a
    zero-diagonal chain (+0.0 for an even chain cut by a zero intra-cell
    bond), so each gap is bit-identical to that of
    `midgap_levels`, `eigenvalues_tridiagonal` and `chain_gap` of the chain
    alone.  Open-chain gaps have the couplings' relative accuracy; ring gaps
    are good to `gap_resolution`.
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
    return 2.0 * _chiral_levels(couplings, np.array([size // 2]))[:, 0]


def gap_resolution(m: ChainMatrix) -> float:
    """The smallest ring gap `chain_gap` resolves, 8*max(N, 8)*eps*||H|| (||H|| Gershgorin's):
    a ring's reduction (Golub-Kahan, or LAPACK's for odd rings) moves its levels by some eps*||Q||."""
    return 8.0 * max(m.size, 8) * _EPS * m.norm_bound()


def midgap_pair(m: ChainMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of the +/- eigenvalue pair closest to zero.

    Open chains with an even number (>= 4) of sites only.  Returns
    (v_minus, v_plus) with v_+/- = (a, +/-b)/sqrt(2) site by site, where
    (a, b) is the chain's one-row `midgap_vectors` call (which bisects
    E_min, level N/2, itself), so v_plus belongs to +E_min.
    """
    if not m.is_tridiagonal or m.size % 2 or m.size < 4:
        raise ValueError("midgap pair needs an open chain with an even number (>= 4) of sites")
    a, b = midgap_vectors(m.offdiag)
    v_plus = np.column_stack((a[0], b[0])).ravel() / math.sqrt(2.0)
    return v_plus * np.tile([1.0, -1.0], m.size // 2), v_plus


def eigenvector_near_zero(m: ChainMatrix, which: str) -> np.ndarray:
    """Unit eigenvector of the eigenvalue +E_min ("plus") or -E_min ("minus")."""
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    v_minus, v_plus = midgap_pair(m)
    return v_plus if which == "plus" else v_minus
