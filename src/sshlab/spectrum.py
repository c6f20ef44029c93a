"""Eigensolvers for the chain matrices.

Self-contained kernels, no external linear-algebra backends: Sturm-sequence
bisection for symmetric tridiagonal eigenvalues, a batched bisection of
only the four central levels of open chains, a batched shift-and-invert
kernel for their midgap pair, and Householder reduction for dense
symmetric matrices.

An even ring is bipartite, H = [[0, Q], [Q^T, 0]] in sublattice order, so
its levels are the singular values +/-sigma of the n x n block Q.  Rings
reach their gap through a Householder bidiagonalization of Q, whose
Golub-Kahan tridiagonal is a zero-diagonal open chain with the same levels;
the central-level kernel bisects it.  `chain_gap` is the one gap dispatch
for every chain matrix, `chain_gaps` the same for a stack of chains in one
kernel call, and `gap_resolution` the smallest gap they resolve.
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


def householder_bidiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a real square matrix to upper bidiagonal form (d, e).

    Eigenvalue-only Golub-Kahan reduction: the singular values of
    bidiag(d, e) are those of `a`.  Step k reflects column k from the left
    and row k from the right; both reflections reach the trailing block as
    one rank-2 update, a GEMM of inner dimension 2.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    d = np.empty(n)
    e = np.empty(n - 1)
    left = np.empty((n, 2))
    right = np.empty((n, 2))
    for k in range(n - 1):
        x = a[k:, k]
        rest = a[k:, k + 1 :]
        norm_x = math.sqrt(float(np.dot(x, x)))
        if norm_x == 0.0:
            d[k] = 0.0
            u = p = None
            row = a[k, k + 1 :].copy()
        else:
            d[k] = -math.copysign(norm_x, x[0])
            u = x.copy()
            u[0] -= d[k]
            # left reflection I - b u u^T sends row j to row j - u_j p
            p = (2.0 / float(np.dot(u, u))) * (u @ rest)
            row = rest[0] - u[0] * p
        trail = a[k + 1 :, k + 1 :]
        norm_row = math.sqrt(float(np.dot(row, row)))
        if norm_row == 0.0 or k == n - 2:
            e[k] = row[0]
            if u is not None:
                trail -= np.outer(u[1:], p)
            continue
        e[k] = -math.copysign(norm_row, row[0])
        v = row
        v[0] -= e[k]
        beta = 2.0 / float(np.dot(v, v))
        if u is None:
            trail -= np.outer(beta * (trail @ v), v)
            continue
        # (T - u p^T)(I - beta v v^T) = T - u p^T - q v^T
        q = beta * (trail @ v - float(np.dot(p, v)) * u[1:])
        m = n - 1 - k
        lhs, rhs = left[:m], right[:m]
        lhs[:, 0], lhs[:, 1] = u[1:], q
        rhs[:, 0], rhs[:, 1] = p, v
        trail -= lhs @ rhs.T
    d[n - 1] = a[n - 1, n - 1]
    return d, e


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
    (`_golub_kahan_chain`) by `midgap_levels`.  Neither the 2n x 2n matrix
    nor an inertia count through the ring corner is formed.
    """
    if m.is_tridiagonal or m.size % 2 or m.size < 4:
        raise ValueError("ring levels need a ring with an even number (>= 4) of sites")
    return midgap_levels(_golub_kahan_chain(m))[0]


def _golub_kahan_chain(m: ChainMatrix) -> np.ndarray:
    """Couplings [d0, e0, d1, ..., d_{n-1}] of an even ring's Golub-Kahan chain.

    (d, e) is the bidiagonal form of the ring's sublattice block Q, so the
    zero-diagonal open chain with these couplings has the ring's levels.
    """
    n = m.size // 2
    q = np.zeros((n, n))
    i = np.arange(n)
    # bonds a_i-b_i, b_i-a_{i+1} and the corner b_{n-1}-a_0; rows are A sites
    q[i, i] = m.offdiag[0::2]
    q[i[1:], i[:-1]] = m.offdiag[1::2]
    q[0, n - 1] = m.corner
    d, e = householder_bidiagonalize(q)
    couplings = np.empty(2 * n - 1)
    couplings[0::2] = d
    couplings[1::2] = e
    return couplings


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
    chains; the kernel's rows are independent, so each gap is bit-identical
    to `chain_gap` of that chain alone.  Unless every chain has the same
    even size N >= 4, the chains take `chain_gap` one by one.
    """
    chains = list(chains)
    size = chains[0].size if chains else 0
    if size < 4 or size % 2 or any(m.size != size for m in chains):
        return np.array([chain_gap(m) for m in chains])
    couplings = [m.offdiag if m.is_tridiagonal else _golub_kahan_chain(m) for m in chains]
    return 2.0 * np.min(np.abs(midgap_levels(np.array(couplings))), axis=1)


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
