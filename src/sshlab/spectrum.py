"""Eigensolvers for the chain matrices.

Self-contained kernels, no external linear-algebra backends: Sturm-sequence
bisection and implicit-shift QL for symmetric tridiagonal eigenvalues, a
batched bisection of only the four central levels of open chains,
Householder reduction for dense symmetric matrices, and shifted inverse
iteration for the pair of eigenvectors closest to zero energy.

An even ring is bipartite, H = [[0, Q], [Q^T, 0]] in sublattice order, so
its levels are the singular values +/-sigma of the n x n block Q.  Rings
reach their gap through a Householder bidiagonalization of Q, whose
Golub-Kahan tridiagonal is a zero-diagonal open chain with the same levels;
the central-level kernel bisects it.  `chain_gap` is the one gap dispatch
for every chain matrix.
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
    "eigenvalues_tridiagonal",
    "eigenvalues_dense",
    "eigenvector_near_zero",
    "midgap_levels",
    "midgap_pair",
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
    min_pair_indices: tuple[int, int]

    @classmethod
    def from_eigenvalues(cls, evals: np.ndarray) -> "SpectralResult":
        evals = np.sort(np.asarray(evals, dtype=float))
        evals.setflags(write=False)
        j0 = int(np.argmin(np.abs(evals)))
        gap = 2.0 * abs(evals[j0])
        # chiral partner: the entry closest to -E_j0
        partner = np.abs(evals + evals[j0])
        partner[j0] = np.inf
        j1 = int(np.argmin(partner))
        lo, hi = (j0, j1) if evals[j0] <= evals[j1] else (j1, j0)
        return cls(eigenvalues=evals, gap=gap, min_pair_indices=(lo, hi))


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


def eigvals_ql(d: np.ndarray, e: np.ndarray, max_sweeps: int = 50) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix by implicit-shift QL.

    Classic rotation-chasing iteration; kept as the independent slow-path
    cross-check for the bisection kernel.
    """
    d = np.asarray(d, dtype=float).copy()
    n = len(d)
    e = np.append(np.asarray(e, dtype=float), 0.0)
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise ConvergenceError(
                    f"QL did not converge for eigenvalue {l} after {max_sweeps} sweeps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.sort(d)


# ----------------------------------------------------------------------
# linear solvers for inverse iteration


def _tridiag_factor(sub, diag, sup):
    """LU with partial pivoting of a tridiagonal matrix, banded storage."""
    n = len(diag)
    u0 = np.asarray(diag, dtype=float).copy()
    u1 = np.zeros(n)
    u2 = np.zeros(n)
    u1[: n - 1] = sup
    low = np.asarray(sub, dtype=float).copy()
    mult = np.zeros(max(n - 1, 0))
    swapped = np.zeros(max(n - 1, 0), dtype=bool)
    tiny = 1e-290
    for k in range(n - 1):
        if abs(low[k]) > abs(u0[k]):
            swapped[k] = True
            u0[k], low[k] = low[k], u0[k]
            u1[k], u0[k + 1] = u0[k + 1], u1[k]
            if k + 2 < n:
                u2[k], u1[k + 1] = u1[k + 1], u2[k]
        if u0[k] == 0.0:
            u0[k] = tiny
        m = low[k] / u0[k]
        mult[k] = m
        u0[k + 1] -= m * u1[k]
        if k + 2 < n:
            u1[k + 1] -= m * u2[k]
    if u0[n - 1] == 0.0:
        u0[n - 1] = tiny
    return u0, u1, u2, mult, swapped


def _tridiag_solve(factors, b):
    u0, u1, u2, mult, swapped = factors
    n = len(u0)
    y = np.asarray(b, dtype=float).copy()
    for k in range(n - 1):
        if swapped[k]:
            y[k], y[k + 1] = y[k + 1], y[k]
        y[k + 1] -= mult[k] * y[k]
    x = y
    x[n - 1] /= u0[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - u1[n - 2] * x[n - 1]) / u0[n - 2]
    for k in range(n - 3, -1, -1):
        x[k] = (x[k] - u1[k] * x[k + 1] - u2[k] * x[k + 2]) / u0[k]
    return x


def _dense_factor(a):
    """In-place LU with partial pivoting for dense shifted solves."""
    lu = np.array(a, dtype=float)
    n = lu.shape[0]
    piv = np.arange(n)
    tiny = 1e-290
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[k] = p
        if lu[k, k] == 0.0:
            lu[k, k] = tiny
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    if lu[n - 1, n - 1] == 0.0:
        lu[n - 1, n - 1] = tiny
    return lu, piv


def _dense_solve(factors, b):
    lu, piv = factors
    n = lu.shape[0]
    x = np.asarray(b, dtype=float).copy()
    for k in range(n - 1):
        p = piv[k]
        if p != k:
            x[k], x[p] = x[p], x[k]
        x[k + 1 :] -= lu[k + 1 :, k] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - np.dot(lu[k, k + 1 :], x[k + 1 :])) / lu[k, k]
    return x


def _shifted_solver(m: ChainMatrix, shift: float):
    """Return a solve(b) callable for (M - shift*I)."""
    n = m.size
    if m.is_tridiagonal:
        diag = np.full(n, -shift)
        factors = _tridiag_factor(m.offdiag, diag, m.offdiag)
        return lambda b: _tridiag_solve(factors, b)
    dense = m.to_dense()
    dense[np.arange(n), np.arange(n)] -= shift
    factors = _dense_factor(dense)
    return lambda b: _dense_solve(factors, b)


# ----------------------------------------------------------------------
# public operations


def eigenvalues_tridiagonal(m: ChainMatrix, method: str = "bisect") -> SpectralResult:
    """Full spectrum of an open (tridiagonal) chain matrix."""
    if not m.is_tridiagonal:
        raise ValueError("matrix has a periodic corner entry; use eigenvalues_dense")
    d = np.zeros(m.size)
    if method == "bisect":
        evals = eigvals_sturm(d, m.offdiag)
    elif method == "ql":
        evals = eigvals_ql(d, m.offdiag)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SpectralResult.from_eigenvalues(evals)


def eigenvalues_dense(m: ChainMatrix | np.ndarray, method: str = "bisect") -> SpectralResult:
    """Full spectrum of a dense symmetric matrix via Householder reduction."""
    dense = m.to_dense() if isinstance(m, ChainMatrix) else np.asarray(m, dtype=float)
    if dense.shape[0] != dense.shape[1] or not np.array_equal(dense, dense.T):
        raise ValueError("matrix must be symmetric")
    d, e = householder_tridiagonalize(dense)
    if method == "bisect":
        evals = eigvals_sturm(d, e)
    elif method == "ql":
        evals = eigvals_ql(d, e)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SpectralResult.from_eigenvalues(evals)


def ring_levels(m: ChainMatrix) -> np.ndarray:
    """Levels N/2-2 .. N/2+1 of an even ring of N >= 4 sites: -s2, -s1, s1, s2.

    s1 <= s2 are the two smallest singular values of the sublattice block Q,
    read from the Golub-Kahan chain [d0, e0, d1, ..., d_{n-1}] of its
    bidiagonal form by `midgap_levels`.  Neither the 2n x 2n matrix nor an
    inertia count through the ring corner is formed.
    """
    if m.is_tridiagonal or m.size % 2 or m.size < 4:
        raise ValueError("ring levels need a ring with an even number (>= 4) of sites")
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
    return midgap_levels(couplings)[0]


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


def _rayleigh_ritz_pair(m: ChainMatrix, v1, v2):
    """Split a 2-dim near-eigenspace into Ritz pairs of the symmetric matrix."""
    b1 = v1 / math.sqrt(float(np.dot(v1, v1)))
    b2 = v2 - float(np.dot(b1, v2)) * b1
    nrm = math.sqrt(float(np.dot(b2, b2)))
    if nrm < 1e-12:
        raise ConvergenceError("inverse-iteration stagnation: collapsed subspace")
    b2 /= nrm
    m1 = m.matvec(b1)
    m2 = m.matvec(b2)
    t11 = float(np.dot(b1, m1))
    t12 = float(np.dot(b1, m2))
    t22 = float(np.dot(b2, m2))
    # analytic eigendecomposition of [[t11, t12], [t12, t22]]
    if t12 == 0.0:
        pairs = [(t11, b1), (t22, b2)]
    else:
        tr = 0.5 * (t11 + t22)
        disc = math.hypot(0.5 * (t11 - t22), t12)
        lam_lo, lam_hi = tr - disc, tr + disc
        theta = 0.5 * math.atan2(2.0 * t12, t11 - t22)
        c, s = math.cos(theta), math.sin(theta)
        y_hi = c * b1 + s * b2
        y_lo = -s * b1 + c * b2
        # rotation orders eigenvalues as (hi, lo); re-check via quotients
        q_hi = float(np.dot(y_hi, m.matvec(y_hi)))
        if abs(q_hi - lam_hi) > abs(q_hi - lam_lo):
            y_hi, y_lo = y_lo, y_hi
        pairs = [(lam_lo, y_lo), (lam_hi, y_hi)]
    pairs.sort(key=lambda p: p[0])
    return pairs


def midgap_pair(
    m: ChainMatrix, spectral: SpectralResult | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of the +/- eigenvalue pair closest to zero.

    Inverse iteration with shifts at +/-E_min followed by a 2x2
    Rayleigh-Ritz split, which stays stable when the pair is numerically
    degenerate (deep topological chains).  Returns (v_minus, v_plus).
    Without `spectral`, open chains and even rings bisect only their four
    central levels, which carry the gap and the isolation check.
    """
    if spectral is None:
        spectral = _midgap_spectrum(m)
    evals = spectral.eigenvalues
    n = m.size
    norm = max(m.norm_bound(), _EPS)
    lam = 0.5 * spectral.gap
    abs_sorted = np.sort(np.abs(evals))
    isolation = abs_sorted[2] - abs_sorted[1] if n > 2 else math.inf
    if isolation <= 1e-13 * norm:
        warnings.warn("midgap pair is degenerate with the next eigenvalue")

    rng = np.random.Generator(np.random.Philox(key=[0x1D5EED, n]))
    tol = 1e-10 * norm
    start1 = rng.standard_normal(n)
    start2 = rng.standard_normal(n)
    v1 = _inverse_iterate(m, +lam, start1, tol)
    v2 = _inverse_iterate(m, -lam, start2, tol)
    if abs(float(np.dot(v1, v2))) > 1.0 - 1e-12:
        # both iterations landed on the same vector; re-seed the second
        v2 = _inverse_iterate(m, -lam, rng.standard_normal(n), tol)
    pairs = _rayleigh_ritz_pair(m, v1, v2)
    out = []
    for theta, y in pairs:
        resid = m.matvec(y) - theta * y
        r = math.sqrt(float(np.dot(resid, resid)))
        if r > tol:
            y = _inverse_iterate(m, theta, y, tol)
            resid = m.matvec(y) - theta * y
            r = math.sqrt(float(np.dot(resid, resid)))
            if r > tol:
                raise ConvergenceError(
                    f"inverse-iteration stagnation: residual {r:.3e} > {tol:.3e}"
                )
        out.append(y)
    v_minus, v_plus = out[0], out[1]
    return v_minus, v_plus


def _inverse_iterate(m: ChainMatrix, shift: float, start, tol, max_iter: int = 8):
    solve = _shifted_solver(m, shift)
    x = np.asarray(start, dtype=float)
    x = x / math.sqrt(float(np.dot(x, x)))
    for _ in range(max_iter):
        y = solve(x)
        y = y / math.sqrt(float(np.dot(y, y)))
        theta = float(np.dot(y, m.matvec(y)))
        resid = m.matvec(y) - theta * y
        if math.sqrt(float(np.dot(resid, resid))) <= tol:
            return y
        x = y
    return y


def eigenvector_near_zero(
    m: ChainMatrix, which: str, spectral: SpectralResult | None = None
) -> np.ndarray:
    """Unit eigenvector of the eigenvalue +E_min ("plus") or -E_min ("minus")."""
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    v_minus, v_plus = midgap_pair(m, spectral)
    return v_plus if which == "plus" else v_minus
