"""Independent reference implementations used only to check the real kernels."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from sshlab.born import BornParams
from sshlab.ensemble import FlatDistribution
from sshlab.model import FluxMatrix

_MASK64 = (1 << 64) - 1

_QUAD_ABS_TOL = 1e-10  # the density cumulant quadratures
_BZ_QUAD_ABS_TOL = 1e-9  # the Born Brillouin-zone quadrature


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """The reference stream of one realization: a fresh Philox keyed (master_seed, index)."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Slow and simple; serves as the dense diagonalization oracle for small
    matrices, independent of the production bisection and LAPACK paths.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < 1e-15 * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    else:
        raise RuntimeError("Jacobi oracle did not converge")
    return np.sort(np.diag(a))


def flux_dense(h: FluxMatrix) -> np.ndarray:
    """The n x n complex matrix h(phi), assembled entry by entry."""
    n = h.n
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n), np.arange(n)] = h.diagonal
    m[np.arange(1, n), np.arange(n - 1)] = h.w
    m[0, n - 1] += h.w * np.exp(1j * h.phi)
    return m


def lu_determinant(h: FluxMatrix) -> complex:
    """det h(phi) by complex LU with partial pivoting of the assembled matrix."""
    a = flux_dense(h)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        piv = a[k, k]
        if piv == 0.0:
            return 0.0j
        det *= piv
        a[k + 1 :, k] /= piv
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return complex(det * a[-1, -1])


def eigvals_ql(d: np.ndarray, e: np.ndarray, max_sweeps: int = 50) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix by implicit-shift QL.

    Classic rotation-chasing iteration, the independent cross-check for the
    bisection kernel.
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
                raise RuntimeError(
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


def householder_bidiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a real square matrix to upper bidiagonal form (d, e).

    Eigenvalue-only dense Golub-Kahan reduction, the oracle of the ring
    kernel `spectrum._golub_kahan_chains`: it updates the whole trailing
    block at every step.  The singular values of bidiag(d, e) are those of
    `a`.  Step k reflects column k from the left
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


# the sequential general-diagonal bisection that spectrum._bisect_levels
# batches over rows and subtrees at d = 0: the reference for its bits
def sturm_count(d: np.ndarray, e2: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of tridiag(d, e) strictly below each shift.

    Standard negative-pivot count of the shifted LDL^T recurrence,
    vectorized over the shifts.  Zero and infinite pivots propagate
    correctly through IEEE arithmetic as long as no e2 entry is exactly
    zero, which `eigvals_sturm` ensures by flooring e2 at the smallest
    subnormal.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = len(d)
    q = d[0] - xs
    count = (q < 0.0).astype(np.int64)
    tmp = np.empty_like(q)
    mask = np.empty(len(xs), dtype=bool)
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, n):
            np.divide(e2[i - 1], q, out=tmp)
            np.subtract(d[i], tmp, out=tmp)
            np.subtract(tmp, xs, out=q)
            np.less(q, 0.0, out=mask)
            count += mask
    return count


_SIGN_BIT = np.int64(-(2**63))


def ordinals(x: np.ndarray) -> np.ndarray:
    """The rank of each double among all doubles: -0.0 is -1, +0.0 is 0, one step per double."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return np.where(bits < 0, -1 - (bits ^ _SIGN_BIT), bits)


def doubles(ranks: np.ndarray) -> np.ndarray:
    """The doubles of `ordinals` ranks."""
    ranks = np.asarray(ranks, dtype=np.int64)
    return np.where(ranks < 0, (-1 - ranks) ^ _SIGN_BIT, ranks).view(float)


def eigvals_sturm(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix by bisection on the doubles' ranks.

    Every level starts from the whole finite range [-max, max] and is
    halved 64 times at the floor of the mean rank, one halving per Sturm
    pass, vectorized across the spectrum; level k is then the largest
    double with at most k eigenvalues below it.  A zero square is floored
    at the smallest subnormal, and an all-zero matrix gives +0.0, as in
    `spectrum._bisect_levels`; the rows are not scaled, so the two agree bit
    for bit on rows whose largest entry is in [1/2, 1), and elsewhere unless
    a floored or overflowing square, or a pivot out of the normal range,
    decides a level.
    """
    d = np.asarray(d, dtype=float) + 0.0  # -0.0 + 0.0 is +0.0, as in the kernel
    e = np.asarray(e, dtype=float)
    n = len(d)
    if n == 1 or not (d.any() or e.any()):
        return d.copy()
    e2 = np.maximum(e * e, np.nextafter(0.0, 1.0))
    big = np.finfo(float).max
    lo, hi = ordinals(np.full(n, -big)), ordinals(np.full(n, big))
    targets = np.arange(1, n + 1)
    for _ in range(64):
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        below = sturm_count(d, e2, doubles(mid)) >= targets
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return doubles(lo)


def sigma_min_bidiagonal(u: np.ndarray, w: np.ndarray, dps: int = 64) -> float:
    """Smallest singular value of the lower bidiagonal B, B[i, i] = u_i and B[i+1, i] = w_i.

    Inverse iteration on B^T B in `dps`-digit mpmath.  Each step takes
    z = B^-T y and then y <- B^-1 z, normalized, by two O(n) bidiagonal
    substitutions; those are componentwise backward stable, so no
    cancellation limits the accuracy however small sigma is.  With |y| = 1,
    |z|^2 = y^T (B^T B)^-1 y, so 1/|z| is the estimate; it stops once a step
    moves it by under 1e-24 of itself.  The start is numpy's eigh vector of
    the smallest eigenvalue of B^T B in doubles.  No u_i may be zero.
    """
    import mpmath

    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    n = len(u)
    b = np.diag(u) + np.diag(w, -1)
    start = np.linalg.eigh(b.T @ b)[1][:, 0]
    with mpmath.workdps(dps):
        uu, ww = [mpmath.mpf(x) for x in u], [mpmath.mpf(x) for x in w]
        y = [mpmath.mpf(x) for x in start]
        norm = mpmath.sqrt(mpmath.fsum(t * t for t in y))
        y = [t / norm for t in y]
        z, x, sigma = [None] * n, [None] * n, None
        for _ in range(100):
            z[n - 1] = y[n - 1] / uu[n - 1]
            for i in range(n - 2, -1, -1):
                z[i] = (y[i] - ww[i] * z[i + 1]) / uu[i]
            x[0] = z[0] / uu[0]
            for i in range(1, n):
                x[i] = (z[i] - ww[i - 1] * x[i - 1]) / uu[i]
            prev, sigma = sigma, 1 / mpmath.sqrt(mpmath.fsum(t * t for t in z))
            if prev is not None and abs(sigma - prev) <= mpmath.mpf("1e-24") * sigma:
                return float(sigma)
            norm = mpmath.sqrt(mpmath.fsum(t * t for t in x))
            y = [t / norm for t in x]
    raise RuntimeError("inverse iteration did not settle in 100 steps")


# ----------------------------------------------------------------------
# scipy Brillouin-zone quadrature of the Born self-energy integrands


def _breakpoints(p: BornParams) -> list[float]:
    """Split points of [0, pi] crowding geometrically onto the integrand peaks."""
    pts = {0.0, math.pi}
    scale = max(abs(p.u), abs(p.w), 1e-30)
    width = math.sqrt(p.delta**2 + p.alpha**2) / scale
    for j in range(14):
        d = width * 4.0**j
        if d >= math.pi:
            break
        pts.add(math.pi - d)
    # resonance eps_k = |omega| inside the band, peak width alpha/|d eps/dk|
    band_lo, band_hi = abs(abs(p.u) - abs(p.w)), abs(p.u) + abs(p.w)
    if band_lo < abs(p.omega) < band_hi and p.u * p.w != 0.0:
        ck = (p.omega**2 - p.u**2 - p.w**2) / (2.0 * p.u * p.w)
        if -1.0 < ck < 1.0:
            kr = math.acos(ck)
            slope = abs(p.u * p.w * math.sin(kr)) / max(abs(p.omega), 1e-30)
            wr = p.alpha / max(slope, 1e-30)
            for j in range(14):
                d = wr * 4.0**j
                if d >= math.pi:
                    break
                for cand in (kr - d, kr + d):
                    if 0.0 < cand < math.pi:
                        pts.add(cand)
    return sorted(pts)


def _bz_average(numerator, p: BornParams) -> complex:
    """(1/2pi) * integral over [-pi, pi] of numerator(k) / (z^2 - eps_k^2).

    The integrand is even in k, so twice the [0, pi] integral is taken over
    segments refined around the Lorentzian peaks.
    """
    from scipy.integrate import quad

    z = p.omega + 1j * p.alpha

    def integrand(k: float) -> complex:
        eps2 = p.u**2 + p.w**2 + 2.0 * p.u * p.w * math.cos(k)
        return numerator(k) / (z * z - eps2)

    pts = _breakpoints(p)
    n_seg = len(pts) - 1
    total = 0.0 + 0.0j
    err = 0.0
    for a, b in zip(pts, pts[1:]):
        val, e = quad(
            integrand,
            a,
            b,
            complex_func=True,
            limit=300,
            epsabs=_BZ_QUAD_ABS_TOL / (8.0 * n_seg),
            epsrel=1e-11,
        )
        total += val
        err += abs(e)
    total /= math.pi  # 2x the [0, pi] piece, then /(2 pi)
    if err / math.pi > _BZ_QUAD_ABS_TOL:
        raise RuntimeError(
            f"quadrature tolerance not reached: estimate {total!r} +- {err / math.pi:.2e}"
        )
    return total


def born_quadrature(p: BornParams) -> tuple[complex, complex]:
    """The self-energy scalars (f, g) of `p` by adaptive quadrature."""
    z = p.omega + 1j * p.alpha
    return _bz_average(lambda k: z, p), _bz_average(lambda k: p.u + p.w * math.cos(k), p)


# ----------------------------------------------------------------------
# scipy quadrature of the cumulants of log|1 + eps/u| under any density


@dataclass(frozen=True)
class FlatDensity(FlatDistribution):
    """`FlatDistribution` with its centered deviation density as the quadratures read it."""

    @property
    def support(self) -> tuple[float, float]:
        return (-self.halfwidth, self.halfwidth)

    def pdf(self, eps: float) -> float:
        h = self.halfwidth
        if h == 0.0:
            raise ValueError("gamma = 0 is a point mass with no density")
        return 1.0 / (2.0 * h) if -h <= eps <= h else 0.0


def _density_pieces(dist) -> list[tuple[float, float]]:
    """Integration segments over the deviation support, split at eps = -u."""
    lo, hi = dist.support
    u = dist.u
    if lo < -u < hi:
        return [(lo, -u), (-u, hi)]
    return [(lo, hi)]


def _integrate(fn, pieces) -> float:
    from scipy.integrate import IntegrationWarning, quad

    total = 0.0
    err = 0.0
    for a, b in pieces:
        with warnings.catch_warnings():
            # requesting near-roundoff accuracy makes QUADPACK grumble on the
            # log-singular pieces; the returned error estimate is still
            # checked against the tolerance contract below
            warnings.simplefilter("ignore", IntegrationWarning)
            val, e = quad(fn, a, b, limit=400, epsabs=1e-13, epsrel=1e-12)
        total += val
        err += e
    if err > _QUAD_ABS_TOL:
        raise RuntimeError(
            f"quadrature tolerance not reached: estimate {total!r} +- {err:.2e}"
        )
    return total


def _check_normalized(dist, pieces) -> None:
    norm = _integrate(dist.pdf, pieces)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"density is not normalized: integral = {norm!r}")


def z1_quadrature(dist) -> float:
    """First cumulant of log|1 + eps/u| under the deviation density.

    Works for any density object exposing u, support and pdf(eps); the
    integrable log singularity at eps = -u is an explicit split point.
    """
    if dist.u == 0.0:
        raise ValueError("u must be nonzero")
    lo, hi = dist.support
    if hi <= lo:
        return 0.0
    pieces = _density_pieces(dist)
    _check_normalized(dist, pieces)
    u = dist.u
    return _integrate(lambda e: math.log(abs(1.0 + e / u)) * dist.pdf(e), pieces)


def z2_quadrature(dist) -> float:
    """Second cumulant (variance) of log|1 + eps/u|."""
    if dist.u == 0.0:
        raise ValueError("u must be nonzero")
    lo, hi = dist.support
    if hi <= lo:
        return 0.0
    pieces = _density_pieces(dist)
    _check_normalized(dist, pieces)
    u = dist.u
    second = _integrate(
        lambda e: math.log(abs(1.0 + e / u)) ** 2 * dist.pdf(e), pieces
    )
    z1 = _integrate(lambda e: math.log(abs(1.0 + e / u)) * dist.pdf(e), pieces)
    return second - z1 * z1
