"""Independent reference implementations used only to check the real kernels."""

from __future__ import annotations

import math

import numpy as np

from sshlab.model import FluxMatrix

_MASK64 = (1 << 64) - 1


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """The reference stream of one realization: a fresh Philox keyed (master_seed, index)."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Slow and simple; serves as the dense diagonalization oracle for small
    matrices, independent of the production Householder/bisection path.
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


def permanent_free_determinant(a: np.ndarray) -> complex:
    """Determinant by Laplace cofactor expansion; exponential, n <= 8 only."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n > 8:
        raise ValueError("cofactor oracle limited to n <= 8")
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        if a[0, j] == 0.0:
            continue
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * permanent_free_determinant(minor)
    return total


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
