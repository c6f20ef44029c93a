"""Closed-form predictions for the disorder-averaged index.

Cumulants of log|1 + eps/u| under the coupling-deviation density, the
erf-smoothed average index, the critical surfaces, and the finite-size
fluctuation estimates.  For the flat density both cumulants z1 and z2 have
closed forms, which every experiment uses.  The error function is computed
in-repo (Maclaurin series below 2.5, Legendre continued fraction above) so
results do not depend on platform libm behaviour.
"""

from __future__ import annotations

import math

__all__ = [
    "erf",
    "z1_flat_closed_form",
    "z2_flat_closed_form",
    "mean_nu_analytic",
    "critical_w",
    "critical_w_weak",
    "critical_gamma_weak",
    "critical_gamma",
    "variance_nu",
    "fluctuation_width",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def erf(x: float) -> float:
    """Error function, accurate to better than 1e-12 relative."""
    if math.isnan(x):
        return x
    if x < 0.0:
        return -erf(-x)
    if x < 2.5:
        return _erf_series(x)
    if x > 6.5:
        return 1.0
    return 1.0 - _erfc_continued_fraction(x)


def _erf_series(x: float) -> float:
    # erf(x) = 2/sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1))
    t = x * x
    term = x
    total = x
    n = 0
    while True:
        n += 1
        term *= -t / n
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) <= 1e-18 * abs(total):
            return _TWO_OVER_SQRT_PI * total
        if n > 200:
            raise RuntimeError("erf series failed to converge")


def _erfc_continued_fraction(x: float) -> float:
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    tiny = 1e-300
    f = x
    c = f
    d = 0.0
    for n in range(1, 300):
        a = 0.5 * n
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(-x * x) / math.sqrt(math.pi) / f
    raise RuntimeError("erfc continued fraction failed to converge")


# ----------------------------------------------------------------------
# cumulants of log|1 + eps/u|


def _flat_log_series(a: float) -> tuple[float, float]:
    """E[log(1+s)] and E[log^2(1+s)] for s uniform on [-a, a], 0 < a < 1/2.

    Even power series: E[s^k] = a^k/(k+1), and the k-th coefficients of
    log(1+s) and log^2(1+s) are (-1)^(k+1)/k and (-1)^k 2 H_(k-1)/k.  The
    terms of each sum share one sign, so both keep full relative accuracy
    as a -> 0.
    """
    a2 = a * a
    power = 1.0
    harmonic = 1.0  # H_(k-1) at k = 2
    first = second = 0.0
    k = 2
    while True:
        power *= a2
        term = power / (k * (k + 1))
        first -= term
        square_term = 2.0 * harmonic * term
        second += square_term
        # square_term/second bounds term/|first| from above
        if square_term <= 1e-17 * second:
            return first, second
        harmonic += 1.0 / k + 1.0 / (k + 1)
        k += 2


def _flat_log_antiderivatives(a: float) -> tuple[float, float]:
    """E[log|1+s|] and Var[log|1+s|] for s uniform on [-a, a] from antiderivatives in x = 1 + s.

    z1 = [x log|x|]/(2a) - 1 and z2 = [x (t^2 - 2t + 2)]/(2a) with
    t = log|x| - z1, each bracket taken from x = 1 - a to 1 + a.  Both
    antiderivatives are continuous at x = 0 (a = 1), so neither form has a
    singularity at sqrt3 gamma = |u|.
    """
    lo, hi = 1.0 - a, 1.0 + a
    z1 = (_x_log_abs(hi) - _x_log_abs(lo)) / (2.0 * a) - 1.0

    # an error d in z1 moves E[(log|x| - z1)^2] by d^2 only
    def antiderivative(x: float) -> float:
        if x == 0.0:
            return 0.0
        t = math.log(abs(x)) - z1
        return x * (t * t - 2.0 * t + 2.0)

    return z1, (antiderivative(hi) - antiderivative(lo)) / (2.0 * a)


def _x_log_abs(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(abs(x))


def _flat_cumulants(gamma: float, u: float) -> tuple[float, float]:
    """(z1, z2) of log|1 + eps/u| for the flat deviation density of half-width sqrt(3)*gamma.

    With s = eps/u uniform on [-a, a], a = sqrt3 gamma/|u|: below a = 1/2 the
    even power series (`_flat_log_series`), which keeps full relative
    accuracy as gamma -> 0; from a = 1/2 on the antiderivative forms
    (`_flat_log_antiderivatives`).
    """
    if gamma <= 0.0:
        raise ValueError("closed form requires gamma > 0")
    if u == 0.0:
        raise ValueError("u must be nonzero")
    a = math.sqrt(3.0) * gamma / abs(u)
    if a < 0.5:
        first, second = _flat_log_series(a)
        return first, second - first * first
    return _flat_log_antiderivatives(a)


def z1_flat_closed_form(gamma: float, u: float) -> float:
    """Explicit z1 for the flat deviation density of half-width sqrt(3)*gamma (`_flat_cumulants`)."""
    return _flat_cumulants(gamma, u)[0]


def z2_flat_closed_form(gamma: float, u: float) -> float:
    """Explicit z2 for the flat deviation density of half-width sqrt(3)*gamma (`_flat_cumulants`)."""
    return _flat_cumulants(gamma, u)[1]


# ----------------------------------------------------------------------
# averaged index and critical surfaces


def mean_nu_analytic(n: int, u: float, w: float, gamma: float) -> float:
    """CLT-averaged index (1 - erf[sqrt(n) (log(u/w) + z1) / sqrt(2 z2)]) / 2.

    At gamma = 0 the exact step [|w| > |u|] is returned; the tie |u| = |w|
    is a gap closing and raises.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if u == 0.0 or w == 0.0:
        raise ValueError("u and w must be nonzero")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    au, aw = abs(u), abs(w)
    if gamma == 0.0:
        if au == aw:
            raise ValueError("critical, undefined: |u| = |w| at zero disorder")
        return 1.0 if aw > au else 0.0
    z1, z2 = _flat_cumulants(gamma, au)
    shift = math.log(au / aw) + z1
    if z2 == 0.0:
        if shift == 0.0:
            raise ValueError("critical, undefined: vanishing variance on the boundary")
        return 1.0 if shift < 0.0 else 0.0
    return 0.5 * (1.0 - erf(math.sqrt(n) * shift / math.sqrt(2.0 * z2)))


def critical_w(u: float, gamma: float) -> float:
    """Critical coupling w0 = u * exp(z1) at the given disorder strength."""
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        return u
    return u * math.exp(z1_flat_closed_form(gamma, abs(u)))


def critical_w_weak(u: float, gamma: float) -> float:
    """Weak-disorder critical coupling u - gamma^2/(2u), the inverse of `critical_gamma_weak`.

    The leading order of `critical_w` = u exp(z1), z1 = -gamma^2/(2u^2) + ...;
    nan where it does not keep the sign of u (gamma^2 >= 2u^2).
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if u == 0.0:
        raise ValueError("u must be nonzero")
    w0 = u - gamma * gamma / (2.0 * u)
    return w0 if w0 * u > 0.0 else math.nan


def critical_gamma_weak(u: float, w: float) -> float:
    """Weak-disorder critical strength sqrt(2u(u - w)) for u > w > 0."""
    if not (u > w > 0.0):
        raise ValueError("no disorder-driven transition in this branch: need u > w > 0")
    return math.sqrt(2.0 * u * (u - w))


def critical_gamma(u: float, w: float, bracket: tuple[float, float] | None = None) -> float:
    """Numerically invert the boundary condition mean_nu = 1/2 for gamma.

    Bisection on log|u/w| + z1(gamma): scans the bracket for the first zero
    (an end within 4*eps*max(1, |log|u/w||) counts) or sign change and
    bisects it.  Raises when the bracket contains no crossing.
    """
    if u == 0.0 or w == 0.0:
        raise ValueError("u and w must be nonzero")
    au = abs(u)
    lo, hi = bracket if bracket is not None else (0.0, 2.0 * au)
    if not (0.0 <= lo < hi):
        raise ValueError("bracket must satisfy 0 <= lo < hi")

    def shift(g: float) -> float:
        z1 = 0.0 if g == 0.0 else z1_flat_closed_form(g, au)
        return math.log(au / abs(w)) + z1

    grid = [lo + (hi - lo) * j / 256 for j in range(256)] + [hi]
    vals = [shift(g) for g in grid]
    tol = 4.0 * math.ulp(1.0) * max(1.0, abs(math.log(au / abs(w))))
    vals[0], vals[-1] = (0.0 if abs(f) <= tol else f for f in (vals[0], vals[-1]))
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa == 0.0 or fb == 0.0:
            return a if fa == 0.0 else b
        if fa * fb < 0.0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = shift(mid)
                if fm == 0.0:
                    return mid
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a <= 1e-15 * max(1.0, b):
                    break
            return 0.5 * (a + b)
    raise ValueError("no boundary crossing inside the bracket")


def variance_nu(n: int, u: float, w: float, gamma: float, mode: str = "general") -> float:
    """Finite-size fluctuations of the index.

    mode="general" evaluates <nu>(1 - <nu>) from the averaged index;
    mode="weak" evaluates the weak-disorder/weak-dimerization closed form
    (1 - erf^2[sqrt(n/2) ((u-w)/gamma - gamma/2u)]) / 4.
    """
    if mode == "general":
        p = mean_nu_analytic(n, u, w, gamma)
        return p * (1.0 - p)
    if mode == "weak":
        if gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if gamma == 0.0:
            return 0.25 if u == w else 0.0
        arg = math.sqrt(0.5 * n) * ((u - w) / gamma - gamma / (2.0 * u))
        return 0.25 * (1.0 - erf(arg) ** 2)
    raise ValueError(f"unknown mode {mode!r}")


def fluctuation_width(u: float, n: int) -> float:
    """Order-of-magnitude width u/sqrt(n) of the fluctuational region."""
    if n < 1:
        raise ValueError("need n >= 1")
    return abs(u) / math.sqrt(n)
