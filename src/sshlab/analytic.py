"""Closed-form predictions for the disorder-averaged index.

Cumulants of log|1 + eps/u| under the coupling-deviation density, the
erf-smoothed average index, the critical surfaces, and the finite-size
fluctuation estimates.  For the flat density both cumulants z1 and z2 have
closed forms, which every experiment uses; the quadratures work for any
density and import scipy only when they run.  The error function is computed
in-repo (Maclaurin series below 2.5, Legendre continued fraction above) so
results do not depend on platform libm behaviour.
"""

from __future__ import annotations

import math
import warnings

__all__ = [
    "erf",
    "z1_quadrature",
    "z2_quadrature",
    "z1_flat_closed_form",
    "z2_flat_closed_form",
    "mean_nu_analytic",
    "critical_w",
    "critical_gamma_weak",
    "critical_gamma",
    "variance_nu",
    "fluctuation_width",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_QUAD_ABS_TOL = 1e-10


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


def z1_flat_closed_form(gamma: float, u: float) -> float:
    """Explicit z1 for the flat deviation density of half-width sqrt(3)*gamma.

    With a = sqrt3 gamma/|u|: below a = 1/2 the even power series
    (`_flat_log_series`), which keeps full relative accuracy as gamma -> 0;
    from a = 1/2 on
    -1 + u/(2 sqrt3 gamma) * log((u + sqrt3 gamma)/|u - sqrt3 gamma|)
       + log|1 - 3 gamma^2/u^2| / 2,
    with the removable singularity at sqrt3 gamma = u evaluated by its
    finite limit log(2) - 1.
    """
    if gamma <= 0.0:
        raise ValueError("closed form requires gamma > 0")
    if u == 0.0:
        raise ValueError("u must be nonzero")
    au = abs(u)
    r3 = math.sqrt(3.0) * gamma
    a = r3 / au
    if a < 0.5:
        return _flat_log_series(a)[0]
    if r3 == au:
        warnings.warn("sqrt(3)*gamma = |u| exactly; returning the limit value")
        return math.log(2.0) - 1.0
    return (
        -1.0
        + (au / (2.0 * r3)) * math.log((au + r3) / abs(au - r3))
        + 0.5 * math.log(abs(1.0 - 3.0 * gamma * gamma / (au * au)))
    )


def z2_flat_closed_form(gamma: float, u: float) -> float:
    """Explicit z2 for the flat deviation density of half-width sqrt(3)*gamma.

    With s = eps/u uniform on [-a, a], a = sqrt3 gamma/|u|: below a = 1/2 the
    even power series of E[log(1+s)] and E[log^2(1+s)] (`_flat_log_series`),
    which keeps full relative accuracy as gamma -> 0; above it the
    antiderivative x (t^2 - 2t + 2) of t^2, t = log|x| - z1, between
    x = 1 - a and 1 + a (zero at x = 0).
    """
    if gamma <= 0.0:
        raise ValueError("closed form requires gamma > 0")
    if u == 0.0:
        raise ValueError("u must be nonzero")
    a = math.sqrt(3.0) * gamma / abs(u)
    if a < 0.5:
        first, second = _flat_log_series(a)
        return second - first * first
    lo, hi = 1.0 - a, 1.0 + a
    # z1 in a form without z1_flat_closed_form's removable singularity at
    # a = 1; an error d in it moves E[(log|x| - z1)^2] by d^2 only
    z1 = (_x_log_abs(hi) - _x_log_abs(lo)) / (2.0 * a) - 1.0

    def antiderivative(x: float) -> float:
        if x == 0.0:
            return 0.0
        t = math.log(abs(x)) - z1
        return x * (t * t - 2.0 * t + 2.0)

    return (antiderivative(hi) - antiderivative(lo)) / (2.0 * a)


def _x_log_abs(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(abs(x))


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
    z1 = z1_flat_closed_form(gamma, au)
    z2 = z2_flat_closed_form(gamma, au)
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


def critical_gamma_weak(u: float, w: float) -> float:
    """Weak-disorder critical strength sqrt(2u(u - w)) for u > w > 0."""
    if not (u > w > 0.0):
        raise ValueError("no disorder-driven transition in this branch: need u > w > 0")
    return math.sqrt(2.0 * u * (u - w))


def critical_gamma(u: float, w: float, bracket: tuple[float, float] | None = None) -> float:
    """Numerically invert the boundary condition mean_nu = 1/2 for gamma.

    Generic bisection utility on log|u/w| + z1(gamma); scans the bracket
    for the first sign change and bisects it.  Raises when the bracket
    contains no crossing.
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

    grid = [lo + (hi - lo) * j / 256 for j in range(257)]
    vals = [shift(g) for g in grid]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa == 0.0:
            return a
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
