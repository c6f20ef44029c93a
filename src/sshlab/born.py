"""Disorder-averaged Green function machinery in the first Born approximation.

Bare momentum-space propagator of the clean chain, the two self-energy
scalars f (frequency shift) and g (coupling shift) by Brillouin-zone
quadrature and in their narrow-peak closed forms, the averaged propagator
built from them, and the midgap density of states with its band-touching
condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BornParams",
    "bare_greens_function",
    "f_quadrature",
    "g_quadrature",
    "f_narrow_peak",
    "g_narrow_peak",
    "averaged_greens_function",
    "midgap_dos",
    "band_touch_gamma",
]

_SIGMA_0 = np.eye(2, dtype=complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

_QUAD_ABS_TOL = 1e-9


@dataclass(frozen=True)
class BornParams:
    """Couplings, disorder strength, regulator and frequency for one evaluation.

    alpha is the explicit positive regulator standing in for the
    "infinitesimal" imaginary part; midgap quantities away from the
    band-touching point depend on it, so it is carried in every output.
    """

    u: float
    w: float
    gamma: float = 0.0
    alpha: float | None = None
    omega: float = 0.0

    def __post_init__(self):
        if self.alpha is None:
            object.__setattr__(self, "alpha", 1e-6 * abs(self.u))
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")

    @property
    def delta(self) -> float:
        """Dimerization parameter u - w."""
        return self.u - self.w


def _gf_2x2(k: float, z: complex, u: complex, w: float) -> np.ndarray:
    """[z s0 + (u + w cos k) sx + w sin k sy] / (z^2 - eps_k^2); complex-safe."""
    ck = math.cos(k)
    sk = math.sin(k)
    eps2 = u * u + w * w + 2.0 * u * w * ck
    den = z * z - eps2
    num = z * _SIGMA_0 + (u + w * ck) * _SIGMA_X + (w * sk) * _SIGMA_Y
    return num / den


def bare_greens_function(k: float, p: BornParams) -> np.ndarray:
    """Retarded 2x2 propagator of the clean chain at momentum k."""
    return _gf_2x2(k, p.omega + 1j * p.alpha, p.u, p.w)


# ----------------------------------------------------------------------
# Brillouin-zone quadrature of the self-energy integrands


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
            epsabs=_QUAD_ABS_TOL / (8.0 * n_seg),
            epsrel=1e-11,
        )
        total += val
        err += abs(e)
    total /= math.pi  # 2x the [0, pi] piece, then /(2 pi)
    if err / math.pi > _QUAD_ABS_TOL:
        raise RuntimeError(
            f"quadrature tolerance not reached: estimate {total!r} +- {err / math.pi:.2e}"
        )
    return total


def f_quadrature(p: BornParams) -> complex:
    """Frequency-renormalizing self-energy scalar by BZ quadrature."""
    z = p.omega + 1j * p.alpha
    return _bz_average(lambda k: z, p)


def g_quadrature(p: BornParams) -> complex:
    """Coupling-renormalizing self-energy scalar by BZ quadrature."""
    return _bz_average(lambda k: p.u + p.w * math.cos(k), p)


def f_narrow_peak(delta: float, u: float, alpha: float) -> complex:
    """Midgap narrow-peak form -i alpha / (2u sqrt(delta^2 + alpha^2))."""
    _check_narrow_peak_args(delta, alpha)
    return -1j * alpha / (2.0 * u * math.sqrt(delta * delta + alpha * alpha))


def g_narrow_peak(delta: float, u: float, alpha: float) -> complex:
    """Midgap narrow-peak form -delta / (2u sqrt(delta^2 + alpha^2))."""
    _check_narrow_peak_args(delta, alpha)
    return complex(-delta / (2.0 * u * math.sqrt(delta * delta + alpha * alpha)))


def _check_narrow_peak_args(delta: float, alpha: float) -> None:
    if delta < 0.0:
        raise ValueError("narrow-peak forms are derived for the delta >= 0 branch")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")


def averaged_greens_function(
    k: float, p: BornParams, method: str = "quadrature"
) -> np.ndarray:
    """Disorder-averaged propagator: bare form at shifted arguments.

    omega -> omega - gamma^2 f and u -> u + gamma^2 g, with f, g from the
    requested method ("quadrature" at p.omega, or the midgap "narrow_peak"
    forms).
    """
    if method == "quadrature":
        f = f_quadrature(p)
        g = g_quadrature(p)
    elif method == "narrow_peak":
        f = f_narrow_peak(p.delta, p.u, p.alpha)
        g = g_narrow_peak(p.delta, p.u, p.alpha)
    else:
        raise ValueError(f"unknown method {method!r}")
    g2 = p.gamma * p.gamma
    z = (p.omega - g2 * f) + 1j * p.alpha
    u_shifted = p.u + g2 * g
    return _gf_2x2(k, z, u_shifted, p.w)


def midgap_dos(delta: float, u: float, gamma: float, alpha: float) -> float:
    """Zero-frequency density of states on the delta > 0 branch.

    rho(0) = alpha (1 + gamma^2/(2 u delta)) /
             (2 pi u sqrt[(delta - gamma^2/2u)^2 + alpha^2 (1 + gamma^2/(2 u delta))^2]);
    at the band-touching point gamma^2 = 2 u delta this reduces to
    1/(2 pi u) independently of the regulator.
    """
    if delta <= 0.0:
        raise ValueError("midgap density of states is derived for delta > 0")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    boost = 1.0 + gamma * gamma / (2.0 * u * delta)
    shifted = delta - gamma * gamma / (2.0 * u)
    return alpha * boost / (
        2.0 * math.pi * u * math.sqrt(shifted * shifted + alpha * alpha * boost * boost)
    )


def band_touch_gamma(u: float, w: float) -> float:
    """Disorder strength closing the renormalized gap: sqrt(2u(u - w))."""
    if not (u > w > 0.0):
        raise ValueError("band touching requires u > w > 0")
    return math.sqrt(2.0 * u * (u - w))
