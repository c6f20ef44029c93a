"""Disorder-averaged Green function machinery in the first Born approximation.

Bare momentum-space propagator of the clean chain, the two self-energy
scalars f (frequency shift) and g (coupling shift) both as exact
Brillouin-zone averages (`f_quadrature`, `g_quadrature`: the integrals of
rational functions of cos k are elementary, so no quadrature runs) and in
their midgap narrow-peak forms, the averaged propagator built from them,
and the midgap density of states with its band-touching condition.
"""

from __future__ import annotations

import cmath
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
# Exact Brillouin-zone averages of the self-energy integrands


def _bz_averages(p: BornParams) -> tuple[complex, complex]:
    """(f, g): (1/2pi) * integral over k of z and of u + w cos k over z^2 - eps_k^2.

    With z = omega + i alpha, A = z^2 - u^2 - w^2 and B = 2uw the
    denominator is A - B cos k, whose average is 1/s with
    s = sqrt(z^2 - (u + w)^2) * sqrt(z^2 - (u - w)^2) on principal roots,
    and |A + s| > |B|.  The cos k average follows from A^2 - s^2 = B^2:
    g = u (1 + 2w^2 / (A + s)) / s = u (q + s) / ((A + s) s) with
    q = z^2 - u^2 + w^2.  Each factor's real part is formed as
    (omega - c)(omega + c) - alpha^2, so nothing cancels at a band edge or
    near u = w, and q + s is taken as 4 w^2 z^2 / (q - s) where it would
    cancel.  For alpha > 0 neither s nor A + s vanishes, so u = 0 and w = 0
    need no special case.
    """
    om, al, u, w = p.omega, p.alpha, p.u, p.w
    z = complex(om, al)

    # z^2 - c^2; every factor gets z^2's imaginary part, so both roots take one side of the cut
    def square(c: float) -> complex:
        return complex((om - c) * (om + c) - al * al, 2.0 * om * al)

    z2 = square(0.0)
    s = cmath.sqrt(square(u + w)) * cmath.sqrt(square(u - w))
    q = z2 + (w - u) * (w + u)
    t = q + s if abs(q + s) >= abs(q - s) else 4.0 * w * w * z2 / (q - s)
    f = z / s
    g = u * t / ((z2 - u * u - w * w + s) * s)
    # complex division leaves -0.0 on the part that vanishes at omega = 0; + 0.0 makes it 0.0
    return complex(f.real + 0.0, f.imag + 0.0), complex(g.real + 0.0, g.imag + 0.0)


def f_quadrature(p: BornParams) -> complex:
    """Frequency-renormalizing self-energy scalar, the exact Brillouin-zone average."""
    return _bz_averages(p)[0]


def g_quadrature(p: BornParams) -> complex:
    """Coupling-renormalizing self-energy scalar, the exact Brillouin-zone average."""
    return _bz_averages(p)[1]


def f_narrow_peak(delta: float, u: float, alpha: float) -> complex:
    """Midgap narrow-peak form -i alpha / (2u sqrt(delta^2 + alpha^2))."""
    _check_narrow_peak_args(delta, u, alpha)
    return -1j * alpha / (2.0 * u * math.sqrt(delta * delta + alpha * alpha))


def g_narrow_peak(delta: float, u: float, alpha: float) -> complex:
    """Midgap narrow-peak form -delta / (2u sqrt(delta^2 + alpha^2)).

    At delta = 0 the quotient is -0.0; + 0.0 makes it 0.0, as `_bz_averages` does.
    """
    _check_narrow_peak_args(delta, u, alpha)
    return complex(-delta / (2.0 * u * math.sqrt(delta * delta + alpha * alpha)) + 0.0)


def _check_narrow_peak_args(delta: float, u: float, alpha: float) -> None:
    if delta < 0.0:
        raise ValueError("narrow-peak forms are derived for the delta >= 0 branch")
    if u == 0.0:
        raise ValueError("u must be nonzero")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")


def averaged_greens_function(
    k: float, p: BornParams, method: str = "quadrature"
) -> np.ndarray:
    """Disorder-averaged propagator: bare form at shifted arguments.

    omega -> omega - gamma^2 f and u -> u + gamma^2 g, with f, g from the
    requested method ("quadrature", the exact Brillouin-zone averages at
    p.omega, or the midgap "narrow_peak" forms).
    """
    if method == "quadrature":
        f, g = _bz_averages(p)
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
    if u == 0.0:
        raise ValueError("u must be nonzero")
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
