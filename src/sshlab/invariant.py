"""Binary topological index of a chain realization, computed three ways.

The flux-winding route accumulates principal-branch phase increments of
det h(phi) around the boundary-phase circle; the closed-form route compares
log|prod u_i| against n*log|w| directly; the Wilson-loop route discretizes
the clean-limit geometric phase of the lower band.  All log-like quantities
are accumulated in log space so chains with hundreds of dimers neither
overflow nor underflow.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ChainParams, FluxMatrix, Realization, build_flux_matrix

__all__ = [
    "CriticalRealizationError",
    "UnresolvedWindingError",
    "WindingResult",
    "winding_integral",
    "winding_closed_form",
    "index_from_log_xi",
    "log_ratio_sums",
    "log_xi_offset",
    "xi_value",
    "zak_phase_clean",
]

PHASE_SAMPLE_CAP = 4096
# |det| below 1e-300 at any sample counts as a gap closing
_DET_LOG_FLOOR = -300.0 * math.log(10.0)


class CriticalRealizationError(ValueError):
    """The realization sits on the phase boundary; the index is undefined."""


class UnresolvedWindingError(RuntimeError):
    """Phase increments stayed too coarse even at the sample cap."""


@dataclass(frozen=True)
class WindingResult:
    """Winding integer plus the discretization it was resolved on."""

    nu: int
    phase_samples: int
    total_phase: float


def log_xi_offset(params: ChainParams) -> float:
    """n*log|u/w|, the part of log xi that every realization shares."""
    if params.u == 0.0:
        raise ValueError("u must be nonzero to form coupling ratios")
    if params.w == 0.0:
        raise ValueError("w must be nonzero to form xi")
    return params.n * math.log(abs(params.u / params.w))


def log_ratio_sums(couplings: np.ndarray, u: float, out=None) -> np.ndarray:
    """sum_j log|c_j/u| per row (last axis), bit-identical to the row's own sum; -inf at a zero.

    One temporary: the ratios, taken through abs and log in place, in `out`
    if given (`couplings` itself to reduce them in place).  A ratio that
    overflows is +inf, silently; a zero still cuts its row to -inf.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = np.divide(couplings, u, out=out)
        np.abs(ratios, out=ratios)
        np.log(ratios, out=ratios)
        sums = ratios.sum(axis=-1)
    if np.isnan(sums).any():
        sums = np.where(np.isnan(sums) & (ratios == -math.inf).any(axis=-1), -math.inf, sums)
    return sums


def index_from_log_xi(log_xi) -> np.ndarray:
    """Index per realization from log xi: 1 where log xi < 0, 0 where it is > 0.

    log xi == 0 sits on the phase boundary and gives nan.  A zero coupling
    (log xi = -inf) forces xi = 0 < 1, so the index is 1; that case is
    flagged with a warning because the chain is then cut.
    """
    if np.any(log_xi == -math.inf):
        warnings.warn("zero coupling in realization; xi = 0, returning nu = 1")
    return np.where(log_xi == 0.0, math.nan, np.where(log_xi < 0.0, 1.0, 0.0))


def xi_value(r: Realization, params: ChainParams) -> float:
    """log xi = n*log|u/w| + sum log|u_i/u|, accumulated in log space.

    xi = |prod u_i| / |w|^n is the gap-criterion ratio.
    """
    offset = log_xi_offset(params)
    if r.n != params.n:
        raise ValueError(f"realization has {r.n} couplings, params expect {params.n}")
    return float(offset + log_ratio_sums(r.couplings, params.u))


def winding_closed_form(r: Realization, params: ChainParams) -> int:
    """Index from the sign of log xi (`index_from_log_xi`) of one realization."""
    nu = index_from_log_xi(xi_value(r, params))
    if np.isnan(nu):
        raise CriticalRealizationError("xi = 1 exactly: gapless realization")
    return int(nu)


def _scaled_dets(h: FluxMatrix, phis: np.ndarray) -> tuple[np.ndarray, float]:
    """det h(phi) / e^scale on a phase grid, plus the log scale factor."""
    lp, sp, lq, sq = h.log_terms()
    scale = max(lp, lq)
    if scale == -math.inf:
        return np.zeros(len(phis), dtype=complex), -math.inf
    zp = sp * math.exp(lp - scale) if lp > -math.inf else 0.0
    zq = sq * math.exp(lq - scale) if lq > -math.inf else 0.0
    return zp + zq * np.exp(1j * phis), scale


def winding_integral(r: Realization, w: float, m_phi: int = 64) -> WindingResult:
    """Winding of det h(phi) over phi in [0, 2pi) by phase-increment summation.

    Every principal-branch increment must stay below pi/2; otherwise the
    grid is doubled (up to 4096 samples) and the sum restarts.
    """
    if m_phi < 16:
        raise ValueError("need at least 16 phase samples")
    m = int(m_phi)
    while True:
        phis = 2.0 * math.pi * np.arange(m) / m
        dets, scale = _scaled_dets(build_flux_matrix(r, w, 0.0), phis)
        with np.errstate(divide="ignore"):
            log_abs = scale + np.log(np.abs(dets))
        if not np.all(log_abs > _DET_LOG_FLOOR):
            raise CriticalRealizationError(
                "|det h(phi)| fell below 1e-300 on the phase grid"
            )
        rolled = np.roll(dets, -1)
        increments = np.angle(rolled * np.conj(dets))
        if float(np.max(np.abs(increments))) < 0.5 * math.pi:
            total = float(np.sum(increments))
            nu = int(round(total / (2.0 * math.pi)))
            return WindingResult(nu=nu, phase_samples=m, total_phase=total)
        if m >= PHASE_SAMPLE_CAP:
            raise UnresolvedWindingError(
                f"phase increments exceed pi/2 even at {m} samples"
            )
        m = min(2 * m, PHASE_SAMPLE_CAP)


def _lower_band_vectors(u: float, w: float, ks: np.ndarray) -> np.ndarray:
    """Lower-band eigenvectors of the 2x2 Bloch matrix, rows per k."""
    q = u + w * np.exp(-1j * ks)
    mod = np.abs(q)
    vec = np.empty((len(ks), 2), dtype=complex)
    vec[:, 0] = -q / mod
    vec[:, 1] = 1.0
    return vec / math.sqrt(2.0)


def zak_phase_clean(u: float, w: float, m_k: int = 256) -> int:
    """Clean-limit index from the Wilson loop of the lower band.

    The loop product of overlaps <psi_k | psi_{k+dk}> around the Brillouin
    zone is gauge invariant; its phase divided by pi is the index mod 2.
    The grid doubles whenever the off-diagonal q(k) rotates by more than
    pi/2 between neighbouring samples.
    """
    if abs(u) == abs(w):
        raise ValueError("gapless: |u| = |w| has no defined geometric phase")
    if m_k < 64:
        raise ValueError("need at least 64 momentum samples")
    m = int(m_k)
    while True:
        ks = -math.pi + 2.0 * math.pi * np.arange(m) / m
        q = u + w * np.exp(-1j * ks)
        rotation = np.angle(np.roll(q, -1) * np.conj(q))
        if float(np.max(np.abs(rotation))) < 0.5 * math.pi:
            break
        if m >= PHASE_SAMPLE_CAP:
            raise UnresolvedWindingError(
                f"Bloch vector rotates too fast even at {m} samples"
            )
        m = min(2 * m, PHASE_SAMPLE_CAP)
    vec = _lower_band_vectors(u, w, ks)
    overlaps = np.sum(np.conj(vec) * np.roll(vec, -1, axis=0), axis=1)
    loop = complex(np.prod(overlaps / np.abs(overlaps)))
    phase = cmath.phase(loop)
    return int(round(phase / math.pi)) % 2
