"""Single-particle matrices of the dimerized chain and clean-limit closed forms.

Site ordering is (a1, b1, a2, b2, ..., aN, bN), so an open chain is a
symmetric tridiagonal matrix with zero diagonal and off-diagonal sequence
[u1, w, u2, w, ..., uN].  Periodic chains carry one extra bond w between
site 2N and site 1, stored as an explicit corner entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BoundaryCondition",
    "ChainParams",
    "Realization",
    "ChainMatrix",
    "FluxMatrix",
    "build_chain",
    "build_flux_matrix",
    "chain_couplings",
    "gershgorin_radii",
    "dispersion",
    "coherence_length",
]


class BoundaryCondition(Enum):
    OPEN = "open"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class ChainParams:
    """Mean couplings and size of a dimerized chain of n dimers (2n sites)."""

    n: int
    u: float
    w: float
    bc: BoundaryCondition = BoundaryCondition.OPEN

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 dimers, got n={self.n}")

    @property
    def corner(self) -> float | None:
        """The bond w closing a ring, or None for an open chain."""
        return self.w if self.bc is BoundaryCondition.PERIODIC else None


@dataclass(frozen=True)
class Realization:
    """One sampled vector of intra-dimer couplings u_i with RNG provenance.

    master_seed/index identify the deterministic stream the couplings were
    drawn from; both are None for hand-built realizations.
    """

    couplings: np.ndarray
    master_seed: int | None = None
    index: int | None = None

    def __post_init__(self):
        arr = np.array(self.couplings, dtype=float)
        if arr.ndim != 1:
            raise ValueError("couplings must be a 1-d vector")
        if not np.isfinite(arr).all():
            raise ValueError("couplings must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "couplings", arr)

    @property
    def n(self) -> int:
        return len(self.couplings)


@dataclass(frozen=True)
class ChainMatrix:
    """Zero-diagonal real symmetric chain matrix.

    `offdiag` holds the 2n-1 nearest-neighbour couplings; `corner` is the
    (0, 2n-1) entry closing the ring (None for open chains).  A ring needs
    at least 3 sites: on 2 the corner would sit on the one bond.
    """

    offdiag: np.ndarray
    corner: float | None = None

    def __post_init__(self):
        arr = np.array(self.offdiag, dtype=float)
        if self.corner is not None and len(arr) < 2:
            raise ValueError("a ring needs at least 3 sites")
        arr.setflags(write=False)
        object.__setattr__(self, "offdiag", arr)

    @property
    def size(self) -> int:
        return len(self.offdiag) + 1

    @property
    def is_tridiagonal(self) -> bool:
        return self.corner is None

    def to_dense(self) -> np.ndarray:
        n = self.size
        m = np.zeros((n, n))
        idx = np.arange(n - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        if self.corner is not None:
            m[0, n - 1] = self.corner
            m[n - 1, 0] = self.corner
        return m

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros_like(x)
        y[:-1] += self.offdiag * x[1:]
        y[1:] += self.offdiag * x[:-1]
        if self.corner is not None:
            y[0] += self.corner * x[-1]
            y[-1] += self.corner * x[0]
        return y

    def norm_bound(self) -> float:
        """Gershgorin bound on the spectral radius: the largest `gershgorin_radii`."""
        if self.size < 2:
            return 0.0
        return float(gershgorin_radii(self.offdiag, self.corner).max())

    def trace_h2(self) -> float:
        """trace(H^2) = 2 * sum of squared bonds (corner included)."""
        t = 2.0 * float(np.dot(self.offdiag, self.offdiag))
        if self.corner is not None:
            t += 2.0 * self.corner**2
        return t


@dataclass(frozen=True)
class FluxMatrix:
    """Non-Hermitian hopping block h(phi) of a ring threaded by a phase.

    Diagonal holds the sampled couplings u_i, the subdiagonal is the
    constant w, and the single (0, n-1) corner carries w * exp(i*phi); it
    is the only entry that can be non-real.
    """

    diagonal: np.ndarray
    w: float
    phi: float

    def __post_init__(self):
        arr = np.array(self.diagonal, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "diagonal", arr)

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def determinant(self) -> complex:
        """det h(phi) in structural closed form.

        prod(u_i) + (-1)**(n+1) * w**n * exp(i*phi) follows from cofactor
        expansion along the first row; it can over/underflow for large n,
        use log_terms() for the scaled version.
        """
        n = self.n
        return complex(
            np.prod(self.diagonal) + (-1.0) ** (n + 1) * self.w**n * np.exp(1j * self.phi)
        )

    def log_terms(self) -> tuple[float, float, float, float]:
        """Overflow-safe pieces of det h(phi) = sp*e^lp + sq*e^lq * e^{i phi}.

        Returns (lp, sp, lq, sq) with lp = sum log|u_i|, sp the sign of
        prod(u_i), lq = n*log|w| and sq the sign of (-1)**(n+1) * w**n.
        Zero couplings or w=0 give lp/lq = -inf with sign 0.
        """
        n = self.n
        with np.errstate(divide="ignore"):
            lp = float(np.sum(np.log(np.abs(self.diagonal))))
        sp = float(np.prod(np.sign(self.diagonal)))
        lq = n * math.log(abs(self.w)) if self.w != 0.0 else -math.inf
        sq = (-1.0) ** (n + 1) * math.copysign(1.0, self.w) ** n if self.w != 0.0 else 0.0
        return lp, sp, lq, sq


def gershgorin_radii(offdiag: np.ndarray, corner=None) -> np.ndarray:
    """Gershgorin radii |e_(i-1)| + |e_i| of each site, one chain per row of `offdiag`.

    `offdiag` (..., N-1) holds the bonds of zero-diagonal chains of N >= 2
    sites; `corner` (a scalar, or one per chain) closes rings and adds its
    magnitude to the first and last site.
    """
    ae = np.abs(offdiag)
    radii = np.concatenate((ae[..., :1], ae[..., :-1] + ae[..., 1:], ae[..., -1:]), axis=-1)
    if corner is not None:
        radii[..., 0] += np.abs(corner)
        radii[..., -1] += np.abs(corner)
    return radii


def chain_couplings(params: ChainParams, couplings: np.ndarray) -> np.ndarray:
    """Off-diagonals [u1, w, u2, w, ..., un] of a block of chains, one per row.

    `couplings` (B, n) holds each realization's intra-dimer couplings; the
    result (B, 2n-1) holds each chain's nearest-neighbour bonds.
    """
    n = params.n
    if couplings.shape[1] != n:
        raise ValueError(f"realization has {couplings.shape[1]} couplings, params expect {n}")
    offdiag = np.empty((len(couplings), 2 * n - 1))
    offdiag[:, 0::2] = couplings
    offdiag[:, 1::2] = params.w
    return offdiag


def build_chain(params: ChainParams, r: Realization) -> ChainMatrix:
    """Assemble the 2n x 2n chain matrix for one realization."""
    return ChainMatrix(offdiag=chain_couplings(params, r.couplings[None])[0], corner=params.corner)


def build_flux_matrix(r: Realization, w: float, phi: float) -> FluxMatrix:
    """Assemble the n x n flux block h(phi) for one realization."""
    return FluxMatrix(diagonal=r.couplings, w=float(w), phi=float(phi))


def dispersion(u: float, w: float, k):
    """Lower-band dispersion -sqrt(u^2 + w^2 + 2uw cos k)."""
    return -np.sqrt(u * u + w * w + 2.0 * u * w * np.cos(k))


def coherence_length(u: float, w: float) -> float:
    """Decay length 1/log|w/u| of the midgap edge modes.

    Defined only for |w| > |u| > 0; anywhere else there is no localized
    edge mode and the call raises.
    """
    if not (abs(w) > abs(u) > 0.0):
        raise ValueError("no localized edge mode: requires |w| > |u| > 0")
    return 1.0 / math.log(abs(w / u))
