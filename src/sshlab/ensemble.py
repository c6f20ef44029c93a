"""Disorder sampling and deterministic parallel Monte Carlo estimators.

Every realization draws from its own counter-based stream keyed by
(master_seed, index), re-keying one Philox per process, so realization k is
bit-identical no matter how many workers evaluate the ensemble or in which
order they run.  Each estimator maps fixed blocks of consecutive
realizations, sized by r only, over worker processes (the kernels are CPU
bound in Python loops), and the reduction walks results in index order.
The index of a block comes from its row sums acc_i = sum_j log|c_ij/u|.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .invariant import index_from_log_xi, log_ratio_sums, log_xi_offset
from .model import BoundaryCondition, ChainParams, Realization, build_chain
from .spectrum import chain_gap, midgap_levels, midgap_vectors

__all__ = [
    "FlatDistribution",
    "EnsembleEstimate",
    "sample_realization",
    "estimate_mean_nu",
    "estimate_eta_moments",
    "estimate_wavefunction_profile",
    "estimate_mean_gap",
    "worker_pool",
]

_MASK64 = (1 << 64) - 1
# realizations per block of the batched midgap-profile kernels
_PROFILE_BLOCK = 16
# realizations per block of the index and eta ensembles (about 10 us each at
# n = 100): an ensemble of one block runs in-process, and with blocks this
# large two workers beat one at r = 1000 and r = 15000 (2 cores), while at
# r = 300 a pool would cost more than it saves
_INDEX_BLOCK = 500
# the process's one Philox, re-keyed per realization (`_stream`), and the
# state of a fresh Philox: counter 0, empty buffer
_PHILOX = np.random.Philox(0)
_GENERATOR = np.random.Generator(_PHILOX)
_FRESH_STATE = _PHILOX.state


@dataclass(frozen=True)
class FlatDistribution:
    """Uniform coupling density on [u - sqrt(3) gamma, u + sqrt(3) gamma].

    gamma is the standard deviation; pdf/support describe the centered
    deviation density used by the cumulant quadratures.
    """

    gamma: float
    u: float

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")

    @property
    def halfwidth(self) -> float:
        return math.sqrt(3.0) * self.gamma

    @property
    def support(self) -> tuple[float, float]:
        return (-self.halfwidth, self.halfwidth)

    @property
    def coupling_support(self) -> tuple[float, float]:
        return (self.u - self.halfwidth, self.u + self.halfwidth)

    def pdf(self, eps: float) -> float:
        h = self.halfwidth
        if h == 0.0:
            raise ValueError("gamma = 0 is a point mass with no density")
        return 1.0 / (2.0 * h) if -h <= eps <= h else 0.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo, hi = self.coupling_support
        return rng.uniform(lo, hi, n)


@dataclass(frozen=True)
class EnsembleEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    quantity: str
    value: float | np.ndarray
    stderr: float | np.ndarray
    n_realizations: int
    master_seed: int
    n_excluded: int = 0
    n_resampled: int = 0


def _stream(master_seed: int, index: int) -> np.random.Generator:
    """The process's generator at the start of realization `index`'s stream.

    Its draws are bit-identical to those of a Generator(Philox(key)) built
    for the key (master_seed, index) alone.
    """
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    _FRESH_STATE["state"]["key"] = key
    _PHILOX.state = _FRESH_STATE
    return _GENERATOR


def _sample_block(dist: FlatDistribution, n: int, master_seed: int, indices) -> np.ndarray:
    """The n couplings of each realization in `indices`, one row each."""
    return np.array([dist.sample(_stream(master_seed, i), n) for i in indices])


def sample_realization(
    dist: FlatDistribution, n: int, master_seed: int, index: int
) -> Realization:
    """Draw the n couplings of realization `index` from its own stream."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    couplings = _sample_block(dist, n, master_seed, [index])[0]
    return Realization(couplings=couplings, master_seed=master_seed, index=index)


@dataclass
class _RunPool:
    """A process pool shared by the estimator calls of one run."""

    threads: int
    executor: ProcessPoolExecutor | None = None


_run_pools: list[_RunPool] = []


@contextmanager
def worker_pool(threads: int):
    """Let the pooled estimator calls made inside share one process pool.

    The pool starts at the first call that needs it; on exit it is shut
    down and its workers joined.  Estimators called outside, or with
    another worker count, open a pool of their own per call.  Yields the
    slot: `threads` is the resolved worker count, and `executor` stays
    set once the pool has started.
    """
    slot = _RunPool(_resolve_threads(threads))
    _run_pools.append(slot)
    try:
        yield slot
    finally:
        _run_pools.remove(slot)
        if slot.executor is not None:
            slot.executor.shutdown(wait=True)


def _resolve_threads(threads: int) -> int:
    return threads or os.cpu_count() or 1


def _map_blocks(worker, params, dist, master_seed, r: int, block: int, threads: int) -> list:
    """worker(params, dist, master_seed, indices) over blocks of 0..r-1, in order.

    Blocks hold `block` indices (the last one the remainder), a size the
    worker count never changes, and each block is farmed out whole, so
    every worker call sees the same rows with any number of workers.  An
    ensemble of one block, or a run with one worker, stays in-process.
    """
    if params.u != dist.u:
        raise ValueError(f"distribution center {dist.u} does not match chain coupling {params.u}")
    worker = partial(worker, params, dist, master_seed)
    blocks = [range(s, min(s + block, r)) for s in range(0, r, block)]
    threads = _resolve_threads(threads)
    if threads <= 1 or len(blocks) < 2:
        return [worker(b) for b in blocks]
    chunksize = max(1, len(blocks) // (threads * 4))
    slot = _run_pools[-1] if _run_pools else None
    if slot is not None and slot.threads == threads:
        if slot.executor is None:
            slot.executor = ProcessPoolExecutor(max_workers=threads)
        return list(slot.executor.map(worker, blocks, chunksize=chunksize))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, blocks, chunksize=chunksize))


def _mean_stderr(x: np.ndarray):
    """Mean over axis 0 and its standard error (nan from a single sample)."""
    n = len(x)
    se = x.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.full(x.shape[1:], math.nan)
    return x.mean(axis=0), se


def _log_ratio_block(params, dist, master_seed, indices, redraw_zeros=False):
    """Row sums acc_i = sum_j log|c_ij/u| of a block, and the rows redrawn.

    With redraw_zeros, a row holding an exactly zero coupling is drawn
    again from its own stream, continuing where that stream left off,
    until it holds none; each redraw is counted.
    """
    couplings = _sample_block(dist, params.n, master_seed, indices)
    redraws = 0
    if redraw_zeros:
        for k in np.flatnonzero(np.any(couplings == 0.0, axis=1)):
            rng = _stream(master_seed, indices[k])
            row = dist.sample(rng, params.n)  # the draw that held a zero
            while np.any(row == 0.0):
                redraws += 1
                row = dist.sample(rng, params.n)
            couplings[k] = row
    return log_ratio_sums(couplings, params.u), redraws


def _chains(params, dist, master_seed, indices):
    return [
        build_chain(params, Realization(couplings=c, master_seed=master_seed, index=i))
        for c, i in zip(_sample_block(dist, params.n, master_seed, indices), indices)
    ]


def _profile_block(params, dist, master_seed, indices):
    """Per-dimer weight of the +/- pair of states closest to zero energy.

    The block's chains share one call of each batched kernel.  Dimer i
    weighs a_i^2 + b_i^2, taken from v_+/- = (a, +/-b)/sqrt(2) as
    `midgap_pair` builds them; each profile is normalized to total weight 2
    (two states).
    """
    offdiag = np.array([m.offdiag for m in _chains(params, dist, master_seed, indices)])
    a, b = midgap_vectors(offdiag, midgap_levels(offdiag))
    per_dimer = (a / math.sqrt(2.0)) ** 2 + (b / math.sqrt(2.0)) ** 2
    return per_dimer * (2.0 / per_dimer.sum(axis=1, keepdims=True))


def _gap_block(params, dist, master_seed, indices):
    return [chain_gap(m) for m in _chains(params, dist, master_seed, indices)]


def estimate_mean_nu(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Mean of the closed-form index over r realizations.

    log xi_i = n*log|u/w| + acc_i from each block's row sums, thresholded by
    `invariant.index_from_log_xi` as in `winding_closed_form`.  Critical
    realizations (log xi exactly 0) are excluded from the average and
    reported in n_excluded rather than silently resampled.  Up to
    _INDEX_BLOCK realizations (one block) run in-process whatever
    `threads` says.
    """
    if r < 2:
        raise ValueError("need at least 2 realizations")
    offset = log_xi_offset(params)
    blocks = _map_blocks(_log_ratio_block, params, dist, master_seed, r, _INDEX_BLOCK, threads)
    nu = index_from_log_xi(offset + np.concatenate([acc for acc, _ in blocks]))
    kept = nu[~np.isnan(nu)]
    if len(kept) < 2:
        raise RuntimeError("fewer than 2 non-critical realizations")
    mean, stderr = _mean_stderr(kept)
    return EnsembleEstimate(
        "mean_nu", float(mean), float(stderr), len(kept), master_seed, n_excluded=r - len(kept)
    )


def estimate_eta_moments(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Sample mean and variance of eta = sum log|1 + du_i/u|.

    The contract is mean ~ n*z1 and variance ~ n*z2 from the cumulant
    quadratures.  Draws containing an exactly zero coupling are redrawn
    from the same stream and counted in n_resampled.
    """
    if r < 100:
        raise ValueError("need at least 100 realizations for moment estimates")
    if params.u == 0.0:
        raise ValueError("u must be nonzero")
    worker = partial(_log_ratio_block, redraw_zeros=True)
    results = _map_blocks(worker, params, dist, master_seed, r, _INDEX_BLOCK, threads)
    etas = np.concatenate([acc for acc, _ in results])
    mean, var = float(etas.mean()), float(etas.var(ddof=1))
    m4 = float(np.mean((etas - mean) ** 4))
    se_var = math.sqrt(max((m4 - var * var * (r - 3) / (r - 1)) / r, 0.0))
    stderr = np.array([math.sqrt(var / r), se_var])
    n_resampled = sum(redraws for _, redraws in results)
    return EnsembleEstimate(
        "eta_moments", np.array([mean, var]), stderr, r, master_seed, n_resampled=n_resampled
    )


def estimate_wavefunction_profile(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Disorder-averaged per-dimer profile of the two midgap states.

    Both sublattice amplitudes and both band partners are traced per dimer
    and each realization's profile is normalized to total weight 2 (two
    states) before averaging; open boundaries only.
    """
    if r < 1:
        raise ValueError("need at least 1 realization")
    if params.bc is not BoundaryCondition.OPEN:
        raise ValueError("wavefunction profile requires open boundaries")
    blocks = _map_blocks(_profile_block, params, dist, master_seed, r, _PROFILE_BLOCK, threads)
    profiles = np.concatenate(blocks)
    return EnsembleEstimate("wavefunction_profile", *_mean_stderr(profiles), r, master_seed)


def estimate_mean_gap(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Mean spectral gap 2*min|E_j| over r realizations.

    One realization per block, so a handful of rings spreads over the workers.
    """
    if r < 1:
        raise ValueError("need at least 1 realization")
    blocks = _map_blocks(_gap_block, params, dist, master_seed, r, 1, threads)
    mean, stderr = _mean_stderr(np.concatenate(blocks))
    return EnsembleEstimate("mean_gap", float(mean), float(stderr), r, master_seed)
