"""Disorder sampling and deterministic parallel Monte Carlo estimators.

Every realization draws from its own counter-based stream keyed by
(master_seed, index), so realization k is bit-identical no matter how many
workers evaluate the ensemble or in which order they run.  The map phase
fans out over processes (the eigensolver kernels are CPU bound in Python
loops), one realization or one fixed block of realizations per task, and
the reduction always walks results in index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .invariant import CriticalRealizationError, winding_closed_form
from .model import BoundaryCondition, ChainParams, Realization, build_chain
from .spectrum import chain_gap, midgap_levels, midgap_vectors

__all__ = [
    "FlatDistribution",
    "EnsembleEstimate",
    "realization_rng",
    "sample_realization",
    "estimate_mean_nu",
    "estimate_eta_moments",
    "estimate_wavefunction_profile",
    "estimate_mean_gap",
    "worker_pool",
]

_MASK64 = (1 << 64) - 1
# realizations per batched-kernel block
_BLOCK = 16
# closed-form index ensembles smaller than this run in-process: dispatching to
# the pool costs more than it saves below a crossover measured near 128-256
# realizations (n = 100, 2 cores, a pool already running)
_POOL_MIN_INDEX = 256


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


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one realization, independent of threading."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_realization(
    dist: FlatDistribution, n: int, master_seed: int, index: int
) -> Realization:
    """Draw the n couplings of realization `index` from its own stream."""
    rng = realization_rng(master_seed, index)
    return Realization(
        couplings=dist.sample(rng, n), master_seed=master_seed, index=index
    )


class _RunPool:
    """A process pool shared by the estimator calls of one run."""

    def __init__(self, threads: int):
        self.threads = threads
        self.executor: ProcessPoolExecutor | None = None


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


def _pool_map(worker, items, threads: int, chunksize: int) -> list:
    slot = _run_pools[-1] if _run_pools else None
    if slot is not None and slot.threads == threads:
        if slot.executor is None:
            slot.executor = ProcessPoolExecutor(max_workers=threads)
        return list(slot.executor.map(worker, items, chunksize=chunksize))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, items, chunksize=chunksize))


def _map_indices(worker, r: int, threads: int):
    """worker(index) for index 0..r-1, gathered in index order.

    Work is farmed out to a process pool when more than one worker is
    requested; each index is computed identically either way, so the
    worker count never changes the numbers.
    """
    threads = _resolve_threads(threads)
    if threads <= 1 or r < 4:
        return [worker(i) for i in range(r)]
    chunksize = max(1, min(512, r // (threads * 4) or 1))
    return _pool_map(worker, range(r), threads, chunksize)


def _map_blocks(worker, r: int, threads: int):
    """worker(indices) over consecutive blocks of 0..r-1, concatenated in index order.

    Blocks hold _BLOCK indices (the last one the remainder) whatever the
    worker count, and each block is farmed out whole, so a batched kernel
    sees the same rows with any number of workers.
    """
    blocks = [range(s, min(s + _BLOCK, r)) for s in range(0, r, _BLOCK)]
    threads = _resolve_threads(threads)
    if threads <= 1 or len(blocks) < 2:
        results = [worker(b) for b in blocks]
    else:
        results = _pool_map(worker, blocks, threads, 1)
    return [x for block in results for x in block]


def _check_params(params: ChainParams, dist: FlatDistribution):
    if params.u != dist.u:
        raise ValueError(
            f"distribution center {dist.u} does not match chain coupling {params.u}"
        )


def _nu_worker(params, dist, master_seed, i):
    real = sample_realization(dist, params.n, master_seed, i)
    try:
        return winding_closed_form(real, params)
    except CriticalRealizationError:
        return None


def _eta_worker(params, dist, master_seed, i):
    rng = realization_rng(master_seed, i)
    couplings = dist.sample(rng, params.n)
    redraws = 0
    while np.any(couplings == 0.0):
        redraws += 1
        couplings = dist.sample(rng, params.n)
    return float(np.sum(np.log(np.abs(couplings / params.u)))), redraws


def _profile_block(params, dist, master_seed, indices):
    """Per-dimer weight of the +/- pair of states closest to zero energy.

    The block's chains share one call of each batched kernel.  Dimer i
    weighs a_i^2 + b_i^2, taken from v_+/- = (a, +/-b)/sqrt(2) as
    `midgap_pair` builds them; each profile is normalized to total weight 2
    (two states).
    """
    offdiag = np.array(
        [
            build_chain(params, sample_realization(dist, params.n, master_seed, i)).offdiag
            for i in indices
        ]
    )
    a, b = midgap_vectors(offdiag, midgap_levels(offdiag))
    per_dimer = (a / math.sqrt(2.0)) ** 2 + (b / math.sqrt(2.0)) ** 2
    return list(per_dimer * (2.0 / per_dimer.sum(axis=1, keepdims=True)))


def _gap_worker(params, dist, master_seed, i):
    real = sample_realization(dist, params.n, master_seed, i)
    return chain_gap(build_chain(params, real))


def estimate_mean_nu(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Mean of the closed-form index over r realizations.

    Critical realizations (exact boundary ties) are excluded from the
    average and reported in n_excluded rather than silently resampled.
    Fewer than _POOL_MIN_INDEX realizations are mapped in-process whatever
    `threads` says.
    """
    if r < 2:
        raise ValueError("need at least 2 realizations")
    _check_params(params, dist)
    worker = partial(_nu_worker, params, dist, master_seed)
    vals = _map_indices(worker, r, threads if r >= _POOL_MIN_INDEX else 1)
    kept = np.array([v for v in vals if v is not None], dtype=float)
    excluded = r - len(kept)
    if len(kept) < 2:
        raise RuntimeError("fewer than 2 non-critical realizations")
    mean = float(kept.mean())
    stderr = float(kept.std(ddof=1) / math.sqrt(len(kept)))
    return EnsembleEstimate(
        quantity="mean_nu",
        value=mean,
        stderr=stderr,
        n_realizations=len(kept),
        master_seed=master_seed,
        n_excluded=excluded,
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
    _check_params(params, dist)
    if params.u == 0.0:
        raise ValueError("u must be nonzero")
    worker = partial(_eta_worker, params, dist, master_seed)
    results = _map_indices(worker, r, threads)
    etas = np.array([eta for eta, _ in results])
    n_resampled = sum(redraws for _, redraws in results)
    mean = float(etas.mean())
    var = float(etas.var(ddof=1))
    se_mean = math.sqrt(var / r)
    centered = etas - mean
    m4 = float(np.mean(centered**4))
    var_of_var = (m4 - var * var * (r - 3) / (r - 1)) / r
    se_var = math.sqrt(max(var_of_var, 0.0))
    return EnsembleEstimate(
        quantity="eta_moments",
        value=np.array([mean, var]),
        stderr=np.array([se_mean, se_var]),
        n_realizations=r,
        master_seed=master_seed,
        n_resampled=n_resampled,
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
    _check_params(params, dist)
    worker = partial(_profile_block, params, dist, master_seed)
    profiles = np.array(_map_blocks(worker, r, threads))
    mean = profiles.mean(axis=0)
    stderr = (
        profiles.std(axis=0, ddof=1) / math.sqrt(r)
        if r > 1
        else np.full(params.n, math.nan)
    )
    return EnsembleEstimate(
        quantity="wavefunction_profile",
        value=mean,
        stderr=stderr,
        n_realizations=r,
        master_seed=master_seed,
    )


def estimate_mean_gap(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Mean spectral gap 2*min|E_j| over r realizations."""
    if r < 1:
        raise ValueError("need at least 1 realization")
    _check_params(params, dist)
    worker = partial(_gap_worker, params, dist, master_seed)
    gaps = np.array(_map_indices(worker, r, threads))
    mean = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / math.sqrt(r)) if r > 1 else math.nan
    return EnsembleEstimate(
        quantity="mean_gap",
        value=mean,
        stderr=stderr,
        n_realizations=r,
        master_seed=master_seed,
    )
