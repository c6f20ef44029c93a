"""Disorder sampling and deterministic parallel Monte Carlo estimators.

Every realization draws from its own counter-based stream keyed by
(master_seed, index), re-keying one Philox per process, so realization k is
bit-identical no matter how many workers evaluate the ensemble or in which
order they run.  A sweep is a list of points (distribution, seed) that
share chain parameters and a realization count r; its rows are the
(point, index) pairs.  Each estimator maps fixed blocks of consecutive rows,
sized by the sweep's shape only, over worker processes (the kernels are CPU
bound in Python loops), so one kernel call serves rows of several points,
and the reduction splits the results by point in index order.  A one-point
estimate is a sweep of one point.  The index of a block comes from its row
sums acc_i = sum_j log|c_ij/u|.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .invariant import index_from_log_xi, log_ratio_sums, log_xi_offset
from .model import BoundaryCondition, ChainParams, Realization, build_chain
from .spectrum import chain_gaps, midgap_levels, midgap_vectors

__all__ = [
    "FlatDistribution",
    "EnsembleEstimate",
    "sample_realization",
    "estimate_mean_nu",
    "estimate_eta_moments",
    "estimate_wavefunction_profile",
    "estimate_mean_gap",
    "sweep_mean_nu",
    "sweep_wavefunction_profile",
    "sweep_mean_gap",
    "worker_pool",
]

_MASK64 = (1 << 64) - 1
# rows per block of the batched midgap-profile kernels: at n = 100 one call
# of 128 chains costs about a quarter of the same chains in calls of 16
_PROFILE_BLOCK = 128
# rows per block of the gap estimator: the Golub-Kahan chains of a block's
# rings share one midgap_levels call, and a handful of rings still spreads
# over the workers
_GAP_BLOCK = 4
# rows per block of the index and eta ensembles (about 10 us each at
# n = 100): a sweep of one block runs in-process, and with blocks this
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

    def couplings(self, uniforms: np.ndarray) -> np.ndarray:
        """Standard uniforms mapped onto the coupling support, in place.

        x*(hi - lo) + lo, which is `Generator.uniform(lo, hi)` bit for bit
        when x holds that generator's `random` draws.
        """
        lo, hi = self.coupling_support
        uniforms *= hi - lo
        uniforms += lo
        return uniforms

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.couplings(rng.random(n))


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
    """The n couplings of each realization in `indices`, one row each.

    Each row takes its stream's first n standard uniforms, and one
    `dist.couplings` call maps the block onto the support: row for row
    the draws of `dist.sample` from that stream.
    """
    block = np.empty((len(indices), n))
    for row, i in zip(block, indices):
        _stream(master_seed, i).random(out=row)
    return dist.couplings(block)


def sample_realization(
    dist: FlatDistribution, n: int, master_seed: int, index: int
) -> Realization:
    """Draw the n couplings of realization `index` from its own stream."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    couplings = _sample_block(dist, n, master_seed, [index])[0]
    return Realization(couplings=couplings, master_seed=master_seed, index=index)


@dataclass(frozen=True)
class _Segment:
    """The realizations `indices` of one sweep point, consecutive rows of a block."""

    dist: FlatDistribution
    master_seed: int
    indices: range


def _block_couplings(segments, n: int) -> np.ndarray:
    """The couplings of a block's rows, segment after segment."""
    return np.concatenate([_sample_block(s.dist, n, s.master_seed, s.indices) for s in segments])


def _sweep_blocks(points, r: int, block: int) -> list[tuple[_Segment, ...]]:
    """The sweep's rows cut into blocks of `block` consecutive rows.

    Row k is realization k % r of point k // r; the last block holds the
    remainder, and a block may cross from one point into the next.
    """
    total = len(points) * r
    blocks = []
    for start in range(0, total, block):
        stop = min(start + block, total)
        segments = []
        for p in range(start // r, (stop - 1) // r + 1):
            dist, seed = points[p]
            indices = range(max(start - p * r, 0), min(stop - p * r, r))
            segments.append(_Segment(dist, seed, indices))
        blocks.append(tuple(segments))
    return blocks


@dataclass
class _RunPool:
    """A process pool shared by the estimator calls of one run.

    `sweeps` logs each sweep mapped while the pool is open: its quantity,
    block count and whether its blocks went to the pool.
    """

    threads: int
    executor: ProcessPoolExecutor | None = None
    sweeps: list[dict] = field(default_factory=list)


_run_pools: list[_RunPool] = []


@contextmanager
def worker_pool(threads: int):
    """Let the pooled estimator calls made inside share one process pool.

    The pool starts at the first call that needs it; on exit it is shut
    down and its workers joined.  Estimators called outside, or with
    another worker count, open a pool of their own per call.  Yields the
    slot: `threads` is the resolved worker count, `executor` stays set once
    the pool has started, and `sweeps` logs every sweep made inside.
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


def _map_sweep(quantity, worker, params, points, r: int, block: int, threads: int) -> list:
    """worker(params, segments) over a sweep's rows in blocks, split by point.

    `points` holds (dist, master_seed) pairs.  Blocks hold `block` rows
    (`_sweep_blocks`), a size the worker count never changes, and each block
    is farmed out whole, so every worker call sees the same rows with any
    number of workers.  A sweep of one block, or a run with one worker,
    stays in-process.  A pool never starts more processes than there are
    CPUs, whatever `threads` asks for.  The worker returns a tuple of per-row
    arrays; so does this map, each reshaped to (point, index, ...).
    """
    if not points:
        raise ValueError("a sweep needs at least one point")
    for dist, _ in points:
        if params.u != dist.u:
            raise ValueError(
                f"distribution center {dist.u} does not match chain coupling {params.u}"
            )
    worker = partial(worker, params)
    blocks = _sweep_blocks(points, r, block)
    threads = _resolve_threads(threads)
    pooled = threads > 1 and len(blocks) > 1
    slot = _run_pools[-1] if _run_pools else None
    if slot is not None:
        slot.sweeps.append({"quantity": quantity, "blocks": len(blocks), "pooled": pooled})
    if not pooled:
        results = [worker(b) for b in blocks]
    else:
        chunksize = max(1, len(blocks) // (threads * 4))
        # a forked pool starts all its workers at its first task
        workers = min(threads, os.cpu_count() or 1)
        if slot is not None and slot.threads == threads:
            if slot.executor is None:
                slot.executor = ProcessPoolExecutor(max_workers=workers)
            results = list(slot.executor.map(worker, blocks, chunksize=chunksize))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(worker, blocks, chunksize=chunksize))
    return [
        np.concatenate(rows).reshape(len(points), r, *rows[0].shape[1:])
        for rows in zip(*results)
    ]


def _mean_stderr(x: np.ndarray):
    """Mean over axis 0 and its standard error (nan from a single sample)."""
    n = len(x)
    se = x.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.full(x.shape[1:], math.nan)
    return x.mean(axis=0), se


def _log_ratio_block(params, segments, redraw_zeros=False):
    """Row sums acc_i = sum_j log|c_ij/u| of a block, and the redraws per row.

    With redraw_zeros, a row holding an exactly zero coupling is drawn
    again from its own stream, continuing where that stream left off,
    until it holds none; each redraw is counted.
    """
    couplings = _block_couplings(segments, params.n)
    redraws = np.zeros(len(couplings), dtype=np.int64)
    if redraw_zeros:
        rows = [(s, i) for s in segments for i in s.indices]
        for k in np.flatnonzero(np.any(couplings == 0.0, axis=1)):
            segment, index = rows[k]
            rng = _stream(segment.master_seed, index)
            row = segment.dist.sample(rng, params.n)  # the draw that held a zero
            while np.any(row == 0.0):
                redraws[k] += 1
                row = segment.dist.sample(rng, params.n)
            couplings[k] = row
    return log_ratio_sums(couplings, params.u), redraws


def _chains(params, segments):
    couplings = _block_couplings(segments, params.n)
    rows = [(s.master_seed, i) for s in segments for i in s.indices]
    return [
        build_chain(params, Realization(couplings=c, master_seed=seed, index=i))
        for c, (seed, i) in zip(couplings, rows)
    ]


def _profile_block(params, segments):
    """Per-dimer weight of the +/- pair of states closest to zero energy.

    The block's chains share one call of each batched kernel.  Dimer i
    weighs a_i^2 + b_i^2, taken from v_+/- = (a, +/-b)/sqrt(2) as
    `midgap_pair` builds them; each profile is normalized to total weight 2
    (two states).
    """
    offdiag = np.array([m.offdiag for m in _chains(params, segments)])
    a, b = midgap_vectors(offdiag, midgap_levels(offdiag))
    per_dimer = (a / math.sqrt(2.0)) ** 2 + (b / math.sqrt(2.0)) ** 2
    return (per_dimer * (2.0 / per_dimer.sum(axis=1, keepdims=True)),)


def _gap_block(params, segments):
    """The gaps of a block's chains from one batched level call (`chain_gaps`)."""
    return (chain_gaps(_chains(params, segments)),)


def sweep_mean_nu(
    params: ChainParams, points, r: int, threads: int = 0
) -> list[EnsembleEstimate]:
    """Mean of the closed-form index over r realizations at each sweep point.

    `points` holds (dist, master_seed) pairs.  log xi_i = n*log|u/w| + acc_i
    from each block's row sums, thresholded by `invariant.index_from_log_xi`
    as in `winding_closed_form`.  Critical realizations (log xi exactly 0)
    are excluded from a point's average and reported in n_excluded rather
    than silently resampled.  Up to _INDEX_BLOCK rows (one block) run
    in-process whatever `threads` says.
    """
    if r < 2:
        raise ValueError("need at least 2 realizations")
    offset = log_xi_offset(params)
    acc, _ = _map_sweep("mean_nu", _log_ratio_block, params, points, r, _INDEX_BLOCK, threads)
    estimates = []
    for (dist, seed), point_acc in zip(points, acc):
        nu = index_from_log_xi(offset + point_acc)
        kept = nu[~np.isnan(nu)]
        if len(kept) < 2:
            raise RuntimeError(f"fewer than 2 non-critical realizations at gamma = {dist.gamma}")
        mean, stderr = _mean_stderr(kept)
        estimates.append(
            EnsembleEstimate(
                "mean_nu", float(mean), float(stderr), len(kept), seed, n_excluded=r - len(kept)
            )
        )
    return estimates


def sweep_wavefunction_profile(
    params: ChainParams, points, r: int, threads: int = 0
) -> list[EnsembleEstimate]:
    """Disorder-averaged per-dimer profile of the two midgap states at each point.

    Both sublattice amplitudes and both band partners are traced per dimer
    and each realization's profile is normalized to total weight 2 (two
    states) before averaging; open boundaries only.
    """
    if r < 1:
        raise ValueError("need at least 1 realization")
    if params.bc is not BoundaryCondition.OPEN:
        raise ValueError("wavefunction profile requires open boundaries")
    (profiles,) = _map_sweep(
        "wavefunction_profile", _profile_block, params, points, r, _PROFILE_BLOCK, threads
    )
    return [
        EnsembleEstimate("wavefunction_profile", *_mean_stderr(rows), r, seed)
        for (_, seed), rows in zip(points, profiles)
    ]


def sweep_mean_gap(
    params: ChainParams, points, r: int, threads: int = 0
) -> list[EnsembleEstimate]:
    """Mean spectral gap 2*min|E_j| over r realizations at each point.

    _GAP_BLOCK chains per block, so a handful of rings spreads over the
    workers.
    """
    if r < 1:
        raise ValueError("need at least 1 realization")
    (gaps,) = _map_sweep("mean_gap", _gap_block, params, points, r, _GAP_BLOCK, threads)
    return [
        EnsembleEstimate("mean_gap", *map(float, _mean_stderr(rows)), r, seed)
        for (_, seed), rows in zip(points, gaps)
    ]


def estimate_mean_nu(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Mean of the closed-form index over r realizations (`sweep_mean_nu` at one point)."""
    return sweep_mean_nu(params, [(dist, master_seed)], r, threads)[0]


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
    point = [(dist, master_seed)]
    acc, redraws = _map_sweep("eta_moments", worker, params, point, r, _INDEX_BLOCK, threads)
    etas = acc[0]
    mean, var = float(etas.mean()), float(etas.var(ddof=1))
    m4 = float(np.mean((etas - mean) ** 4))
    se_var = math.sqrt(max((m4 - var * var * (r - 3) / (r - 1)) / r, 0.0))
    stderr = np.array([math.sqrt(var / r), se_var])
    return EnsembleEstimate(
        "eta_moments",
        np.array([mean, var]),
        stderr,
        r,
        master_seed,
        n_resampled=int(redraws[0].sum()),
    )


def estimate_wavefunction_profile(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Averaged midgap profile (`sweep_wavefunction_profile` at one point)."""
    return sweep_wavefunction_profile(params, [(dist, master_seed)], r, threads)[0]


def estimate_mean_gap(
    params: ChainParams,
    dist: FlatDistribution,
    r: int,
    master_seed: int,
    threads: int = 0,
) -> EnsembleEstimate:
    """Mean spectral gap over r realizations (`sweep_mean_gap` at one point)."""
    return sweep_mean_gap(params, [(dist, master_seed)], r, threads)[0]
