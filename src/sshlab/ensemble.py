"""Disorder sampling and deterministic parallel Monte Carlo estimators.

Every realization draws from its own counter-based stream keyed by
(master_seed, index), re-keying one Philox per process, so realization k is
bit-identical no matter how many workers evaluate the ensemble or in which
order they run.  A sweep is a list of points (distribution, seed) that
share chain parameters and a realization count r; its row k is realization
k % r of point k // r.  A block is a `range` of consecutive rows, sized by
the sweep's shape only: a fixed row count for the index, eta and profile
estimators, and for gaps a count read from the sweep's row and dimer
counts, so that a small ring sweep is one kernel call.  Each estimator
maps its blocks by fork-join (the kernels are CPU bound in Python loops):
block i goes to process i % W, the caller maps share 0 while W - 1 forked
children map the others and send them back through pipes.  A worker
samples its block's rows into one array and keeps it an array down to the
batched kernels, so one kernel call serves rows of several points, and
returns one array with a row per sweep row; the reduction splits the rows
by point in index order.  A one-point estimate is a sweep of one point.
The index and eta of a block both come from its row sums
acc_i = sum_j log|c_ij/u|.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .invariant import index_from_log_xi, log_ratio_sums, log_xi_offset
from .model import BoundaryCondition, ChainParams, Realization, chain_couplings
from .spectrum import chain_gaps, midgap_vectors

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
    "sweep_log",
]

_MASK64 = (1 << 64) - 1
# rows per block of the batched midgap-profile kernels: at n = 100 one call
# of 128 chains costs about a quarter of the same chains in calls of 16
_PROFILE_BLOCK = 128
# rows per block of the gap estimator (`_gap_block_rows`): up to
# _GAP_BLOCK_DIMERS dimers share one block, and so the per-site numpy calls
# of the ring reduction and of the bisection, and a block holds at most
# _GAP_BLOCK_MAX rings, so a long sweep still spreads over the processes
_GAP_BLOCK_DIMERS = 4000
_GAP_BLOCK_MAX = 64
# rows per block of the index and eta ensembles (about 10 us each at
# n = 100): a sweep of one block runs in-process, and with blocks this
# large two processes beat one at r = 1000 and r = 15000 (2 cores), while
# at r = 300 a fork would cost more than it saves
_INDEX_BLOCK = 500
# the process's one Philox, re-keyed per realization by writing the key
# (master_seed, index) into the state of a fresh Philox (counter 0, empty
# buffer) and assigning that state; plain ints, since the state setter
# converts numpy scalars one by one at about twice the cost
_PHILOX = np.random.Philox(0)
_GENERATOR = np.random.Generator(_PHILOX)
_FRESH_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
    "buffer": [0, 0, 0, 0],
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}
_KEY = _FRESH_STATE["state"]["key"]


@dataclass(frozen=True)
class FlatDistribution:
    """Uniform coupling density on [u - sqrt(3) gamma, u + sqrt(3) gamma].

    gamma is the standard deviation of the couplings about their mean u.
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
    def coupling_support(self) -> tuple[float, float]:
        return (self.u - self.halfwidth, self.u + self.halfwidth)

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


def _sample_block(points, r: int, n: int, rows: range, out=None) -> np.ndarray:
    """The n couplings of the sweep rows `rows`, one row each (the leading rows of `out`, if given).

    Row k is realization k % r of point k // r, `points` holding
    (dist, master_seed) pairs.  Each row re-keys the process's Philox to
    (master_seed, index) and takes that stream's first n standard uniforms,
    and one `dist.couplings` call per point maps that point's rows onto its
    support: row for row the draws of `dist.sample` from a
    Generator(Philox(key)) built for that key alone.
    """
    block = np.empty((len(rows), n)) if out is None else out[: len(rows)]
    for p in range(rows.start // r, (rows.stop - 1) // r + 1):
        dist, seed = points[p]
        start, stop = max(rows.start, p * r), min(rows.stop, p * r + r)
        part = block[start - rows.start : stop - rows.start]
        _KEY[0] = seed & _MASK64
        for row, index in zip(part, range(start - p * r, stop - p * r)):
            _KEY[1] = index & _MASK64
            _PHILOX.state = _FRESH_STATE
            _GENERATOR.random(out=row)
        part[...] = dist.couplings(part)  # no copy when mapped in place
    return block


def sample_realization(
    dist: FlatDistribution, n: int, master_seed: int, index: int
) -> Realization:
    """Draw the n couplings of realization `index` from its own stream."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    couplings = _sample_block([(dist, master_seed)], index + 1, n, range(index, index + 1))[0]
    return Realization(couplings=couplings, master_seed=master_seed, index=index)


_sweep_logs: list[list[dict]] = []


def _workers(threads: int) -> int:
    """Processes a sweep for `threads` may use: the request (0 = all CPUs), at most the CPUs.

    Always 1 off Linux, where sweeps do not fork.
    """
    if sys.platform != "linux":
        return 1
    cpus = os.cpu_count() or 1
    return min(threads or cpus, cpus)


@contextmanager
def sweep_log():
    """Log the sweeps mapped inside: per sweep its quantity, block count, whether it forked
    and `seconds`, the caller's wall time for the map.

    Yields the log, a list of one dict per sweep; a sweep goes to the
    innermost open log only.
    """
    log: list[dict] = []
    _sweep_logs.append(log)
    try:
        yield log
    finally:
        _sweep_logs.remove(log)


def _map_sweep(quantity, worker, params, points, r: int, block: int, threads: int) -> np.ndarray:
    """worker(params, points, r, rows) over a sweep's rows in blocks, split by point.

    `points` holds (dist, master_seed) pairs.  Each block is a range of
    `block` consecutive rows (the last holds the remainder, and a block may
    cross from one point into the next), a size the worker count never
    changes, and each block is mapped whole, so every worker call sees the
    same rows with any number of processes.  A sweep of one block, or one
    whose `threads` resolve to one worker (`_workers`), stays in-process;
    the others fork one child per further worker (`_fork_map`).
    The worker returns one array with a row per sweep row; so does this
    map, reshaped to (point, index, ...).
    """
    if not points:
        raise ValueError("a sweep needs at least one point")
    for dist, _ in points:
        if params.u != dist.u:
            raise ValueError(
                f"distribution center {dist.u} does not match chain coupling {params.u}"
            )
    worker = partial(worker, params, points, r)
    total = len(points) * r
    blocks = [range(start, min(start + block, total)) for start in range(0, total, block)]
    workers = min(_workers(threads), len(blocks))
    start = time.perf_counter()
    results = _fork_map(worker, blocks, workers) if workers > 1 else [worker(b) for b in blocks]
    if _sweep_logs:
        seconds = time.perf_counter() - start
        _sweep_logs[-1].append(
            {"quantity": quantity, "blocks": len(blocks), "pooled": workers > 1, "seconds": seconds}
        )
    return np.concatenate(results).reshape(len(points), r, *results[0].shape[1:])


def _fork_map(worker, blocks: list, workers: int) -> list:
    """[worker(b) for b in blocks], block i mapped by process i % workers.

    The caller forks workers - 1 children (`_child_map`), maps share 0
    itself, then reads each child's pipe to EOF and reaps it.  The
    children's warnings are re-emitted in block order up to the earliest
    failed block, whose exception is then raised; a child that sends
    nothing raises `RuntimeError` with its exit status.  If the caller's own
    share raises, its children are killed and reaped first.  Only the
    forking thread lives on in a child, so the caller must not be sharing
    the sweep's work with threads of its own.
    """
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe) per forked share
    replies, statuses = [], []
    try:
        for share in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child_map(worker, blocks[share::workers], write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        mine = [worker(b) for b in blocks[::workers]]
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                replies.append(pipe.read())
    except BaseException:
        import signal  # here only: building its enums costs every run a few ms

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            statuses.append(os.waitpid(pid, 0)[1])
    shares = [(mine, [()] * len(mine), None)]
    for reply, status in zip(replies, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"a sweep process exited with status {code} and sent no result")
        shares.append(pickle.loads(reply))
    failed = {
        s + len(done) * workers: exc for s, (done, _, exc) in enumerate(shares) if exc is not None
    }
    stop = min(failed, default=len(blocks) - 1)
    registry: dict = {}  # so a "default" filter shows a repeated child warning once per sweep
    for i in range(stop + 1):
        for message, category, filename, lineno in shares[i % workers][1][i // workers]:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    if failed:
        raise failed[stop]
    return [shares[i % workers][0][i // workers] for i in range(len(blocks))]


def _child_map(worker, blocks: list, write_fd: int):
    """A forked share: map `blocks`, pickle the reply into write_fd and `os._exit`.

    The reply is (results, warnings of each block tried, exception or
    None): the worker's exception if it survives pickling, else a
    `RuntimeError` of its repr.  Nothing is sent if the reply will not
    pickle, or on an interrupt.
    """
    code = 1
    try:
        results, warned, error = [], [], None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for block in blocks:
                start = len(caught)
                try:
                    results.append(worker(block))
                except Exception as exc:
                    error = exc
                new = caught[start:]
                warned.append([(str(w.message), w.category, w.filename, w.lineno) for w in new])
                if error is not None:
                    break
        if error is not None:
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:
                error = RuntimeError(repr(error))
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps((results, warned, error)))
        code = 0
    finally:
        os._exit(code)


def _mean_stderr(x: np.ndarray):
    """Mean over axis 0 and its standard error (nan from a single sample)."""
    n = len(x)
    se = x.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.full(x.shape[1:], math.nan)
    return x.mean(axis=0), se


def _log_ratio_block(params, points, r, rows, buffer=None):
    """Row sums acc_i = sum_j log|c_ij/u| of a block; -inf at a zero coupling.

    The couplings are sampled into `buffer` (at least len(rows) x n; one
    per sweep call, so blocks allocate nothing that size) if given, and the
    ratios overwrite them.  A NaN or infinite coupling raises ValueError;
    an infinite sum from finite couplings (a ratio to a tiny u that
    overflows, or a zero) stands.
    """
    couplings = _sample_block(points, r, params.n, rows, buffer)
    if not np.isfinite(couplings).all():
        raise ValueError("couplings must be finite")
    return log_ratio_sums(couplings, params.u, out=couplings)


def _index_sweep(quantity, params, points, r: int, threads: int) -> np.ndarray:
    """Row sums of an index or eta sweep, in _INDEX_BLOCK-row blocks sharing one sample buffer."""
    buffer = np.empty((min(_INDEX_BLOCK, len(points) * r), params.n))
    worker = partial(_log_ratio_block, buffer=buffer)
    return _map_sweep(quantity, worker, params, points, r, _INDEX_BLOCK, threads)


def _profile_block(params, points, r, rows):
    """Per-dimer weight of the +/- pair of states closest to zero energy.

    The block's chains share one call of each batched kernel.  Dimer i
    weighs a_i^2 + b_i^2, taken from v_+/- = (a, +/-b)/sqrt(2) as
    `midgap_pair` builds them; each profile is normalized to total weight 2
    (two states).
    """
    offdiag = chain_couplings(params, _sample_block(points, r, params.n, rows))
    a, b = midgap_vectors(offdiag)
    per_dimer = (a / math.sqrt(2.0)) ** 2 + (b / math.sqrt(2.0)) ** 2
    return per_dimer * (2.0 / per_dimer.sum(axis=1, keepdims=True))


def _gap_block_rows(rows: int, n: int) -> int:
    """Rows per block of a gap sweep of `rows` chains of n dimers.

    At most b = min(_GAP_BLOCK_MAX, max(ceil(_GAP_BLOCK_DIMERS/n),
    ceil(rows/2))) rows, spread evenly: ceil(rows/k) rows in each of
    k = ceil(rows/b) blocks.  So a sweep is one block up to
    min(_GAP_BLOCK_MAX, ceil(_GAP_BLOCK_DIMERS/n)) rows, two halves up to
    2*_GAP_BLOCK_MAX rows, and near-equal blocks of at most _GAP_BLOCK_MAX
    beyond.  The worker count plays no part.
    """
    cap = min(_GAP_BLOCK_MAX, max(-(-_GAP_BLOCK_DIMERS // n), -(-rows // 2)))
    return -(-rows // max(1, -(-rows // cap)))


def _gap_block(params, points, r, rows):
    """The gaps of a block's chains from one batched level call (`chain_gaps`)."""
    offdiag = chain_couplings(params, _sample_block(points, r, params.n, rows))
    return chain_gaps(offdiag, params.corner)


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
    acc = _index_sweep("mean_nu", params, points, r, threads)
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
    profiles = _map_sweep(
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

    The blocks are sized by `_gap_block_rows` from the sweep's row count
    and n: a sweep of at most 4000 dimers (perfbench's 8 rings of 250) is
    one in-process block, c06's 100 rings of 300 two blocks of 50, the
    1700-ring CLI default 27 blocks of at most 64.
    """
    if r < 1:
        raise ValueError("need at least 1 realization")
    block = _gap_block_rows(len(points) * r, params.n)
    gaps = _map_sweep("mean_gap", _gap_block, params, points, r, block, threads)
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
    """Sample mean and variance of eta = sum log|1 + du_i/u| (the index's row sums).

    The contract is mean ~ n*z1 and variance ~ n*z2, z1 and z2 the
    cumulants of log|1 + eps/u|.  Realizations holding an exactly zero
    coupling (eta = -inf) are excluded and counted in n_excluded, which
    samples the law conditioned on no zero coupling.
    """
    if r < 100:
        raise ValueError("need at least 100 realizations for moment estimates")
    if params.u == 0.0:
        raise ValueError("u must be nonzero")
    acc = _index_sweep("eta_moments", params, [(dist, master_seed)], r, threads)
    etas = acc[0][acc[0] > -math.inf]
    k = len(etas)
    if k < 2:
        raise RuntimeError(
            f"fewer than 2 realizations without a zero coupling at gamma = {dist.gamma}"
        )
    mean, var = float(etas.mean()), float(etas.var(ddof=1))
    m4 = float(np.mean((etas - mean) ** 4))
    se_var = math.sqrt(max((m4 - var * var * (k - 3) / (k - 1)) / k, 0.0))
    stderr = np.array([math.sqrt(var / k), se_var])
    return EnsembleEstimate(
        "eta_moments", np.array([mean, var]), stderr, k, master_seed, n_excluded=r - k
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
