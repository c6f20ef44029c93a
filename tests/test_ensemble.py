import math
import os
import time
import warnings

import numpy as np
import pytest
from oracles import FlatDensity, realization_rng, z1_quadrature, z2_quadrature

from sshlab.analytic import fluctuation_width
from sshlab import ensemble
from sshlab.ensemble import (
    EnsembleEstimate,
    FlatDistribution,
    estimate_eta_moments,
    estimate_mean_gap,
    estimate_mean_nu,
    estimate_wavefunction_profile,
    sample_realization,
    sweep_mean_gap,
    sweep_mean_nu,
    sweep_wavefunction_profile,
)
from sshlab.invariant import CriticalRealizationError, winding_closed_form
from sshlab.model import (
    BoundaryCondition,
    ChainParams,
    Realization,
    build_chain,
    coherence_length,
)
from sshlab.spectrum import midgap_levels, midgap_pair, midgap_vectors

# three full index blocks plus a remainder
R_BLOCKS = 3 * ensemble._INDEX_BLOCK + 7


class SnappedDistribution(FlatDistribution):
    """Flat draws snapped to exact zeros in the lowest quarter of the support
    and to exactly u in the middle half.

    At n = 2 and w = u about half the rows hold a zero coupling and a
    quarter sit exactly on the boundary (log xi = 0).
    """

    def couplings(self, uniforms):
        x = super().couplings(uniforms)
        lo, hi = self.coupling_support
        quarter = 0.25 * (hi - lo)
        return np.where(x < lo + quarter, 0.0, np.where(x < hi - quarter, self.u, x))


def oracle_mean_nu(params, dist, r, seed):
    """(mean, stderr, n_excluded) from one reference stream and one
    winding_closed_form call per realization."""
    nus = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(r):
            real = Realization(couplings=dist.sample(realization_rng(seed, i), params.n))
            try:
                nus.append(winding_closed_form(real, params))
            except CriticalRealizationError:
                pass
    kept = np.array(nus, dtype=float)
    return float(kept.mean()), float(kept.std(ddof=1) / math.sqrt(len(kept))), r - len(kept)


def oracle_eta(params, dist, r, seed):
    """(mean, var, se_mean, se_var, redraws) from per-row log sums of the
    reference stream, redrawing rows with a zero coupling from that stream."""
    etas, redraws = [], 0
    for i in range(r):
        rng = realization_rng(seed, i)
        c = dist.sample(rng, params.n)
        while np.any(c == 0.0):
            redraws += 1
            c = dist.sample(rng, params.n)
        etas.append(float(np.sum(np.log(np.abs(c / params.u)))))
    etas = np.array(etas)
    mean, var = float(etas.mean()), float(etas.var(ddof=1))
    m4 = float(np.mean((etas - mean) ** 4))
    se_var = math.sqrt(max((m4 - var * var * (r - 3) / (r - 1)) / r, 0.0))
    return mean, var, math.sqrt(var / r), se_var, redraws


class TestSampler:
    def test_zero_disorder_is_exact(self):
        dist = FlatDistribution(gamma=0.0, u=1.3)
        real = sample_realization(dist, 50, master_seed=1, index=0)
        np.testing.assert_array_equal(real.couplings, np.full(50, 1.3))

    def test_moments_within_five_sigma(self):
        dist = FlatDistribution(gamma=0.5, u=1.0)
        draws = dist.sample(realization_rng(99, 0), 100_000)
        n = len(draws)
        mean = draws.mean()
        var = draws.var(ddof=1)
        se_mean = math.sqrt(var / n)
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert abs(mean - 1.0) <= 5.0 * se_mean
        assert abs(var - 0.25) <= 5.0 * se_var

    def test_stream_is_keyed_by_seed_and_index(self):
        dist = FlatDistribution(gamma=0.3, u=1.0)
        a = sample_realization(dist, 20, master_seed=7, index=3)
        b = sample_realization(dist, 20, master_seed=7, index=3)
        c = sample_realization(dist, 20, master_seed=7, index=4)
        d = sample_realization(dist, 20, master_seed=8, index=3)
        np.testing.assert_array_equal(a.couplings, b.couplings)
        assert not np.array_equal(a.couplings, c.couplings)
        assert not np.array_equal(a.couplings, d.couplings)

    @pytest.mark.parametrize("seed", [0, -5, 2**64 - 1])
    def test_block_rows_match_reference_stream(self, seed):
        # (r, rows) with r realizations per point; at r = 2**64 the last
        # range crosses from indices 2**64 - 2 and 2**64 - 1 of one point
        # into 0 and 1 of the next, and at r = 5 from 3, 4 into 0, 1, 2
        big = 2**64
        blocks = [(big, range(0, 3)), (big, range(7, 8)), (big, range(1000, 1001))]
        blocks += [(big, range(2**40, 2**40 + 1)), (big, range(big - 2, big + 2)), (5, range(3, 8))]
        for n in (1, 7, 301):
            for gamma in (0.0, 0.3, 1.4):
                dists = (FlatDistribution(gamma, 1.0), FlatDistribution(1.4 - gamma, 1.0))
                points = [(dist, seed + p) for p, dist in enumerate(dists)]
                for r, rows in blocks:
                    block = ensemble._sample_block(points, r, n, rows)
                    assert block.shape == (len(rows), n)
                    for row, k in zip(block, rows):
                        (dist, s), i = points[k // r], k % r
                        reference = dist.sample(realization_rng(s, i), n)
                        assert row.tobytes() == reference.tobytes()
                        alone = ensemble._sample_block(points, r, n, range(k, k + 1))[0]
                        assert alone.tobytes() == row.tobytes()
                        single = sample_realization(dist, n, s, i).couplings
                        assert single.tobytes() == row.tobytes()

    def test_rekey_ignores_a_dirty_generator(self):
        # two doubles and an int32 draw leave the Philox buffer part used and
        # half a uint64 cached; the re-key must clear both
        rng = ensemble._stream(0, 0)
        rng.random(2)
        rng.integers(0, 10, dtype=np.int32)
        state = ensemble._PHILOX.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
        points = [(FlatDistribution(0.3, 1.0), 2**64 - 1), (FlatDistribution(0.9, 1.0), 5)]
        block = ensemble._sample_block(points, 3, 6, range(1, 5))
        for row, k in zip(block, range(1, 5)):
            (dist, seed), i = points[k // 3], k % 3
            assert row.tobytes() == dist.sample(realization_rng(seed, i), 6).tobytes()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_realization(FlatDistribution(0.3, 1.0), 4, 1, -1)

    def test_provenance_recorded(self):
        dist = FlatDistribution(gamma=0.3, u=1.0)
        real = sample_realization(dist, 8, master_seed=42, index=5)
        assert real.master_seed == 42 and real.index == 5

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            FlatDistribution(gamma=-0.1, u=1.0)


class TestMeanNu:
    def test_clean_phases_exact(self):
        p_triv = ChainParams(n=40, u=1.0, w=0.95)
        est = estimate_mean_nu(p_triv, FlatDistribution(0.0, 1.0), 50, 1)
        assert est.value == 0.0 and est.stderr == 0.0
        p_top = ChainParams(n=40, u=1.0, w=1.05)
        est = estimate_mean_nu(p_top, FlatDistribution(0.0, 1.0), 50, 1)
        assert est.value == 1.0

    def test_bernoulli_variance_identity(self):
        params = ChainParams(n=30, u=1.0, w=0.95)
        dist = FlatDistribution(gamma=0.35, u=1.0)
        r = 400
        est = estimate_mean_nu(params, dist, r, 11)
        p = est.value
        expected_var = p * (1.0 - p) * r / (r - 1)
        assert est.stderr**2 * r == pytest.approx(expected_var, rel=1e-12)

    def test_thread_count_never_changes_results(self):
        params = ChainParams(n=25, u=1.0, w=0.9)
        dist = FlatDistribution(gamma=0.4, u=1.0)
        r = ensemble._INDEX_BLOCK + 1  # the smallest ensemble that is pooled
        eins = estimate_mean_nu(params, dist, r, 5, threads=1)
        zwei = estimate_mean_nu(params, dist, r, 5, threads=2)
        vier = estimate_mean_nu(params, dist, r, 5, threads=4)
        assert eins.value == zwei.value == vier.value
        assert eins.stderr == zwei.stderr == vier.stderr

    def test_mismatched_center_rejected(self):
        params = ChainParams(n=10, u=1.0, w=0.9)
        with pytest.raises(ValueError):
            estimate_mean_nu(params, FlatDistribution(0.1, u=1.5), 10, 0)

    def test_zero_u_or_w_rejected(self):
        with pytest.raises(ValueError, match="u must be nonzero"):
            estimate_mean_nu(ChainParams(n=10, u=0.0, w=0.9), FlatDistribution(0.1, 0.0), 10, 0)
        with pytest.raises(ValueError, match="w must be nonzero"):
            estimate_mean_nu(ChainParams(n=10, u=1.0, w=0.0), FlatDistribution(0.1, 1.0), 10, 0)

    @pytest.mark.parametrize(
        "params, dist",
        [
            (ChainParams(n=100, u=1.0, w=0.95), FlatDistribution(0.6, 1.0)),
            (ChainParams(n=2, u=1.0, w=1.0), SnappedDistribution(0.5, 1.0)),
        ],
    )
    def test_blocks_match_per_realization_oracle(self, params, dist):
        expected = oracle_mean_nu(params, dist, R_BLOCKS, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for t in (1, 2, 0):
                est = estimate_mean_nu(params, dist, R_BLOCKS, 41, threads=t)
                assert (est.value, est.stderr, est.n_excluded) == expected
                assert est.n_realizations + est.n_excluded == R_BLOCKS

    def test_zero_coupling_row_warns_and_counts_as_one(self):
        params = ChainParams(n=2, u=1.0, w=1.0)
        dist = SnappedDistribution(0.5, 1.0)
        with pytest.warns(UserWarning, match="zero coupling"):
            est = estimate_mean_nu(params, dist, 40, 3, threads=1)
        rows = [dist.sample(realization_rng(3, i), 2) for i in range(40)]
        zero_rows = sum(np.any(row == 0.0) for row in rows)
        # rows of exactly u sit on the boundary w = u: log xi = 0
        critical_rows = sum(np.all(row == 1.0) for row in rows)
        assert zero_rows > 0 and critical_rows > 0
        assert est.n_excluded == critical_rows
        assert est.value * est.n_realizations >= zero_rows
        assert (est.value, est.stderr, est.n_excluded) == oracle_mean_nu(params, dist, 40, 3)


class TestEtaMoments:
    def test_zero_disorder_exact_zeros(self):
        params = ChainParams(n=50, u=1.0, w=0.9)
        est = estimate_eta_moments(params, FlatDistribution(0.0, 1.0), 100, 3)
        assert est.value[0] == 0.0 and est.value[1] == 0.0

    def test_moments_match_quadrature_oracle(self):
        n, gamma, r = 100, 0.2, 4000
        params = ChainParams(n=n, u=1.0, w=0.9)
        dist = FlatDistribution(gamma=gamma, u=1.0)
        est = estimate_eta_moments(params, dist, r, 21)
        z1 = z1_quadrature(FlatDensity(gamma=gamma, u=1.0))
        z2 = z2_quadrature(FlatDensity(gamma=gamma, u=1.0))
        mean, var = est.value
        se_mean, se_var = est.stderr
        assert abs(mean - n * z1) <= 5.0 * se_mean
        assert abs(var - n * z2) <= 5.0 * se_var

    def test_blocks_match_per_realization_oracle(self):
        params = ChainParams(n=100, u=1.0, w=0.9)
        dist = FlatDistribution(gamma=0.5, u=1.0)
        mean, var, se_mean, se_var, redraws = oracle_eta(params, dist, R_BLOCKS, 9)
        for t in (1, 2, 0):
            est = estimate_eta_moments(params, dist, R_BLOCKS, 9, threads=t)
            assert tuple(est.value) == (mean, var)
            assert tuple(est.stderr) == (se_mean, se_var)
            assert est.n_resampled == redraws == 0

    def test_zero_couplings_redrawn_from_same_stream(self):
        params = ChainParams(n=2, u=1.0, w=0.9)
        dist = SnappedDistribution(gamma=0.5, u=1.0)
        r = ensemble._INDEX_BLOCK + 150
        mean, var, se_mean, se_var, redraws = oracle_eta(params, dist, r, 4)
        assert redraws > r // 4
        for t in (1, 2):
            est = estimate_eta_moments(params, dist, r, 4, threads=t)
            assert est.n_resampled == redraws
            assert tuple(est.value) == (mean, var)
            assert tuple(est.stderr) == (se_mean, se_var)

    def test_clt_skewness_bound(self):
        n, r = 100, 400
        params = ChainParams(n=n, u=1.0, w=0.9)
        dist = FlatDistribution(gamma=0.3, u=1.0)
        etas = []
        for i in range(r):
            real = sample_realization(dist, n, 77, i)
            etas.append(float(np.sum(np.log(np.abs(real.couplings)))))
        etas = np.array(etas)
        z = (etas - etas.mean()) / etas.std(ddof=1)
        skew = float(np.mean(z**3))
        assert abs(skew) <= 10.0 / math.sqrt(r)


class TestWavefunctionProfile:
    def test_clean_topological_edge_profile(self):
        u, w, n = 0.8, 1.0, 60
        params = ChainParams(n=n, u=u, w=w)
        est = estimate_wavefunction_profile(params, FlatDistribution(0.0, u), 1, 0)
        prof = np.asarray(est.value)
        assert prof.sum() == pytest.approx(2.0, rel=1e-12)
        assert prof[0] == prof.max() or prof[-1] == prof.max()
        # amplitude envelope sqrt(profile) decays at rate 1/xi from the edge
        xi = coherence_length(u, w)
        logs = 0.5 * np.log(prof[:12])
        slope = np.polyfit(np.arange(12), logs, 1)[0]
        assert abs(slope + 1.0 / xi) <= 0.05 / xi

    def test_clean_trivial_profile_delocalized(self):
        params = ChainParams(n=60, u=1.0, w=0.8)
        est = estimate_wavefunction_profile(params, FlatDistribution(0.0, 1.0), 1, 0)
        prof = np.asarray(est.value)
        assert prof.max() / prof.mean() < 5.0

    def test_requires_open_boundaries(self):
        params = ChainParams(n=10, u=1.0, w=0.9, bc=BoundaryCondition.PERIODIC)
        with pytest.raises(ValueError, match="open"):
            estimate_wavefunction_profile(params, FlatDistribution(0.1, 1.0), 2, 0)

    def test_deterministic_across_workers(self):
        params = ChainParams(n=20, u=1.0, w=0.95)
        dist = FlatDistribution(gamma=0.5, u=1.0)
        a = estimate_wavefunction_profile(params, dist, 8, 13, threads=1)
        b = estimate_wavefunction_profile(params, dist, 8, 13, threads=2)
        np.testing.assert_array_equal(np.asarray(a.value), np.asarray(b.value))
        np.testing.assert_array_equal(np.asarray(a.stderr), np.asarray(b.stderr))

    def test_blocks_bytes_independent_of_threads(self):
        # three full blocks plus a remainder
        r = 3 * ensemble._PROFILE_BLOCK + 5
        params = ChainParams(n=12, u=1.0, w=0.95)
        dist = FlatDistribution(gamma=0.9, u=1.0)
        ests = [estimate_wavefunction_profile(params, dist, r, 31, threads=t) for t in (1, 2, 0)]
        for est in ests[1:]:
            assert np.asarray(est.value).tobytes() == np.asarray(ests[0].value).tobytes()
            assert np.asarray(est.stderr).tobytes() == np.asarray(ests[0].stderr).tobytes()

    def test_matches_full_spectrum_profile_per_chain(self):
        r = ensemble._PROFILE_BLOCK + 3
        params = ChainParams(n=15, u=1.0, w=0.95)
        dist = FlatDistribution(gamma=1.2, u=1.0)
        profiles = []
        for i in range(r):
            m = build_chain(params, sample_realization(dist, params.n, 8, i))
            v_minus, v_plus = midgap_pair(m)
            per_site = v_minus**2 + v_plus**2
            per_dimer = per_site[0::2] + per_site[1::2]
            profiles.append(per_dimer * (2.0 / per_dimer.sum()))
        est = estimate_wavefunction_profile(params, dist, r, 8, threads=1)
        np.testing.assert_array_equal(np.asarray(est.value), np.array(profiles).mean(axis=0))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def map_rows(worker, threads, r=8, block=2):
    """`_map_sweep` of worker over r rows of one point, in blocks of `block` rows."""
    point = [(FlatDistribution(0.1, 1.0), 1)]
    params = ChainParams(n=2, u=1.0, w=0.9)
    return ensemble._map_sweep("rows", worker, params, point, r, block, threads)


def caught_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn(*args)
    return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


class TestWorkerPool:
    """Fork-join sweeps: block i goes to process i % W, the caller maps share 0."""

    def test_estimators_share_one_pool(self, monkeypatch):
        # one sweep log serves a run; each pooled sweep forks and reaps its own children
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)
        params = ChainParams(n=10, u=1.0, w=0.9)
        dist = FlatDistribution(gamma=0.4, u=1.0)
        r = ensemble._INDEX_BLOCK + 1  # two blocks: the smallest pooled ensemble
        alone = estimate_mean_nu(params, dist, r, 5, threads=1).value
        with ensemble.sweep_log() as log:
            shared = estimate_mean_nu(params, dist, r, 5, threads=2).value
            assert_no_children()
            estimate_mean_gap(params, dist, 8, 5, threads=2)
            with ensemble.sweep_log() as inner:
                assert estimate_mean_nu(params, dist, r, 5, threads=1).value == alone
        assert shared == alone
        assert log == [
            {"quantity": "mean_nu", "blocks": 2, "pooled": True},
            {"quantity": "mean_gap", "blocks": 1, "pooled": False},
        ]
        assert inner == [{"quantity": "mean_nu", "blocks": 2, "pooled": False}]
        assert not ensemble._sweep_logs

    def test_pool_processes_capped_at_cpu_count(self, fake_pool):
        params = ChainParams(n=10, u=1.0, w=0.9)
        dist = FlatDistribution(gamma=0.4, u=1.0)
        r = ensemble._INDEX_BLOCK + 1  # two blocks: the smallest pooled ensemble
        alone = estimate_mean_nu(params, dist, r, 5, threads=1)
        many = estimate_mean_nu(params, dist, r, 5, threads=100_000)
        # four blocks over the 2 CPUs
        estimate_mean_nu(params, dist, 3 * ensemble._INDEX_BLOCK + 1, 5, threads=0)
        assert fake_pool == [2, 2]
        assert many == alone

    def test_pool_starts_only_when_needed(self, monkeypatch):
        def no_fork():
            raise AssertionError("process forked")

        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(ensemble.os, "fork", no_fork)
        params = ChainParams(n=10, u=1.0, w=0.9)
        dist = FlatDistribution(0.4, 1.0)
        with ensemble.sweep_log() as log:
            # one block, up to the largest ensemble that runs in-process
            for r in (3, ensemble._INDEX_BLOCK):
                estimate_mean_nu(params, dist, r, 5, threads=2)
            # two blocks, one worker
            estimate_mean_nu(params, dist, ensemble._INDEX_BLOCK + 1, 5, threads=1)
        assert [s["pooled"] for s in log] == [False, False, False]

    def test_rings_pool_one_per_task(self, monkeypatch):
        # two ring blocks of 40, one per process: the gap estimator keeps forking
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)
        params = ChainParams(n=10, u=1.0, w=0.8, bc=BoundaryCondition.PERIODIC)
        dist = FlatDistribution(0.3, 1.0)
        r = 80
        serial = estimate_mean_gap(params, dist, r, 5, threads=1)
        with ensemble.sweep_log() as log:
            pooled = estimate_mean_gap(params, dist, r, 5, threads=2)
        assert log == [{"quantity": "mean_gap", "blocks": 2, "pooled": True}]
        assert pooled.value == serial.value and pooled.stderr == serial.stderr
        assert_no_children()

    def test_blocks_dealt_out_strided(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 3)

        def worker(_params, _points, _r, rows):
            return (np.array(rows), np.full(len(rows), os.getpid()))

        rows, pids = map_rows(worker, 0, r=14)
        assert rows.tolist() == [list(range(14))]
        # blocks 0..6 of two rows; block i is mapped by process i % 3, the caller first
        owners = pids[0, ::2]
        assert owners[0] == os.getpid()
        assert [owners[i] == owners[i % 3] for i in range(7)] == [True] * 7
        assert len(set(owners)) == 3
        assert_no_children()

    def test_child_warnings_reach_the_caller(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)

        def worker(_params, _points, _r, rows):
            if rows.start // 2 in (1, 3):  # blocks of the child's share only
                warnings.warn(f"block {rows.start // 2}", RuntimeWarning)
            return (np.array(rows),)

        serial = caught_warnings(map_rows, worker, 1)
        assert [w[:2] for w in serial] == [
            ("block 1", RuntimeWarning),
            ("block 3", RuntimeWarning),
        ]
        assert caught_warnings(map_rows, worker, 2) == serial
        assert_no_children()

    def test_degenerate_pair_warning_reaches_the_caller(self, monkeypatch):
        # block 3, in the child's share, holds three decoupled dimers: every level is +-1
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)

        def worker(_params, _points, _r, rows):
            inter = 0.0 if rows.start == 6 else 0.5
            e = np.tile([1.0, inter, 1.0, inter, 1.0], (len(rows), 1))
            return midgap_vectors(e, midgap_levels(e))

        serial = caught_warnings(map_rows, worker, 1)
        message = "midgap pair is degenerate with the next eigenvalue"
        assert [w[:2] for w in serial] == [(message, UserWarning)]
        assert caught_warnings(map_rows, worker, 2) == serial
        with pytest.warns(UserWarning, match="degenerate"):
            map_rows(worker, 2)
        assert_no_children()

    def test_child_error_reraised(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)

        def worker(_params, _points, _r, rows):
            if rows.start == 2:  # block 1: the child's first
                raise ValueError("row 2 is bad")
            return (np.array(rows),)

        for threads in (1, 2):
            with pytest.raises(ValueError, match="^row 2 is bad$"):
                map_rows(worker, threads)
            assert_no_children()

    def test_unpicklable_child_error_falls_back_to_its_repr(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)

        class LocalError(Exception):
            pass

        def worker(_params, _points, _r, rows):
            if rows.start == 2:
                raise LocalError("row 2")
            return (np.array(rows),)

        with pytest.raises(RuntimeError, match=r"^LocalError\('row 2'\)$"):
            map_rows(worker, 2)
        assert_no_children()

    def test_earliest_failed_block_wins(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 3)

        def worker(_params, _points, _r, rows):
            block = rows.start // 2
            if block in (1, 2):  # the first blocks of the two children
                warnings.warn(f"block {block}")
                raise ValueError(f"block {block} failed")
            return (np.array(rows),)

        for threads in (1, 3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="^block 1 failed$"):
                    map_rows(worker, threads)
            # block 2's warning comes after the failure at threads=1, so never
            assert [str(w.message) for w in caught] == ["block 1"]
            assert_no_children()

    def test_child_exit_without_reply(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)

        def worker(_params, _points, _r, rows):
            if rows.start == 2:
                os._exit(3)
            return (np.array(rows),)

        with pytest.raises(RuntimeError, match="exited with status 3 and sent no result"):
            map_rows(worker, 2)
        assert_no_children()

    def test_caller_failure_kills_children(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)

        def worker(_params, _points, _r, rows):
            if rows.start == 0:  # block 0: the caller's own
                raise ValueError("caller's block")
            time.sleep(60)  # the child's blocks: killed, not waited for
            return (np.array(rows),)

        start = time.monotonic()
        with pytest.raises(ValueError, match="caller's block"):
            map_rows(worker, 2)
        assert time.monotonic() - start < 30.0
        assert_no_children()


class TestMeanGap:
    def test_clean_even_ring_gap(self):
        params = ChainParams(n=8, u=1.0, w=0.8, bc=BoundaryCondition.PERIODIC)
        est = estimate_mean_gap(params, FlatDistribution(0.0, 1.0), 2, 0)
        assert est.value == pytest.approx(0.4, abs=1e-12)

    def test_critical_ring_gap_scales_away(self):
        # u = w: discrete ring momenta bound the gap by 2 pi u / n
        for n in (8, 9):
            params = ChainParams(n=n, u=1.0, w=1.0, bc=BoundaryCondition.PERIODIC)
            est = estimate_mean_gap(params, FlatDistribution(0.0, 1.0), 1, 0)
            assert est.value <= 2.0 * math.pi / n + 1e-12

    def test_open_chain_backend(self):
        params = ChainParams(n=12, u=1.0, w=0.8)
        dist = FlatDistribution(gamma=0.2, u=1.0)
        est = estimate_mean_gap(params, dist, 6, 4)
        real = sample_realization(dist, 12, 4, 0)
        from sshlab.model import build_chain
        from sshlab.spectrum import eigenvalues_tridiagonal

        direct = eigenvalues_tridiagonal(build_chain(params, real)).gap
        assert direct > 0.0 and est.value > 0.0


def assert_same_estimate(a, b):
    assert (a.quantity, a.n_realizations, a.master_seed) == (b.quantity, b.n_realizations, b.master_seed)
    assert (a.n_excluded, a.n_resampled) == (b.n_excluded, b.n_resampled)
    assert np.asarray(a.value).tobytes() == np.asarray(b.value).tobytes()
    assert np.asarray(a.stderr).tobytes() == np.asarray(b.stderr).tobytes()


class TestSweep:
    """A sweep equals its points' one-point estimates, whatever the blocks and workers.

    r is no multiple of the block size, so blocks cross from one point into
    the next.
    """

    @pytest.mark.parametrize(
        "sweep, one_point, params, points, r",
        [
            (
                sweep_mean_nu,
                estimate_mean_nu,
                ChainParams(n=2, u=1.0, w=1.0),
                [(FlatDistribution(0.6, 1.0), 11), (SnappedDistribution(0.5, 1.0), 12),
                 (FlatDistribution(1.2, 1.0), 13)],
                ensemble._INDEX_BLOCK // 2 + 7,
            ),
            (
                sweep_wavefunction_profile,
                estimate_wavefunction_profile,
                ChainParams(n=8, u=1.0, w=0.95),
                [(FlatDistribution(g, 1.0), 20 + k) for k, g in enumerate((0.0, 0.4, 1.5))],
                ensemble._PROFILE_BLOCK // 2 + 3,
            ),
            (
                sweep_mean_gap,
                estimate_mean_gap,
                ChainParams(n=6, u=1.0, w=0.8, bc=BoundaryCondition.PERIODIC),
                [(FlatDistribution(g, 1.0), 30 + k) for k, g in enumerate((0.0, 0.3, 0.7))],
                23,  # 69 rings: two blocks, the first crossing into the second point
            ),
        ],
    )
    def test_matches_one_point_estimates(self, sweep, one_point, params, points, r):
        block = {
            sweep_mean_nu: ensemble._INDEX_BLOCK,
            sweep_wavefunction_profile: ensemble._PROFILE_BLOCK,
            sweep_mean_gap: ensemble._gap_block_rows(len(points) * r, params.n),
        }[sweep]
        starts = range(0, len(points) * r, block)
        assert len(starts) > 1
        assert any(k // r != (min(k + block, len(points) * r) - 1) // r for k in starts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alone = [one_point(params, dist, r, seed, threads=1) for dist, seed in points]
            for t in (1, 2, 0):
                swept = sweep(params, points, r, threads=t)
                assert len(swept) == len(points)
                for a, b in zip(swept, alone):
                    assert_same_estimate(a, b)

    def test_blocks_cover_rows_in_order(self):
        params = ChainParams(n=2, u=1.0, w=0.9)
        points = [(FlatDistribution(0.1 * p, 1.0), p) for p in range(3)]
        for r, block in ((5, 4), (4, 4), (7, 3), (2, 500)):
            seen = []

            def worker(_params, _points, _r, rows):
                seen.append(rows)
                return (np.array(rows),)

            (rows,) = ensemble._map_sweep("rows", worker, params, points, r, block, 1)
            assert rows.tolist() == [[p * r + i for i in range(r)] for p in range(3)]
            sizes = [len(b) for b in seen]
            assert all(size == block for size in sizes[:-1]) and 0 < sizes[-1] <= block

    def test_error_paths_fire_per_point(self):
        good = (FlatDistribution(0.4, 1.0), 1)
        with pytest.raises(ValueError, match="u must be nonzero"):
            sweep_mean_nu(ChainParams(n=10, u=0.0, w=0.9), [(FlatDistribution(0.1, 0.0), 1)] * 2, 10)
        with pytest.raises(ValueError, match="w must be nonzero"):
            sweep_mean_nu(ChainParams(n=10, u=1.0, w=0.0), [good, good], 10)
        with pytest.raises(ValueError, match="at least 2"):
            sweep_mean_nu(ChainParams(n=10, u=1.0, w=0.9), [good, good], 1)
        with pytest.raises(ValueError, match="at least one point"):
            sweep_mean_gap(ChainParams(n=10, u=1.0, w=0.9), [], 3)
        with pytest.raises(ValueError, match="does not match"):
            sweep_mean_gap(ChainParams(n=10, u=1.0, w=0.9), [good, (FlatDistribution(0.4, 2.0), 2)], 3)
        with pytest.raises(ValueError, match="open boundaries"):
            sweep_wavefunction_profile(
                ChainParams(n=10, u=1.0, w=0.9, bc=BoundaryCondition.PERIODIC), [good], 2
            )
        # at w = u the clean point sits on the boundary in every realization
        critical = ChainParams(n=10, u=1.0, w=1.0)
        assert sweep_mean_nu(critical, [good], 20)[0].n_excluded == 0
        with pytest.raises(RuntimeError, match="non-critical realizations at gamma = 0.0"):
            sweep_mean_nu(critical, [good, (FlatDistribution(0.0, 1.0), 2)], 20)

    def test_run_logs_each_sweep(self):
        # 2 gamma x 40 rings of 10 dimers: two ring blocks, one index block
        params = ChainParams(n=10, u=1.0, w=0.8, bc=BoundaryCondition.PERIODIC)
        points = [(FlatDistribution(0.3, 1.0), 1), (FlatDistribution(0.6, 1.0), 2)]
        with ensemble.sweep_log() as log:
            sweep_mean_gap(params, points, 40, threads=2)
            sweep_mean_nu(params, points, 40, threads=2)
        assert log == [
            {"quantity": "mean_gap", "blocks": 2, "pooled": True},
            {"quantity": "mean_nu", "blocks": 1, "pooled": False},
        ]


class TestGapBlocks:
    """Ring blocks sized by the sweep's row and dimer counts, never by the workers."""

    @pytest.mark.parametrize(
        "points, r, n, sizes",
        [
            (2, 4, 250, [8]),  # perfbench's gap-scan: one block, no pool
            (1, 100, 300, [50, 50]),  # a c06 point
            (17, 100, 300, [63] * 26 + [62]),  # the CLI default: 27 blocks of at most 64
            (2, 40, 10, [40, 40]),
        ],
    )
    def test_rule_table(self, monkeypatch, fake_pool, points, r, n, sizes):
        seen = []

        def worker(_params, _points, _r, rows):
            seen.append(len(rows))
            return (np.zeros(len(rows)),)

        monkeypatch.setattr(ensemble, "_gap_block", worker)
        params = ChainParams(n=n, u=1.0, w=0.8, bc=BoundaryCondition.PERIODIC)
        sweep = [(FlatDistribution(0.3, 1.0), p) for p in range(points)]
        for threads in (1, 2, 0):
            seen.clear()
            with ensemble.sweep_log() as log:
                sweep_mean_gap(params, sweep, r, threads=threads)
            pooled = threads != 1 and len(sizes) > 1
            assert seen == sizes
            assert log == [{"quantity": "mean_gap", "blocks": len(sizes), "pooled": pooled}]

    def test_sweep_bytes_equal_blocks_of_four(self):
        # 3 gamma x 27 rings of 10 dimers: blocks of 41 and 40 rows, against blocks of 4
        params = ChainParams(n=10, u=1.0, w=0.8, bc=BoundaryCondition.PERIODIC)
        points = [(FlatDistribution(g, 1.0), 60 + k) for k, g in enumerate((0.0, 0.55, 1.2))]
        r = 27
        assert ensemble._gap_block_rows(len(points) * r, params.n) == 41
        (gaps,) = ensemble._map_sweep("mean_gap", ensemble._gap_block, params, points, r, 4, 1)
        for threads in (1, 2):
            swept = sweep_mean_gap(params, points, r, threads=threads)
            for est, rows in zip(swept, gaps):
                mean, stderr = ensemble._mean_stderr(rows)
                assert np.float64(est.value).tobytes() == mean.tobytes()
                assert np.float64(est.stderr).tobytes() == stderr.tobytes()


class TestWidthFactor:
    def test_transition_width_matches_estimate(self):
        # 10-90% width of <nu>(gamma) within a factor 3 of u/sqrt(n)
        for n in (100, 300):
            params = ChainParams(n=n, u=1.0, w=0.95)
            gammas = np.linspace(0.15, 0.6, 10)
            ps = []
            for gi, g in enumerate(gammas):
                dist = FlatDistribution(gamma=g, u=1.0)
                ps.append(estimate_mean_nu(params, dist, 1500, 1000 + gi).value)
            ps = np.array(ps)
            width = np.interp(0.9, ps, gammas) - np.interp(0.1, ps, gammas)
            dg = fluctuation_width(1.0, n)
            assert dg / 3.0 <= width <= 3.0 * dg


class TestEstimateShape:
    def test_estimate_fields(self):
        params = ChainParams(n=10, u=1.0, w=0.9)
        est = estimate_mean_nu(params, FlatDistribution(0.3, 1.0), 25, 2)
        assert isinstance(est, EnsembleEstimate)
        assert est.quantity == "mean_nu"
        assert est.n_realizations + est.n_excluded == 25
        assert est.master_seed == 2
        assert 0.0 <= est.value <= 1.0
