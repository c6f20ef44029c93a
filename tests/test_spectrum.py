import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eigvals_ql, householder_bidiagonalize, jacobi_eigenvalues
from oracles import eigvals_sturm as oracle_eigvals
from sshlab import spectrum
from sshlab.ensemble import FlatDistribution, sample_realization
from sshlab.model import (
    BoundaryCondition,
    ChainMatrix,
    ChainParams,
    Realization,
    build_chain,
    coherence_length,
    dispersion,
)
from sshlab.spectrum import (
    SpectralResult,
    chain_gap,
    chain_gaps,
    eigenvalues_dense,
    eigenvalues_tridiagonal,
    eigenvector_near_zero,
    eigvals_sturm,
    householder_tridiagonalize,
    midgap_levels,
    midgap_pair,
    midgap_vectors,
)

EPS = np.finfo(float).eps


def central_entries(e):
    """Entries N/2-2 .. N/2+1 of the oracle's full bisected spectrum of one open chain."""
    half = (len(e) + 1) // 2
    return oracle_eigvals(np.zeros(len(e) + 1), e)[half - 2 : half + 2]


def ring(couplings, w):
    params = ChainParams(n=len(couplings), u=1.0, w=w, bc=BoundaryCondition.PERIODIC)
    return build_chain(params, Realization(couplings=couplings))


def golub_kahan_chain(m):
    """One ring's Golub-Kahan chain from a one-row kernel call."""
    return spectrum._golub_kahan_chains(m.offdiag[0::2], m.offdiag[1::2], m.corner)


def ring_block(rings):
    """The rings' couplings as one (B, N-1) array and their per-row corners."""
    return np.array([m.offdiag for m in rings]), np.array([m.corner for m in rings])


def sublattice_block(m):
    """The ring's n x n block Q: rows A sites, columns B sites."""
    return m.to_dense()[0::2, 1::2]


def assert_gap_matches_eigvalsh(m):
    """chain_gap against numpy's dense eigvalsh, within 8*N*eps*||H||.

    N is taken as at least 8: bisection's 48 halvings leave intervals of
    7.1e-15 of the Gershgorin bound, 32*eps*||H||, which no size goes below.
    """
    ev = np.linalg.eigvalsh(m.to_dense())
    tol = 8.0 * max(m.size, 8) * EPS * float(np.max(np.abs(ev)))
    gap = chain_gap(m)
    assert abs(gap - 2.0 * float(np.min(np.abs(ev)))) <= tol
    return gap, tol


def random_chain(rng, n=None, bc=BoundaryCondition.OPEN, w=None):
    n = n or int(rng.integers(2, 12))
    w = w if w is not None else float(rng.uniform(0.3, 1.7))
    params = ChainParams(n=n, u=1.0, w=w, bc=bc)
    return params, build_chain(params, Realization(couplings=rng.uniform(0.3, 1.7, n)))


def projector_profile(e):
    """Per-dimer weight of numpy eigh's midgap pair, and its Davis-Kahan bound.

    The bound is ||P - P'|| <= sqrt(2) * residual / sep for the kernel's
    residual 1e-10 * bound plus eigh's own; a dimer sums two diagonal
    entries of the projector.
    """
    size = len(e) + 1
    evals, vecs = np.linalg.eigh(np.diag(e, 1) + np.diag(e, -1))
    pair = vecs[:, size // 2 - 1 : size // 2 + 1]
    per_site = np.sum(pair * pair, axis=1)
    mags = np.sort(np.abs(evals))
    resid = (1e-10 + size * EPS) * ChainMatrix(offdiag=e).norm_bound()
    return per_site[0::2] + per_site[1::2], 2.0 * math.sqrt(2.0) * resid / (mags[2] - mags[1])


def kernel_profiles(e):
    a, b = midgap_vectors(e, midgap_levels(e))
    return a * a + b * b


class TestTridiagonal:
    def test_single_dimer_pair(self):
        # 2x2 block with off-diagonal u1 has eigenvalues +-u1
        ev = eigvals_sturm(np.zeros(2), np.array([0.7]))
        np.testing.assert_allclose(ev, [-0.7, 0.7], atol=1e-15)

    def test_clean_open_chain_vs_jacobi_oracle(self):
        params = ChainParams(n=8, u=1.0, w=0.8)
        m = build_chain(params, Realization(couplings=np.full(8, 1.0)))
        got = eigenvalues_tridiagonal(m).eigenvalues
        expected = jacobi_eigenvalues(m.to_dense())
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_sum_of_squares_trace_identity(self):
        rng = np.random.default_rng(3)
        params, m = random_chain(rng, n=40)
        ev = eigenvalues_tridiagonal(m).eigenvalues
        assert float(np.sum(ev**2)) == pytest.approx(m.trace_h2(), rel=1e-10)

    def test_ql_and_bisection_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            d = rng.standard_normal(n)
            e = rng.standard_normal(n - 1)
            scale = max(np.max(np.abs(d)), np.max(np.abs(e)), 1.0)
            np.testing.assert_allclose(
                eigvals_sturm(d, e), np.sort(eigvals_ql(d, e)), atol=1e-11 * scale
            )

    def test_rejects_periodic_matrix(self):
        rng = np.random.default_rng(5)
        _, m = random_chain(rng, bc=BoundaryCondition.PERIODIC)
        with pytest.raises(ValueError):
            eigenvalues_tridiagonal(m)

    def test_sturm_count_brackets_spectrum(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal(9)
        e = rng.standard_normal(8)
        ev = eigvals_sturm(d, e)
        e2 = e * e
        mid = 0.5 * (ev[3] + ev[4])
        xs = np.array([[ev[0] - 1.0, ev[-1] + 1.0, mid]])
        assert list(spectrum._sturm_count(e2[None, :], xs, d[None, :])[0]) == [0, 9, 4]

    def test_general_diagonal_bit_identical_to_oracle(self):
        rng = np.random.default_rng(26)
        for k in range(60):
            n = int(rng.integers(2, 81))
            d = rng.standard_normal(n)
            e = rng.uniform(-2.0, 2.0, n - 1)
            if k % 3:
                # a zero coupling, or one whose square underflows to zero
                e[rng.integers(n - 1)] = 0.0 if k % 3 == 1 else 1e-170
            assert eigvals_sturm(d, e).tobytes() == oracle_eigvals(d, e).tobytes()

    @pytest.mark.parametrize(
        "d, e",
        [
            ([-0.0, 0.0], [0.5]),
            ([-0.0, -0.0], [0.5]),
            ([-0.0, -1.0, -0.0, 0.0], [0.0, 0.0, 0.0]),
            ([-0.0, 0.0, -0.0, 0.0, -0.0, 0.0], [1.0, 0.8, 1.2, 0.0, 0.9]),
        ],
    )
    def test_negative_zero_diagonal_matches_eigvalsh(self, d, e):
        d, e = np.array(d), np.array(e)
        expected = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        bound = float(np.max(np.abs(expected)))
        got = eigvals_sturm(d, e)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * bound)
        # -0.0 counts as +0.0, in the kernel and in the oracle alike
        assert got.tobytes() == eigvals_sturm(d + 0.0, e).tobytes()
        assert got.tobytes() == oracle_eigvals(d, e).tobytes()

    def test_zero_bond_with_a_diagonal_warns_no_overflow(self):
        # a floored zero square over a pivot of order 1, then a bond square over that pivot
        d = np.array([0.5, -1.0, 0.0, 0.0, -1.0, 0.0])
        e = np.array([-0.5, 0.0, 0.5, -0.5, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigvals_sturm(d, e)
        expected = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)


class TestMidgapLevels:
    def test_bit_identical_to_full_bisection(self):
        rng = np.random.default_rng(21)
        for size in (4, 5, 9, 24, 61, 200):
            e = rng.uniform(-2.0, 2.0, (7, size - 1))
            e[:, 1::2] = rng.uniform(0.3, 1.7)  # dimerized inter-cell bonds
            got = midgap_levels(e)
            for row, levels in zip(e, got):
                np.testing.assert_array_equal(levels, central_entries(row))

    def test_any_subtree_depth_walks_the_same_path(self):
        # the subtree depth shrinks from 6 to 1 as the stack grows
        rng = np.random.default_rng(22)
        _, m = random_chain(rng, n=30)
        expected = central_entries(m.offdiag)
        for rows in (1, 20, 40, 100, 400):
            got = midgap_levels(np.tile(m.offdiag, (rows, 1)))
            np.testing.assert_array_equal(got, np.tile(expected, (rows, 1)))

    def test_two_dimers_give_the_whole_spectrum(self):
        m = build_chain(ChainParams(n=2, u=1.0, w=0.6), Realization(couplings=[0.9, 1.3]))
        got = midgap_levels(m.offdiag)[0]
        np.testing.assert_array_equal(got, oracle_eigvals(np.zeros(4), m.offdiag))

    def test_zero_and_underflowing_squares(self):
        rng = np.random.default_rng(23)
        e = rng.uniform(0.3, 1.7, (3, 19))
        e[1, 8] = 0.0  # row 1 splits into two decoupled chains
        e[2, 0] = 1e-170  # squares to zero
        got = midgap_levels(e)
        for row, levels in zip(e, got):
            np.testing.assert_array_equal(levels, central_entries(row))
        assert got[1, 1] == pytest.approx(-got[1, 2], abs=1e-13)

    def test_subnormal_chains_alone_and_in_a_block(self):
        # couplings near 1e-309 would square to zero unscaled; the kernel
        # bisects them, alone or beside a normal-scale chain with a zero
        # bond, to the bits the oracle gives the row scaled into normal range
        rng = np.random.default_rng(27)
        normal = rng.uniform(0.3, 1.7, 11)
        normal[4] = 0.0
        tiny = np.geomspace(1e-310, 1e-308, 40)[:, None] * rng.uniform(0.3, 1.7, (40, 11))
        block = midgap_levels(np.vstack((normal, tiny)))
        for row, levels in zip(tiny, block[1:]):
            assert levels.tobytes() == midgap_levels(row)[0].tobytes()
            normal_range = np.ldexp(central_entries(np.ldexp(row, 1050)), -1050)
            assert levels.tobytes() == normal_range.tobytes()

    def test_deep_topological_chain_underflowing_gap(self):
        # w/u = 2 over 2000 dimers: E_min ~ 2**-2000 underflows to zero
        n = 2000
        m = build_chain(ChainParams(n=n, u=1.0, w=2.0), Realization(couplings=np.full(n, 1.0)))
        got = midgap_levels(m.offdiag)[0]
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got, central_entries(m.offdiag))
        tol = 1e-14 * m.norm_bound()
        assert abs(got[1]) <= tol and abs(got[2]) <= tol
        assert got[3] == pytest.approx(1.0, abs=1e-5)  # band edge |w - u|

    def test_near_degenerate_midgap_pair(self):
        # a trivial middle stretch adds two domain-wall modes to the two edge
        # modes: two near-zero pairs, 7e-7 and 6e-4 from zero
        couplings = np.full(40, 0.5)
        couplings[15:25] = 2.0
        m = build_chain(ChainParams(n=40, u=0.5, w=1.0), Realization(couplings=couplings))
        got = midgap_levels(m.offdiag)[0]
        np.testing.assert_array_equal(got, central_entries(m.offdiag))
        assert abs(got[3]) < 1e-3
        full = np.abs(oracle_eigvals(np.zeros(m.size), m.offdiag))
        mine = SpectralResult.from_eigenvalues(got)
        assert mine.gap == 2.0 * full.min()
        # the three smallest |E| that midgap_pair's isolation check reads
        np.testing.assert_array_equal(np.sort(np.abs(got))[:3], np.sort(full)[:3])

    def test_matches_scipy_within_bisection_tolerance(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(24)
        e = rng.uniform(-1.5, 3.5, (20, 199))
        e[:, 1::2] = 0.95
        for row, levels in zip(e, midgap_levels(e)):
            ref = scipy_linalg.eigvalsh_tridiagonal(np.zeros(200), row)[98:102]
            bound = float(np.max(np.abs(row[:-1]) + np.abs(row[1:])))
            np.testing.assert_allclose(levels, ref, rtol=0.0, atol=1e-12 * bound)

    def test_rejects_chains_below_four_sites(self):
        with pytest.raises(ValueError):
            midgap_levels(np.array([[1.0, 0.5]]))


class TestMidgapVectors:
    def check_against_eigh(self, e):
        for row, profile in zip(e, kernel_profiles(e)):
            ref, tol = projector_profile(row)
            assert float(np.max(np.abs(profile - ref))) <= tol

    def test_edge_modes_chains_match_eigh_projector(self):
        # the edge-modes grid: 100 dimers, w = 0.95, gamma from 0 to 1.8
        rng = np.random.default_rng(41)
        for gamma in np.linspace(0.0, 1.8, 10):
            half = math.sqrt(3.0) * gamma
            e = np.full((16, 199), 0.95)
            e[:, 0::2] = rng.uniform(1.0 - half, 1.0 + half, (16, 100))
            self.check_against_eigh(e)

    def test_random_signed_chains_match_eigh_projector(self):
        rng = np.random.default_rng(42)
        for size in (4, 6, 10, 24, 60, 200):
            self.check_against_eigh(rng.uniform(-2.0, 2.0, (8, size - 1)))

    def test_hard_chains_match_eigh_projector(self):
        walls = np.full(40, 0.5)
        walls[15:25] = 2.0  # two domain walls: two near-zero pairs
        chains = [build_chain(ChainParams(n=40, u=0.5, w=1.0), Realization(walls)).offdiag]
        for n in (60, 150):  # clean topological: the pair is degenerate at n = 150
            chains.append(build_chain(ChainParams(n=n, u=0.8, w=1.0), Realization(np.full(n, 0.8))).offdiag)
        rng = np.random.default_rng(43)
        cut = rng.uniform(0.3, 1.7, (2, 19))
        cut[0, 8] = 0.0
        cut[1, 0] = 1e-170  # squares to zero
        for offdiag in chains + list(cut):
            self.check_against_eigh(offdiag[None, :])

    def test_degenerate_pair_of_an_edge_modes_chain(self):
        # realization 13 of the fifth edge-modes default row: its pair is
        # split by 2e-17, and inverse iteration with a Rayleigh-Ritz split
        # put 8e-3 of the weight on the wrong dimers
        dist = FlatDistribution(gamma=float(np.linspace(0.0, 1.8, 10)[4]), u=1.0)
        real = sample_realization(dist, 100, 1 * 1_000_003 + 4, 13)
        m = build_chain(ChainParams(n=100, u=1.0, w=0.95), real)
        v_minus, v_plus = midgap_pair(m)
        per_site = v_minus**2 + v_plus**2
        ref, tol = projector_profile(m.offdiag)
        assert float(np.max(np.abs(per_site[0::2] + per_site[1::2] - ref))) <= tol

    def test_deep_chain_stays_finite_and_edge_localized(self):
        # w/u = 2 over 2000 dimers: |w/u|^n is far past 1e308
        n = 2000
        m = build_chain(ChainParams(n=n, u=1.0, w=2.0), Realization(couplings=np.full(n, 1.0)))
        profile = kernel_profiles(m.offdiag[None, :])[0]
        assert np.all(np.isfinite(profile))
        assert profile.sum() == pytest.approx(2.0, abs=1e-12)
        # clean edge modes: weight 3/4 * 4^-i on dimer i from either end
        edge = 0.75 * 0.25 ** np.arange(10)
        np.testing.assert_allclose(profile[:10], edge, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(profile[::-1][:10], edge, rtol=0.0, atol=1e-12)

    def test_rows_identical_alone_and_in_a_block(self):
        rng = np.random.default_rng(44)
        e = rng.uniform(-0.5, 2.5, (13, 59))
        e[:, 1::2] = 0.95
        e[4, 10] = 0.0
        a, b = midgap_vectors(e, midgap_levels(e))
        for i in range(len(e)):
            a1, b1 = midgap_vectors(e[i : i + 1], midgap_levels(e[i : i + 1]))
            np.testing.assert_array_equal(a1[0], a[i])
            np.testing.assert_array_equal(b1[0], b[i])

    def test_warns_when_the_pair_is_not_isolated(self):
        # three decoupled dimers: every level is +-1
        m = ChainMatrix(offdiag=[1.0, 0.0, 1.0, 0.0, 1.0])
        with pytest.warns(UserWarning, match="degenerate"):
            v_minus, v_plus = midgap_pair(m)
        for v, sign in ((v_plus, 1.0), (v_minus, -1.0)):
            assert np.linalg.norm(m.matvec(v) - sign * v) <= 1e-10

    def test_midgap_pair_rejects_rings_and_odd_sizes(self):
        rng = np.random.default_rng(45)
        for m in (
            ring(rng.uniform(0.3, 1.7, 12), 0.9),
            ChainMatrix(offdiag=[1.0, 0.7, 1.3, 0.9]),
            ChainMatrix(offdiag=[1.0, 0.7, 1.3, 0.9], corner=0.8),
            ChainMatrix(offdiag=[1.0]),
        ):
            with pytest.raises(ValueError):
                midgap_pair(m)
        with pytest.raises(ValueError):
            midgap_vectors(np.ones((2, 4)), np.ones((2, 4)))


class TestRingGap:
    def test_random_signed_rings_match_eigvalsh(self):
        rng = np.random.default_rng(31)
        for n in range(2, 61):
            for _ in range(3):
                m = ring(rng.uniform(-1.8, 1.8, n), float(rng.uniform(-1.8, 1.8)))
                assert_gap_matches_eigvalsh(m)

    def test_clean_ring_gap(self):
        # even n holds the momentum k = pi, where same-sign bands come closest
        for n, u, w in ((2, 1.0, 0.8), (8, 1.0, 0.8), (40, 0.6, 1.5), (26, -1.2, -0.4)):
            m = ring(np.full(n, u), w)
            gap, tol = assert_gap_matches_eigvalsh(m)
            assert gap == pytest.approx(2.0 * abs(u - w), abs=tol)

    def test_critical_clean_ring(self):
        # u = w: ring momenta k = 2 pi j / n bound the gap by 2 pi / n
        for n in (8, 9, 50, 51):
            gap, _ = assert_gap_matches_eigvalsh(ring(np.full(n, 1.0), 1.0))
            assert gap <= 2.0 * math.pi / n

    def test_near_critical_rings(self):
        # c06's ensemble: 300-dimer rings at w = 0.8 around its gap minimum
        rng = np.random.default_rng(32)
        for gamma in (0.5, 0.6, 0.7, 0.8):
            half = math.sqrt(3.0) * gamma
            for _ in range(3):
                assert_gap_matches_eigvalsh(ring(rng.uniform(1.0 - half, 1.0 + half, 300), 0.8))

    def test_zero_coupling_splits_the_ring(self):
        # two vanishing intra-dimer bonds cut the ring into two open chains,
        # and the bidiagonal form carries an exact zero
        m = ring(np.array([0.0, 1.0, 1.0, 1.0, 0.0, 1.0]), 0.9)
        assert_gap_matches_eigvalsh(m)

    def test_deep_ring_stays_finite(self):
        # w/u = 2 over 2000 dimers: |w/u|^n is far past 1e308
        n, u, w = 2000, 1.0, 2.0
        levels = midgap_levels(golub_kahan_chain(ring(np.full(n, u), w)))[0]
        bands = np.sort(-dispersion(u, w, 2.0 * np.pi * np.arange(n) / n))
        expected = [-bands[1], -bands[0], bands[0], bands[1]]
        tol = 8.0 * 2 * n * EPS * (u + w)
        np.testing.assert_allclose(levels, expected, rtol=0.0, atol=tol)

    def test_levels_are_the_central_eigenvalues(self):
        rng = np.random.default_rng(33)
        m = ring(rng.uniform(0.3, 1.7, 30), 0.9)
        ev = np.linalg.eigvalsh(m.to_dense())
        tol = 8.0 * m.size * EPS * float(np.max(np.abs(ev)))
        levels = midgap_levels(golub_kahan_chain(m))[0]
        np.testing.assert_allclose(levels, ev[28:32], rtol=0.0, atol=tol)

    def test_odd_ring_keeps_dense_route(self):
        m = ChainMatrix(offdiag=[1.0, 0.7, 1.3, 0.9], corner=0.8)
        assert chain_gap(m) == eigenvalues_dense(m).gap

    def test_open_chain_gap_bit_identical_to_full_bisection(self):
        rng = np.random.default_rng(21)
        chains = []
        for size in (2, 3, 4, 5, 9, 24, 61, 200):
            e = rng.uniform(-2.0, 2.0, (3, size - 1))
            e[:, 1::2] = rng.uniform(0.3, 1.7)
            chains += list(e)
        e = rng.uniform(0.3, 1.7, (2, 19))
        e[0, 8] = 0.0
        e[1, 0] = 1e-170
        chains += list(e)
        walls = np.full(40, 0.5)
        walls[15:25] = 2.0
        chains.append(build_chain(ChainParams(n=40, u=0.5, w=1.0), Realization(walls)).offdiag)
        deep = ChainParams(n=2000, u=1.0, w=2.0)
        chains.append(build_chain(deep, Realization(np.full(2000, 1.0))).offdiag)
        for offdiag in chains:
            m = ChainMatrix(offdiag=offdiag)
            full = SpectralResult.from_eigenvalues(oracle_eigvals(np.zeros(m.size), offdiag))
            assert chain_gap(m) == full.gap


class TestGolubKahanChains:
    """The windowed ring reduction against the dense oracle and eigvalsh."""

    def assert_matches_oracle(self, m):
        q = sublattice_block(m)
        chain = golub_kahan_chain(m)[0]
        got = np.linalg.svd(np.diag(chain[0::2]) + np.diag(chain[1::2], 1), compute_uv=False)
        d, e = householder_bidiagonalize(q)
        ref = np.linalg.svd(np.diag(d) + np.diag(e, 1), compute_uv=False)
        tol = 8.0 * max(len(q), 8) * EPS * float(ref[0])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=tol)
        assert_gap_matches_eigvalsh(m)

    def test_every_size_through_the_switch_to_the_natural_block(self):
        # n <= 6 is one dense block; above, the window slides until step
        # (n - 5 - slack) // 2, which differs for odd and even n
        rng = np.random.default_rng(51)
        for n in range(2, 61):
            for _ in range(2):
                w = float(rng.uniform(-1.8, 1.8))
                self.assert_matches_oracle(ring(rng.uniform(-1.8, 1.8, n), w))

    def test_zero_and_underflowing_couplings(self):
        rng = np.random.default_rng(52)
        for n in (3, 6, 7, 12, 31):
            base = ring(rng.uniform(0.3, 1.7, n), 0.9)
            # bonds in the head, the middle and the tail, then the corner
            for bond in (0, 1, 2, n - 1, n, 2 * n - 3, 2 * n - 2, None):
                for value in (0.0, 1e-170):
                    offdiag, corner = base.offdiag.copy(), base.corner
                    if bond is None:
                        corner = value
                    else:
                        offdiag[bond] = value
                    self.assert_matches_oracle(ChainMatrix(offdiag=offdiag, corner=corner))
            # two zero bonds isolate a site: a zero column or row of Q
            for bond in (0, n - 1, 2 * n - 3):
                offdiag = base.offdiag.copy()
                offdiag[bond : bond + 2] = 0.0
                self.assert_matches_oracle(ChainMatrix(offdiag=offdiag, corner=base.corner))

    def test_c06_rings(self):
        # c06's ensemble: 300-dimer rings at w = 0.8 from weak disorder to its gap minimum
        rng = np.random.default_rng(53)
        rings = []
        for gamma in (0.3, 0.4, 0.55, 0.8):
            half = math.sqrt(3.0) * gamma
            rings += [ring(rng.uniform(1.0 - half, 1.0 + half, 300), 0.8) for _ in range(2)]
        gaps = chain_gaps(*ring_block(rings))
        for m, gap in zip(rings, gaps):
            assert gap == assert_gap_matches_eigvalsh(m)[0]

    def test_power_of_two_scaling_is_exact(self):
        # no norm under- or overflows: scaled rings give exactly scaled chains
        rng = np.random.default_rng(54)
        m = ring(rng.uniform(0.3, 1.7, 41), 0.9)
        chain = golub_kahan_chain(m)
        for scale in (2.0**-600, 2.0**-3, 2.0**900):
            scaled = spectrum._golub_kahan_chains(
                scale * m.offdiag[0::2], scale * m.offdiag[1::2], scale * m.corner
            )
            assert scaled.tobytes() == (scale * chain).tobytes()

    def test_chunked_block_gives_the_bits_of_each_ring_alone(self):
        rng = np.random.default_rng(55)
        rings = [ring(rng.uniform(0.0, 2.0, 20), 0.8) for _ in range(2 * spectrum._RING_CHUNK + 3)]
        offdiag, _ = ring_block(rings)
        alone = [chain_gap(m) for m in rings]
        assert list(chain_gaps(offdiag, 0.8)) == alone

    def test_corner_per_row_gives_the_bits_of_each_ring_alone(self):
        # the phase-diagram block: one ring per (gamma, w), each closed by its own w
        rng = np.random.default_rng(57)
        rings = [
            ring(rng.uniform(1.0 - math.sqrt(3.0) * g, 1.0 + math.sqrt(3.0) * g, 20), w)
            for g in (0.0, 0.4, 0.9)
            for w in np.linspace(0.5, 1.1, 2 * spectrum._RING_CHUNK // 3 + 1)
        ]
        offdiag, corners = ring_block(rings)
        assert list(chain_gaps(offdiag, corners)) == [chain_gap(m) for m in rings]
        # a scalar corner closes every row alike, and no corner leaves them open
        for corner in (0.8, None):
            alone = [chain_gap(ChainMatrix(offdiag=row, corner=corner)) for row in offdiag]
            assert list(chain_gaps(offdiag, corner)) == alone

    def test_rejects_odd_rings_and_chains_below_four_sites(self):
        with pytest.raises(ValueError, match="odd rings"):
            chain_gaps(np.full((2, 4), 0.9), 0.9)
        for size in (2, 3):
            for corner in (None, 0.9):
                with pytest.raises(ValueError, match="at least 4 sites"):
                    chain_gaps(np.full((2, size - 1), 0.9), corner)


class TestCentralPairGap:
    """`chain_gaps` bisects levels N/2-1 and N/2, and gets 2*min|E| of the four central ones."""

    # a pivot cancelling to +0.0 at x and -x alike parts the two bisections
    # and leaves level N/2-1 the nearer to zero, with or without a zero bond
    MIRROR_BROKEN = (
        ("-0x1.0ee60f52532f0p+0", "-0x1.3097198abcbe8p-2", "-0x1.85a600d670ebcp-1"),
        ("0x1.8ce80ff98d30cp+0", "0x0.0p+0", "-0x1.44eb0aa384feep+0"),
    )

    def test_mirror_broken_chains(self):
        for row in self.MIRROR_BROKEN:
            e = np.array([[float.fromhex(x) for x in row]])
            levels = np.abs(midgap_levels(e)[0])
            assert levels[1] < levels[2]
            assert chain_gaps(e)[0] == 2.0 * levels[1]

    def test_bit_identical_to_four_central_levels(self):
        # signed bonds, then exact-zero, 1e-170 (squares underflow to the
        # floor) and 2^+-600 bonds (squares would under- and overflow unscaled)
        rng = np.random.default_rng(58)
        checked = 0
        with np.errstate(all="ignore"):
            for size in [*range(4, 41), 61, 120, 238]:
                e = rng.uniform(-2.0, 2.0, (24, size - 1))
                e[4:8, rng.integers(0, size - 1, 2)] = 0.0
                e[8:12, rng.integers(0, size - 1, 2)] = 1e-170
                e[12:16] *= 2.0**600
                e[16:20] *= 2.0**-600
                corners = rng.uniform(-2.0, 2.0, len(e)) * np.repeat([1.0, 2.0**600, 2.0**-600], 8)
                blocks = [(None, e)]
                if size % 2 == 0:
                    chains = spectrum._golub_kahan_chains(e[:, 0::2], e[:, 1::2], corners)
                    blocks.append((corners, chains))
                for corner, levels_of in blocks:
                    gaps = chain_gaps(e, corner)
                    expected = 2.0 * np.min(np.abs(midgap_levels(levels_of)), axis=1)
                    assert gaps.tobytes() == expected.tobytes()
                    for k in range(0, len(e), 5):
                        c = None if corner is None else corner[k]
                        assert chain_gap(ChainMatrix(offdiag=e[k], corner=c)) == gaps[k]
                    checked += len(e)
        assert checked >= 1000


def nonzero_or_zero(floats):
    """`floats` with magnitudes under 1e-100 drawn as 0.0, so no scaled square is subnormal."""
    return floats.map(lambda x: 0.0 if 0.0 < abs(x) < 1e-100 else x)


DIAGONALS = st.sampled_from([0.0, -0.0, 0.5, -1.0]) | nonzero_or_zero(st.floats(-2.0, 2.0))
BONDS = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.7]) | nonzero_or_zero(
    st.floats(-1.8, 1.8, exclude_min=True, exclude_max=True)
)


@st.composite
def tridiagonal_chains(draw):
    """(d, e) of one chain of 2 to 12 sites."""
    n = draw(st.integers(2, 12))
    return draw(st.lists(DIAGONALS, min_size=n, max_size=n)), draw(
        st.lists(BONDS, min_size=n - 1, max_size=n - 1)
    )


@st.composite
def open_chain_blocks(draw):
    """Bonds of 1 to 5 zero-diagonal chains of 4 to 14 sites, one chain per row."""
    rows, bonds = draw(st.integers(1, 5)), draw(st.integers(3, 13))
    row = st.lists(BONDS, min_size=bonds, max_size=bonds)
    return draw(st.lists(row, min_size=rows, max_size=rows))


def unit_scaled(*parts):
    """`parts` divided by the power of two that puts their largest |entry| in [1/2, 1).

    The kernel scales each row so and the oracle does not; on rows already
    so scaled the two bisect the same numbers.
    """
    big = max(float(np.max(np.abs(p), initial=0.0)) for p in parts)
    return [np.ldexp(np.asarray(p, dtype=float), -math.frexp(big)[1]) for p in parts]


class TestLevelProperties:
    """The batched, scaled kernel gives the plain one-chain oracle's bits."""

    @settings(max_examples=300, deadline=None)
    @given(tridiagonal_chains())
    def test_eigvals_sturm_matches_oracle(self, chain):
        d, e = unit_scaled(*chain)
        assert eigvals_sturm(d, e).tobytes() == oracle_eigvals(d, e).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(open_chain_blocks())
    def test_central_levels_and_gaps_of_a_block_match_oracle(self, rows):
        e = np.array([unit_scaled(row)[0] for row in rows])
        expected = np.array([central_entries(row) for row in e])
        assert midgap_levels(e).tobytes() == expected.tobytes()
        assert chain_gaps(e).tobytes() == (2.0 * np.min(np.abs(expected), axis=1)).tobytes()

    def test_all_zero_row_in_a_block(self):
        rng = np.random.default_rng(63)
        e = rng.uniform(0.3, 1.7, (3, 11))
        e[1] = 0.0
        corners = np.array([0.9, 0.0, -1.1])  # the zero row is a ring too
        for call in (lambda x, c: midgap_levels(x), lambda x, c: chain_gaps(x), chain_gaps):
            block = call(e, corners)
            assert block[1].tobytes() == np.zeros_like(block[1]).tobytes()  # +0.0, not -0.0
            for k in (0, 2):
                assert block[k].tobytes() == call(e[k : k + 1], corners[k : k + 1])[0].tobytes()


class TestNonFiniteCouplings:
    """NaN and +/-inf raise at every entry, before any arithmetic can warn."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejected_alone_and_in_a_block(self, bad):
        good = np.random.default_rng(64).uniform(0.3, 1.7, (1, 11))
        bad_row = good.copy()
        bad_row[0, 5] = bad
        levels = midgap_levels(good)
        bad_levels = levels.copy()
        bad_levels[0, 2] = bad
        cases = [
            (eigvals_sturm, np.r_[bad, np.zeros(11)], good[0]),
            (eigvals_sturm, np.zeros(12), bad_row[0]),
        ]
        for rows in (slice(1, 2), slice(0, 2)):  # the bad row alone, then beside a finite one
            e = np.vstack((good, bad_row))[rows]
            ok = np.vstack((good, good))[rows]
            corner = np.array([1.0, bad])[rows]
            cases += [
                (midgap_levels, e),
                (chain_gaps, e),
                (chain_gaps, e, 1.0),
                (chain_gaps, ok, corner),
                (midgap_vectors, e, np.vstack((levels, levels))[rows]),
                (midgap_vectors, ok, np.vstack((levels, bad_levels))[rows]),
            ]
        for fn, *args in cases:
            with pytest.raises(ValueError, match="must be finite"):
                fn(*args)


class TestExtremeScales:
    """Rows times 2^k give 2^k times the unscaled bits, past where squares under- or overflow."""

    POWERS = (-1000, -600, -520, 520, 600, 1000)

    def test_open_chain_and_ring_gaps(self):
        rng = np.random.default_rng(60)
        e = rng.uniform(0.3, 1.7, (6, 39))
        corners = rng.uniform(0.3, 1.7, len(e))
        for corner in (None, corners):
            gaps = chain_gaps(e, corner)
            for k in self.POWERS:
                c = None if corner is None else np.ldexp(corner, k)
                assert chain_gaps(np.ldexp(e, k), c).tobytes() == np.ldexp(gaps, k).tobytes()

    def test_midgap_levels_and_vectors(self):
        rng = np.random.default_rng(61)
        e = rng.uniform(0.3, 1.7, (6, 39))
        e[:, 1::2] = 0.8
        levels = midgap_levels(e)
        a, b = midgap_vectors(e, levels)
        for k in self.POWERS:
            scaled = midgap_levels(np.ldexp(e, k))
            assert scaled.tobytes() == np.ldexp(levels, k).tobytes()
            a_k, b_k = midgap_vectors(np.ldexp(e, k), scaled)
            assert a_k.tobytes() == a.tobytes() and b_k.tobytes() == b.tobytes()

    def test_general_diagonal(self):
        rng = np.random.default_rng(62)
        d = rng.standard_normal(30)
        e = rng.uniform(-2.0, 2.0, 29)
        ev = eigvals_sturm(d, e)
        for k in self.POWERS:
            got = eigvals_sturm(np.ldexp(d, k), np.ldexp(e, k))
            assert got.tobytes() == np.ldexp(ev, k).tobytes()


def mixed_gamma_block(bc, n=12, per=3):
    """Chains of `per` realizations at each of four disorder strengths, one
    block: clean, weak, strong and past the sign change of the couplings,
    with w = 0.95 and a deep topological w = 3."""
    chains = []
    for gi, gamma in enumerate((0.0, 0.3, 1.2, 1.8)):
        dist = FlatDistribution(gamma=gamma, u=1.0)
        for i in range(per):
            w = 3.0 if i == per - 1 else 0.95
            params = ChainParams(n=n, u=1.0, w=w, bc=bc)
            chains.append(build_chain(params, sample_realization(dist, n, 50 + gi, i)))
    return chains


class TestRowIndependence:
    """A row alone gives the same bits as that row inside a mixed-gamma block."""

    def test_midgap_levels_and_vectors(self):
        offdiag = np.array([m.offdiag for m in mixed_gamma_block(BoundaryCondition.OPEN)])
        levels = midgap_levels(offdiag)
        a, b = midgap_vectors(offdiag, levels)
        for k, row in enumerate(offdiag):
            alone = midgap_levels(row)[0]
            assert alone.tobytes() == levels[k].tobytes()
            a_k, b_k = midgap_vectors(row, alone[None, :])
            assert a_k[0].tobytes() == a[k].tobytes() and b_k[0].tobytes() == b[k].tobytes()

    def test_ring_golub_kahan_levels(self):
        rings = mixed_gamma_block(BoundaryCondition.PERIODIC)
        chains = np.vstack([golub_kahan_chain(m) for m in rings])
        levels = midgap_levels(chains)
        gaps = chain_gaps(*ring_block(rings))
        for k, m in enumerate(rings):
            assert midgap_levels(golub_kahan_chain(m))[0].tobytes() == levels[k].tobytes()
            assert chain_gap(m) == gaps[k]

    def test_ring_alone_and_in_a_mixed_gamma_block_of_four(self):
        rng = np.random.default_rng(56)
        block = []
        for gamma in (0.0, 0.3, 0.55, 0.8):
            half = math.sqrt(3.0) * gamma
            block.append(ring(rng.uniform(1.0 - half, 1.0 + half, 40), 0.8))
        offdiag = np.array([m.offdiag for m in block])
        chains = spectrum._golub_kahan_chains(
            offdiag[:, 0::2], offdiag[:, 1::2], [m.corner for m in block]
        )
        for k, m in enumerate(block):
            assert golub_kahan_chain(m)[0].tobytes() == chains[k].tobytes()


class TestDense:
    def test_clean_periodic_matches_dispersion(self):
        n, u, w = 6, 1.0, 0.8
        params = ChainParams(n=n, u=u, w=w, bc=BoundaryCondition.PERIODIC)
        m = build_chain(params, Realization(couplings=np.full(n, u)))
        got = eigenvalues_dense(m).eigenvalues
        ks = 2.0 * np.pi * np.arange(n) / n
        bands = dispersion(u, w, ks)
        expected = np.sort(np.concatenate([bands, -bands]))
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # clean even ring: gap equals 2|u - w|
        assert eigenvalues_dense(m).gap == pytest.approx(0.4, abs=1e-12)

    def test_agrees_with_tridiagonal_backend(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            params, m = random_chain(rng)
            a = eigenvalues_tridiagonal(m).eigenvalues
            b = eigenvalues_dense(m.to_dense()).eigenvalues
            scale = max(float(np.max(np.abs(a))), 1.0)
            assert float(np.max(np.abs(a - b))) <= 1e-10 * scale

    def test_householder_preserves_spectrum(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        d, e = householder_tridiagonalize(a)
        np.testing.assert_allclose(
            eigvals_sturm(d, e), jacobi_eigenvalues(a), atol=1e-12
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigenvalues_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_negative_zero_householder_diagonal(self):
        got = eigenvalues_dense(np.array([[-0.0, 0.5], [0.5, 0.0]])).eigenvalues
        np.testing.assert_allclose(got, [-0.5, 0.5], rtol=0.0, atol=1e-13)


class TestSpectralResult:
    def test_gap_and_pair_indices(self):
        res = SpectralResult.from_eigenvalues(np.array([-2.0, -0.3, 0.3, 2.0]))
        assert res.gap == pytest.approx(0.6)

    def test_eigenvalues_sorted(self):
        rng = np.random.default_rng(9)
        _, m = random_chain(rng, n=20)
        ev = eigenvalues_tridiagonal(m).eigenvalues
        assert np.all(np.diff(ev) >= 0.0)


class TestEigenvectors:
    def test_residual_and_orthogonality(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            params, m = random_chain(rng, n=int(rng.integers(4, 40)))
            spectral = eigenvalues_tridiagonal(m)
            v_minus, v_plus = midgap_pair(m)
            lam = 0.5 * spectral.gap
            norm = m.norm_bound()
            for v, sign in ((v_plus, 1.0), (v_minus, -1.0)):
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                resid = m.matvec(v) - sign * lam * v
                assert np.linalg.norm(resid) <= 1e-10 * norm
            assert abs(float(v_minus @ v_plus)) <= 1e-10

    def test_clean_topological_envelope_slope(self):
        # left-edge amplitude decays as exp(-n/xi) on the a-sublattice
        u, w, n = 0.8, 1.0, 60
        params = ChainParams(n=n, u=u, w=w)
        m = build_chain(params, Realization(couplings=np.full(n, u)))
        v = eigenvector_near_zero(m, "plus")
        if abs(v[0]) < abs(v[-1]):
            v = v[::-1]  # the plus state may lean on either edge; use the a-side
        amps = np.abs(v[0::2])[:16]
        slope = np.polyfit(np.arange(16), np.log(amps), 1)[0]
        xi = coherence_length(u, w)
        assert abs(slope + 1.0 / xi) <= 0.05 / xi

    def test_amplitude_alternation_on_a_sublattice(self):
        u, w, n = 0.8, 1.0, 60
        params = ChainParams(n=n, u=u, w=w)
        m = build_chain(params, Realization(couplings=np.full(n, u)))
        v_minus, v_plus = midgap_pair(m)
        # the symmetric/antisymmetric combinations isolate the left edge mode
        left = (v_plus + v_minus) / math.sqrt(2.0)
        if abs(left[0]) < abs(left[-1]):
            left = (v_plus - v_minus) / math.sqrt(2.0)
        a_part = left[0::2][:10]
        signs = np.sign(a_part) * np.sign(a_part[0])
        np.testing.assert_array_equal(signs, [(-1.0) ** i for i in range(10)])

    def test_midgap_splitting_exponentially_small(self):
        u, w, n = 0.8, 1.0, 60
        params = ChainParams(n=n, u=u, w=w)
        m = build_chain(params, Realization(couplings=np.full(n, u)))
        xi = coherence_length(u, w)
        e_min = 0.5 * eigenvalues_tridiagonal(m).gap
        assert e_min <= 10.0 * math.exp(-n / (2.0 * xi))

    def test_deep_degenerate_pair_still_resolved(self):
        # N=150 gives a +- splitting below machine resolution of the pair
        u, w, n = 0.8, 1.0, 150
        params = ChainParams(n=n, u=u, w=w)
        m = build_chain(params, Realization(couplings=np.full(n, u)))
        v_minus, v_plus = midgap_pair(m)
        assert abs(float(v_minus @ v_plus)) <= 1e-10
        for v in (v_minus, v_plus):
            resid = m.matvec(v) - float(v @ m.matvec(v)) * v
            assert np.linalg.norm(resid) <= 1e-10 * m.norm_bound()

    def test_invalid_which(self):
        rng = np.random.default_rng(12)
        _, m = random_chain(rng)
        with pytest.raises(ValueError):
            eigenvector_near_zero(m, "both")
