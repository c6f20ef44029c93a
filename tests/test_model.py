import math

import numpy as np
import pytest

from oracles import flux_dense, jacobi_eigenvalues, lu_determinant
from sshlab.model import (
    BoundaryCondition,
    ChainMatrix,
    ChainParams,
    Realization,
    build_chain,
    build_flux_matrix,
    chain_couplings,
    coherence_length,
    dispersion,
    gershgorin_radii,
)
from sshlab.spectrum import eigenvalues_dense, eigenvalues_tridiagonal


def chiral_sign_matrix(size):
    return np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(size)])


class TestBuildChain:
    def test_two_dimer_offdiagonals(self):
        params = ChainParams(n=2, u=1.0, w=2.0)
        m = build_chain(params, Realization(couplings=[1.0, 1.0]))
        assert m.is_tridiagonal
        np.testing.assert_array_equal(m.offdiag, [1.0, 2.0, 1.0])
        dense = m.to_dense()
        np.testing.assert_array_equal(np.diag(dense), np.zeros(4))
        np.testing.assert_array_equal(dense, dense.T)

    def test_periodic_adds_corner(self):
        params = ChainParams(n=3, u=1.0, w=0.5, bc=BoundaryCondition.PERIODIC)
        m = build_chain(params, Realization(couplings=[1.0, 1.2, 0.9]))
        assert not m.is_tridiagonal
        assert m.corner == 0.5
        assert m.to_dense()[0, 5] == 0.5

    def test_dimension_mismatch(self):
        params = ChainParams(n=3, u=1.0, w=0.5)
        with pytest.raises(ValueError):
            build_chain(params, Realization(couplings=[1.0, 1.0]))
        with pytest.raises(ValueError):
            chain_couplings(params, np.ones((4, 2)))

    def test_block_rows_are_each_realizations_chain(self):
        params = ChainParams(n=5, u=1.0, w=0.7, bc=BoundaryCondition.PERIODIC)
        couplings = np.random.default_rng(4).uniform(0.5, 1.5, (3, 5))
        block = chain_couplings(params, couplings)
        assert block.shape == (3, 9)
        for row, c in zip(block, couplings):
            assert row.tobytes() == build_chain(params, Realization(couplings=c)).offdiag.tobytes()

    def test_clean_periodic_spectrum_equals_dispersion_grid(self):
        # dense Jacobi oracle against the analytic band energies, small rings
        for n in (4, 6, 8):
            u, w = 1.0, 0.7
            params = ChainParams(n=n, u=u, w=w, bc=BoundaryCondition.PERIODIC)
            m = build_chain(params, Realization(couplings=np.full(n, u)))
            got = jacobi_eigenvalues(m.to_dense())
            ks = 2.0 * np.pi * np.arange(n) / n
            bands = dispersion(u, w, ks)
            expected = np.sort(np.concatenate([bands, -bands]))
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_chiral_symmetry_fifty_realizations(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            bc = BoundaryCondition.PERIODIC if rng.random() < 0.5 else BoundaryCondition.OPEN
            params = ChainParams(n=n, u=1.0, w=float(rng.uniform(0.2, 2.0)), bc=bc)
            m = build_chain(params, Realization(couplings=rng.uniform(-2.0, 2.0, n)))
            h = m.to_dense()
            s = chiral_sign_matrix(2 * n)
            np.testing.assert_array_equal(s @ h @ s, -h)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        for bc in BoundaryCondition:
            params = ChainParams(n=5, u=1.0, w=0.8, bc=bc)
            m = build_chain(params, Realization(couplings=rng.uniform(0.5, 1.5, 5)))
            x = rng.standard_normal(10)
            np.testing.assert_allclose(m.matvec(x), m.to_dense() @ x, rtol=1e-14)


class TestFluxMatrix:
    def test_diagonal_limit(self):
        h = build_flux_matrix(Realization(couplings=[1.0, 1.0, 1.0]), w=0.0, phi=1.3)
        assert h.determinant() == pytest.approx(1.0)

    def test_critical_point_determinant_vanishes(self):
        h = build_flux_matrix(Realization(couplings=[1.0, 1.0]), w=1.0, phi=0.0)
        assert h.determinant() == pytest.approx(0.0, abs=1e-15)

    def test_structure(self):
        h = build_flux_matrix(Realization(couplings=[1.0, 2.0, 3.0]), w=0.5, phi=0.7)
        dense = flux_dense(h)
        np.testing.assert_allclose(np.diag(dense), [1.0, 2.0, 3.0])
        assert dense[1, 0] == 0.5 and dense[2, 1] == 0.5
        corner = dense[0, 2]
        assert corner == pytest.approx(0.5 * np.exp(0.7j))
        # only the corner entry is non-real
        others = dense.copy()
        others[0, 2] = 0.0
        assert np.all(others.imag == 0.0)
        # phi = 0 gives a real matrix
        h0 = build_flux_matrix(Realization(couplings=[1.0, 2.0, 3.0]), w=0.5, phi=0.0)
        assert np.all(flux_dense(h0).imag == 0.0)

    def test_closed_form_against_lu_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            h = build_flux_matrix(
                Realization(couplings=rng.uniform(-2.0, 2.0, n)),
                w=float(rng.uniform(-2.0, 2.0)),
                phi=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            closed = h.determinant()
            lu = lu_determinant(h)
            assert abs(closed - lu) <= 1e-12 * max(abs(closed), abs(lu), 1.0)

    def test_determinant_linear_in_phase_factor(self):
        # det is degree 1 in e^{i phi}: two samples determine all others
        rng = np.random.default_rng(5)
        h = lambda phi: lu_determinant(
            build_flux_matrix(Realization(couplings=[0.9, 1.4, 0.3, 1.1]), w=0.8, phi=phi)
        )
        d0, d1 = h(0.0), h(np.pi / 2)
        b = (d1 - d0) / (np.exp(1j * np.pi / 2) - 1.0)
        a = d0 - b
        for phi in rng.uniform(0.0, 2.0 * np.pi, 17):
            expected = a + b * np.exp(1j * phi)
            assert abs(h(phi) - expected) <= 1e-12

    def test_log_terms_recompose(self):
        h = build_flux_matrix(Realization(couplings=[0.9, -1.4, 0.3]), w=0.8, phi=0.4)
        lp, sp, lq, sq = h.log_terms()
        rebuilt = sp * np.exp(lp) + sq * np.exp(lq) * np.exp(1j * h.phi)
        assert abs(rebuilt - h.determinant()) <= 1e-14


class TestDispersion:
    def test_band_touching(self):
        assert dispersion(1.0, 1.0, np.pi) == pytest.approx(0.0, abs=1e-7)

    def test_flat_band(self):
        for k in (0.0, 1.0, np.pi):
            assert dispersion(1.0, 0.0, k) == pytest.approx(-1.0)

    def test_gap_edge(self):
        # |eps_pi| is half the spectral gap 2|u-w|
        assert dispersion(1.0, 0.8, np.pi) == pytest.approx(-0.2)
        assert 2.0 * abs(dispersion(1.0, 0.8, np.pi)) == pytest.approx(0.4)


class TestCoherenceLength:
    def test_unit_length(self):
        assert coherence_length(1.0, math.e) == pytest.approx(1.0)

    def test_critical_point_raises(self):
        with pytest.raises(ValueError, match="no localized edge mode"):
            coherence_length(1.0, 1.0)

    def test_trivial_phase_raises(self):
        with pytest.raises(ValueError):
            coherence_length(1.0, 0.5)

    def test_reference_value(self):
        assert coherence_length(0.8, 1.0) == pytest.approx(1.0 / math.log(1.25))
        assert coherence_length(0.8, 1.0) == pytest.approx(4.4814, abs=5e-5)


class TestGershgorin:
    def test_norm_bound_is_the_largest_dense_row_sum(self):
        # two nonzero entries per row at most, so any summation order gives the same bits
        rng = np.random.default_rng(43)
        for size in range(4, 41):
            e = rng.uniform(-2.0, 2.0, size - 1)
            e[rng.random(size - 1) < 0.25] = 0.0
            for corner in (None, float(rng.uniform(-2.0, 2.0)), 0.0):
                m = ChainMatrix(offdiag=e, corner=corner)
                assert m.norm_bound() == np.abs(m.to_dense()).sum(axis=1).max()

    def test_rows_are_independent_chains(self):
        rng = np.random.default_rng(44)
        e = rng.uniform(-1.5, 1.5, (5, 9))
        corners = rng.uniform(-1.0, 1.0, 5)
        radii = gershgorin_radii(e, corners)
        for row, corner, expected in zip(e, corners, radii):
            np.testing.assert_array_equal(gershgorin_radii(row, corner), expected)
            dense = np.abs(ChainMatrix(offdiag=row, corner=corner).to_dense()).sum(axis=1)
            np.testing.assert_array_equal(expected, dense)
        np.testing.assert_array_equal(gershgorin_radii(e)[:, 1:-1], radii[:, 1:-1])


class TestSpectralInvariants:
    def test_chiral_pairing_of_spectrum(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            bc = BoundaryCondition.PERIODIC if rng.random() < 0.5 else BoundaryCondition.OPEN
            params = ChainParams(n=n, u=1.0, w=float(rng.uniform(0.2, 1.8)), bc=bc)
            m = build_chain(params, Realization(couplings=rng.uniform(-1.5, 1.5, n)))
            res = eigenvalues_dense(m) if not m.is_tridiagonal else eigenvalues_tridiagonal(m)
            ev = res.eigenvalues
            scale = max(float(np.max(np.abs(ev))), 1e-300)
            assert float(np.max(np.abs(ev + ev[::-1]))) <= 1e-10 * scale

    def test_trace_identity(self):
        rng = np.random.default_rng(42)
        for bc, n_w in ((BoundaryCondition.OPEN, 7), (BoundaryCondition.PERIODIC, 8)):
            n = 8
            w = 0.9
            couplings = rng.uniform(0.3, 1.7, n)
            params = ChainParams(n=n, u=1.0, w=w, bc=bc)
            m = build_chain(params, Realization(couplings=couplings))
            expected = 2.0 * (np.sum(couplings**2) + n_w * w**2)
            assert m.trace_h2() == pytest.approx(expected, rel=1e-14)
            res = eigenvalues_dense(m) if not m.is_tridiagonal else eigenvalues_tridiagonal(m)
            assert float(np.sum(res.eigenvalues**2)) == pytest.approx(expected, rel=1e-10)


class TestValidation:
    def test_min_dimers(self):
        with pytest.raises(ValueError):
            ChainParams(n=1, u=1.0, w=1.0)

    def test_realization_immutable(self):
        r = Realization(couplings=[1.0, 2.0])
        with pytest.raises(ValueError):
            r.couplings[0] = 5.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_couplings_rejected(self, bad):
        with pytest.raises(ValueError, match="^couplings must be finite$"):
            Realization(couplings=[1.0, bad, 0.5])
        assert Realization(couplings=[1.0, 0.0, 0.5]).n == 3

    def test_ring_needs_three_sites(self):
        # on two sites the corner would be the one bond a second time
        for offdiag in ([1.0], []):
            with pytest.raises(ValueError, match="at least 3 sites"):
                ChainMatrix(offdiag=offdiag, corner=0.5)
        assert ChainMatrix(offdiag=[1.0]).trace_h2() == 2.0
        m = ChainMatrix(offdiag=[1.0, 0.7], corner=0.5)
        dense = m.to_dense()
        np.testing.assert_array_equal(dense @ np.eye(3), [m.matvec(x) for x in np.eye(3)])
        assert m.trace_h2() == pytest.approx(np.trace(dense @ dense), rel=1e-15)
        assert m.norm_bound() == np.abs(dense).sum(axis=1).max()
