import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import lu_determinant
from sshlab.invariant import (
    CriticalRealizationError,
    UnresolvedWindingError,
    WindingResult,
    index_from_log_xi,
    log_ratio_sums,
    winding_closed_form,
    winding_integral,
    xi_value,
    zak_phase_clean,
)
from sshlab.model import ChainParams, Realization, build_flux_matrix


def clean_realization(n, u):
    return Realization(couplings=np.full(n, float(u)))


couplings_strategy = st.lists(
    st.floats(min_value=0.05, max_value=3.0), min_size=2, max_size=40
)
w_strategy = st.floats(min_value=0.1, max_value=3.0)


class TestWindingIntegral:
    def test_clean_topological(self):
        res = winding_integral(clean_realization(10, 1.0), w=2.0)
        assert res.nu == 1

    def test_clean_trivial(self):
        res = winding_integral(clean_realization(10, 2.0), w=1.0)
        assert res.nu == 0

    def test_total_phase_rounds_to_winding(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            real = Realization(couplings=rng.uniform(0.2, 2.0, n))
            res = winding_integral(real, w=float(rng.uniform(0.2, 2.0)))
            assert abs(res.total_phase / (2.0 * math.pi) - res.nu) <= 1e-6

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            winding_integral(clean_realization(4, 1.0), w=2.0, m_phi=8)

    def test_lu_route_agrees_with_closed_form_route(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            real = Realization(couplings=rng.uniform(0.3, 1.8, n))
            w = float(rng.uniform(0.3, 1.8))
            a = winding_integral(real, w)
            # wind the oracle's LU determinants on the phase grid a settled on
            phis = 2.0 * math.pi * np.arange(a.phase_samples) / a.phase_samples
            dets = np.array([lu_determinant(build_flux_matrix(real, w, p)) for p in phis])
            increments = np.angle(np.roll(dets, -1) * np.conj(dets))
            assert float(np.max(np.abs(increments))) < 0.5 * math.pi
            assert round(float(np.sum(increments)) / (2.0 * math.pi)) == a.nu

    def test_near_tie_is_unresolved(self):
        real = clean_realization(2, 1.0)
        with pytest.raises(UnresolvedWindingError):
            winding_integral(real, w=1.0 + 1e-9)

    def test_tiny_determinant_is_critical(self):
        real = Realization(couplings=[1e-160, 1e-160])
        with pytest.raises(CriticalRealizationError):
            winding_integral(real, w=1e-155)

    def test_zero_coupling_still_winds(self):
        # one vanished bond makes det h = w^n e^{i phi}: clean winding 1
        real = Realization(couplings=[0.0, 1.0, 1.0])
        assert winding_integral(real, w=0.5).nu == 1


class TestClosedForm:
    def test_clean_trivial_phase(self):
        params = ChainParams(n=100, u=1.0, w=0.95)
        assert xi_value(clean_realization(100, 1.0), params) > 0.0
        assert winding_closed_form(clean_realization(100, 1.0), params) == 0

    def test_exact_tie_raises(self):
        params = ChainParams(n=4, u=1.0, w=1.0)
        real = Realization(couplings=[2.0, 0.5, 2.0, 0.5])
        with pytest.raises(CriticalRealizationError):
            winding_closed_form(real, params)

    def test_zero_coupling_flagged(self):
        params = ChainParams(n=3, u=1.0, w=0.5)
        real = Realization(couplings=[0.0, 1.0, 1.0])
        with pytest.warns(UserWarning, match="zero coupling"):
            assert winding_closed_form(real, params) == 1

    def test_log_space_survives_large_n(self):
        n = 300
        params = ChainParams(n=n, u=2.0, w=0.5)
        # (u/w)^n would overflow in linear space
        assert winding_closed_form(clean_realization(n, 2.0), params) == 0
        params2 = ChainParams(n=n, u=0.5, w=2.0)
        assert winding_closed_form(clean_realization(n, 0.5), params2) == 1

    def test_requires_nonzero_couplings(self):
        params = ChainParams(n=2, u=0.0, w=1.0)
        with pytest.raises(ValueError):
            winding_closed_form(clean_realization(2, 0.0), params)


class TestLogRatioSums:
    @staticmethod
    def reference(c, u):
        with np.errstate(divide="ignore"):
            return np.sum(np.log(np.abs(c / u)), axis=-1)

    @pytest.mark.parametrize("u", [1.0, 0.7, -1.3])
    def test_bytes_match_the_plain_expression(self, u):
        rng = np.random.default_rng(11)
        shapes = [(-2.0, 3.0, (6, 37)), (0.1, 3.0, 301), (-1.0, 1.0, (2, 3, 5))]
        for c in (rng.uniform(*shape) for shape in shapes):
            before = c.copy()
            result = log_ratio_sums(c, u)
            assert c.tobytes() == before.tobytes()
            assert result.shape == c.shape[:-1]
            assert np.asarray(result).tobytes() == np.asarray(self.reference(c, u)).tobytes()

    def test_zero_coupling_is_minus_inf_without_warning(self):
        c = np.array([[0.5, 0.0, 2.0], [0.5, 1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = log_ratio_sums(c, -1.0)
        assert result[0] == -math.inf and np.isfinite(result[1])
        assert c[0, 1] == 0.0

    def test_zero_coupling_beside_an_overflowing_ratio_is_minus_inf(self):
        # 1e10 / 1e-300 overflows: the row is still cut, and gets nu = 1 with the warning
        c = np.array([[0.0, 1e10, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = log_ratio_sums(c, 1e-300)
            assert log_ratio_sums(c[:, 1:], 1e-300)[0] == math.inf
        assert result[0] == -math.inf
        with pytest.warns(UserWarning, match="zero coupling"):
            assert index_from_log_xi(result)[0] == 1.0


class TestMethodEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(couplings=couplings_strategy, w=w_strategy)
    def test_integral_equals_closed_form(self, couplings, w):
        real = Realization(couplings=couplings)
        params = ChainParams(n=real.n, u=1.0, w=w)
        log_xi = xi_value(real, params)
        assume(abs(log_xi) > 1e-6)  # skip the measure-zero critical shell
        assert winding_integral(real, w).nu == winding_closed_form(real, params)

    @settings(max_examples=60, deadline=None)
    @given(
        couplings=couplings_strategy,
        w=w_strategy,
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_gauge_invariance_under_global_scaling(self, couplings, w, scale):
        real = Realization(couplings=couplings)
        log_xi = xi_value(real, ChainParams(n=real.n, u=1.0, w=w))
        assume(abs(log_xi) > 1e-6)
        scaled = Realization(couplings=np.asarray(couplings) * scale)
        assert winding_integral(real, w).nu == winding_integral(scaled, w * scale).nu

    @settings(max_examples=60, deadline=None)
    @given(couplings=couplings_strategy, w=w_strategy)
    def test_grid_refinement_stability(self, couplings, w):
        real = Realization(couplings=couplings)
        log_xi = xi_value(real, ChainParams(n=real.n, u=1.0, w=w))
        assume(abs(log_xi) > 1e-6)
        base = winding_integral(real, w, m_phi=16)
        doubled = winding_integral(real, w, m_phi=32)
        assert base.nu == doubled.nu


class TestZakPhase:
    def test_clean_phases(self):
        assert zak_phase_clean(1.0, 2.0) == 1
        assert zak_phase_clean(2.0, 1.0) == 0

    def test_gapless_raises(self):
        with pytest.raises(ValueError, match="gapless"):
            zak_phase_clean(1.0, 1.0)
        with pytest.raises(ValueError):
            zak_phase_clean(1.0, -1.0)

    def test_minimum_grid_enforced(self):
        with pytest.raises(ValueError):
            zak_phase_clean(1.0, 2.0, m_k=32)

    def test_agrees_with_winding_on_clean_chains(self):
        rng = np.random.default_rng(19)
        count = 0
        while count < 50:
            u = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
            w = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
            if abs(math.log(abs(u / w))) < 0.05:
                continue
            count += 1
            wind = winding_integral(clean_realization(12, u), w).nu
            assert zak_phase_clean(u, w) == wind == int(abs(w) > abs(u))

    def test_negative_couplings(self):
        assert zak_phase_clean(-1.0, 2.0) == 1
        assert zak_phase_clean(-2.0, 1.0) == 0


class TestWindingResultInvariant:
    def test_phase_consistency_field(self):
        res = WindingResult(nu=1, phase_samples=64, total_phase=2.0 * math.pi)
        assert abs(res.total_phase / (2.0 * math.pi) - res.nu) <= 1e-6
