import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FlatDensity, z1_quadrature, z2_quadrature

from sshlab.analytic import (
    critical_gamma,
    critical_gamma_weak,
    critical_w,
    critical_w_weak,
    erf,
    fluctuation_width,
    mean_nu_analytic,
    variance_nu,
    z1_flat_closed_form,
    z2_flat_closed_form,
)
from sshlab.cli import default_config
from sshlab.ensemble import FlatDistribution


def z1_mpmath(gamma, u):
    """Mean of log|1 + s|, s uniform on [-a, a], to 50 digits (a as in z2_mpmath)."""
    mpmath.mp.dps = 50
    a = mpmath.mpf(FlatDistribution(gamma=gamma, u=abs(u)).halfwidth) / abs(mpmath.mpf(u))
    pieces = [-a, a] if a <= 1 else [-a, -1, a]
    return mpmath.quad(lambda s: mpmath.log(abs(1 + s)), pieces) / (2 * a)


def z2_mpmath(gamma, u):
    """Variance of log|1 + s|, s uniform on [-a, a], to 50 digits.

    a = h/|u| for the half-width h = sqrt(3)*gamma of FlatDistribution, a double.
    """
    mpmath.mp.dps = 50
    a = mpmath.mpf(FlatDistribution(gamma=gamma, u=abs(u)).halfwidth) / abs(mpmath.mpf(u))
    pieces = [-a, a] if a <= 1 else [-a, -1, a]
    z1 = mpmath.quad(lambda s: mpmath.log(abs(1 + s)), pieces) / (2 * a)
    return mpmath.quad(lambda s: (mpmath.log(abs(1 + s)) - z1) ** 2, pieces) / (2 * a)


class TestErf:
    def test_reference_abscissas_against_mpmath(self):
        mpmath.mp.dps = 50
        xs = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.3, 1.7, 2.0,
              2.3, 2.5, 2.7, 3.0, 3.5, 4.0, 4.5, 5.0, 5.7, 6.4]
        for x in xs:
            expected = float(mpmath.erf(x))
            assert abs(erf(x) - expected) <= 1e-12 * abs(expected)

    def test_odd_function(self):
        for x in (0.3, 1.7, 4.2):
            assert erf(-x) == -erf(x)

    def test_limits(self):
        assert erf(0.0) == 0.0
        assert erf(10.0) == 1.0
        assert erf(-10.0) == -1.0

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(min_value=-8.0, max_value=8.0))
    def test_bounded_and_monotone_nearby(self, x):
        val = erf(x)
        assert -1.0 <= val <= 1.0
        assert erf(x + 1e-3) >= val - 1e-15


class TestZ1:
    def test_zero_disorder(self):
        assert z1_quadrature(FlatDensity(gamma=0.0, u=1.0)) == 0.0

    def test_weak_disorder_asymptotics(self):
        gamma, u = 0.01, 1.0
        z1 = z1_quadrature(FlatDensity(gamma=gamma, u=u))
        assert z1 / (-(gamma**2) / (2.0 * u**2)) == pytest.approx(1.0, rel=0.01)

    def test_quadrature_matches_closed_form(self):
        for gamma in (0.1, 0.3, 0.9, 1.5):
            quad_val = z1_quadrature(FlatDensity(gamma=gamma, u=1.0))
            assert quad_val == pytest.approx(z1_flat_closed_form(gamma, 1.0), abs=1e-8)

    def test_closed_form_supports_negative_couplings(self):
        # support reaching past -u switches the integrand to |1 + eps/u|
        gamma = 1.5
        quad_val = z1_quadrature(FlatDensity(gamma=gamma, u=1.0))
        assert quad_val == pytest.approx(z1_flat_closed_form(gamma, 1.0), abs=1e-8)

    def test_closed_form_small_gamma_limit(self):
        assert abs(z1_flat_closed_form(1e-4, 1.0)) <= 1e-7

    def test_value_where_the_support_touches_zero(self):
        # sqrt(3)*gamma = u exactly: E[log|1 + s|] over [-1, 1] is ln 2 - 1
        gamma, u = 1.0, math.sqrt(3.0)
        assert math.sqrt(3.0) * gamma == u
        assert z1_flat_closed_form(gamma, u) == pytest.approx(math.log(2.0) - 1.0, rel=1e-15)

    def test_unnormalized_density_rejected(self):
        class Bad:
            u = 1.0
            support = (-0.5, 0.5)

            def pdf(self, eps):
                return 0.7  # integrates to 0.7, not 1

        with pytest.raises(ValueError, match="not normalized"):
            z1_quadrature(Bad())


class TestZ2:
    def test_zero_disorder(self):
        assert z2_quadrature(FlatDensity(gamma=0.0, u=1.0)) == 0.0

    def test_weak_disorder_asymptotics(self):
        gamma, u = 0.01, 1.0
        z2 = z2_quadrature(FlatDensity(gamma=gamma, u=u))
        assert z2 / (gamma**2 / u**2) == pytest.approx(1.0, rel=0.01)

    def test_nonnegative(self):
        for gamma in (0.05, 0.3, 0.57, 0.9, 1.7):
            assert z2_quadrature(FlatDensity(gamma=gamma, u=1.0)) >= 0.0


_SWITCH_GAMMA = 0.5 / math.sqrt(3.0)  # a = sqrt3 gamma/|u| = 1/2 at u = 1
_TOUCH_GAMMA = 1.0 / math.sqrt(3.0)  # with u = sqrt3 * gamma the support ends at c = 0


class TestZ1ClosedForm:
    @pytest.mark.parametrize(
        "gamma, u",
        [
            (gamma, u)
            for u in (1.0, 1.7, -1.0)
            for gamma in (1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.6, 1.0, 1.5, 2.0)
        ]
        + [(_SWITCH_GAMMA * (1.0 + d), 1.0) for d in (-1e-12, 0.0, 1e-12)]
        + [(_TOUCH_GAMMA + d, 1.0) for d in (-1e-5, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5)],
    )
    def test_matches_mpmath(self, gamma, u):
        expected = z1_mpmath(gamma, u)
        assert abs(z1_flat_closed_form(gamma, u) - expected) <= 1e-13 * abs(expected)

    def test_sign_at_tiny_disorder(self):
        # z1 = -gamma^2/(2u^2) to leading order: negative however small gamma is
        assert z1_flat_closed_form(1e-6, 1.0) == pytest.approx(-5e-13, rel=1e-9)


class TestZ2ClosedForm:
    @pytest.mark.parametrize(
        "gamma, u",
        [
            (gamma, u)
            for u in (1.0, 1.7, -1.0)
            for gamma in (1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.6, 1.0, 1.5, 2.0)
        ]
        + [(_SWITCH_GAMMA * (1.0 + d), 1.0) for d in (-1e-12, 0.0, 1e-12)]
        + [(_TOUCH_GAMMA, math.sqrt(3.0) * _TOUCH_GAMMA)],
    )
    def test_matches_mpmath(self, gamma, u):
        expected = z2_mpmath(gamma, u)
        assert abs(z2_flat_closed_form(gamma, u) - expected) <= 1e-13 * expected

    def test_matches_quadrature_on_the_c05_grid(self):
        for gamma in np.linspace(0.05, 2.0, 79):
            quad_val = z2_quadrature(FlatDensity(gamma=float(gamma), u=1.0))
            assert abs(z2_flat_closed_form(float(gamma), 1.0) - quad_val) <= 1e-12

    @pytest.mark.parametrize("gamma, u", [(0.0, 1.0), (-0.1, 1.0), (0.3, 0.0)])
    def test_rejects_invalid_arguments(self, gamma, u):
        with pytest.raises(ValueError):
            z2_flat_closed_form(gamma, u)

    def test_mean_nu_on_the_cli_grid_matches_quadrature_route(self):
        cfg = default_config("mean-nu")
        for gamma in cfg.gamma_grid:
            if gamma == 0.0:
                continue  # the exact step, no z2
            z1 = z1_flat_closed_form(gamma, cfg.u)
            z2 = z2_quadrature(FlatDensity(gamma=gamma, u=cfg.u))
            shift = math.log(cfg.u / cfg.w) + z1
            expected = 0.5 * (1.0 - erf(math.sqrt(cfg.n) * shift / math.sqrt(2.0 * z2)))
            assert abs(mean_nu_analytic(cfg.n, cfg.u, cfg.w, gamma) - expected) <= 1e-13


class TestMeanNu:
    def test_half_on_the_boundary(self):
        # boundary consistency across the whole disorder range
        for gamma in np.linspace(0.01, 2.0, 25):
            w0 = critical_w(1.0, float(gamma))
            assert mean_nu_analytic(100, 1.0, w0, float(gamma)) == pytest.approx(
                0.5, abs=1e-10
            )

    def test_large_n_step(self):
        gamma = 0.3
        w0 = critical_w(1.0, gamma)
        assert mean_nu_analytic(10**6, 1.0, w0 * 1.05, gamma) == pytest.approx(1.0, abs=1e-9)
        assert mean_nu_analytic(10**6, 1.0, w0 * 0.95, gamma) == pytest.approx(0.0, abs=1e-9)

    def test_clean_limit_step(self):
        assert mean_nu_analytic(50, 1.0, 0.95, 0.0) == 0.0
        assert mean_nu_analytic(50, 1.0, 1.05, 0.0) == 1.0

    def test_clean_tie_raises(self):
        with pytest.raises(ValueError, match="critical"):
            mean_nu_analytic(50, 1.0, 1.0, 0.0)

    def test_sharpens_with_n(self):
        # off the boundary, |<nu> - step| shrinks monotonically with n
        gamma, w = 0.3, 0.9
        devs = [abs(mean_nu_analytic(n, 1.0, w, gamma) - 0.0) for n in (25, 100, 400)]
        assert devs[0] > devs[1] > devs[2]

    def test_sign_flip_symmetry(self):
        for gamma in (0.2, 0.8):
            a = mean_nu_analytic(80, 1.0, 0.9, gamma)
            b = mean_nu_analytic(80, -1.0, -0.9, gamma)
            assert a == pytest.approx(b, rel=1e-12)


class TestCriticalSurfaces:
    def test_clean_boundary(self):
        assert critical_w(1.0, 0.0) == 1.0

    def test_matches_quadrature_oracle(self):
        gamma = 0.3
        z1 = z1_quadrature(FlatDensity(gamma=gamma, u=1.0))
        assert critical_w(1.0, gamma) == pytest.approx(math.exp(z1), rel=1e-10)

    def test_weak_disorder_consistency(self):
        for gamma in (0.02, 0.05, 0.1):
            w0 = critical_w(1.0, gamma)
            approx = 1.0 - gamma**2 / 2.0
            assert w0 == pytest.approx(approx, rel=0.01)

    def test_critical_gamma_weak_values(self):
        assert critical_gamma_weak(1.0, 1.0 - 1e-12) == pytest.approx(0.0, abs=2e-6)
        assert critical_gamma_weak(1.0, 0.8) == pytest.approx(math.sqrt(0.4), rel=1e-12)
        assert critical_gamma_weak(1.0, 0.8) == pytest.approx(0.63246, abs=5e-6)
        assert critical_gamma_weak(1.0, 0.95) == pytest.approx(0.31623, abs=5e-6)

    def test_critical_w_weak_is_the_leading_order(self):
        for u in (1.0, 0.7, 1.3, -1.3):
            for gamma in np.linspace(0.0, 0.3 * abs(u), 13):
                w0 = critical_w_weak(u, float(gamma))
                assert abs(w0 - critical_w(u, float(gamma))) <= gamma**4 / abs(u) ** 3
                if gamma > 0.0 and u > 0.0:
                    assert critical_gamma_weak(u, w0) == pytest.approx(gamma, abs=1e-12)
        # nan once u - gamma^2/(2u) no longer has the sign of u
        assert critical_w_weak(1.0, 1.4) > 0.0
        assert math.isnan(critical_w_weak(1.0, 1.5)) and math.isnan(critical_w_weak(-1.3, 2.0))
        with pytest.raises(ValueError):
            critical_w_weak(0.0, 0.1)

    def test_critical_gamma_weak_rejects_topological(self):
        with pytest.raises(ValueError):
            critical_gamma_weak(1.0, 1.2)

    def test_bisection_utility_consistent_with_weak_form(self):
        for w in (0.95, 0.99):
            g0 = critical_gamma(1.0, w)
            assert g0 == pytest.approx(critical_gamma_weak(1.0, w), rel=0.05)
            # exact defining property
            assert critical_w(1.0, g0) == pytest.approx(w, rel=1e-9)

    def test_bisection_root_at_the_bracket_end(self):
        # shift(0.31) is exactly 0.0 at w = critical_w(1, 0.31)
        assert critical_gamma(1.0, critical_w(1.0, 0.31), bracket=(0.0, 0.31)) == 0.31

    def test_bisection_no_crossing(self):
        with pytest.raises(ValueError, match="no boundary crossing"):
            critical_gamma(1.0, 0.95, bracket=(0.0, 0.05))


class TestVarianceNu:
    def test_quarter_on_boundary(self):
        gamma = 0.4
        w0 = critical_w(1.0, gamma)
        assert variance_nu(100, 1.0, w0, gamma) == pytest.approx(0.25, abs=1e-9)

    def test_vanishes_off_criticality_clean(self):
        assert variance_nu(100, 1.0, 0.9, 0.0) == 0.0
        assert variance_nu(100, 1.0, 0.9, 0.0, mode="weak") == 0.0

    def test_weak_mode_matches_general_near_crossing(self):
        # inside the weak-disorder/weak-dimerization window
        for du, gamma in ((0.005, 0.1), (0.002, 0.0632), (0.005, 0.09), (0.0045, 0.1)):
            vg = variance_nu(100, 1.0, 1.0 - du, gamma, mode="general")
            vw = variance_nu(100, 1.0, 1.0 - du, gamma, mode="weak")
            assert vw == pytest.approx(vg, rel=0.05)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            variance_nu(10, 1.0, 0.9, 0.1, mode="exact")


class TestFluctuationWidth:
    def test_direct_values(self):
        assert fluctuation_width(1.0, 100) == pytest.approx(0.1)
        assert fluctuation_width(1.0, 300) == pytest.approx(0.0577, abs=5e-5)

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            fluctuation_width(1.0, 0)
