import math

import mpmath
import numpy as np
import pytest
from oracles import born_quadrature

from sshlab.analytic import critical_gamma_weak, variance_nu
from sshlab.born import (
    BornParams,
    averaged_greens_function,
    band_touch_gamma,
    bare_greens_function,
    f_narrow_peak,
    f_quadrature,
    g_narrow_peak,
    g_quadrature,
    midgap_dos,
)
from sshlab.model import dispersion

SIGMA_0 = np.eye(2, dtype=complex)


def inv_2x2(m):
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


class TestBareGreensFunction:
    def test_is_the_resolvent(self):
        # analytic 2x2 inverse of (omega + i alpha) - H(k) as the oracle
        rng = np.random.default_rng(2)
        for _ in range(20):
            u, w = rng.uniform(0.3, 1.5, 2)
            k = float(rng.uniform(-np.pi, np.pi))
            p = BornParams(u=u, w=w, alpha=1e-3, omega=float(rng.uniform(-2, 2)))
            q = u + w * np.exp(-1j * k)
            hk = np.array([[0.0, q], [np.conj(q), 0.0]])
            oracle = inv_2x2((p.omega + 1j * p.alpha) * SIGMA_0 - hk)
            np.testing.assert_allclose(bare_greens_function(k, p), oracle, atol=1e-12)

    def test_single_dimer_poles(self):
        # w = 0: poles sit at omega = +-u
        u, alpha = 1.0, 1e-8
        on_pole = bare_greens_function(0.3, BornParams(u=u, w=0.0, alpha=alpha, omega=u))
        off_pole = bare_greens_function(0.3, BornParams(u=u, w=0.0, alpha=alpha, omega=0.5 * u))
        assert np.max(np.abs(on_pole)) > 1e6 * np.max(np.abs(off_pole))

    def test_antihermitian_part_at_midgap(self):
        # at omega = 0: G - G^dagger = 2 i alpha sigma_0 / (z^2 - eps_k^2)
        u, w, alpha = 1.0, 0.7, 1e-3
        for k in (0.3, 1.1, 2.9):
            p = BornParams(u=u, w=w, alpha=alpha, omega=0.0)
            g = bare_greens_function(k, p)
            den = (1j * alpha) ** 2 - dispersion(u, w, k) ** 2
            expected = 2j * alpha * SIGMA_0 / den
            np.testing.assert_allclose(g - g.conj().T, expected, atol=1e-15)

    def test_band_edge_from_dispersion(self):
        # the k = pi denominator vanishes at omega = |eps_pi| = 0.2
        u, w = 1.0, 0.8
        eps = dispersion(u, w, np.pi)
        assert eps == pytest.approx(-0.2)
        p = BornParams(u=u, w=w, alpha=1e-8, omega=abs(eps))
        g = bare_greens_function(np.pi, p)
        assert np.max(np.abs(g)) > 1e6


class TestSelfEnergyQuadrature:
    def test_g_vanishes_on_topological_side(self):
        p = BornParams(u=1.0, w=1.1, alpha=1e-8, omega=0.0)
        g = g_quadrature(p)
        assert abs(g.real) <= 1e-6

    def test_f_purely_imaginary_at_midgap(self):
        p = BornParams(u=1.0, w=0.9, alpha=1e-5, omega=0.0)
        f = f_quadrature(p)
        assert abs(f.real) <= 1e-10
        assert f.imag < 0.0

    def test_f_agrees_with_narrow_peak(self):
        delta, alpha, u = 0.01, 1e-5, 1.0
        fq = f_quadrature(BornParams(u=u, w=u - delta, alpha=alpha, omega=0.0))
        fnp = f_narrow_peak(delta, u, alpha)
        assert abs(fq - fnp) <= 0.05 * abs(fq)

    def test_f_narrow_peak_error_shrinks_with_delta(self):
        u = 1.0
        errors = []
        for delta in (0.1, 0.03, 0.01):
            alpha = 1e-3 * delta  # fixed alpha/delta
            fq = f_quadrature(BornParams(u=u, w=u - delta, alpha=alpha, omega=0.0))
            errors.append(abs(fq - f_narrow_peak(delta, u, alpha)) / abs(fq))
        assert errors[0] > errors[1] > errors[2]

    def test_g_quadrature_carries_the_smooth_background(self):
        # the narrow-peak g keeps only the peak; the full integral adds a
        # -1/(2u) background on both sides of the transition
        u = 1.0
        for delta in (0.1, 0.03, 0.01):
            alpha = 1e-3 * delta
            gq = g_quadrature(BornParams(u=u, w=u - delta, alpha=alpha, omega=0.0))
            gnp = g_narrow_peak(delta, u, alpha)
            assert abs(gq - (gnp - 1.0 / (2.0 * u))) <= 0.05 * abs(gq)


def mp_self_energies(u, w, alpha, omega):
    """(f, g) to 40 digits by mpmath quadrature, split geometrically around the peaks."""
    with mpmath.workdps(40):
        z = mpmath.mpc(omega, alpha)
        u, w = mpmath.mpf(u), mpmath.mpf(w)
        peaks = [mpmath.pi]
        if u * w != 0:
            ck = (z.real**2 - u * u - w * w) / (2 * u * w)
            if -1 < ck < 1:
                peaks.append(mpmath.acos(ck))  # resonance eps_k = |omega| inside the band
        width = mpmath.mpf(alpha) / max(abs(u), abs(w))
        pts = {mpmath.mpf(0), mpmath.pi}
        for c in peaks:
            d = width
            while d < mpmath.pi:
                pts.update(x for x in (c - d, c + d) if 0 < x < mpmath.pi)
                d *= 4
        pts = sorted(pts)

        def den(k):
            return z * z - (u * u + w * w + 2 * u * w * mpmath.cos(k))

        f = mpmath.quad(lambda k: z / den(k), pts) / mpmath.pi
        g = mpmath.quad(lambda k: (u + w * mpmath.cos(k)) / den(k), pts) / mpmath.pi
        return complex(f), complex(g)


class TestSelfEnergyClosedForm:
    def test_matches_scipy_quadrature(self):
        # negative couplings, w = 0, and omega inside and outside the band
        rng = np.random.default_rng(15)
        for i in range(320):
            u, w = rng.uniform(-2.0, 2.0, 2)
            if i % 10 == 0:
                w = 0.0
            alpha = 10.0 ** rng.uniform(-6.0, -1.0)
            p = BornParams(u=u, w=w, alpha=alpha, omega=float(rng.uniform(-3.0, 3.0)))
            f, g = born_quadrature(p)
            assert abs(f_quadrature(p) - f) <= 1e-9
            assert abs(g_quadrature(p) - g) <= 1e-9

    @pytest.mark.parametrize(
        "u, w, alpha, omega",
        [
            (1.0, 0.9, 1e-6, 0.0),  # trivial side
            (1.0, 1.0, 1e-6, 0.0),  # clean critical point
            (1.0, 1.1, 1e-6, 0.0),  # topological side
            (1.0, 0.9, 1e-4, 0.5),  # inside the band
            (1.0, 0.9, 1e-4, 2.5),  # outside the band
            (-1.0, 0.7, 1e-4, 0.5),
            (1.0, 0.0, 1e-4, 0.4),
            (0.8, -1.3, 1e-5, 0.0),
        ],
    )
    def test_matches_mpmath(self, u, w, alpha, omega):
        f, g = mp_self_energies(u, w, alpha, omega)
        p = BornParams(u=u, w=w, alpha=alpha, omega=omega)
        assert abs(f_quadrature(p) - f) <= 1e-12
        assert abs(g_quadrature(p) - g) <= 1e-12

    @pytest.mark.parametrize("omega", [0.5, 1.5])
    def test_band_edges_to_rounding(self, omega):
        # omega = |u -+ w| exactly: |f| ~ 1/sqrt(alpha) and z^2 - c^2 is all cancellation
        f, g = mp_self_energies(1.0, 0.5, 1e-8, omega)
        p = BornParams(u=1.0, w=0.5, alpha=1e-8, omega=omega)
        assert abs(f_quadrature(p) - f) <= 1e-14 * abs(f)
        assert abs(g_quadrature(p) - g) <= 1e-14 * abs(g)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_clean_critical_point_where_quadrature_fails(self):
        # w = u closes the clean gap at k = pi; f -> -i/(2u), g -> -1/(2u)
        p = BornParams(u=1.0, w=1.0, alpha=1e-8, omega=0.0)
        with pytest.raises(RuntimeError):
            born_quadrature(p)
        f, g = mp_self_energies(1.0, 1.0, 1e-8, 0.0)
        assert abs(f_quadrature(p) - f) <= 1e-12
        assert abs(g_quadrature(p) - g) <= 1e-12
        assert f_quadrature(p) == pytest.approx(-0.5j, abs=1e-7)
        assert g_quadrature(p) == pytest.approx(-0.5, abs=1e-7)

    def test_vanishing_parts_at_midgap_are_positive_zero(self):
        # at omega = 0 f is imaginary and g real; the other part is +0.0, never -0.0
        for w in (0.8, 1.0, 1.2, 0.0):
            p = BornParams(u=1.0, w=w, alpha=1e-6, omega=0.0)
            assert math.copysign(1.0, f_quadrature(p).real) == 1.0
            assert math.copysign(1.0, g_quadrature(p).imag) == 1.0

    def test_alpha_to_zero_limits(self):
        # g -> -1/u for w < u and 0 for w > u: the peak -1/(2u) plus the background -1/(2u)
        for u in (0.5, 1.0, 2.0):
            for w, limit in ((0.9 * u, -1.0 / u), (1.1 * u, 0.0)):
                p = BornParams(u=u, w=w, alpha=1e-10 * u, omega=0.0)
                assert g_quadrature(p).real == pytest.approx(limit, abs=1e-8)
                assert abs(f_quadrature(p)) <= 1e-8


class TestNarrowPeakForms:
    def test_zero_dimerization(self):
        u = 1.0
        assert f_narrow_peak(0.0, u, 1e-4) == pytest.approx(-1j / (2.0 * u))
        assert g_narrow_peak(0.0, u, 1e-4) == 0.0

    def test_small_regulator_limits(self):
        u, delta = 1.0, 0.2
        assert abs(f_narrow_peak(delta, u, 1e-12)) <= 1e-11
        assert g_narrow_peak(delta, u, 1e-12) == pytest.approx(-1.0 / (2.0 * u), rel=1e-12)

    def test_equal_delta_and_alpha(self):
        u = 1.0
        val = 1.0 / (2.0 * math.sqrt(2.0) * u)
        assert f_narrow_peak(0.1, u, 0.1) == pytest.approx(-1j * val)
        assert g_narrow_peak(0.1, u, 0.1) == pytest.approx(-val)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            f_narrow_peak(-0.1, 1.0, 1e-4)

    def test_g_is_positive_zero_at_zero_dimerization(self):
        # -delta/(...) is -0.0 at delta = 0; the CSV would print it as "-0"
        for u in (1.0, 0.7, -1.3):
            g = g_narrow_peak(0.0, u, 1e-6)
            assert math.copysign(1.0, g.real) == 1.0 and math.copysign(1.0, g.imag) == 1.0
        assert g_narrow_peak(0.1, 1.0, 1e-6).real == -0.1 / (2.0 * math.sqrt(0.01 + 1e-12))


class TestAveragedGreensFunction:
    def test_no_disorder_reduces_to_bare(self):
        p = BornParams(u=1.0, w=0.8, gamma=0.0, alpha=1e-4, omega=0.4)
        for k in (0.2, 2.0):
            np.testing.assert_allclose(
                averaged_greens_function(k, p, method="quadrature"),
                bare_greens_function(k, p),
                atol=1e-14,
            )

    def test_midgap_pole_emerges_at_band_touching(self):
        u, delta = 1.0, 0.02
        gamma = math.sqrt(2.0 * u * delta)
        mags = []
        for alpha in (1e-4, 1e-6):
            p = BornParams(u=u, w=u - delta, gamma=gamma, alpha=alpha, omega=0.0)
            g = averaged_greens_function(np.pi, p, method="narrow_peak")
            mags.append(abs(g[0, 0]))
        assert mags[1] > 50.0 * mags[0]

    def test_retarded_sign_of_spectral_weight(self):
        for method in ("quadrature", "narrow_peak"):
            for omega in (0.0, 0.1, 0.5, 1.5, 2.5):
                p = BornParams(u=1.0, w=0.9, gamma=0.3, alpha=1e-4, omega=omega)
                g = averaged_greens_function(0.7 * np.pi, p, method=method)
                assert (g[0, 0] + g[1, 1]).imag <= 0.0


class TestMidgapDos:
    def test_band_touching_value_independent_of_regulator(self):
        for u in (0.5, 1.0, 2.0):
            delta = 0.02
            gamma = math.sqrt(2.0 * u * delta)
            for alpha in (1e-5, 1e-8):
                rho = midgap_dos(delta, u, gamma, alpha)
                assert rho == pytest.approx(1.0 / (2.0 * math.pi * u), rel=1e-10)

    def test_clean_gapped_limit_vanishes(self):
        assert midgap_dos(0.1, 1.0, 0.0, 1e-12) <= 1e-10

    def test_maximum_sits_at_band_touching(self):
        u, delta, alpha = 1.0, 0.05, 1e-6
        gammas = np.linspace(0.01, 0.7, 300)
        rhos = [midgap_dos(delta, u, g, alpha) for g in gammas]
        gstar = gammas[int(np.argmax(rhos))]
        assert gstar == pytest.approx(math.sqrt(2.0 * u * delta), abs=2.0 * (gammas[1] - gammas[0]))

    def test_positivity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho = midgap_dos(
                float(rng.uniform(0.001, 0.5)),
                float(rng.uniform(0.5, 2.0)),
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(1e-9, 1e-3)),
            )
            assert rho >= 0.0

    def test_wrong_branch_rejected(self):
        with pytest.raises(ValueError):
            midgap_dos(-0.1, 1.0, 0.3, 1e-6)


class TestBandTouchGamma:
    def test_matches_weak_disorder_route_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = float(rng.uniform(0.5, 2.0))
            w = u * float(rng.uniform(0.2, 0.999))
            assert band_touch_gamma(u, w) == critical_gamma_weak(u, w)

    def test_reference_values(self):
        assert band_touch_gamma(1.0, 0.8) == pytest.approx(0.63246, abs=5e-6)
        assert band_touch_gamma(1.0, 1.0 - 1e-12) == pytest.approx(0.0, abs=2e-6)

    def test_rejects_topological_branch(self):
        with pytest.raises(ValueError):
            band_touch_gamma(1.0, 1.2)
        with pytest.raises(ValueError):
            band_touch_gamma(1.0, 1.0)


@pytest.mark.parametrize(
    "fn, args",
    [
        (lambda *a: variance_nu(*a, mode="weak"), (100, 0.0, 0.9, 0.3)),
        (f_narrow_peak, (0.1, 0.0, 1e-4)),
        (g_narrow_peak, (0.1, 0.0, 1e-4)),
        (midgap_dos, (0.1, 0.0, 0.3, 1e-4)),
    ],
    ids=["variance_nu_weak", "f_narrow_peak", "g_narrow_peak", "midgap_dos"],
)
def test_zero_u_rejected(fn, args):
    # each form divides by u
    with pytest.raises(ValueError, match="^u must be nonzero$"):
        fn(*args)
