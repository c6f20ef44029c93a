"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Criteria 3, 6 and 7 are full-scale ensemble reproductions and dominate the
suite runtime (several minutes each on two cores).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import FlatDensity, z1_quadrature, z2_quadrature

from sshlab import analytic, born, ensemble, invariant, model, spectrum
from sshlab.cli import default_config, run_experiment

U = 1.0


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status} ({detail})")


def test_c01_method_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    mismatches = 0
    for i in range(1000):
        n = int(rng.integers(4, 129))
        gamma = float(rng.uniform(0.0, 2.0))
        w = float(rng.uniform(0.5, 1.5))
        dist = ensemble.FlatDistribution(gamma=gamma, u=U)
        real = ensemble.sample_realization(dist, n, master_seed=101, index=i)
        params = model.ChainParams(n=n, u=U, w=w)
        if invariant.winding_integral(real, w).nu != invariant.winding_closed_form(
            real, params
        ):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(1, ok, f"{mismatches} mismatches in 1000 realizations, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60.0


def test_c02_clean_limit_three_methods():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        u = float(rng.uniform(0.2, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        w = float(rng.uniform(0.2, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        if abs(math.log(abs(u / w))) < 0.05:
            continue
        checked += 1
        expected = int(abs(w) > abs(u))
        real = model.Realization(couplings=np.full(12, u))
        params = model.ChainParams(n=12, u=u, w=w)
        assert invariant.winding_integral(real, w).nu == expected
        assert invariant.winding_closed_form(real, params) == expected
        assert invariant.zak_phase_clean(u, w) == expected
    report(2, True, "winding, closed form and Wilson loop all exact on 100 pairs")


def test_c03_mean_nu_curve_matches_analytic():
    start = time.perf_counter()
    n, w, r = 100, 0.95, 15000
    params = model.ChainParams(n=n, u=U, w=w)
    gammas = np.linspace(0.0, 1.5, 30)
    worst = 0.0
    for gi, gamma in enumerate(gammas):
        dist = ensemble.FlatDistribution(gamma=gamma, u=U)
        est = ensemble.estimate_mean_nu(params, dist, r, master_seed=300 + gi)
        an = analytic.mean_nu_analytic(n, U, w, gamma)
        worst = max(worst, abs(est.value - an))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02
    report(3, ok, f"max |MC - analytic| = {worst:.4f} (tol 0.02), {elapsed:.0f}s")
    assert worst <= 0.02


def test_c04_critical_boundary_bisection():
    n, r = 300, 2000
    tol = 2.0 * U / math.sqrt(n)
    worst = 0.0
    for gi, gamma in enumerate(np.arange(0.1, 1.01, 0.1)):
        dist = ensemble.FlatDistribution(gamma=float(gamma), u=U)
        seed = 4000 + gi

        def mc_mean_nu(w):
            params = model.ChainParams(n=n, u=U, w=w)
            return ensemble.estimate_mean_nu(params, dist, r, seed, threads=1).value

        lo, hi = 0.5, 1.25
        assert mc_mean_nu(lo) < 0.5 < mc_mean_nu(hi)
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            if mc_mean_nu(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        w_star = 0.5 * (lo + hi)
        w0 = analytic.critical_w(U, float(gamma))
        worst = max(worst, abs(w_star - w0))
    ok = worst <= tol
    report(4, ok, f"max |w* - w0| = {worst:.4f} (tol {tol:.4f})")
    assert worst <= tol


def test_c05_weak_disorder_asymptotics():
    dist = FlatDensity(gamma=0.01, u=U)
    z1 = z1_quadrature(dist)
    z2 = z2_quadrature(dist)
    r1 = z1 / (-(0.01**2) / (2.0 * U**2))
    r2 = z2 / (0.01**2 / U**2)
    worst_gap = 0.0
    for gamma in np.linspace(0.05, 2.0, 79):
        if abs(math.sqrt(3.0) * gamma - U) < 1e-3:
            continue
        quad_val = z1_quadrature(FlatDensity(gamma=gamma, u=U))
        closed = analytic.z1_flat_closed_form(gamma, U)
        worst_gap = max(worst_gap, abs(quad_val - closed))
    ok = abs(r1 - 1.0) <= 0.01 and abs(r2 - 1.0) <= 0.01 and worst_gap <= 1e-8
    report(
        5,
        ok,
        f"z1 ratio {r1:.4f}, z2 ratio {r2:.4f}, closed-vs-quad gap {worst_gap:.2e}",
    )
    assert abs(r1 - 1.0) <= 0.01
    assert abs(r2 - 1.0) <= 0.01
    assert worst_gap <= 1e-8


def test_c06_gap_suppression():
    start = time.perf_counter()
    n, w, r = 300, 0.8, 100
    clean_gap = 2.0 * abs(U - w)
    params = model.ChainParams(
        n=n, u=U, w=w, bc=model.BoundaryCondition.PERIODIC
    )
    gammas = np.linspace(0.0, 0.8, 17)
    means = []
    for gi, gamma in enumerate(gammas):
        dist = ensemble.FlatDistribution(gamma=float(gamma), u=U)
        est = ensemble.estimate_mean_gap(params, dist, r, master_seed=600 + gi)
        means.append(est.value)
    means = np.array(means)
    i_min = int(np.argmin(means))
    gamma0 = analytic.critical_gamma_weak(U, w)
    depth_ok = means[i_min] <= 1e-3 * clean_gap
    argmin_ok = abs(gammas[i_min] - gamma0) <= 0.15 * gamma0
    elapsed = time.perf_counter() - start
    report(
        6,
        depth_ok and argmin_ok,
        f"min <E_G> = {means[i_min]:.2e} at gamma = {gammas[i_min]:.3f} "
        f"(gamma0 = {gamma0:.3f}), {elapsed:.0f}s",
    )
    assert depth_ok, f"minimum {means[i_min]} above 1e-3 x clean gap {clean_gap}"
    assert argmin_ok, f"argmin {gammas[i_min]} outside 15% of {gamma0}"


def test_c07_edge_modes():
    start = time.perf_counter()
    # clean topological envelope
    u, w, n = 0.8, 1.0, 60
    xi = model.coherence_length(u, w)
    params = model.ChainParams(n=n, u=u, w=w)
    m = model.build_chain(params, model.Realization(couplings=np.full(n, u)))
    v = spectrum.eigenvector_near_zero(m, "plus")
    if abs(v[0]) < abs(v[-1]):
        v = v[::-1]
    amps = np.abs(v[0::2])[:16]
    slope = float(np.polyfit(np.arange(16), np.log(amps), 1)[0])
    slope_ok = abs(slope + 1.0 / xi) <= 0.05 / xi

    # disorder sweep of the averaged midgap weight
    n, w, r = 100, 0.95, 100
    params = model.ChainParams(n=n, u=U, w=w)
    gammas = np.linspace(0.0, 1.8, 10)
    fractions, nus = [], []
    for gi, gamma in enumerate(gammas):
        dist = ensemble.FlatDistribution(gamma=float(gamma), u=U)
        prof = ensemble.estimate_wavefunction_profile(
            params, dist, r, master_seed=700 + gi
        )
        nu = ensemble.estimate_mean_nu(params, dist, max(r, 2), master_seed=700 + gi)
        weight = np.asarray(prof.value)
        fractions.append(float((weight[:5].sum() + weight[-5:].sum()) / weight.sum()))
        nus.append(nu.value)
    fractions = np.array(fractions)
    nus = np.array(nus)
    in_window = fractions[nus > 0.9]
    window_ok = in_window.size > 0 and float(in_window.max()) > 0.5
    strong = fractions[gammas >= 1.5]
    strong_ok = bool(np.all(strong < 0.2))
    elapsed = time.perf_counter() - start
    ok = slope_ok and window_ok and strong_ok
    report(
        7,
        ok,
        f"slope dev {abs(slope + 1 / xi) * xi:.2%}, max edge weight "
        f"{fractions.max():.2f}, strong-disorder weight {strong.max():.2f}, {elapsed:.0f}s",
    )
    assert slope_ok
    assert window_ok
    assert strong_ok


def test_c08_born_module():
    identity_ok = all(
        born.band_touch_gamma(u, w) == analytic.critical_gamma_weak(u, w)
        for u, w in ((1.0, 0.8), (0.7, 0.3), (2.0, 1.9))
    )
    dos_ok = True
    for u in (0.5, 1.0, 2.0):
        delta = 0.02 * u
        gamma = math.sqrt(2.0 * u * delta)
        rho = born.midgap_dos(delta, u, gamma, alpha=1e-6 * u)
        dos_ok = dos_ok and abs(rho - 1.0 / (2.0 * math.pi * u)) <= 1e-10

    delta, alpha = 0.01 * U, 1e-5 * U
    p = born.BornParams(u=U, w=U - delta, alpha=alpha, omega=0.0)
    fq = born.f_quadrature(p)
    gq = born.g_quadrature(p)
    f_err = abs(fq - born.f_narrow_peak(delta, U, alpha)) / abs(fq)
    g_err = abs(gq - born.g_narrow_peak(delta, U, alpha)) / abs(gq)
    f_ok = f_err <= 0.05
    g_ok = g_err <= 0.05
    ok = identity_ok and dos_ok and f_ok and g_ok
    report(
        8,
        ok,
        f"band-touch identity {identity_ok}, dos {dos_ok}, "
        f"f err {f_err:.2%}, g err {g_err:.2%} (tol 5%)",
    )
    assert identity_ok
    assert dos_ok
    assert f_ok
    # The full Brillouin-zone integral of the coupling-shift scalar carries a
    # smooth -1/(2u) background on top of the Lorentzian peak, so it sits at
    # twice the peak-only closed form for small delta; the 5% agreement holds
    # for f but is unattainable for g (see the decisions ledger).
    assert g_ok, (
        f"g quadrature differs from the peak-only form by {g_err:.1%}: "
        f"quadrature {gq:.6f} vs narrow-peak {born.g_narrow_peak(delta, U, alpha):.6f}"
    )


def test_c09_numerical_kernels():
    rng = np.random.default_rng(909)
    worst_pair = worst_trace = worst_backend = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 41))
        bc = (
            model.BoundaryCondition.PERIODIC
            if rng.random() < 0.5
            else model.BoundaryCondition.OPEN
        )
        params = model.ChainParams(n=n, u=U, w=float(rng.uniform(0.2, 1.8)), bc=bc)
        real = model.Realization(couplings=rng.uniform(-1.8, 1.8, n))
        m = model.build_chain(params, real)
        res = (
            spectrum.eigenvalues_tridiagonal(m)
            if m.is_tridiagonal
            else spectrum.eigenvalues_dense(m)
        )
        ev = res.eigenvalues
        scale = max(float(np.max(np.abs(ev))), 1e-30)
        worst_pair = max(worst_pair, float(np.max(np.abs(ev + ev[::-1]))) / scale)
        worst_trace = max(
            worst_trace, abs(float(np.sum(ev**2)) - m.trace_h2()) / m.trace_h2()
        )
        if m.is_tridiagonal:
            dense = spectrum.eigenvalues_dense(m.to_dense()).eigenvalues
            worst_backend = max(
                worst_backend, float(np.max(np.abs(ev - dense))) / max(scale, 1.0)
            )
    ok = worst_pair <= 1e-10 and worst_trace <= 1e-10 and worst_backend <= 1e-10
    report(
        9,
        ok,
        f"chiral pairing {worst_pair:.1e}, trace {worst_trace:.1e}, "
        f"backend agreement {worst_backend:.1e} (tol 1e-10)",
    )
    assert worst_pair <= 1e-10
    assert worst_trace <= 1e-10
    assert worst_backend <= 1e-10


def test_c10_cli_determinism(tmp_path):
    def data_section(path):
        return "\n".join(
            l for l in path.read_text().splitlines() if not l.startswith("#")
        )

    tiny = {
        "invariant": dict(n=8, gamma_grid=(0.1, 0.5)),
        "mean-nu": dict(n=8, realizations=40, gamma_grid=(0.1, 0.5)),
        "phase-diagram": dict(n=8, gamma_grid=(0.1, 0.5), w_grid=(0.8, 1.1)),
        "edge-modes": dict(n=10, realizations=6, gamma_grid=(0.1, 0.5)),
        "gap-scan": dict(n=10, realizations=6, gamma_grid=(0.1, 0.5)),
        "born": dict(gamma_grid=(0.1, 0.5), w_grid=(0.99,)),
    }
    all_ok = True
    for experiment, overrides in tiny.items():
        sections = []
        for threads in (1, 2):
            out = tmp_path / f"{experiment}-{threads}.csv"
            cfg = replace(
                default_config(experiment),
                master_seed=10,
                out=str(out),
                threads=threads,
                **overrides,
            )
            sections.append(data_section(run_experiment(cfg)))
        same = sections[0] == sections[1]
        all_ok = all_ok and same
        assert same, f"{experiment} data section changed with thread count"
    report(10, all_ok, "all six experiments byte-identical across thread counts")
