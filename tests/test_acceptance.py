"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria 1, 4, 5, 6 (accuracy) and 10 run the ``verify`` suites,
which implement those checks, each with its own seed; every criterion pins
its tolerances here, on what the suite reports.
"""

import time

import numpy as np
import pytest

from burgers_lab.attractors import (
    PROFILES,
    AttractorFn,
    attractor_decay_series,
    attractor_distance,
    lyapunov,
    optimal_r,
)
from burgers_lab.blowup import (
    certify_blowup_F,
    certify_blowup_H,
    corollary_condition,
    detect_numerical_blowup,
    monitor_lyapunov_bound,
    simplified_horizon,
    simplified_lower_bound,
)
from burgers_lab.characteristics import InitialField, tmax_inviscid
from burgers_lab.dynamics import (
    DiagnosticsConfig,
    ModelParams,
    evolve,
    nonlinear_direct,
    nonlinear_pseudospectral,
)
from burgers_lab.spectral import SineSpectrum
from burgers_lab.verify import (
    comparison_lemma_suite,
    energy_neutrality_suite,
    key_identity_suite,
    lyapunov_identity_suite,
    oracle_equivalence_suite,
)
from conftest import monitor_direct

F_NORM = np.sqrt(2.0 * np.pi**3 / 3.0)


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def run_energy_equality():
    """alpha=0.25, nu=0.1, u0=-sin x, N=512, dt=1e-4, t_end=1."""
    return evolve(
        SineSpectrum.sine_wave(1.0, 512),
        ModelParams(0.25, 0.1),
        1.0,
        1e-4,
        DiagnosticsConfig(stride=10, store_spectra=True),
    )


@pytest.fixture(scope="module")
def run_supercritical():
    """alpha=0.25, R=10, nu=0.04, N=1024, dt=5e-5."""
    return evolve(
        SineSpectrum.sine_wave(10.0, 1024),
        ModelParams(0.25, 0.04),
        2.5,
        5e-5,
        DiagnosticsConfig(stride=10, store_spectra=True),
    )


@pytest.fixture(scope="module")
def all_records(run_energy_equality, run_supercritical):
    conservation = evolve(
        SineSpectrum.sine_wave(1.0, 256), ModelParams(0.5, 0.0), 0.5, 1e-3
    )
    return [run_energy_equality, run_supercritical, conservation]


def test_criterion_01_key_identity():
    suite = key_identity_suite(seed=1)
    worst_coeff, worst_quad = suite.worsts["coefficient"], suite.worsts["quadrature"]
    ok = worst_coeff <= 1e-10 and worst_quad <= 1e-6
    report(1, ok, f"key identity: coeff path {worst_coeff:.2e} (tol 1e-10 rel), "
                  f"quadrature path {worst_quad:.2e} (tol 1e-6); worst at {suite.where}")


def test_criterion_02_exact_attractor_decay():
    u0 = InitialField(SineSpectrum([0.5]))
    energy0 = np.pi
    r0 = optimal_r(u0.spectrum).r0
    times = np.arange(0.1, 0.95, 0.1)
    worst = 0.0
    for r in (0.5 * r0, r0, 2.0 * r0):
        d0 = attractor_distance(u0.spectrum, r)
        table = attractor_decay_series(u0, times, AttractorFn(r, "origin"))
        law = d0 - r * energy0 * times
        worst = max(worst, float(np.max(np.abs(table.distance - law)) / d0))
    ok = worst <= 1e-6
    report(2, ok, f"decay law |D(t)-(D0 - r||u0||^2 t)|/D0 worst {worst:.2e} "
                  f"(tol 1e-6; r0={r0:.6f}, D0={attractor_distance(u0.spectrum, r0):.6f})")


def test_criterion_03_blowup_time_ordering():
    u0 = InitialField(SineSpectrum([0.5]))
    t_max = tmax_inviscid(u0)
    bound = optimal_r(u0.spectrum).g_r0
    margin = bound - t_max
    ok = t_max == pytest.approx(1.0, abs=1e-12) and t_max <= bound and margin > 0.1
    report(3, ok, f"T_max = {t_max:.12g} <= bound {bound:.6f}, margin {margin:.4f} (> 0.1)")


def test_criterion_04_energy_neutrality():
    suite = energy_neutrality_suite(seed=4)
    ok = suite.worst <= 1e-12
    report(4, ok, f"energy neutrality worst {suite.worst:.2e} of (sum|psi|)^3 (tol 1e-12) at {suite.where}")


def test_criterion_05_lyapunov_identity():
    suite = lyapunov_identity_suite(seed=5)
    ok = suite.worst <= 1e-12
    report(5, ok, f"half-support pairing identity worst {suite.worst:.2e} of (sum|psi|)^2 (tol 1e-12) "
                  f"at {suite.where}")


def test_criterion_06_oracle_equivalence_and_speed():
    worst = oracle_equivalence_suite(seed=6).worst
    rng = np.random.default_rng(6)

    def timings(N):
        psi = rng.uniform(-1.0, 1.0, N)
        out = {}
        for name, fn in (("direct", nonlinear_direct), ("pseudospectral", nonlinear_pseudospectral)):
            fn(psi)
            reps = [0.0] * 5
            for i in range(5):
                t0 = time.perf_counter()
                fn(psi)
                reps[i] = time.perf_counter() - t0
            out[name] = float(np.median(reps))
        return out

    small = timings(1024)  # report-only
    big = timings(4096)
    ok = worst <= 1e-10 and big["pseudospectral"] < big["direct"]
    report(6, ok, f"kernels agree to {worst:.2e} (tol 1e-10 rel); at N=4096 transform "
                  f"{big['pseudospectral']*1e3:.2f} ms < direct {big['direct']*1e3:.2f} ms "
                  f"(N=1024, report only: {small['pseudospectral']*1e3:.2f} vs {small['direct']*1e3:.2f} ms)")


def test_criterion_07_energy_equality(run_energy_equality):
    rec = run_energy_equality
    residual = float(
        np.max(np.abs(rec.energy + rec.diss_integral - rec.energy[0]) / rec.energy[0])
    )
    ok = residual <= 1e-6
    report(7, ok, f"energy equality residual {residual:.2e} over t<= {rec.times[-1]:.3f} (tol 1e-6)")


def test_criterion_08_lyapunov_bound_along_trajectories(run_energy_equality, run_supercritical):
    ok = True
    details = []
    for name, rec in (("viscous", run_energy_equality), ("supercritical", run_supercritical)):
        rep = monitor_lyapunov_bound(rec)
        floor = -1e-8 * rec.lyapunov[0] ** 2
        ok = ok and rep.min_slack_resolved >= floor
        details.append(
            f"{name}: min slack {rep.min_slack_resolved:.3e} >= {floor:.1e} "
            f"({int(rep.resolved.sum())}/{rep.resolved.size} resolved steps)"
        )
    report(8, ok, "differential inequality along runs: " + "; ".join(details))


def test_monitor_matches_direct_kernel_reference(run_energy_equality, run_supercritical):
    # criterion 8's monitor takes dL/dt from a prefix-sum identity; the reference from the direct kernel
    for rec in (run_energy_equality, run_supercritical):
        rep = monitor_lyapunov_bound(rec)
        slack, resolved = monitor_direct(rec)
        assert np.array_equal(rep.resolved, resolved)
        assert np.max(np.abs(rep.slack - slack)) <= 1e-12 * rec.lyapunov[0] ** 2


def test_criterion_09_certificate_and_detection(run_supercritical):
    params = ModelParams(0.25, 0.04)
    u0 = SineSpectrum.sine_wave(10.0, 4)
    corollary = corollary_condition(10.0, params)
    cert = certify_blowup_F(u0, params)
    rec = run_supercritical

    ratio_ok = 250.0 > corollary.threshold and corollary.hypotheses_hold
    bound_ok = cert.hypotheses_hold and cert.predicted_bound_T == pytest.approx(
        2 * np.pi**2 / 10.0, rel=1e-12
    )
    t_star = detect_numerical_blowup(rec)
    detect_ok = t_star is not None and t_star <= cert.predicted_bound_T

    window = min(cert.window, simplified_horizon(cert.y0, cert.kappa))
    mask = (rec.times < window) & (rec.tail_fraction <= 1e-8)
    curve = np.array(
        [simplified_lower_bound(cert.y0, cert.kappa, cert.forcing_M, float(t))
         for t in rec.times[mask]]
    )
    gap = float(np.min(rec.lyapunov[mask] + 1e-6 * cert.L0 - curve))
    curve_ok = gap >= 0.0

    ok = ratio_ok and bound_ok and detect_ok and curve_ok
    report(9, ok, f"R/nu=250 > {corollary.threshold:.2f}; bound T<{cert.predicted_bound_T:.5f}; "
                  f"detection proxy (resolution loss, not proof) at t*={t_star:.4f}; "
                  f"L(t) dominates singular curve on {int(mask.sum())} steps (min gap {gap:.3f})")


def test_criterion_10_comparison_lemma():
    suite = comparison_lemma_suite()
    violation, riccati = suite.worsts["violation"], suite.worsts["riccati"]
    ok = violation <= 1e-9 and riccati <= 1e-9
    report(10, ok, f"comparison bounds: worst violation {violation:.1e} over 4 runs incl. M=0 (tol 1e-9); "
                   f"Riccati err {riccati:.1e} (tol 1e-9)")


def test_criterion_11_general_profile_family():
    saw = PROFILES["sawtooth"]
    m = saw.slope_floor
    m_ok = m == pytest.approx(1.0, abs=1e-12)

    u0 = InitialField(SineSpectrum([0.5]))
    times = np.arange(0.0, 0.95, 0.1)
    table = attractor_decay_series(u0, times, attractor=saw)
    d0 = table.distance[0]
    decay_ok = bool(np.all(table.distance <= d0 - m * times + 1e-6 * d0))

    params = ModelParams(0.25, 0.04)
    rng = np.random.default_rng(11)
    spec_ok = True
    for _ in range(5):
        data = SineSpectrum(rng.uniform(-1.0, 1.0, 8))
        a = certify_blowup_F(data, params)
        b = certify_blowup_H(data, PROFILES["F"], params)
        spec_ok = spec_ok and a.hypotheses_hold == b.hypotheses_hold
        spec_ok = spec_ok and abs(b.threshold - a.threshold) <= 1e-12 * abs(a.threshold)
        if a.hypotheses_hold:
            spec_ok = spec_ok and abs(b.predicted_bound_T - a.predicted_bound_T) <= 1e-12 * a.predicted_bound_T

    ok = m_ok and decay_ok and spec_ok
    report(11, ok, f"sawtooth m={m:.12g}; decay inequality D(t) <= D0 - t holds; "
                   f"general certificate specializes to the F certificate (1e-12 rel)")


def test_criterion_12_ceiling_consistency(all_records):
    worst = -np.inf
    for rec in all_records:
        ceiling = F_NORM * np.sqrt(rec.energy[0]) + 1e-9
        worst = max(worst, float(np.max(rec.lyapunov - ceiling)))
    ok = worst <= 0.0
    report(12, ok, f"L(t) <= ||F|| ||u0|| in every recorded run (worst excess {worst:.3e})")
