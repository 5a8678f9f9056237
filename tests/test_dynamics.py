import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgers_lab.dynamics import (
    DiagnosticsConfig,
    ModelParams,
    SimulationRecord,
    StepFailureError,
    dissipation_symbol,
    evolve,
    nonlinear_direct,
    nonlinear_pseudospectral,
    record_to_csv,
    rhs_direct,
    rhs_pseudospectral,
    step,
    tail_energy_fraction,
    write_record_metadata,
)
from burgers_lab.spectral import SineSpectrum, synthesize

from conftest import brute_force_nonlinear


class TestModelParams:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=0.0, nu=0.1)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.5, nu=0.1)

    def test_negative_nu(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=0.5, nu=-1.0)

    @pytest.mark.parametrize("nu", [np.nan, np.inf])
    def test_nonfinite_nu(self, nu):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(alpha=0.5, nu=nu)

    def test_symbol(self):
        sym = dissipation_symbol(ModelParams(0.5, 2.0), 3)
        np.testing.assert_allclose(sym, 2.0 * np.array([1.0, 2.0, 3.0]))


class TestDirectKernel:
    def test_single_mode_feeds_second(self):
        out = nonlinear_direct(np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_zero_fixed_point(self):
        assert np.all(rhs_direct(SineSpectrum.zeros(8), ModelParams(0.5, 0.0)).psi == 0.0)

    def test_two_mode_hand_expansion(self):
        # nu=1, alpha=1/2: n^{2 alpha} = n
        out = rhs_direct(SineSpectrum([1.0, 1.0]), ModelParams(0.5, 1.0))
        np.testing.assert_allclose(out.psi, [-2.0, -1.0], atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=14))
    def test_matches_brute_force(self, coeffs):
        psi = np.array(coeffs)
        np.testing.assert_allclose(
            nonlinear_direct(psi), brute_force_nonlinear(psi), atol=1e-13
        )


class TestPseudospectralKernel:
    def test_single_mode(self):
        d = nonlinear_direct(np.array([1.0, 0.0]))
        p = nonlinear_pseudospectral(np.array([1.0, 0.0]))
        np.testing.assert_allclose(p, d, atol=1e-12)

    def test_zero(self):
        assert np.max(np.abs(nonlinear_pseudospectral(np.zeros(16)))) == 0.0

    @pytest.mark.parametrize("N", [3, 64, 256, 341, 1024])
    def test_oracle_equivalence(self, N, rng):
        psi = rng.uniform(-1.0, 1.0, N)
        d = nonlinear_direct(psi)
        p = nonlinear_pseudospectral(psi)
        assert np.max(np.abs(d - p)) <= 1e-10 * np.max(np.abs(d))

    def test_full_rhs_agreement(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 128))
        params = ModelParams(0.3, 0.7)
        np.testing.assert_allclose(
            rhs_pseudospectral(spec, params).psi, rhs_direct(spec, params).psi, atol=1e-11
        )


class TestStructuralIdentities:
    def test_energy_neutrality(self, rng):
        for _ in range(20):
            psi = rng.uniform(-1, 1, 256)
            scale = np.sum(np.abs(psi)) ** 3
            assert abs(np.dot(psi, nonlinear_direct(psi))) <= 1e-12 * scale

    def test_lyapunov_identity_half_support(self, rng):
        N = 256
        n = np.arange(1, N + 1, dtype=float)
        for _ in range(20):
            psi = np.zeros(N)
            psi[: N // 2] = rng.uniform(-1, 1, N // 2)
            scale = np.sum(np.abs(psi)) ** 2
            res = abs(np.sum(nonlinear_direct(psi) / n) - 0.5 * np.sum(psi**2))
            assert res <= 1e-12 * scale

    def test_lyapunov_identity_fails_for_full_support(self, rng):
        # sanity: the identity genuinely needs the half-support condition
        N = 16
        n = np.arange(1, N + 1, dtype=float)
        psi = rng.uniform(0.5, 1.0, N)
        res = abs(np.sum(nonlinear_direct(psi) / n) - 0.5 * np.sum(psi**2))
        assert res > 1e-6


class TestStep:
    def test_pure_decay_with_disabled_nonlinearity(self):
        params = ModelParams(0.5, 1.0)
        spec = SineSpectrum([1.0, 0.5, 0.25])
        out = step(spec, params, 0.1, kernel=lambda psi: np.zeros_like(psi))
        n = np.arange(1, 4, dtype=float)
        np.testing.assert_allclose(out.psi, spec.psi * np.exp(-n * 0.1), atol=1e-16)

    def test_inviscid_reduces_to_rk4_self_convergence(self):
        # one dt step vs two dt/2 steps differ at O(dt^5)
        params = ModelParams(0.5, 0.0)
        spec = SineSpectrum([1.0] + [0.0] * 7)
        dt = 1e-3
        one = step(spec, params, dt)
        two = step(step(spec, params, dt / 2), params, dt / 2)
        assert np.max(np.abs(one.psi - two.psi)) < 1e-13

    def test_order_four_convergence(self):
        params = ModelParams(0.25, 0.3)
        spec = SineSpectrum(1.0 / np.arange(1, 17))

        def advance(dt, steps):
            s = spec
            for _ in range(steps):
                s = step(s, params, dt)
            return s.psi

        err_coarse = np.max(np.abs(advance(0.02, 5) - advance(0.0025, 40)))
        err_fine = np.max(np.abs(advance(0.01, 10) - advance(0.0025, 40)))
        assert err_coarse / err_fine > 10.0  # ~16 for a fourth-order scheme

    def test_blowup_of_state_raises(self):
        params = ModelParams(0.5, 0.0)
        spec = SineSpectrum(np.full(16, 50.0))
        with pytest.raises(StepFailureError):
            for _ in range(100):
                spec = step(spec, params, 1.0)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            step(SineSpectrum([1.0]), ModelParams(0.5, 0.0), 0.0)


class TestEvolve:
    def test_dissipative_energy_decays_monotonically(self):
        rec = evolve(SineSpectrum([0.5, 0.1]).padded(32), ModelParams(0.75, 1.0), 0.5, 1e-3)
        assert rec.termination == "t_end_reached"
        assert np.all(np.diff(rec.energy) <= 0)

    def test_inviscid_energy_conserved(self):
        rec = evolve(SineSpectrum.sine_wave(1.0, 128), ModelParams(0.5, 0.0), 0.5, 1e-3)
        drift = np.max(np.abs(rec.energy - rec.energy[0])) / rec.energy[0]
        assert rec.termination == "t_end_reached"
        assert drift <= 1e-8

    def test_discrete_energy_equality(self):
        rec = evolve(SineSpectrum.sine_wave(1.0, 256), ModelParams(0.25, 0.1), 0.5, 1e-3)
        res = np.max(np.abs(rec.energy + rec.diss_integral - rec.energy[0]) / rec.energy[0])
        assert res <= 1e-7

    def test_supercritical_blowup_detected(self):
        rec = evolve(
            SineSpectrum.sine_wave(10.0, 256),
            ModelParams(0.25, 0.04),
            2.5,
            2e-4,
            DiagnosticsConfig(stride=10),
        )
        assert rec.termination == "blowup_detected"
        assert rec.times[-1] < 2.0 * np.pi**2 / 10.0

    def test_step_failure_gives_partial_record(self):
        rec = evolve(SineSpectrum(np.full(16, 50.0)), ModelParams(0.5, 0.0), 60.0, 1.0)
        assert rec.termination == "step_failure"
        assert rec.times.size >= 1

    def test_diagnostics_contents(self):
        rec = evolve(
            SineSpectrum.sine_wave(1.0, 64),
            ModelParams(0.5, 0.1),
            0.1,
            1e-3,
            DiagnosticsConfig(stride=10, store_spectra=True),
        )
        assert rec.times[0] == 0.0 and rec.times[-1] == pytest.approx(0.1)
        assert rec.energy[0] == pytest.approx(np.pi)
        assert rec.lyapunov[0] == pytest.approx(2 * np.pi)
        assert rec.h1_norm[0] == pytest.approx(np.sqrt(np.pi))
        assert rec.min_ux[0] == pytest.approx(-1.0, abs=1e-10)
        assert np.all((rec.tail_fraction >= 0) & (rec.tail_fraction <= 1))
        assert np.all(np.diff(rec.times) > 0)
        assert len(rec.spectra) == rec.times.size

    def test_tail_fraction_zero_field(self):
        assert tail_energy_fraction(np.zeros(64)) == 0.0


class TestOddSubspacePreservation:
    """March the same data with a full sine+cosine pseudospectral stepper and
    confirm no cosine energy appears beyond round-off."""

    @staticmethod
    def _full_spectrum_rhs(u_hat, k, params):
        M = 2 * (u_hat.size - 1)
        u = np.fft.irfft(u_hat * M)
        w_hat = np.fft.rfft(u * u) / M
        return -params.nu * np.abs(k) ** (2 * params.alpha) * u_hat - 0.5j * k * w_hat

    def test_cosine_energy_stays_at_round_off(self):
        params = ModelParams(0.25, 0.05)
        N, M = 32, 128
        g = synthesize(SineSpectrum(1.0 / np.arange(1, N + 1) ** 2), M)
        u_hat = np.fft.rfft(g.samples) / M
        k = np.arange(M // 2 + 1, dtype=float)
        dt = 1e-3
        for _ in range(200):
            k1 = self._full_spectrum_rhs(u_hat, k, params)
            k2 = self._full_spectrum_rhs(u_hat + 0.5 * dt * k1, k, params)
            k3 = self._full_spectrum_rhs(u_hat + 0.5 * dt * k2, k, params)
            k4 = self._full_spectrum_rhs(u_hat + dt * k3, k, params)
            u_hat = u_hat + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            u_hat[(k > M // 3)] = 0.0  # 2/3-rule guard for the generic stepper
        cos_energy = np.sum(u_hat.real**2)
        total = np.sum(np.abs(u_hat) ** 2)
        assert cos_energy <= 1e-10 * total

    def test_galerkin_state_is_structurally_odd(self):
        rec = evolve(SineSpectrum.sine_wave(1.0, 64), ModelParams(0.25, 0.05), 0.2, 1e-3,
                     DiagnosticsConfig(store_spectra=True))
        g = synthesize(SineSpectrum(rec.spectra[-1]), 256)
        assert g.odd_residual < 1e-12


class TestRecordSerialization:
    def test_csv_and_metadata(self, tmp_path):
        rec = evolve(SineSpectrum.sine_wave(1.0, 32), ModelParams(0.5, 0.1), 0.05, 1e-3)
        csv_path = tmp_path / "run.csv"
        record_to_csv(rec, csv_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == SimulationRecord.CSV_HEADER
        assert len(lines) == 1 + rec.times.size
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_allclose(parsed[:, 1], rec.energy, rtol=1e-16)

        meta_path = tmp_path / "run.json"
        write_record_metadata(rec, meta_path, extra={"seed": 7})
        import json

        meta = json.loads(meta_path.read_text())
        assert meta["termination"] == rec.termination
        assert meta["N"] == 32 and meta["seed"] == 7

    def test_csv_determinism(self, tmp_path):
        out = []
        for name in ("a.csv", "b.csv"):
            rec = evolve(SineSpectrum.sine_wave(2.0, 64), ModelParams(0.25, 0.02), 0.1, 1e-3)
            record_to_csv(rec, tmp_path / name)
            out.append((tmp_path / name).read_bytes())
        assert out[0] == out[1]


class TestDiagnosticsMatchFunctionals:
    def test_inline_diagnostics_equal_attractor_ops(self):
        # evolve computes L(t) and the rF-distance inline; they must agree
        # with the attractors module bit-for-bit up to round-off
        from burgers_lab.attractors import attractor_distance, lyapunov, make_F

        rec = evolve(
            SineSpectrum([0.4, -0.1, 0.05]).padded(32),
            ModelParams(0.3, 0.02),
            0.05,
            1e-3,
            DiagnosticsConfig(stride=5, store_spectra=True),
        )
        F = make_F()
        for i, psi in enumerate(rec.spectra):
            s = SineSpectrum(psi)
            assert rec.lyapunov[i] == pytest.approx(lyapunov(s, F), abs=1e-14)
            assert rec.dist_rF[i] == pytest.approx(attractor_distance(s, rec.r), abs=1e-12)


class TestGalerkinVsCharacteristics:
    def test_resolved_run_matches_exact_solution(self):
        from burgers_lab.characteristics import InitialField, sample_solution

        N, dt, t_half = 512, 1e-4, 0.5
        rec = evolve(
            SineSpectrum.sine_wave(1.0, N),
            ModelParams(0.5, 0.0),
            t_half,
            dt,
            DiagnosticsConfig(stride=1000, store_spectra=True),
        )
        exact = sample_solution(InitialField(SineSpectrum([0.5])), t_half, 2048)
        approx = synthesize(SineSpectrum(rec.spectra[-1]), 2048)
        assert np.max(np.abs(exact.samples - approx.samples)) <= 1e-5
