import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgers_lab import dynamics, spectral
from burgers_lab.dynamics import (
    DiagnosticsConfig,
    ModelParams,
    SimulationRecord,
    _half_grid,
    _half_grid_quadratic,
    _if_rk4_stepper,
    _march_steps,
    _step_count,
    dissipation_symbol,
    evolve,
    evolve_batch,
    lyapunov_diagnostic,
    nonlinear_direct,
    nonlinear_pseudospectral,
    record_to_csv,
    tail_energy_fraction,
    write_record_metadata,
)
from burgers_lab.spectral import FOUR_PI, SineSpectrum, _load_pocketfft, synthesize, synthesize_slope

from conftest import (
    brute_force_nonlinear,
    DIAGNOSTIC_COLUMNS,
    if_rk4_step_reference,
    march_reference,
    nonlinear_pseudospectral_fftpack,
    odd_symmetry_residual,
)

#: the mode counts the kernel is pinned to its scipy.fftpack reference at, small and march-sized
_PINNED_N = (1, 2, 3, 7, 128, 512, 1000, 1024)


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

    @pytest.mark.parametrize(
        "fields, shown",
        [({"alpha": True, "nu": False}, "alpha .* got True"), ({"alpha": 0.5, "nu": False}, "nu .* got False"),
         ({"alpha": "0.5"}, "alpha .* got '0.5'"), ({"alpha": 0.5, "nu": None}, "nu .* got None")],
    )
    def test_bools_and_non_numbers_refused(self, fields, shown):
        # True used to build a march with alpha = 1 and False one with nu = 0; '0.5' raised TypeError
        with pytest.raises(ValueError, match=shown):
            ModelParams(**fields)

    @pytest.mark.parametrize("alpha", [np.float64(0.25), np.float32(0.25)])
    def test_numpy_scalars_accepted(self, alpha):
        # stored as their Python values: np.float32(0.25) was kept, and S(alpha) then ran in float32
        params = ModelParams(alpha, np.int64(0))
        assert (params.alpha, params.nu) == (0.25, 0) and (type(params.alpha), type(params.nu)) == (float, int)
        assert type(ModelParams(1, 0).alpha) is int  # a Python int stays one, and prints as one in run.json


class TestDiagnosticsConfig:
    @pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
    def test_tail_threshold_must_be_positive(self, threshold):
        # a NaN threshold would let neither the march nor the detection proxy trip
        with pytest.raises(ValueError, match="tail threshold must be positive"):
            DiagnosticsConfig(tail_threshold=threshold)

    @pytest.mark.parametrize("r", [1e200, 1e308, np.inf, np.nan])
    def test_r_whose_distance_term_overflows_refused(self, r):
        # r^2 ||F||^2 would read inf or nan in every dist_rF of the march
        with pytest.raises(ValueError, match="float range"):
            DiagnosticsConfig(r=r)

    @pytest.mark.parametrize("r", [1e153, 5e-324, -2.0])
    def test_r_in_range_accepted(self, r):
        assert DiagnosticsConfig(r=r).r == r

    @pytest.mark.parametrize("stride, shown", [(2.5, "2.5"), (True, "True"), (0, "0"), (np.int64(-1), "-1"), ("3", "'3'")])
    def test_stride_must_be_a_positive_integer(self, stride, shown):
        # 2.5 would record every 5th step and True every step
        with pytest.raises(ValueError, match=f"stride must be a positive integer, got .*{shown}"):
            DiagnosticsConfig(stride=stride)

    @pytest.mark.parametrize(
        "fields, shown",
        [({"tail_threshold": True}, "tail threshold .* got True"), ({"tail_threshold": "1e-3"}, "tail threshold .* got '1e-3'"),
         ({"r": True}, "r must be a real number or None, got True"), ({"r": "2"}, "r .* got '2'"),
         ({"store_spectra": "no"}, "store_spectra must be a bool, got 'no'"), ({"store_spectra": 1}, "store_spectra .* got 1")],
    )
    def test_bools_and_non_numbers_refused(self, fields, shown):
        # True, '2', 'no' and 1 were accepted: a threshold of True stopped at a tail fraction of 1, 'no' stored spectra
        with pytest.raises(ValueError, match=shown):
            DiagnosticsConfig(**fields)

    def test_numpy_scalars_accepted(self):
        diag = DiagnosticsConfig(stride=np.int64(3), r=np.float64(0.5), tail_threshold=np.float32(1e-3), store_spectra=True)
        assert diag.r == 0.5 and diag.store_spectra is True
        # stored as their Python values
        assert [type(v) for v in (diag.stride, diag.r, diag.tail_threshold)] == [int, float, float]

    def test_numpy_integer_stride_accepted(self):
        rec = evolve(SineSpectrum.sine_wave(1.0, 16), ModelParams(0.5, 0.1), 0.01, 1e-3, DiagnosticsConfig(stride=np.int64(3)))
        assert rec.times.tolist() == [k * 1e-3 for k in (0, 3, 6, 9, 10)]

    def test_stride_past_any_march_records_only_the_ends(self):
        rec = evolve(SineSpectrum.sine_wave(1.0, 16), ModelParams(0.5, 0.1), 0.1, 1e-3, DiagnosticsConfig(stride=10**18))
        assert rec.termination == "t_end_reached" and rec.times.tolist() == [0.0, 100 * 1e-3]


class TestStepCountDomain:
    @pytest.mark.parametrize(
        "t_end, dt", [(1.0, 0.0), (1.0, -0.1), (0.0, 0.1), (-1.0, 0.1), (np.nan, 0.1), (1.0, np.inf), (np.inf, 0.1)]
    )
    def test_non_positive_or_non_finite_refused(self, t_end, dt):
        specs, params = [SineSpectrum.sine_wave(1.0, 4)], [ModelParams(0.5, 0.1)]
        with pytest.raises(ValueError, match="positive and finite"):
            evolve_batch(specs, params, t_end, dt)

    def test_subnormal_step_count_overflows(self):
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve_batch([SineSpectrum.sine_wave(1.0, 4)], [ModelParams(0.5, 0.1)], 1.0, 5e-324)

    def test_step_count_that_cannot_finish_refused(self):
        # a whole, finite 1e308 steps
        with pytest.raises(ValueError, match=r"1e\+308 steps is more than the 1e\+09 a march can finish"):
            _step_count(0.01, 1e-310)

    def test_step_count_at_the_ceiling_accepted(self):
        assert _step_count(1.0, 1e-9) == 10**9

    def test_march_work_past_the_cap_refused(self, monkeypatch):
        # modes x steps x rows: 10^6 modes for 10^6 steps would take days
        with pytest.raises(ValueError, match=r"1000000 x 1000000 x 1 is more than the 1e\+11 a march may take"):
            _march_steps(1.0, 1e-6, 10**6, 1)
        assert _march_steps(1.0, 1e-5, 10**3, 100) == 10**5  # exactly 10^11

        def no_march(*args, **kwargs):
            raise AssertionError("a refused march must not start")

        monkeypatch.setattr(dynamics, "_if_rk4_stepper", no_march)
        with pytest.raises(ValueError, match=r"131072 x 1000000 x 1 is more than the 1e\+11"):
            evolve_batch([SineSpectrum.sine_wave(1.0, 2**17)], [ModelParams(0.25, 0.1)], 1.0, 1e-6)


class TestSubnormalEnergy:
    """u0 = R sin x with R = 1e-160: psi_1 = R/2 and ||u0||^2 = pi R^2 = 3.1e-320, a subnormal."""

    R = 1e-160
    #: ||u0 - r0 F||^2 / R^2 = 2 pi - 2 sqrt(6) for r0 = ||u0|| / ||F|| = R sqrt(3 / (2 pi^2))
    D0 = 2.0 * math.pi - 2.0 * math.sqrt(6.0)

    def test_march_columns_match_closed_forms(self):
        rec = evolve(SineSpectrum.sine_wave(self.R, 8), ModelParams(0.25, 0.04), 0.1, 0.1)
        ulp = 5e-324
        assert rec.h1_norm[0] == pytest.approx(math.sqrt(math.pi) * self.R, rel=1e-15)  # sqrt(4 pi) psi_1
        assert abs(rec.dist_rF[0] - self.D0 * self.R * self.R) <= 2 * ulp
        assert abs(rec.energy[0] - math.pi * self.R * self.R) <= 2 * ulp
        assert rec.tail_fraction[0] == 0.0

    def test_attractor_distance_matches_closed_form(self):
        from burgers_lab.attractors import attractor_distance, optimal_r

        u0 = SineSpectrum.sine_wave(self.R, 8)
        assert abs(attractor_distance(u0, optimal_r(u0).r0) - self.D0 * self.R * self.R) <= 2 * 5e-324

    def test_distance_to_a_far_profile_stays_finite(self):
        # u and r F of very different sizes: r^2 ||F||^2 alone, though r / 2^k would overflow
        rec = evolve(SineSpectrum.sine_wave(1e-200, 8), ModelParams(0.25, 0.04), 0.1, 0.1, DiagnosticsConfig(r=1e153))
        assert rec.dist_rF[0] == pytest.approx(1e153**2 * 2.0 * math.pi**3 / 3.0, rel=1e-15)


class TestOptimalScale:
    @pytest.mark.parametrize("amplitude", [1e-160, 1e-200])
    def test_default_r_scales_with_subnormal_energy(self, amplitude):
        # the march's r0 = ||u0|| / ||F||, though ||u0||^2 = pi R^2 is subnormal or zero
        params = [ModelParams(0.5, 0.1)] * 2
        base, small = evolve_batch([SineSpectrum.sine_wave(1.0, 4), SineSpectrum.sine_wave(amplitude, 4)], params,
                                   0.1, 0.1)
        assert small.r == pytest.approx(amplitude * base.r, rel=1e-12, abs=0.0)


class TestDirectKernel:
    def test_single_mode_feeds_second(self):
        out = nonlinear_direct(np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_zero_fixed_point(self):
        psi = np.zeros(8)
        assert np.all(nonlinear_direct(psi) - dissipation_symbol(ModelParams(0.5, 0.0), 8) * psi == 0.0)

    def test_two_mode_hand_expansion(self):
        # nu=1, alpha=1/2: n^{2 alpha} = n
        psi = np.array([1.0, 1.0])
        out = nonlinear_direct(psi) - dissipation_symbol(ModelParams(0.5, 1.0), 2) * psi
        np.testing.assert_allclose(out, [-2.0, -1.0], atol=1e-15)

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

    @pytest.mark.parametrize("N", [*range(1, 41), 64, 127, 129, 256, 341, 1000, 1024, 4096])
    def test_oracle_equivalence(self, N, rng):
        psi = rng.uniform(-1.0, 1.0, N)
        d = nonlinear_direct(psi)
        p = nonlinear_pseudospectral(psi)
        # a single mode has no quadratic term to be relative to
        scale = np.max(np.abs(d)) if N > 1 else psi[0] ** 2
        assert np.max(np.abs(d - p)) <= 1e-10 * scale

    def test_half_grid_is_alias_free(self):
        for N in range(1, 5001):
            L, _, _ = _half_grid(N)
            assert 2 * L > 3 * N

    def test_concurrent_calls_match_direct(self, rng):
        # library callers may run evolve on several threads at once
        inputs = [rng.uniform(-1.0, 1.0, N) for N in (128, 512, 128, 512)]
        expected = [nonlinear_pseudospectral(psi) for psi in inputs]
        for psi, want in zip(inputs, expected):
            d = nonlinear_direct(psi)
            assert np.max(np.abs(want - d)) <= 1e-10 * np.max(np.abs(d))
        mismatches = []

        def worker(offset):
            for i in range(2000):
                k = (i + offset) % len(inputs)
                if not np.array_equal(nonlinear_pseudospectral(inputs[k]), expected[k]):
                    mismatches.append((offset, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,)) for offset in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    @pytest.mark.parametrize("N", _PINNED_N)
    def test_bit_identical_to_fftpack_reference(self, N, rng):
        for shape in ((N,), (5, N)):
            psi = rng.uniform(-1.0, 1.0, shape)
            assert np.array_equal(nonlinear_pseudospectral(psi), nonlinear_pseudospectral_fftpack(psi))

    @pytest.mark.parametrize("N", _PINNED_N)
    def test_stepper_quadratic_into_out_bit_identical(self, N, rng):
        # the stepper's call: the pad only read, the DST-III into a work buffer of its own, the result into out
        for shape in ((N,), (5, N)):
            psi = rng.uniform(-1.0, 1.0, shape)
            pad = np.zeros(shape[:-1] + (_half_grid(N)[0],))
            pad[..., :N] = psi
            before, out = pad.copy(), np.full(shape, np.nan)
            quadratic = _half_grid_quadratic(pad, np.full_like(pad, np.nan), N)
            for _ in range(2):  # a step calls it four times on the same buffers
                assert quadratic(out) is out
                assert np.array_equal(out, nonlinear_pseudospectral_fftpack(psi)) and np.array_equal(pad, before)

    def test_march_bit_identical_on_fftpack_reference_kernel(self):
        # the whole batched march, a row that ends and one that blows up, as it is with scipy.fftpack's public transforms
        specs = [SineSpectrum.sine_wave(R, 64) for R in (1.0, 60.0)]
        params = [ModelParams(0.25, 0.04)] * 2
        diag = DiagnosticsConfig(stride=2, store_spectra=True)
        got = evolve_batch(specs, params, 0.03, 1e-3, diag)
        want = evolve_batch(specs, params, 0.03, 1e-3, diag, nonlinear_pseudospectral_fftpack)
        assert [rec.termination for rec in got] == ["t_end_reached", "blowup_detected"]
        for rec, ref in zip(got, want, strict=True):
            _assert_same_record(rec, ref)

    def test_binding_call_signature(self, rng):
        # the kernel's exact call; a scipy that renames the binding or changes its signature fails here
        from scipy.fft._pocketfft.pypocketfft import dct, dst
        from scipy.fftpack import dct as fftpack_dct, dst as fftpack_dst

        for shape in ((200,), (3, 200)):
            x = rng.uniform(-1.0, 1.0, shape)
            for transform, reference, kind in ((dst, fftpack_dst, 3), (dct, fftpack_dct, 2)):
                a = x.copy()
                out = transform(a, kind, (-1,), 0, a, 1)
                assert out is a
                assert np.array_equal(out, reference(x, type=kind))

    def test_loaded_binding_is_scipys(self):
        # a scipy release that moves the binding fails here, as every march would fail on it
        import scipy.fft._pocketfft.pypocketfft as binding

        assert _load_pocketfft().__file__ == binding.__file__

    def test_good_size_is_next_fast_len(self):
        from scipy.fft import next_fast_len

        good_size = _load_pocketfft().good_size
        for N in range(1, 5001):
            assert good_size(3 * N // 2 + 1, True) == next_fast_len(3 * N // 2 + 1, real=True)

    def test_march_unchanged_once_scipy_fft_is_imported(self):
        # the binding loaded by itself and scipy.fft's own load of the same file live in one process
        march = (
            "evolve(SineSpectrum(np.sin(np.arange(1.0, 65.0)) / np.arange(1.0, 65.0) ** 2), "
            "ModelParams(0.25, 0.1), 0.05, 1e-3, DiagnosticsConfig(store_spectra=True)).spectra[-1]"
        )
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from burgers_lab.dynamics import DiagnosticsConfig, ModelParams, evolve\n"
            "from burgers_lab.spectral import SineSpectrum\n"
            f"first = {march}\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "import scipy.fft, scipy.integrate\n"
            f"assert np.array_equal(first, {march})\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_missing_binding_ends_a_march_in_one_error(self, monkeypatch, tmp_path, capsys):
        # a scipy without the binding: every command that transforms stops in one error line naming it,
        # and certify, which transforms nothing, still runs
        from burgers_lab.cli import main

        monkeypatch.setattr(spectral.importlib.machinery, "EXTENSION_SUFFIXES", [])
        _load_pocketfft.cache_clear()
        _half_grid.cache_clear()
        try:
            data = ["--alpha", "0.25", "--nu", "0.04", "--init", "sine:10"]
            for argv in (
                ["simulate", *data, "--modes", "16", "--dt", "0.01", "--t-end", "0.02", "--out", str(tmp_path / "run")],
                ["inviscid", "--dt", "0.1", "--t-end", "0.2", "--out", str(tmp_path / "inv")],
                ["verify", "--suite", "lq-conservation"],
            ):
                assert main(argv) == 1, argv
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error: ") and "pypocketfft" in err[0], (argv, err)
            assert main(["certify", *data, "--out", str(tmp_path / "cert")]) == 0
        finally:
            _load_pocketfft.cache_clear()
            _half_grid.cache_clear()

    @pytest.mark.parametrize("shape", [(24, 128), (8, 256), (2, 512), (24, 512), (1, 64), (2, 3, 40)])
    def test_stack_matches_rows(self, shape, rng):
        psi = rng.uniform(-1.0, 1.0, shape)
        got = nonlinear_pseudospectral(psi)
        rows = psi.reshape(-1, shape[-1])
        want = np.stack([nonlinear_pseudospectral(row) for row in rows]).reshape(shape)
        assert np.array_equal(got, want)
        direct = np.stack([nonlinear_direct(row) for row in rows]).reshape(shape)
        assert np.array_equal(nonlinear_direct(psi), direct)
        scale = np.max(np.abs(direct), axis=-1, keepdims=True)
        assert np.all(np.abs(got - direct) <= 1e-10 * scale)

    def test_full_rhs_agreement(self, rng):
        psi = rng.uniform(-1, 1, 128)
        damping = dissipation_symbol(ModelParams(0.3, 0.7), 128) * psi
        np.testing.assert_allclose(
            nonlinear_pseudospectral(psi) - damping, nonlinear_direct(psi) - damping, atol=1e-11
        )


class TestStructuralIdentities:
    def test_energy_neutrality(self, rng):
        for _ in range(20):
            psi = rng.uniform(-1, 1, 256)
            scale = np.sum(np.abs(psi)) ** 3
            assert abs(np.dot(psi, nonlinear_direct(psi))) <= 1e-12 * scale

    @pytest.mark.parametrize("N", [2, 3, 64, 127, 256, 1000, 4096])
    def test_pseudospectral_pairing_vanishes(self, N, rng):
        for _ in range(5):
            psi = rng.uniform(-1, 1, N)
            nl = nonlinear_pseudospectral(psi)
            assert abs(np.dot(psi, nl)) <= 1e-12 * np.dot(np.abs(psi), np.abs(nl))

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


def step(spec, params, dt, steps=1, kernel=nonlinear_pseudospectral):
    """The state after ``steps`` IF-RK4 steps of size dt, marched by evolve (a tail fraction never exceeds 1)."""
    diag = DiagnosticsConfig(tail_threshold=1.0, store_spectra=True)
    return SineSpectrum(evolve(spec, params, steps * dt, dt, diag, kernel).spectra[-1])


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
        two = step(spec, params, dt / 2, steps=2)
        assert np.max(np.abs(one.psi - two.psi)) < 1e-13

    def test_order_four_convergence(self):
        params = ModelParams(0.25, 0.3)
        spec = SineSpectrum(1.0 / np.arange(1, 17))

        def advance(dt, steps):
            return step(spec, params, dt, steps).psi

        err_coarse = np.max(np.abs(advance(0.02, 5) - advance(0.0025, 40)))
        err_fine = np.max(np.abs(advance(0.01, 10) - advance(0.0025, 40)))
        assert err_coarse / err_fine > 10.0  # ~16 for a fourth-order scheme

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            evolve(SineSpectrum([1.0]), ModelParams(0.5, 0.0), 1.0, 0.0)

    @pytest.mark.parametrize("kernel", [nonlinear_pseudospectral, nonlinear_direct])
    def test_in_place_step_matches_reference(self, kernel, rng):
        N, dt = 64, 1e-3
        params = [ModelParams(0.2, 0.05), ModelParams(0.5, 0.0), ModelParams(0.75, 0.3), ModelParams(1.0, 1.5)]
        psi = rng.uniform(-1.0, 1.0, (len(params), N)) / np.arange(1, N + 1)
        e1 = np.stack([np.exp(-0.5 * dt * dissipation_symbol(p, N)) for p in params])
        factors = (e1, e1 * e1, dt * e1, 2.0 * e1)
        step = _if_rk4_stepper(e1, dt, kernel)
        for _ in range(3):  # later steps reuse the buffers of earlier ones
            before = psi.copy()
            got = step(psi)
            assert np.array_equal(psi, before)  # the state stepped from is left as it was by the step
            assert np.array_equal(got, if_rk4_step_reference(before, dt, factors, kernel))
            psi = got


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
        # a flat spectrum's tail fraction is 1/8 at t = 0; a threshold of 1 lets it reach the failing step
        diag = DiagnosticsConfig(tail_threshold=1.0)
        rec = evolve(SineSpectrum(np.full(16, 50.0)), ModelParams(0.5, 0.0), 60.0, 1.0, diag)
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

    def test_min_slope_is_grid_slope_minimum(self):
        rec = evolve(
            SineSpectrum([0.4, -0.1, 0.05]).padded(200),
            ModelParams(0.3, 0.02),
            0.05,
            1e-3,
            DiagnosticsConfig(stride=5, store_spectra=True),
        )
        M = 512  # the default diagnostic grid for N = 200
        mins = [synthesize_slope(psi, M).min() for psi in rec.spectra]
        assert rec.min_ux.tolist() == mins

    def test_tail_fraction_zero_field(self):
        assert tail_energy_fraction(np.zeros(64)) == 0.0

    def test_tail_fraction_below_eight_modes_is_the_top_mode(self):
        # a lone mode has no quadratic term, hence no tail
        assert tail_energy_fraction(np.array([3.0])) == 0.0
        for N in range(2, 8):
            assert tail_energy_fraction(np.ones(N)) == pytest.approx(1.0 / N, rel=1e-15)
        assert tail_energy_fraction(np.array([1.0, 0.0, 0.0, 1.0])) == 0.5

    def test_tail_fraction_from_eight_modes_is_the_top_eighth(self, rng):
        for N in (8, 9, 15, 16, 64, 257):
            psi = rng.uniform(-1.0, 1.0, N)
            assert tail_energy_fraction(psi) == float(np.sum(psi[N - N // 8 :] ** 2) / np.sum(psi**2))

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_small_mode_counts_detect_blowup(self, N):
        rec = evolve(SineSpectrum.sine_wave(40.0, N), ModelParams(0.25, 0.04), 0.2, 1e-3, DiagnosticsConfig(stride=5))
        assert rec.termination == "blowup_detected" and rec.times[-1] < 0.2
        # a strongly damped, small field at the same N stays resolved
        rec = evolve(SineSpectrum.sine_wave(0.1, N), ModelParams(1.0, 1.0), 0.2, 1e-3, DiagnosticsConfig(stride=5))
        assert rec.termination == "t_end_reached"

    def test_diagnostics_reduce_along_last_axis(self, rng):
        psi = rng.uniform(-1.0, 1.0, (5, 48))
        psi[2] = 0.0
        tails = tail_energy_fraction(psi)
        lyaps = lyapunov_diagnostic(psi)
        assert tails.shape == lyaps.shape == (5,)
        assert tails.tolist() == [tail_energy_fraction(row) for row in psi]
        assert lyaps.tolist() == [lyapunov_diagnostic(row) for row in psi]
        assert isinstance(tail_energy_fraction(psi[0]), float) and isinstance(lyapunov_diagnostic(psi[0]), float)


def _assert_same_record(got, want):
    assert got.termination == want.termination
    assert (got.params, got.N, got.dt, got.r) == (want.params, want.N, want.dt, want.r)
    for name in ("times", "energy", "diss_integral", "lyapunov", "dist_rF", "h1_norm", "tail_fraction", "min_ux"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.spectra is None) == (want.spectra is None)
    if got.spectra is not None:
        assert len(got.spectra) == len(want.spectra)
        assert all(np.array_equal(a, b) for a, b in zip(got.spectra, want.spectra))


class TestEvolveBatch:
    # (alpha, nu, R): runs to t_end, blows up, overflows, runs to t_end with strong damping
    CELLS = [(0.25, 0.04, 2.0), (0.25, 0.04, 40.0), (0.3, 0.02, 1e150), (0.75, 0.5, 1.0)]

    @pytest.mark.parametrize("store", [False, True])
    def test_mixed_batch_matches_single_rows(self, store):
        specs = [SineSpectrum.sine_wave(R, 64) for _, _, R in self.CELLS]
        params = [ModelParams(a, nu) for a, nu, _ in self.CELLS]
        diag = DiagnosticsConfig(stride=5, store_spectra=store)
        records = evolve_batch(specs, params, 0.2, 1e-3, diag)
        assert [rec.termination for rec in records] == [
            "t_end_reached", "blowup_detected", "step_failure", "t_end_reached"
        ]
        assert len({rec.times.size for rec in records}) == 3
        for spec, p, rec in zip(specs, params, records):
            _assert_same_record(rec, evolve(spec, p, 0.2, 1e-3, diag))

    def test_rows_failing_mid_run_match_single_rows(self):
        # rows overflow after 3 and 10 records; the stepper is rebuilt for the rows left, which
        # march on as if alone (test_mixed_batch_matches_single_rows has a mid-run blowup stop)
        cells = [(0.5, 0.1, SineSpectrum(np.ones(16))), (0.25, 0.04, SineSpectrum.sine_wave(6.0, 16)),
                 (1.0, 1.0, SineSpectrum.sine_wave(0.1, 16))]
        specs = [spec for _, _, spec in cells]
        params = [ModelParams(a, nu) for a, nu, _ in cells]
        diag = DiagnosticsConfig(stride=2, tail_threshold=0.5, store_spectra=True)
        records = evolve_batch(specs, params, 2.0, 0.05, diag)
        assert [rec.termination for rec in records] == ["step_failure", "step_failure", "t_end_reached"]
        assert [rec.times.size for rec in records] == [3, 10, 21]
        for spec, p, rec in zip(specs, params, records):
            _assert_same_record(rec, evolve(spec, p, 2.0, 0.05, diag))

    def test_row_failing_between_records_retires_at_its_record(self):
        # rows overflow at steps 5 and 20, between the records every 3 steps; the third marches on
        cells = [(0.5, 0.1, SineSpectrum(np.ones(16))), (0.25, 0.04, SineSpectrum.sine_wave(6.0, 16)),
                 (1.0, 1.0, SineSpectrum.sine_wave(0.1, 16))]
        specs = [spec for _, _, spec in cells]
        params = [ModelParams(a, nu) for a, nu, _ in cells]
        diag = DiagnosticsConfig(stride=3, tail_threshold=1.0, store_spectra=True)
        records = evolve_batch(specs, params, 2.0, 0.05, diag)
        assert [rec.termination for rec in records] == ["step_failure", "step_failure", "t_end_reached"]
        assert [rec.times.size for rec in records] == [2, 7, 15]
        for spec, p, rec in zip(specs, params, records):
            _assert_same_record(rec, evolve(spec, p, 2.0, 0.05, diag))

    def test_lone_failing_row_stops_calling_the_kernel(self):
        calls = []

        def counted(psi):
            calls.append(psi.shape)
            return nonlinear_pseudospectral(psi)

        diag = DiagnosticsConfig(stride=1, tail_threshold=1.0)
        rec = evolve(SineSpectrum(np.ones(16)), ModelParams(0.5, 0.1), 2.0, 0.05, diag, kernel=counted)
        assert rec.termination == "step_failure"
        failed_at = rec.times.size  # a record at every step before the one that failed
        assert len(calls) == 4 * failed_at

    @pytest.mark.parametrize("N, dt, n_steps, stride", [(32, 1e-3, 50, 7), (16, 1e-5, 10**4, 999)])
    def test_diss_integral_is_the_trapezoid_written_out(self, N, dt, n_steps, stride):
        """D against the trapezoid sum of g = sum_n 2 nu 4 pi n^(2 alpha) psi_n^2, written out step by step.

        The march sums each mode over the steps first, so the two differ by round-off, bounded here to
        first order in u = 2^-53.  Each square psi_{j,n}^2 is the same rounded number in both.  The
        march weights it by the rounded dt w_n (2 u), and its running sum S_n of k + 1 nonnegative terms
        is within k u more of its exact value; S_n - dt w_n psi_{k,n}^2 / 2 >= S_n / 2 at most doubles
        that, and the subtraction and the sum over N modes add N u: (2k + N + 4) u in all.  The
        written-out sum has g within N u, each trapezoid 2 u more and the sum of k of them (k - 1) u:
        (N + k + 1) u.  So |D - trapezoid| <= (3k + 2N + 5) u D, checked with 8 for the 5 to cover
        higher orders.  The nu = 0 row must read exactly 0.
        """
        specs = [SineSpectrum.sine_wave(R, N) for R in (1.0, 2.0, 1.5)]
        params = [ModelParams(0.25, 0.04), ModelParams(0.5, 0.0), ModelParams(0.75, 0.3)]
        records = evolve_batch(specs, params, n_steps * dt, dt, DiagnosticsConfig(stride=stride))
        states = evolve_batch(specs, params, n_steps * dt, dt, DiagnosticsConfig(stride=1, store_spectra=True))
        n = np.arange(1, N + 1, dtype=float)
        for p, rec, every in zip(params, records, states):
            assert every.termination == "t_end_reached" and len(every.spectra) == n_steps + 1
            weights = 2.0 * p.nu * FOUR_PI * n ** (2.0 * p.alpha)
            acc, g_prev, want, k_at = 0.0, (weights * every.spectra[0] ** 2).sum(), [0.0], [0]
            for k, psi in enumerate(every.spectra[1:], start=1):
                g = (weights * psi**2).sum()
                acc = acc + 0.5 * dt * (g_prev + g)
                g_prev = g
                if k % stride == 0 or k == n_steps:
                    want.append(acc)
                    k_at.append(k)
            bound = (3 * np.array(k_at) + 2 * N + 8) * 2.0**-53 * np.array(want)
            assert rec.diss_integral.size == len(want)
            assert np.all(np.abs(rec.diss_integral - want) <= bound)
            assert p.nu > 0.0 or (not any(want) and not rec.diss_integral.any())

    def test_diss_integral_of_a_huge_state_is_finite(self):
        # psi_1^2 = 2.5e305 over 1000 steps sums past the float range, but dt w psi_1^2 summed does not
        spec, dt, n_steps = SineSpectrum.sine_wave(1e153, 16), 1e-160, 1000
        params = [ModelParams(0.5, 0.0), ModelParams(0.5, 1e-3)]
        inviscid, viscous = evolve_batch([spec, spec], params, n_steps * dt, dt, DiagnosticsConfig(stride=250))
        assert inviscid.termination == viscous.termination == "t_end_reached"
        assert not inviscid.diss_integral.any()
        g0 = 2.0 * 1e-3 * FOUR_PI * float(np.sum(np.arange(1.0, 17.0) * spec.psi**2))
        np.testing.assert_allclose(viscous.diss_integral, g0 * viscous.times, rtol=1e-6)  # t |u| ~ 1e-4: g barely moves

    def test_overflowing_initial_dissipation_rate_refused(self):
        # the weight 8 pi nu N^(2 alpha) is finite, but g(u0) = sum w psi^2 is not
        specs = [SineSpectrum.sine_wave(1.0, 16), SineSpectrum.sine_wave(1e150, 16)]
        with pytest.raises(ValueError, match="nu=1e\\+150 is too large for this initial data"):
            evolve_batch(specs, [ModelParams(0.25, 1e150)] * 2, 0.1, 0.05)

    def test_marches_on_two_threads_match_marches_alone(self):
        # each march owns its stepper's buffers, so marches of one shape on several threads share none
        jobs = [
            ([SineSpectrum.sine_wave(R, 128) for R in (1.0, 2.0)], [ModelParams(0.25, 0.04)] * 2),
            ([SineSpectrum(np.cos(np.arange(128.0) + s) / np.arange(1.0, 129.0) ** 2) for s in (0, 1)],
             [ModelParams(0.5, 0.1), ModelParams(0.75, 0.3)]),
        ]
        diag = DiagnosticsConfig(stride=5, store_spectra=True)
        alone = [evolve_batch(specs, params, 0.2, 1e-3, diag) for specs, params in jobs]
        runs = {}

        def worker(i):
            runs[i] = [evolve_batch(*jobs[i], 0.2, 1e-3, diag) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(runs) == [0, 1]
        for i, want in enumerate(alone):
            for records in runs[i]:
                for got, rec in zip(records, want):
                    _assert_same_record(got, rec)

    def test_fixed_r_and_random_spectra(self, rng):
        N = 40
        specs = [SineSpectrum(rng.uniform(-1.0, 1.0, N) / np.arange(1, N + 1) ** 2) for _ in range(5)]
        params = [ModelParams(a, nu) for a, nu in ((0.2, 0.01), (0.4, 0.0), (0.45, 0.1), (1.0, 0.3), (0.2, 0.01))]
        diag = DiagnosticsConfig(stride=3, r=1.3)
        for spec, p, rec in zip(specs, params, evolve_batch(specs, params, 0.05, 1e-3, diag)):
            _assert_same_record(rec, evolve(spec, p, 0.05, 1e-3, diag))

    def test_all_rows_end(self):
        specs = [SineSpectrum.sine_wave(1e150, 16), SineSpectrum.sine_wave(1e150, 16)]
        params = [ModelParams(0.25, 0.04), ModelParams(0.3, 0.1)]
        records = evolve_batch(specs, params, 1.0, 1e-3)
        assert [rec.termination for rec in records] == ["step_failure"] * 2
        assert [rec.times.tolist() for rec in records] == [[0.0], [0.0]]

    def test_row_under_resolved_at_t0_stops_there(self):
        # tail fraction 0.05^2 / (0.5^2 + 0.05^2) = 0.0099 > 1e-3 before any step
        psi = np.zeros(64)
        psi[0], psi[60] = 0.5, 0.05
        specs = [SineSpectrum(psi), SineSpectrum.sine_wave(1.0, 64)]
        params = [ModelParams(0.75, 0.5)] * 2
        records = evolve_batch(specs, params, 0.05, 1e-3)
        assert [rec.termination for rec in records] == ["blowup_detected", "t_end_reached"]
        assert records[0].times.tolist() == [0.0] and records[0].tail_fraction[0] > 1e-3
        _assert_same_record(records[1], evolve(specs[1], params[1], 0.05, 1e-3))

    def test_direct_kernel_row_wise(self):
        specs = [SineSpectrum.sine_wave(R, 24) for R in (1.0, 3.0)]
        params = [ModelParams(0.25, 0.04)] * 2
        records = evolve_batch(specs, params, 0.02, 1e-3, kernel=nonlinear_direct)
        for spec, p, rec in zip(specs, params, records):
            _assert_same_record(rec, evolve(spec, p, 0.02, 1e-3, kernel=nonlinear_direct))

    @pytest.mark.parametrize(
        "specs, params",
        [
            ([], []),
            ([SineSpectrum.sine_wave(1.0, 16)], []),
            ([SineSpectrum.sine_wave(1.0, 16), SineSpectrum.sine_wave(1.0, 32)], [ModelParams(0.25, 0.1)] * 2),
        ],
    )
    def test_rejects_inconsistent_input(self, specs, params):
        with pytest.raises(ValueError):
            evolve_batch(specs, params, 0.1, 1e-3)

    def test_partial_last_step_rejected(self):
        # round(1.5) steps would stop at t = 0.2 and report t_end_reached
        specs, params = [SineSpectrum.sine_wave(1.0, 16)], [ModelParams(0.5, 0.1)]
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve_batch(specs, params, 0.15, 0.1)
        with pytest.raises(ValueError, match="whole number of steps"):
            evolve(specs[0], params[0], 0.15, 0.1)

    def test_whole_step_count_within_round_off_accepted(self):
        assert 0.3 / 0.1 != 3.0  # 2.9999999999999996
        rec = evolve(SineSpectrum.sine_wave(1.0, 16), ModelParams(0.5, 0.1), 0.3, 0.1, DiagnosticsConfig(stride=1))
        assert rec.termination == "t_end_reached" and rec.times.size == 4


def _assert_matches_reference(records, references):
    for rec, ref in zip(records, references, strict=True):
        assert rec.termination == ref.termination
        assert np.array_equal(rec.times, ref.times)
        for name in DIAGNOSTIC_COLUMNS:
            assert np.array_equal(getattr(rec, name), ref.columns[name], equal_nan=True), name
        assert (rec.spectra is None) == (ref.spectra is None)
        if rec.spectra is not None:
            assert len(rec.spectra) == len(ref.spectra)
            assert all(np.array_equal(a, b) for a, b in zip(rec.spectra, ref.spectra))


#: rows that overflow at steps 5 and 20, and one that marches to t_end, with dt = 0.05 to t_end = 2
_FAILING_CELLS = [(0.5, 0.1, SineSpectrum(np.ones(16))), (0.25, 0.04, SineSpectrum.sine_wave(6.0, 16)),
                  (1.0, 1.0, SineSpectrum.sine_wave(0.1, 16))]


class TestMarchMatchesReference:
    """``evolve_batch`` against ``march_reference``, which sums, tests and records at every step as written."""

    CELLS = [SineSpectrum.sine_wave(R, 64) for _, _, R in TestEvolveBatch.CELLS], [
        ModelParams(a, nu) for a, nu, _ in TestEvolveBatch.CELLS
    ]
    FAILING = [spec for _, _, spec in _FAILING_CELLS], [ModelParams(a, nu) for a, nu, _ in _FAILING_CELLS]
    CASES = {
        "N=512": ([SineSpectrum.sine_wave(1.0, 512)], [ModelParams(0.25, 0.1)], 5e-3, 1e-4, 10, {}),
        "N=1024": ([SineSpectrum.sine_wave(10.0, 1024)], [ModelParams(0.25, 0.04)], 2.5e-3, 5e-5, 10, {}),
        "cells": (*CELLS, 0.2, 1e-3, 5, {}),
        "failing between records": (*FAILING, 2.0, 0.05, 7, {"tail_threshold": 1.0}),
        "stride 1": (*CELLS, 0.2, 1e-3, 1, {}),
        "stride past the end": (*CELLS, 0.2, 1e-3, 1000, {}),
        "stride not dividing the steps": (*CELLS, 0.2, 1e-3, 7, {"r": 1.3}),
        "failing, stride past the end": (*FAILING, 2.0, 0.05, 100, {"tail_threshold": 1.0}),
        "direct kernel": ([SineSpectrum.sine_wave(R, 24) for R in (1.0, 3.0)], [ModelParams(0.25, 0.04)] * 2, 0.02, 1e-3,
                          3, {"kernel": nonlinear_direct}),
        "sine:1e-160": ([SineSpectrum.sine_wave(1e-160, 64), SineSpectrum.sine_wave(1.0, 64)], [ModelParams(0.25, 0.04)] * 2,
                        0.1, 1e-3, 7, {}),
    }

    @pytest.mark.parametrize("store", [False, True])
    @pytest.mark.parametrize("case", list(CASES))
    def test_batch_equals_reference(self, case, store):
        specs, params, t_end, dt, stride, extra = self.CASES[case]
        kernel = extra.get("kernel", nonlinear_pseudospectral)
        config = {key: value for key, value in extra.items() if key != "kernel"}
        diag = DiagnosticsConfig(stride=stride, store_spectra=store, **config)
        references = march_reference(specs, params, t_end, dt, diag, kernel)
        _assert_matches_reference(evolve_batch(specs, params, t_end, dt, diag, kernel), references)
        if case.startswith("failing"):
            assert [ref.termination for ref in references] == ["step_failure", "step_failure", "t_end_reached"]
            assert [ref.steps for ref in references[:2]] == [5, 20] and 5 % stride and 20 % stride  # between records

    @pytest.mark.parametrize("stride", [3, 7, 30, 1000])
    def test_lone_row_failing_between_records_stops_within_a_stride(self, stride):
        # the row fails at step 5 of 200; past a stride of 64 steps the march's check interval stops it
        calls = []

        def counted(psi):
            calls.append(psi.shape)
            return nonlinear_pseudospectral(psi)

        spec, p = _FAILING_CELLS[0][2], ModelParams(*_FAILING_CELLS[0][:2])
        diag = DiagnosticsConfig(stride=stride, tail_threshold=1.0)
        (ref,) = march_reference([spec], [p], 10.0, 0.05, diag)
        rec = evolve(spec, p, 10.0, 0.05, diag, kernel=counted)
        _assert_matches_reference([rec], [ref])
        assert rec.termination == "step_failure" and ref.steps % stride and ref.steps + 64 < 200
        assert ref.steps <= len(calls) // 4 < ref.steps + min(stride, 64)

    def test_memory_grows_only_by_the_records(self):
        # at N = 1024 and stride 1, ten times the steps may add the records' own columns (times and 7
        # diagnostics, with their log entries, a few hundred bytes each), not N = 1024 floats (8 KiB) each
        spec, p, dt = SineSpectrum.sine_wave(1.0, 1024), ModelParams(0.25, 0.1), 1e-4
        diag = DiagnosticsConfig(stride=1)
        evolve(spec, p, 10 * dt, dt, diag)  # caches filled before tracing
        peaks = []
        for steps in (40, 400):
            tracemalloc.start()
            try:
                evolve(spec, p, steps * dt, dt, diag)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 360 * 1024


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
        u_hat = np.fft.rfft(g) / M
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
        assert odd_symmetry_residual(g) < 1e-12


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
        # evolve records L(t) and the rF-distance through the functionals the
        # attractors module uses, so they agree bit for bit
        from burgers_lab.attractors import PROFILES, attractor_distance, lyapunov

        rec = evolve(
            SineSpectrum([0.4, -0.1, 0.05]).padded(32),
            ModelParams(0.3, 0.02),
            0.05,
            1e-3,
            DiagnosticsConfig(stride=5, store_spectra=True),
        )
        F = PROFILES["F"]
        for i, psi in enumerate(rec.spectra):
            s = SineSpectrum(psi)
            assert rec.lyapunov[i] == lyapunov(s, F)
            assert rec.dist_rF[i] == attractor_distance(s, rec.r)


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
        assert np.max(np.abs(exact - approx)) <= 1e-5
