import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgers_lab.characteristics import InitialField, sample_solution
from burgers_lab.spectral import (
    NonOddInputError,
    SineSpectrum,
    UnderResolvedError,
    _load_pocketfft,
    analyze,
    evaluate_field,
    evaluate_slope,
    grid_lq_norm,
    grid_points,
    load_spectrum,
    next_pow2,
    sobolev_norm,
    synthesize,
    synthesize_slope,
)

from conftest import analyze_direct, odd_symmetry_residual, synthesize_direct

#: absolute tolerance of an analyze <-> synthesize round trip
ROUNDTRIP_TOL = 1e-12

coeff_arrays = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=48
).map(np.array)


class TestSineSpectrum:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SineSpectrum([np.nan])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SineSpectrum([])

    @pytest.mark.parametrize(
        "values", [np.array([True, False]), [True, 0.5], [0.5, np.True_], ["0.5"], np.array([1.0 + 0j]), [None]]
    )
    def test_rejects_bools_and_non_numbers(self, values):
        # np.array([True, False]) used to give psi = [1, 0] and ['0.5'] psi = [0.5]
        with pytest.raises(ValueError, match="psi must hold real numbers, not bools, got"):
            SineSpectrum(values)

    def test_integer_coefficients_accepted(self):
        assert SineSpectrum(np.array([1, -2])).psi.tolist() == [1.0, -2.0] and SineSpectrum((1, 0.5)).N == 2

    def test_immutable(self):
        s = SineSpectrum([1.0, 2.0])
        with pytest.raises(ValueError):
            s.psi[0] = 3.0

    def test_owns_a_copy_of_the_callers_array(self):
        # the spectrum once froze the caller's float array in place
        a = np.zeros(3)
        s = SineSpectrum(a)
        a[0] = 1.0
        assert s.psi.tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            s.psi[0] = 1.0

    @pytest.mark.parametrize("N", [0, -1])
    def test_sine_wave_needs_a_mode(self, N):
        with pytest.raises(ValueError):
            SineSpectrum.sine_wave(1.0, N=N)

    def test_padding_to_fewer_modes_refused(self):
        with pytest.raises(ValueError, match="larger mode count"):
            SineSpectrum([1.0, 2.0, 3.0]).padded(2)

    def test_sine_wave_convention(self):
        # u0 = -R sin x has psi_1 = R/2
        s = SineSpectrum.sine_wave(10.0, N=4)
        assert s.psi[0] == 5.0 and np.all(s.psi[1:] == 0.0)


class TestSynthesize:
    def test_single_mode_is_minus_sine(self):
        g = synthesize(SineSpectrum([0.5]), 8)
        np.testing.assert_allclose(g, -np.sin(grid_points(g.size)), atol=1e-15)

    def test_zero_field(self):
        g = synthesize(SineSpectrum(np.zeros(5)), 32)
        assert np.all(g == 0.0)

    def test_partial_attractor_sum_matches_direct_summation(self):
        # psi_n = 1/n, value at x = pi/2 against the plain summation oracle
        N, M = 64, 256
        spec = SineSpectrum(1.0 / np.arange(1, N + 1))
        g = synthesize(spec, M)
        direct = synthesize_direct(spec, M)
        np.testing.assert_allclose(g, direct, atol=1e-12)
        j = np.argmin(np.abs(grid_points(g.size) - np.pi / 2))
        expected = -2.0 * sum(np.sin(n * np.pi / 2) / n for n in range(1, N + 1))
        assert abs(g[j] - expected) < 1e-12

    def test_under_resolution_error(self):
        with pytest.raises(UnderResolvedError):
            synthesize(SineSpectrum(np.ones(5)), 8)

    def test_grid_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            synthesize(SineSpectrum([1.0]), 12)

    def test_output_is_odd(self):
        g = synthesize(SineSpectrum([0.3, -0.2]), 16)
        assert odd_symmetry_residual(g) < 1e-14


class TestAnalyze:
    def test_single_mode(self):
        grid = -2.0 * np.sin(3 * grid_points(64))
        psi = analyze(grid, 8).psi
        np.testing.assert_allclose(psi[2], 1.0, atol=1e-14)
        assert np.max(np.abs(np.delete(psi, 2))) < 1e-14

    def test_even_function_rejected(self):
        with pytest.raises(NonOddInputError):
            analyze(np.cos(grid_points(64)), 8)

    def test_constant_grid_with_overflowing_squares_rejected(self):
        # its cosine energy once read inf/inf = NaN, which passed the oddness check
        with pytest.raises(NonOddInputError):
            analyze(np.full(4096, 1e160), 4)

    def test_under_resolution(self):
        with pytest.raises(UnderResolvedError):
            analyze(np.zeros(16), 16)

    def test_matches_direct_projection(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 9))
        g = synthesize(spec, 64)
        np.testing.assert_allclose(
            analyze(g, 9).psi, analyze_direct(g, 9), atol=1e-13
        )

    @settings(max_examples=40, deadline=None)
    @given(coeff_arrays)
    def test_round_trip(self, psi):
        spec = SineSpectrum(psi)
        M = next_pow2(4 * spec.N)
        back = analyze(synthesize(spec, M), spec.N)
        np.testing.assert_allclose(back.psi, spec.psi, atol=ROUNDTRIP_TOL)

    def test_round_trip_large(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 1024))
        back = analyze(synthesize(spec, 4096), 1024)
        assert np.max(np.abs(back.psi - spec.psi)) <= ROUNDTRIP_TOL

    def test_zero_field(self):
        # the zero field has no cosine/mean energy fraction to exceed the tolerance: it analyzes to zeros
        assert np.array_equal(analyze(np.zeros(16), 4).psi, np.zeros(4))

    def test_large_amplitude_round_trip(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = analyze(synthesize(SineSpectrum([1e300, -3e299]), 16), 2)
        np.testing.assert_allclose(back.psi, [1e300, -3e299], rtol=1e-14)

    @pytest.mark.parametrize("k", [-1000, -300, 7, 300, 900])
    def test_power_of_two_scaling_is_exact(self, rng, k):
        g = np.array(synthesize(SineSpectrum(rng.uniform(-1, 1, 9)), 64))
        assert np.array_equal(analyze(np.ldexp(g, k), 9).psi, np.ldexp(analyze(g, 9).psi, k))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_samples_rejected(self, bad):
        g = np.array(synthesize(SineSpectrum([0.5]), 16))
        g[5] = bad
        with pytest.raises(ValueError, match="grid samples must be finite"):
            analyze(g, 4)

    def test_mode_count_is_a_positive_integer(self):
        # True once analysed one mode, 2.5 ended in numpy's TypeError and 0 in an empty spectrum's error
        g = np.sin(grid_points(16))
        for N in (True, np.True_, 2.5, np.float64(3.0), 0, -1, "3", None):
            with pytest.raises(ValueError, match="N must be a positive integer, got"):
                analyze(g, N)
        assert np.array_equal(analyze(g, np.int64(3)).psi, analyze(g, 3).psi)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 16), ()])
    def test_grid_that_is_not_1d_refused(self, shape):
        # a (4, 4) grid ended in numpy's broadcast ValueError, which named no argument
        g = np.sin(grid_points(16)).reshape(shape) if shape else np.float64(0.5)
        with pytest.raises(ValueError, match=r"grid must be a 1-D array of samples, got shape"):
            analyze(g, 2)


class TestBinding:
    """pocketfft's binding with the lab's normalisation against ``numpy.fft``, the test-side reference.

    A numpy or scipy release under which the two differ fails here, at the size named, rather than as a golden diff.
    """

    @pytest.mark.parametrize("M", [2**p for p in range(2, 17)])
    def test_matches_numpy_fft_bit_for_bit(self, M, rng):
        binding = _load_pocketfft()
        for shape in ((M,), (3, M)):
            x = rng.uniform(-1.0, 1.0, shape)
            half = shape[:-1] + (M // 2 + 1,)
            c = rng.uniform(-1.0, 1.0, half) + 1j * rng.uniform(-1.0, 1.0, half)
            assert np.array_equal(binding.r2c(x, (-1,), True, 0, None, 1), np.fft.rfft(x)), f"r2c at M={M}, {shape}"
            assert np.array_equal(binding.c2r(c, (-1,), M, False, 2, None, 1), np.fft.irfft(c, n=M)), f"c2r at M={M}, {shape}"

    def test_synthesize_and_analyze_match_numpy_fft(self, rng):
        # the lab's own calls: synthesis is numpy's irfft of i M (-1)^n psi_n, analysis its rfft of the samples
        spec = SineSpectrum(rng.uniform(-1.0, 1.0, 200))
        coeffs = np.zeros(513, dtype=complex)
        coeffs[1:201] = 1j * 1024 * (-1.0) ** np.arange(1, 201) * spec.psi
        g = synthesize(spec, 1024)
        assert np.array_equal(g, np.fft.irfft(coeffs, n=1024))
        Y = np.fft.rfft(np.ldexp(g, -np.frexp(np.abs(g).max())[1]))
        want = np.ldexp((-1.0) ** np.arange(1, 201) * Y[1:201].imag / 1024, np.frexp(np.abs(g).max())[1])
        assert np.array_equal(analyze(g, 200).psi, want)


class TestNormsAndPairing:
    def test_l2_of_minus_sine(self):
        # ||-sin x||^2 = pi (so ||u0||^2 = pi R^2 at R = 1)
        assert abs(sobolev_norm(SineSpectrum([0.5]), 0.0) - np.sqrt(np.pi)) < 1e-15

    def test_attractor_partial_sums_converge(self):
        target = np.sqrt(2.0 * np.pi**3 / 3.0)
        prev_gap = np.inf
        for N in (64, 256, 1024, 4096):
            val = sobolev_norm(SineSpectrum(1.0 / np.arange(1, N + 1)), 0.0)
            gap = target - val
            assert 0 < gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-3

    def test_weighted_single_mode(self):
        assert abs(sobolev_norm(SineSpectrum([1.0]), 2.0) - np.sqrt(4 * np.pi)) < 1e-15

    def test_zero_coefficient_adds_nothing_at_any_order(self):
        # n^{2s} = inf met psi_2 = 0 and the norm read inf * 0 = NaN
        assert sobolev_norm(SineSpectrum([0.5, 0.0]), 600.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_overflowing_weight_with_a_finite_norm(self):
        # 2^1200 overflows, but the norm sqrt(4 pi) 0.2 2^600 (to 1 part in 10^361) does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = sobolev_norm(SineSpectrum([0.5, 0.2]), 600.0)
            tiny = sobolev_norm(SineSpectrum([0.5, 1e-300]), 600.0)
        assert value == pytest.approx(math.ldexp(0.4 * math.sqrt(math.pi), 600), rel=1e-13)
        assert tiny == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("psi, s", [([0.5, 0.2], 2000.0), ([0.5, 0.2], 1e308), ([1e308] * 8, 0.0)])
    def test_norm_beyond_the_float_range_raises(self, psi, s):
        with pytest.raises(OverflowError, match=re.escape(f"at s={s} leaves the float range")):
            sobolev_norm(SineSpectrum(psi), s)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            sobolev_norm(SineSpectrum([1.0]), -0.5)

    @settings(max_examples=25, deadline=None)
    @given(coeff_arrays)
    def test_parseval_against_grid_quadrature(self, psi):
        spec = SineSpectrum(psi)
        g = synthesize(spec, next_pow2(8 * spec.N))
        a = sobolev_norm(spec, 0.0) ** 2
        b = grid_lq_norm(g, 2.0) ** 2
        assert abs(a - b) <= 1e-9 * max(a, 1e-12)


class TestPointwiseEvaluation:
    def test_field_matches_grid(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 12))
        g = synthesize(spec, 128)
        x = grid_points(g.size)
        np.testing.assert_allclose(evaluate_field(spec, x), g, atol=1e-12)
        # a scalar, a few points and the whole grid go through the same Horner sum
        for j in (0, 17, 64):
            assert evaluate_field(spec, x[j]) == pytest.approx(g[j], abs=1e-12)
        np.testing.assert_allclose(evaluate_field(spec, x[:5]), g[:5], atol=1e-12)

    def test_slope_matches_finite_differences(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 12))
        x = np.linspace(-3, 3, 37)
        h = 1e-6
        fd = (evaluate_field(spec, x + h) - evaluate_field(spec, x - h)) / (2 * h)
        np.testing.assert_allclose(evaluate_slope(spec, x), fd, atol=1e-8)

    def test_slope_grid_synthesis(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 12))
        got = synthesize_slope(spec.psi, 128)
        x = grid_points(128)
        np.testing.assert_allclose(got, evaluate_slope(spec, x), atol=1e-12)
        for j in (0, 17, 64):
            assert evaluate_slope(spec, x[j]) == pytest.approx(got[j], abs=1e-12)

    @pytest.mark.parametrize("evaluate", [evaluate_field, evaluate_slope])
    def test_a_point_gets_the_same_bits_alone_as_in_an_array(self, evaluate):
        rng = np.random.default_rng(7)
        for _ in range(300):
            K = int(rng.integers(2, 41))
            spec = SineSpectrum(rng.uniform(-1, 1, K))
            x = rng.uniform(-np.pi, np.pi, 600 // K + 200)
            j = int(rng.integers(x.size))
            full = evaluate(spec, x)[j]
            assert evaluate(spec, np.array(x[j])) == full
            assert evaluate(spec, x[j : j + 1])[0] == full

    def test_slope_of_a_stack_matches_rows(self, rng):
        psi = rng.uniform(-1, 1, (6, 40))
        got = synthesize_slope(psi, 128)
        assert got.shape == (6, 128)
        assert np.array_equal(got, np.stack([synthesize_slope(row, 128) for row in psi]))
        with pytest.raises(UnderResolvedError):
            synthesize_slope(psi, 64)


class TestGridSamples:
    """Grids are read-only float arrays; the two producers, synthesize and sample_solution, check their size."""

    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="grid size must be a power of two, at least 4"):
            synthesize(SineSpectrum([1.0]), 24)
        with pytest.raises(ValueError, match="grid size must be a power of two, at least 4"):
            sample_solution(InitialField(SineSpectrum([0.5])), 0.1, 24)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="grid size must be a power of two, at least 4"):
            synthesize(SineSpectrum([1.0]), 2)
        with pytest.raises(ValueError, match="grid size must be a power of two, at least 4"):
            sample_solution(InitialField(SineSpectrum([0.5])), 0.1, 2)

    def test_samples_are_read_only_arrays(self):
        grids = synthesize(SineSpectrum([0.5]), 64), sample_solution(InitialField(SineSpectrum([0.5])), 0.1, 64)
        for u in grids:
            assert isinstance(u, np.ndarray) and u.dtype == float and u.shape == (64,)
            assert not u.flags.writeable

    def test_lq_norms(self):
        g = synthesize(SineSpectrum([0.5]), 4096)
        assert grid_lq_norm(g, 2) == pytest.approx(np.sqrt(np.pi), abs=1e-12)
        assert grid_lq_norm(g, np.inf) == pytest.approx(1.0, abs=1e-6)
        assert grid_lq_norm(g, 1) == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("q", [0.5, 0.0])
    def test_lq_norm_needs_q_at_least_one(self, q):
        with pytest.raises(ValueError, match="q must be >= 1"):
            grid_lq_norm(np.ones(8), q)


class TestSpectrumFiles:
    def test_round_trip(self, tmp_path, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 7))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"N": 7, "psi": spec.psi.tolist()}))
        np.testing.assert_array_equal(load_spectrum(path).psi, spec.psi)

    def test_mismatched_count_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"N": 3, "psi": [1.0], "convention": ""}))
        with pytest.raises(ValueError):
            load_spectrum(path)
