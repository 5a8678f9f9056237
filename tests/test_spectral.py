import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgers_lab.spectral import (
    GridFunction,
    NonOddInputError,
    SineSpectrum,
    UnderResolvedError,
    analyze,
    analyze_direct,
    evaluate_field,
    evaluate_slope,
    grid_l2_norm_sq,
    grid_lq_norm,
    grid_points,
    inner_product,
    load_spectrum,
    next_pow2,
    oddness_residual,
    save_spectrum,
    sobolev_norm,
    synthesize,
    synthesize_direct,
    synthesize_slope,
)

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

    def test_immutable(self):
        s = SineSpectrum([1.0, 2.0])
        with pytest.raises(ValueError):
            s.psi[0] = 3.0

    def test_sine_wave_convention(self):
        # u0 = -R sin x has psi_1 = R/2
        s = SineSpectrum.sine_wave(10.0, N=4)
        assert s.psi[0] == 5.0 and np.all(s.psi[1:] == 0.0)


class TestSynthesize:
    def test_single_mode_is_minus_sine(self):
        g = synthesize(SineSpectrum([0.5]), 8)
        np.testing.assert_allclose(g.samples, -np.sin(g.x), atol=1e-15)

    def test_zero_field(self):
        g = synthesize(SineSpectrum.zeros(5), 32)
        assert np.all(g.samples == 0.0)

    def test_partial_attractor_sum_matches_direct_summation(self):
        # psi_n = 1/n, value at x = pi/2 against the plain summation oracle
        N, M = 64, 256
        spec = SineSpectrum(1.0 / np.arange(1, N + 1))
        g = synthesize(spec, M)
        direct = synthesize_direct(spec, M)
        np.testing.assert_allclose(g.samples, direct, atol=1e-12)
        j = np.argmin(np.abs(g.x - np.pi / 2))
        expected = -2.0 * sum(np.sin(n * np.pi / 2) / n for n in range(1, N + 1))
        assert abs(g.samples[j] - expected) < 1e-12

    def test_under_resolution_error(self):
        with pytest.raises(UnderResolvedError):
            synthesize(SineSpectrum(np.ones(5)), 8)

    def test_grid_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            synthesize(SineSpectrum([1.0]), 12)

    def test_output_tagged_odd(self):
        g = synthesize(SineSpectrum([0.3, -0.2]), 16)
        assert g.odd_residual is not None and g.odd_residual < 1e-14


class TestAnalyze:
    def test_single_mode(self):
        grid = GridFunction(-2.0 * np.sin(3 * grid_points(64)))
        psi = analyze(grid, 8).psi
        np.testing.assert_allclose(psi[2], 1.0, atol=1e-14)
        assert np.max(np.abs(np.delete(psi, 2))) < 1e-14

    def test_even_function_rejected(self):
        with pytest.raises(NonOddInputError):
            analyze(GridFunction(np.cos(grid_points(64))), 8)

    def test_under_resolution(self):
        with pytest.raises(UnderResolvedError):
            analyze(GridFunction(np.zeros(16)), 16)

    def test_matches_direct_projection(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 9))
        g = synthesize(spec, 64)
        np.testing.assert_allclose(
            analyze(g, 9).psi, analyze_direct(g.samples, 9), atol=1e-13
        )

    @settings(max_examples=40, deadline=None)
    @given(coeff_arrays)
    def test_round_trip(self, psi):
        from burgers_lab.spectral import ROUNDTRIP_TOL

        spec = SineSpectrum(psi)
        M = next_pow2(4 * spec.N)
        back = analyze(synthesize(spec, M), spec.N)
        np.testing.assert_allclose(back.psi, spec.psi, atol=ROUNDTRIP_TOL)

    def test_round_trip_large(self, rng):
        from burgers_lab.spectral import ROUNDTRIP_TOL

        spec = SineSpectrum(rng.uniform(-1, 1, 1024))
        back = analyze(synthesize(spec, 4096), 1024)
        assert np.max(np.abs(back.psi - spec.psi)) <= ROUNDTRIP_TOL

    def test_oddness_residual_zero_field(self):
        assert oddness_residual(np.zeros(16)) == 0.0


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

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            sobolev_norm(SineSpectrum([1.0]), -0.5)

    def test_inner_product_examples(self):
        assert abs(inner_product(SineSpectrum([0.5]), SineSpectrum([0.5])) - np.pi) < 1e-15
        # pairing of -sin x with the 1/n profile: only the n=1 term survives
        f64 = SineSpectrum(1.0 / np.arange(1, 65))
        assert abs(inner_product(SineSpectrum([0.5]), f64) - 2 * np.pi) < 1e-14
        assert inner_product(SineSpectrum([1.0]), SineSpectrum([0.0, 1.0])) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(coeff_arrays, coeff_arrays, st.floats(-2, 2), st.floats(-2, 2))
    def test_bilinear_symmetric(self, a, b, s, t):
        sa, sb = SineSpectrum(a), SineSpectrum(b)
        assert inner_product(sa, sb) == pytest.approx(inner_product(sb, sa), abs=1e-12)
        m = max(len(a), len(b))
        pa, pb = sa.padded(m), sb.padded(m)
        combo = SineSpectrum(s * pa.psi + t * pb.psi)
        lhs = inner_product(combo, pb)
        rhs = s * inner_product(pa, pb) + t * inner_product(pb, pb)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(coeff_arrays, coeff_arrays)
    def test_cauchy_schwarz(self, a, b):
        sa, sb = SineSpectrum(a), SineSpectrum(b)
        assert inner_product(sa, sb) <= sobolev_norm(sa, 0) * sobolev_norm(sb, 0) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(coeff_arrays)
    def test_parseval_against_grid_quadrature(self, psi):
        spec = SineSpectrum(psi)
        g = synthesize(spec, next_pow2(8 * spec.N))
        a = sobolev_norm(spec, 0.0) ** 2
        b = grid_l2_norm_sq(g)
        assert abs(a - b) <= 1e-9 * max(a, 1e-12)


class TestPointwiseEvaluation:
    def test_field_matches_grid(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 12))
        g = synthesize(spec, 128)
        np.testing.assert_allclose(evaluate_field(spec, g.x), g.samples, atol=1e-12)
        # a scalar or a few points take the direct sum, the whole grid Horner's rule
        for j in (0, 17, 64):
            assert evaluate_field(spec, g.x[j]) == pytest.approx(g.samples[j], abs=1e-12)
        np.testing.assert_allclose(evaluate_field(spec, g.x[:5]), g.samples[:5], atol=1e-12)

    def test_slope_matches_finite_differences(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 12))
        x = np.linspace(-3, 3, 37)
        h = 1e-6
        fd = (evaluate_field(spec, x + h) - evaluate_field(spec, x - h)) / (2 * h)
        np.testing.assert_allclose(evaluate_slope(spec, x), fd, atol=1e-8)

    def test_slope_grid_synthesis(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 12))
        got = synthesize_slope(spec, 128)
        x = grid_points(128)
        np.testing.assert_allclose(got, evaluate_slope(spec, x), atol=1e-12)
        for j in (0, 17, 64):
            assert evaluate_slope(spec, x[j]) == pytest.approx(got[j], abs=1e-12)


class TestGridFunction:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(24))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(2))

    def test_lq_norms(self):
        g = synthesize(SineSpectrum([0.5]), 4096)
        assert grid_lq_norm(g, 2) == pytest.approx(np.sqrt(np.pi), abs=1e-12)
        assert grid_lq_norm(g, np.inf) == pytest.approx(1.0, abs=1e-6)
        assert grid_lq_norm(g, 1) == pytest.approx(4.0, abs=1e-6)


class TestSpectrumFiles:
    def test_round_trip(self, tmp_path, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 7))
        path = tmp_path / "spec.json"
        save_spectrum(spec, path)
        payload = json.loads(path.read_text())
        assert payload["N"] == 7
        assert "-2" in payload["convention"] and "sin" in payload["convention"]
        np.testing.assert_array_equal(load_spectrum(path).psi, spec.psi)

    def test_mismatched_count_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"N": 3, "psi": [1.0], "convention": ""}))
        with pytest.raises(ValueError):
            load_spectrum(path)
