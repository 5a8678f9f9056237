import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from burgers_lab.attractors import (
    PROFILES,
    AttractorFn,
    DivergentSeriesError,
    F_L2_NORM_SQ,
    UnsupportedRegimeError,
    _gauss_legendre,
    _panel_rule,
    attractor_decay_series,
    attractor_distance,
    c_alpha,
    key_identity_residuals,
    lyapunov,
    optimal_r,
    power_sum,
    series_s,
)
from burgers_lab import characteristics
from burgers_lab.characteristics import HorizonError, InitialField, sample_solution
from burgers_lab.spectral import SineSpectrum, UnderResolvedError, evaluate_field, evaluate_slope, grid_points, sobolev_norm

from conftest import integrate_torus, lyapunov_quadrature, torus_panels

R0_SINE = np.sqrt(3.0) / (np.pi * np.sqrt(2.0))  # ||-sin|| / ||F||
D0_SINE = 2.0 * np.pi - 2.0 * np.sqrt(6.0)  # ||u0 - r0 F||^2 for u0 = -sin


class TestProfiles:
    def test_F_pointwise(self):
        F = PROFILES["F"]
        assert F.evaluate(np.array([np.pi / 2]))[0] == pytest.approx(-np.pi / 2)
        assert F.evaluate(np.array([0.0]))[0] == 0.0
        assert F.evaluate(np.array([np.pi]))[0] == pytest.approx(0.0)
        assert F.evaluate(np.array([-np.pi]))[0] == pytest.approx(0.0)
        # periodic continuation: only the origin carries the jump
        x = np.array([0.3 - 2 * np.pi, 0.3, 0.3 + 2 * np.pi])
        np.testing.assert_allclose(F.evaluate(x), F.evaluate(x[[1, 1, 1]]), atol=1e-12)

    def test_F_norm_and_coefficients(self):
        F = PROFILES["F"]
        assert F.l2_norm_sq == F_L2_NORM_SQ
        assert F_L2_NORM_SQ == pytest.approx(2 * np.pi**3 / 3)
        n = np.arange(1, 9)
        # the pairing with the n-th unit spectrum is 4 pi times F's sine coefficient 1/n
        np.testing.assert_allclose([lyapunov(SineSpectrum(np.eye(8)[k]), F) for k in range(8)], 4 * np.pi / n)

    def test_F_partial_sums_converge_pointwise(self):
        F = PROFILES["F"]
        x = np.linspace(-2.5, 2.5, 41)
        x = x[np.abs(x) > 0.3]
        N = 4000
        n = np.arange(1, N + 1)
        series = -2.0 * np.sin(np.outer(x, n)) @ (1.0 / n)
        np.testing.assert_allclose(series, F.evaluate(x), atol=1e-2)

    def test_Phi_is_unit_normalized(self):
        Phi = PROFILES["Phi"]
        assert Phi.l2_norm_sq == 1.0
        scale = np.sqrt(3.0 / (2.0 * np.pi**3))
        assert Phi.evaluate(np.array([np.pi / 2]))[0] == pytest.approx(-np.pi / 2 * scale)
        assert Phi.slope_floor == pytest.approx(scale)

    def test_sawtooth_is_translate_of_F(self):
        H, F = PROFILES["sawtooth"], PROFILES["F"]
        assert H.evaluate(np.array([1.0]))[0] == 1.0
        assert H.slope_floor == 1.0
        x = np.linspace(-3.0, 3.0, 601)
        x = x[np.abs(np.abs(x) - np.pi) > 1e-8]
        np.testing.assert_allclose(H.evaluate(x), F.evaluate(x + np.pi), atol=1e-12)

    def test_sawtooth_zero_at_jump(self):
        H = PROFILES["sawtooth"]
        assert H.evaluate(np.array([np.pi]))[0] == 0.0
        assert H.evaluate(np.array([-np.pi]))[0] == 0.0

    @pytest.mark.parametrize("kind", sorted(PROFILES))
    def test_slope_floor_is_the_slope_off_the_jump(self, kind):
        # every profile is linear off its jump, so a central difference there is exact up to round-off
        att = PROFILES[kind]
        jump = 0.0 if att.jump_location == "origin" else np.pi
        x = jump + np.linspace(0.1, 2 * np.pi - 0.1, 50)
        h = 1e-4
        slopes = (att.evaluate(x + h) - att.evaluate(x - h)) / (2 * h)
        np.testing.assert_allclose(slopes, att.slope_floor, rtol=1e-9)

    @pytest.mark.parametrize("scale", [1e200, 1e308, np.inf, np.nan])
    def test_scale_whose_norm_overflows_refused(self, scale):
        with pytest.raises(ValueError, match="float range"):
            AttractorFn(scale, "origin")

    def test_slope_floors(self):
        assert PROFILES["F"].slope_floor == 1.0 and PROFILES["sawtooth"].slope_floor == 1.0
        assert PROFILES["Phi"].slope_floor == pytest.approx(1.0 / np.sqrt(F_L2_NORM_SQ))

    @pytest.mark.parametrize("kind", sorted(PROFILES))
    def test_l2_norm_matches_quadrature(self, kind):
        att = PROFILES[kind]
        quad = integrate_torus(lambda x: att.evaluate(x) ** 2, att.jump_location, 2048)
        assert abs(att.l2_norm_sq - quad) <= 1e-8 * att.l2_norm_sq


class TestAttractorFnFields:
    @pytest.mark.parametrize("jump", ["middle", "Origin", "", None])
    def test_unknown_jump_location_refused(self, jump):
        # 'middle' used to pair like the jump at the origin: 7.5398 for psi = [0.5, 0.2]
        with pytest.raises(ValueError, match=f"unknown jump location {jump!r}"):
            AttractorFn(1.0, jump)

    @pytest.mark.parametrize("scale", [True, False, "1.0", None])
    def test_bool_or_non_numeric_scale_refused(self, scale):
        with pytest.raises(ValueError, match=f"scale must be a real number, got {scale!r}"):
            AttractorFn(scale, "origin")

    def test_numpy_scale_accepted(self):
        assert lyapunov(SineSpectrum([0.5, 0.2]), AttractorFn(np.float64(2.0), "pi")) == pytest.approx(-3.2 * np.pi)
        att = AttractorFn(np.float32(2.0), "pi")  # stored as its Python value
        assert type(att.scale) is float and att == AttractorFn(2.0, "pi")

    def test_attractor_distance_refuses_an_unknown_jump_location(self):
        with pytest.raises(ValueError, match="unknown jump location 'middle'"):
            attractor_distance(SineSpectrum([0.5, 0.2]), 1.0, "middle")


class TestLyapunov:
    def test_sine_pairing(self):
        for R in (1.0, 3.5):
            spec = SineSpectrum.sine_wave(R, N=4)
            assert lyapunov(spec, PROFILES["F"]) == pytest.approx(2 * np.pi * R)

    def test_zero(self):
        assert lyapunov(SineSpectrum(np.zeros(8)), PROFILES["F"]) == 0.0

    def test_truncated_attractor_partial_sum(self):
        N = 64
        spec = SineSpectrum(1.0 / np.arange(1, N + 1))
        expected = 4 * np.pi * np.sum(1.0 / np.arange(1, N + 1) ** 2)
        assert lyapunov(spec, PROFILES["F"]) == pytest.approx(expected, rel=1e-14)

    def test_rule_agrees_with_quadrature(self, rng):
        spec = SineSpectrum(rng.uniform(-1, 1, 24))
        for att in PROFILES.values():
            a = lyapunov(spec, att)
            b = lyapunov_quadrature(spec, att, 8 * 24)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


class TestKeyIdentity:
    def test_minus_sine_closed_form(self):
        rc, rq = key_identity_residuals(SineSpectrum([0.5]))
        assert abs(rc) <= 1e-12 and abs(rq) <= 1e-12
        # the two pieces individually: <F, u u_x> = -pi/2 = -||u||^2/2
        spec = SineSpectrum([0.5])
        energy = sobolev_norm(spec, 0.0) ** 2
        assert energy == pytest.approx(np.pi)

    def test_zero_field(self):
        assert key_identity_residuals(SineSpectrum(np.zeros(4))) == (0.0, 0.0)

    def test_randomized_both_paths(self, rng):
        for _ in range(50):
            N = int(rng.integers(1, 33))
            spec = SineSpectrum(rng.uniform(-1, 1, N))
            energy = sobolev_norm(spec, 0.0) ** 2
            rc, rq = key_identity_residuals(spec)
            assert abs(rc) <= 1e-10 * energy
            assert abs(rq) <= 1e-10 * max(energy, 1.0)


class TestKeyIdentityQuadrature:
    """The quadrature path: 64 (N // 8 + 1) Gauss nodes, u and u_x from the point evaluator."""

    @pytest.mark.parametrize("N", [1, 7, 8, 600])
    def test_nodes_are_sized_by_N(self, N):
        mids, h = _panel_rule(N)
        nodes = mids[:, None] + h * _gauss_legendre()[0]
        assert nodes.size == 64 * (N // 8 + 1) and 2.0 * h < 8.0 * np.pi / N
        assert np.sum(nodes < 0.0) == np.sum(nodes > 0.0) == nodes.size // 2  # both pieces, never the jump
        assert not any(array.flags.writeable for array in _gauss_legendre())  # the cache shares them

    @pytest.mark.parametrize("N", [7, 600])
    def test_quadrature_matches_the_split_panel_rule(self, rng, N):
        # an independent oracle: integrate_torus on its own, finer panels (4096 nodes or more)
        spec = SineSpectrum(rng.uniform(-1.0, 1.0, N))
        F = PROFILES["F"]
        energy = sobolev_norm(spec, 0.0) ** 2
        oracle = integrate_torus(
            lambda x: F.evaluate(x) * evaluate_field(spec, x) * evaluate_slope(spec, x), "origin", max(4096, 8 * N)
        )
        assert key_identity_residuals(spec)[1] == pytest.approx(oracle + 0.5 * energy, abs=1e-12 * energy)

    def test_large_N_is_accurate_in_little_memory(self, rng):
        # the exponential tables this path once read took 49.7 MiB at N = 2048
        spec = SineSpectrum(rng.uniform(-1.0, 1.0, 2048))
        energy = sobolev_norm(spec, 0.0) ** 2
        tracemalloc.start()
        try:
            _, rq = key_identity_residuals(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(rq) <= 1e-10 * energy
        assert peak < 8 * 2**20


class TestOptimalScaling:
    def test_sine_closed_form(self):
        opt = optimal_r(SineSpectrum([0.5]))
        assert opt.r0 == pytest.approx(R0_SINE, rel=1e-12)
        assert opt.g_r0 == pytest.approx(D0_SINE / (R0_SINE * np.pi), rel=1e-12)

    def test_truncated_attractor_tends_to_one(self):
        values = [optimal_r(SineSpectrum(1.0 / np.arange(1, N + 1))).r0 for N in (16, 256, 4096)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=12),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_homogeneity(self, coeffs, c):
        psi = np.array(coeffs)
        if np.max(np.abs(psi)) < 1e-3:
            return
        base = optimal_r(SineSpectrum(psi)).r0
        assert optimal_r(SineSpectrum(c * psi)).r0 == pytest.approx(c * base, rel=1e-10)

    def test_zero_data_undefined(self):
        with pytest.raises(ValueError):
            optimal_r(SineSpectrum(np.zeros(3)))

    @pytest.mark.parametrize("amplitude", [1e-160, 1e-200, 1e-300, 1e150])
    def test_homogeneous_where_the_energy_under_or_overflows(self, amplitude):
        # r0 scales as R and g(r0) as 1/R; ||u0||^2 is subnormal or zero at the small amplitudes
        base, scaled = optimal_r(SineSpectrum.sine_wave(1.0)), optimal_r(SineSpectrum.sine_wave(amplitude, N=4))
        assert scaled.r0 == pytest.approx(amplitude * base.r0, rel=1e-12, abs=0.0)
        assert scaled.g_r0 == pytest.approx(base.g_r0 / amplitude, rel=1e-12, abs=0.0)

    def test_minimizer_property_on_grid(self):
        spec = SineSpectrum([0.5, 0.25])
        opt = optimal_r(spec)
        energy = sobolev_norm(spec, 0.0) ** 2
        for r in np.geomspace(opt.r0 / 10, 10 * opt.r0, 101):
            g = attractor_distance(spec, float(r)) / (r * energy)
            assert opt.g_r0 <= g + 1e-12


class TestAttractorDistance:
    def test_sine_closed_form(self):
        assert attractor_distance(SineSpectrum([0.5]), R0_SINE) == pytest.approx(D0_SINE, rel=1e-12)

    def test_r_zero_is_energy(self):
        spec = SineSpectrum([0.3, -0.2])
        assert attractor_distance(spec, 0.0) == pytest.approx(sobolev_norm(spec, 0) ** 2)

    @pytest.mark.parametrize("psi, r", [(-3e153, 2.9e153), (1e153, -2.9e153)])
    def test_distance_beyond_the_float_range_raises(self, psi, r):
        # r^2 ||F||^2 is finite, the distance ||u - r F||^2 is not; it read inf with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="leaves the float range"):
                attractor_distance(SineSpectrum([psi]), r)

    def test_self_distance_vanishes_in_the_limit(self):
        dists = [
            attractor_distance(SineSpectrum(1.0 / np.arange(1, N + 1)), 1.0)
            for N in (16, 256, 4096)
        ]
        assert dists == sorted(dists, reverse=True)
        assert dists[-1] < 5e-3

    def test_against_grid_quadrature_oracle(self, rng):
        # trapezoid of (u - rF)^2 with the jump on a node is only O(h)-accurate,
        # so this cross-check runs at a loose tolerance
        spec = SineSpectrum(rng.uniform(-0.5, 0.5, 6))
        r = 0.37
        x = grid_points(8192)
        F = PROFILES["F"]
        from burgers_lab.spectral import evaluate_field

        integrand = (evaluate_field(spec, x) - r * F.evaluate(x)) ** 2
        quad = 2 * np.pi / x.size * np.sum(integrand)
        assert attractor_distance(spec, r) == pytest.approx(quad, rel=5e-3)


class TestDecaySeries:
    def test_exact_law_for_scaled_attractor(self):
        u0 = InitialField(SineSpectrum([0.5]))
        times = np.arange(0.1, 0.95, 0.1)
        for r in (0.5 * R0_SINE, R0_SINE, 2.0 * R0_SINE):
            table = attractor_decay_series(u0, times, AttractorFn(r, "origin"))
            d0 = attractor_distance(u0.spectrum, r)
            law = d0 - r * np.pi * times
            np.testing.assert_allclose(table.distance, law, atol=1e-6 * d0)
            np.testing.assert_allclose(table.predicted, law, atol=1e-14)

    def test_time_zero_row(self):
        u0 = InitialField(SineSpectrum([0.5]))
        table = attractor_decay_series(u0, [0.0], AttractorFn(R0_SINE, "origin"))
        assert table.distance[0] == pytest.approx(D0_SINE, rel=1e-12)

    def test_sawtooth_upper_bound(self):
        u0 = InitialField(SineSpectrum([0.5]))
        times = np.arange(0.0, 0.95, 0.1)
        table = attractor_decay_series(u0, times, attractor=PROFILES["sawtooth"])
        d0 = table.distance[0]
        assert np.all(table.distance <= d0 - times + 1e-6 * d0)

    def test_horizon_rejected(self):
        u0 = InitialField(SineSpectrum([0.5]))
        with pytest.raises(HorizonError):
            attractor_decay_series(u0, [0.5, 1.0], AttractorFn(R0_SINE, "origin"))

    def test_grid_too_coarse_for_u0_refused_before_any_solve(self, monkeypatch):
        # M = 64 analyzes 31 modes: the table once measured 31 of the 40 and drifted off the law unannounced
        u0 = InitialField(SineSpectrum(0.1 / np.arange(1, 41) ** 2))
        solve = characteristics._solve_feet
        monkeypatch.setattr(characteristics, "_solve_feet", lambda *args: pytest.fail("_solve_feet called"))
        with pytest.raises(UnderResolvedError, match="grid size 64 analyzes 31 modes, fewer than the 40 of u0"):
            attractor_decay_series(u0, [0.0, 0.01], PROFILES["F"], M=64)
        monkeypatch.setattr(characteristics, "_solve_feet", solve)
        table = attractor_decay_series(u0, [0.0, 0.01], PROFILES["F"], M=128)  # 63 modes: accepted
        assert table.distance[1] == pytest.approx(table.predicted[1], abs=1e-6 * table.distance[0])

    def test_distance_against_quadrature_oracle(self):
        # independent check of one table entry by direct grid quadrature
        u0 = InitialField(SineSpectrum([0.5]))
        t = 0.5
        table = attractor_decay_series(u0, [t], AttractorFn(R0_SINE, "origin"))
        g = sample_solution(u0, t, 8192)
        F = PROFILES["F"]
        integrand = (g - R0_SINE * F.evaluate(grid_points(g.size))) ** 2
        quad = 2 * np.pi / g.size * np.sum(integrand)
        assert table.distance[0] == pytest.approx(quad, rel=5e-3)


class TestSeriesConstants:
    def test_power_sum_against_zeta(self):
        for p in (1.02, 1.5, 1.9, 2.0, 3.0):
            assert power_sum(p, tol=1e-10) == pytest.approx(scipy.special.zeta(p), abs=2e-10)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_power_sum_errs_on_the_safe_side(self, tol):
        # an under-estimate of S(alpha) would loosen the certificate thresholds
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for alpha in np.linspace(0.01, 0.49, 49):
                p = 2.0 * (1.0 - float(alpha))
                excess = mpmath.mpf(power_sum(p, tol)) - mpmath.zeta(p)
                assert excess >= 0, (p, tol)
                if tol >= 1e-9:  # at 1e-12 partial-sum round-off may add ~1e-15 (see power_sum)
                    assert excess <= tol, (p, tol)

    def test_c_alpha_quarter(self):
        expected = np.sqrt(2 * np.pi * scipy.special.zeta(1.5))
        assert c_alpha(0.25) == pytest.approx(expected, abs=1e-9)
        assert c_alpha(np.float32(0.25)) == c_alpha(0.25)  # once summed in float32

    def test_c_alpha_small_alpha_limit(self):
        assert c_alpha(1e-12) ** 2 == pytest.approx(np.pi**3 / 3, rel=1e-9)

    def test_divergence_at_half(self):
        with pytest.raises(DivergentSeriesError):
            c_alpha(0.5)
        with pytest.raises(DivergentSeriesError):
            c_alpha(0.7)
        assert c_alpha(0.49) > c_alpha(0.25)  # finite but large below the threshold

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, -np.inf, np.nan, np.float32(np.nan), True, "0.25", None])
    def test_alpha_outside_the_supercritical_range_refused(self, alpha):
        # c_alpha(-1.0) returned 2.6078, and series_s(nan) ended in "cannot convert float NaN to integer"
        for series in (c_alpha, series_s):
            with pytest.raises(ValueError, match=re.escape(f"alpha must be positive, got {alpha!r}")):
                series(alpha)

    @pytest.mark.parametrize("p", [1.0, 0.5, np.nan])
    def test_power_sum_refuses_a_divergent_series(self, p):
        with pytest.raises(DivergentSeriesError, match="diverges"):
            power_sum(p, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan, "1e-9", True, None])
    def test_power_sum_refuses_a_bad_tol(self, tol):
        # tol = 0 raised ZeroDivisionError and tol < 0 TypeError
        with pytest.raises(ValueError, match=re.escape(f"tol must be positive and finite, got {tol!r}")):
            power_sum(2.0, tol)

    @pytest.mark.parametrize("p", ["2", True, None])
    def test_power_sum_refuses_a_bad_p(self, p):
        with pytest.raises(ValueError, match=re.escape(f"p must be a real number, got {p!r}")):
            power_sum(p, 1e-9)

    def test_power_sum_refuses_a_tol_needing_too_many_terms(self):
        # 4.4e99 terms: refused before any array is formed
        with pytest.raises(ValueError, match=r"needs 4.37e\+99 terms .* more than 1e\+07"):
            power_sum(2.0, 1e-300)

    def test_power_sum_counts_terms_past_an_overflowing_ratio(self):
        # p / (24 tol) overflows; these were refused as needing inf terms, though each sum is 1 to round-off
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert power_sum(1e308, 1e-9) == 1.0
            assert power_sum(1e10, 1e-300) == pytest.approx(1.0, rel=1e-15)
            assert power_sum(math.inf, 1e-9) == 1.0

    def test_series_constants_keep_their_bits(self):
        # the values before the logarithmic count was added: every pair whose ratio is finite keeps its n0
        assert [series_s(alpha).hex() for alpha in (0.1, 0.25, 0.4)] == [
            "0x1.e1d9cce196d01p+0", "0x1.4e6250c1e200ap+1", "0x1.65dc7c9a82850p+2"
        ]
        assert power_sum(2.0, 1e-12).hex() == "0x1.a51a66253196ap+0"

    def test_monotone_in_alpha(self):
        grid = np.linspace(0.05, 0.49, 12)
        vals = [c_alpha(float(a)) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_f_fractional_norm_identity(self):
        alpha = 0.25
        f_hs_norm_sq = PROFILES["F"].hs_norm_sq(alpha)
        assert f_hs_norm_sq == pytest.approx(2.0 * c_alpha(alpha) ** 2, rel=1e-12)
        assert PROFILES["sawtooth"].hs_norm_sq(alpha) == pytest.approx(f_hs_norm_sq, rel=1e-12)
        assert PROFILES["Phi"].hs_norm_sq(alpha) == pytest.approx(f_hs_norm_sq / F_L2_NORM_SQ, rel=1e-12)

    def test_hs_norm_diverges_at_half(self):
        with pytest.raises(DivergentSeriesError):
            PROFILES["F"].hs_norm_sq(0.5)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_series_s_is_the_regime_guard(self, alpha):
        # one guard: the certificates' regime error is S(alpha)'s divergence, re-exported by blowup
        with pytest.raises(UnsupportedRegimeError, match="not supercritical"):
            series_s(alpha)
        assert issubclass(UnsupportedRegimeError, DivergentSeriesError)


class TestQuadrature:
    def test_split_rule_integrates_smooth_pieces_exactly(self):
        F = PROFILES["F"]
        # integral of F * sin over the torus equals -2pi (the n=1 coefficient rule)
        val = integrate_torus(lambda x: F.evaluate(x) * np.sin(x), "origin", 2048)
        assert val == pytest.approx(-2 * np.pi, abs=1e-12)

    def test_unknown_jump_location_refused(self):
        with pytest.raises(ValueError, match="unknown jump location 'middle'"):
            integrate_torus(np.sin, "middle", 2048)

    @pytest.mark.parametrize("jump, pieces", [("origin", 2), ("pi", 1)])
    def test_one_half_width_per_layout(self, jump, pieces):
        mids, h = torus_panels(jump, 2048)
        n_panels = 2048 // (32 * pieces)
        assert mids.size == pieces * n_panels and h == np.pi / (pieces * n_panels)
        np.testing.assert_allclose(np.diff(mids), 2.0 * h, rtol=1e-12)
        assert mids[0] - h == pytest.approx(-np.pi, abs=1e-15) and mids[-1] + h == pytest.approx(np.pi, abs=1e-15)

    def test_unsplit_rule_would_be_wrong(self):
        # sanity: a panel straddling the jump loses accuracy (odd panel count
        # keeps the jump strictly inside a panel)
        F = PROFILES["F"]
        val = integrate_torus(lambda x: F.evaluate(x) * np.sin(x), "pi", 5 * 32)
        assert abs(val - (-2 * np.pi)) > 1e-6
