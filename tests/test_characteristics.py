import numpy as np
import pytest

from burgers_lab import characteristics
from burgers_lab.attractors import attractor_decay_series, optimal_r
from burgers_lab.characteristics import (
    HorizonError,
    InitialField,
    eval_characteristics,
    min_initial_slope,
    sample_solution,
    tmax_inviscid,
)
from burgers_lab.cli import main
from burgers_lab.spectral import (
    SineSpectrum,
    evaluate_field,
    grid_lq_norm,
    grid_points,
    synthesize,
)

from conftest import bisect_characteristic_foot


def minus_sine():
    return InitialField(SineSpectrum([0.5]))


class TestInitialField:
    def test_value_and_slope_match_finite_differences(self, rng):
        u0 = InitialField(SineSpectrum(rng.uniform(-1, 1, 10)))
        x = np.linspace(-np.pi, np.pi, 41)
        h = 1e-6
        fd = (u0.value(x + h) - u0.value(x - h)) / (2 * h)
        np.testing.assert_allclose(u0.slope(x), fd, atol=1e-8)

    def test_sup_bound_dominates(self, rng):
        u0 = InitialField(SineSpectrum(rng.uniform(-1, 1, 6)))
        x = np.linspace(-np.pi, np.pi, 4096)
        assert np.max(np.abs(u0.value(x))) <= u0.sup_bound + 1e-12


class TestTmax:
    def test_minus_sine(self):
        assert tmax_inviscid(minus_sine()) == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_scaling(self):
        for R in (0.5, 2.0, 10.0):
            u0 = InitialField(SineSpectrum([R / 2]))
            assert tmax_inviscid(u0) == pytest.approx(1.0 / R, rel=1e-12)

    def test_zero_data_never_breaks(self):
        assert tmax_inviscid(InitialField(SineSpectrum([0.0]))) == np.inf
        padded = InitialField(SineSpectrum.zeros(256))
        assert padded.spectrum.N == 1
        assert tmax_inviscid(padded) == np.inf

    def test_refined_minimum_beats_dense_sampling(self, rng):
        u0 = InitialField(SineSpectrum(rng.uniform(-1, 1, 8)))
        got = min_initial_slope(u0)
        x = np.linspace(-np.pi, np.pi, 2_000_001)
        dense = float(np.min(u0.slope(x)))
        assert got <= dense + 1e-10


class TestEvalCharacteristics:
    def test_identity_at_t_zero(self):
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(
            eval_characteristics(minus_sine(), x, 0.0), -np.sin(x), atol=1e-14
        )

    def test_origin_is_fixed_point(self):
        for t in (0.1, 0.5, 0.9):
            assert eval_characteristics(minus_sine(), 0.0, t) == pytest.approx(0.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        u0 = minus_sine()
        got = eval_characteristics(u0, np.pi / 2, 0.5)
        foot = bisect_characteristic_foot(lambda z: -np.sin(z), np.pi / 2, 0.5, 0.5, tol=1e-14)
        assert got == pytest.approx(-np.sin(foot), abs=1e-12)

    def test_multimode_against_bisection_oracle(self, rng):
        spec = SineSpectrum(rng.uniform(-0.5, 0.5, 5))
        u0 = InitialField(spec)
        t = 0.4 * tmax_inviscid(u0)
        for x in np.linspace(-3, 3, 7):
            foot = bisect_characteristic_foot(
                lambda z: float(evaluate_field(spec, z)), x, t, t * u0.sup_bound + 1e-9
            )
            assert eval_characteristics(u0, x, t) == pytest.approx(
                float(evaluate_field(spec, foot)), abs=1e-11
            )

    @pytest.mark.parametrize("newton_steps", [0, 4])
    def test_bisection_fallback_against_bisection_oracle(self, rng, monkeypatch, newton_steps):
        # capping Newton sends all points but x = 0 (0 steps) or 4 of 13 (4 steps) to bisection
        spec = SineSpectrum(rng.uniform(-0.5, 0.5, 5))
        u0 = InitialField(spec)
        t = 0.9 * tmax_inviscid(u0)
        x = np.linspace(-3, 3, 13)
        monkeypatch.setattr(characteristics, "_NEWTON_MAX_ITER", newton_steps)
        got = eval_characteristics(u0, x, t)
        for xj, uj in zip(x, got):
            foot = bisect_characteristic_foot(
                lambda z: float(evaluate_field(spec, z)), xj, t, t * u0.sup_bound + 1e-9
            )
            assert uj == pytest.approx(float(evaluate_field(spec, foot)), abs=1e-11)

    def test_horizon_guard(self):
        with pytest.raises(HorizonError):
            eval_characteristics(minus_sine(), 0.3, 1.0 - 1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eval_characteristics(minus_sine(), 0.3, -0.1)


class TestSampleSolution:
    def test_t_zero_equals_synthesis(self):
        g = sample_solution(minus_sine(), 0.0, 256)
        np.testing.assert_allclose(g.samples, synthesize(SineSpectrum([0.5]), 256).samples, atol=1e-14)

    def test_odd_symmetry_preserved(self):
        for t in (0.2, 0.6, 0.9):
            g = sample_solution(minus_sine(), t, 1024)
            assert g.odd_residual <= 1e-10

    def test_l2_norm_conserved_near_horizon(self):
        g = sample_solution(minus_sine(), 0.9, 4096)
        assert abs(grid_lq_norm(g, 2) - np.sqrt(np.pi)) <= 1e-6

    @pytest.mark.parametrize("q", [1.0, 2.0, np.inf])
    def test_lq_conservation(self, q):
        u0 = minus_sine()
        ref = grid_lq_norm(synthesize(u0.spectrum, 4096), q)
        for frac in np.arange(0.1, 0.95, 0.1):
            g = sample_solution(u0, float(frac), 4096)
            assert abs(grid_lq_norm(g, q) - ref) <= 1e-6 * ref


class TestPdeResidual:
    def test_centered_differences_satisfy_equation(self):
        # |u_t + u u_x| should be O(h^2) away from the horizon
        u0 = minus_sine()
        t, ht, M = 0.3, 1e-5, 1024
        x = grid_points(M)
        um = sample_solution(u0, t - ht, M).samples
        u = sample_solution(u0, t, M).samples
        up = sample_solution(u0, t + ht, M).samples
        u_t = (up - um) / (2 * ht)
        hx = 2 * np.pi / M
        u_x = (np.roll(u, -1) - np.roll(u, 1)) / (2 * hx)
        residual = np.max(np.abs(u_t + u * u_x))
        assert residual <= 1e-3  # h^2-scaled; u_x curvature dominates

    def test_blowup_time_ordering_for_random_data(self, rng):
        # T_max <= ||u0 - r F||^2 / (r ||u0||^2) for every r > 0
        from burgers_lab.attractors import attractor_distance
        from burgers_lab.spectral import sobolev_norm

        for _ in range(10):
            spec = SineSpectrum(rng.uniform(-1, 1, rng.integers(1, 9)))
            energy = sobolev_norm(spec, 0.0) ** 2
            if energy < 1e-6:
                continue
            t_max = tmax_inviscid(InitialField(spec))
            r0 = np.sqrt(energy / (2 * np.pi**3 / 3))
            for r in (0.5 * r0, r0, 2.0 * r0):
                bound = attractor_distance(spec, r) / (r * energy)
                assert t_max <= bound + 1e-9


class TestZeroPadding:
    """A zero-padded spectrum gives the same oracle answers as its active modes."""

    @pytest.mark.parametrize(
        "psi",
        [[0.5], [0.3, -0.1, 0.05, 0.02, -0.04]],
        ids=["sine", "multimode"],
    )
    def test_padded_field_gives_the_same_solution_and_decay_table(self, psi):
        spec = SineSpectrum(psi)
        fields = [InitialField(spec), InitialField(spec.padded(256))]
        assert fields[1].spectrum.N == len(psi)
        t_max = tmax_inviscid(fields[0])
        times = np.linspace(0.0, 0.8 * t_max, 5)
        r = optimal_r(spec).r0
        grids = [sample_solution(u0, float(times[-1]), 1024).samples for u0 in fields]
        tables = [attractor_decay_series(u0, times, r=r, M=1024) for u0 in fields]
        assert np.max(np.abs(grids[0] - grids[1])) <= 1e-13
        assert np.max(np.abs(tables[0].distance - tables[1].distance)) <= 1e-13
        assert np.max(np.abs(tables[0].predicted - tables[1].predicted)) <= 1e-13
        assert tmax_inviscid(fields[1]) == t_max

    def test_inviscid_run_searches_tmax_once(self, tmp_path, monkeypatch):
        calls = []
        search = characteristics.min_initial_slope

        def counted(u0):
            calls.append(u0.spectrum.N)
            return search(u0)

        monkeypatch.setattr(characteristics, "min_initial_slope", counted)
        argv = ["inviscid", "--init", "sine:1", "--dt", "0.1", "--t-end", "0.9", "--grid-size", "256"]
        assert main([*argv, "--out", str(tmp_path / "inv")]) == 0
        assert calls == [1]
