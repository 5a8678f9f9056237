import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgers_lab import characteristics
from burgers_lab.attractors import AttractorFn, attractor_decay_series, optimal_r
from burgers_lab.characteristics import (
    HorizonError,
    InitialField,
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

from conftest import bisect_characteristic_foot, full_grid_solution, odd_symmetry_residual


def minus_sine():
    return InitialField(SineSpectrum([0.5]))


@pytest.fixture
def start_at_x(monkeypatch):
    """Every foot starts at xi = x, as the solve once did."""
    monkeypatch.setattr(characteristics, "_newton_start", lambda u0, x, t: x)


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
        padded = InitialField(SineSpectrum(np.zeros(256)))
        assert padded.spectrum.N == 1
        assert tmax_inviscid(padded) == np.inf

    def test_refined_minimum_beats_dense_sampling(self, rng):
        u0 = InitialField(SineSpectrum(rng.uniform(-1, 1, 8)))
        got = min_initial_slope(u0)
        x = np.linspace(-np.pi, np.pi, 2_000_001)
        dense = float(np.min(u0.slope(x)))
        assert got <= dense + 1e-10

    def test_more_modes_than_the_sample_grid_resolves(self, rng):
        # K > 2048 modes: the transform grid grows past 4096 points
        u0 = InitialField(SineSpectrum(rng.uniform(-1, 1, 2500) / np.arange(1, 2501)))
        assert u0.spectrum.N == 2500
        assert min_initial_slope(u0) <= np.min(u0.slope(grid_points(4096)))


class TestEvalCharacteristics:
    """Point values u(x, t) = u0(foot) of sample_solution on small grids."""

    def test_identity_at_t_zero(self):
        g = sample_solution(minus_sine(), 0.0, 16)
        np.testing.assert_allclose(g, -np.sin(grid_points(g.size)), atol=1e-14)

    def test_origin_is_fixed_point(self):
        for t in (0.1, 0.5, 0.9):
            g = sample_solution(minus_sine(), t, 16)
            assert grid_points(g.size)[8] == 0.0 and g[8] == pytest.approx(0.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        g = sample_solution(minus_sine(), 0.5, 16)
        assert grid_points(g.size)[12] == np.pi / 2
        foot = bisect_characteristic_foot(lambda z: -np.sin(z), np.pi / 2, 0.5, 0.5, tol=1e-14)
        assert g[12] == pytest.approx(-np.sin(foot), abs=1e-12)

    def test_multimode_against_bisection_oracle(self, rng):
        spec = SineSpectrum(rng.uniform(-0.5, 0.5, 5))
        u0 = InitialField(spec)
        t = 0.4 * tmax_inviscid(u0)
        g = sample_solution(u0, t, 8)
        for x, u in zip(grid_points(g.size), g):
            foot = bisect_characteristic_foot(
                lambda z: float(evaluate_field(spec, z)), x, t, t * u0.sup_bound + 1e-9
            )
            assert u == pytest.approx(float(evaluate_field(spec, foot)), abs=1e-11)

    def test_stalled_newton_field_against_bisection_oracle(self):
        # plain Newton from xi = x, 50 steps, leaves feet of this two-mode field
        # above tolerance at 0.9 T_max; the safeguarded solve must still match bisection
        spec = SineSpectrum([0.37, -0.07])
        u0 = InitialField(spec)
        t = 0.9 * tmax_inviscid(u0)
        x = grid_points(64)
        xi = x.copy()
        for _ in range(50):
            xi = xi - (xi + t * u0.value(xi) - x) / (1.0 + t * u0.slope(xi))
        assert np.sum(~(np.abs(xi + t * u0.value(xi) - x) <= characteristics._RESIDUAL_TOL)) >= 4
        g = sample_solution(u0, t, 64)
        for xj, uj in zip(x, g):
            foot = bisect_characteristic_foot(
                lambda z: float(evaluate_field(spec, z)), xj, t, t * u0.sup_bound + 1e-9
            )
            assert uj == pytest.approx(float(evaluate_field(spec, foot)), abs=1e-11)

    def test_bad_start_still_matches_bisection(self, start_at_x):
        # plain Newton from xi = x stalls on the field above
        self.test_stalled_newton_field_against_bisection_oracle()

    @settings(max_examples=60, deadline=None)
    @given(
        psi=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16).filter(lambda p: max(map(abs, p)) >= 1e-3),
        frac=st.floats(0.0, 1.0 - 1e-6),
    )
    def test_random_fields_up_to_the_horizon(self, psi, frac):
        u0 = InitialField(SineSpectrum(psi))
        t = frac * tmax_inviscid(u0)
        x = grid_points(256)
        feet, values = characteristics._solve_feet(u0, x, t)
        # the values are those the solve last evaluated at each foot, to the bit
        assert np.array_equal(values, u0.value(feet))
        assert np.all(np.abs(feet + t * values - x) <= characteristics._RESIDUAL_TOL)
        # a foot error dz moves the residual by at least (1 - t/T_max) dz
        slack = 2e-12 / (1.0 - frac)
        for j in range(0, 256, 37):
            foot = bisect_characteristic_foot(u0.value, x[j], t, t * u0.sup_bound + 1e-9)
            assert abs(feet[j] - foot) <= slack

    def test_step_cap_raises_root_find_error(self, start_at_x, monkeypatch):
        # one step from xi = x leaves feet unsolved
        monkeypatch.setattr(characteristics, "_MAX_STEPS", 1)
        with pytest.raises(characteristics.RootFindError, match=r"^\d+ characteristic feet unsolved at t=0.9: worst residual .* > 1e-11$"):
            sample_solution(minus_sine(), 0.9, 64)

    def test_horizon_guard(self):
        with pytest.raises(HorizonError):
            sample_solution(minus_sine(), 1.0 - 1e-9, 16)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sample_solution(minus_sine(), -0.1, 16)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    @pytest.mark.parametrize("psi", [[0.5], [0.0]], ids=["sine", "zero data"])
    def test_non_finite_time_rejected(self, t, psi):
        # NaN passed every horizon test and returned u0's own samples; inf did so on zero data (T_max = inf)
        u0 = InitialField(SineSpectrum(psi))
        with pytest.raises(ValueError, match=f"time must be finite and nonnegative, got {t}"):
            sample_solution(u0, t, 16)
        with pytest.raises(ValueError, match="time must be finite"):
            attractor_decay_series(u0, [0.1, t], AttractorFn(1.0, "origin"), M=16)

    @pytest.mark.parametrize("t", [True, "0.1", None])
    def test_bool_or_non_numeric_time_refused(self, t):
        # t=True once sampled as t=1 and raised HorizonError past the guarded horizon; a string raised TypeError
        with pytest.raises(ValueError, match=f"time must be finite and nonnegative, got {t!r}"):
            sample_solution(InitialField(SineSpectrum([0.5])), t, 64)

    def test_nan_residual_is_never_converged(self):
        # NaN fails abs(r) > tol, so the solve once returned the feet it started from
        with pytest.raises(characteristics.RootFindError, match=r"^15 characteristic feet unsolved at t=nan: worst residual nan"):
            characteristics._solve_feet(minus_sine(), grid_points(16)[1:], np.nan)


class TestSampledStart:
    """Newton starts at a cubic Hermite inverse of the sampled forward map, so most feet take no step, one at most."""

    #: the feet sample_solution solves on its 4096-point grid
    X = grid_points(4096)[2049:]

    @staticmethod
    def counted_solve(u0, t, monkeypatch):
        """(feet, values, u0 evaluations, u0' evaluations) of one solve of the feet X."""
        counts = {"value": 0, "slope": 0}

        def counted(name, evaluate):
            def wrapper(spec, x):
                counts[name] += 1
                return evaluate(spec, x)

            return wrapper

        u0.t_max  # the T_max search's zoom evaluates u0' too
        with monkeypatch.context() as patch:
            patch.setattr(characteristics, "evaluate_field", counted("value", characteristics.evaluate_field))
            patch.setattr(characteristics, "evaluate_slope", counted("slope", characteristics.evaluate_slope))
            feet, values = characteristics._solve_feet(u0, TestSampledStart.X, t)
        return feet, values, counts["value"], counts["slope"]

    @pytest.mark.parametrize("frac", [0.3, 0.6, 0.9])
    def test_sine_takes_no_step(self, frac, monkeypatch):
        for R in (0.5, 1.0, 2.0, 10.0):
            u0 = InitialField(SineSpectrum.sine_wave(R))
            # the start's values alone; the linearly interpolated start took (2, 1), plain Newton from x 6-10 and 4-8
            assert self.counted_solve(u0, frac * u0.t_max, monkeypatch)[2:] == (1, 0)

    @pytest.mark.parametrize("frac", [0.3, 0.6, 0.9])
    def test_seeded_fields_take_at_most_one_step(self, frac, rng, monkeypatch):
        for K in rng.integers(1, 17, size=20):
            u0 = InitialField(SineSpectrum(rng.uniform(-1, 1, K) / np.arange(1, K + 1) ** rng.integers(0, 3)))
            _, _, value, slope = self.counted_solve(u0, frac * u0.t_max, monkeypatch)
            assert value <= 2 and slope <= 1 and value == slope + 1

    def test_seeded_fields_near_the_horizon(self, rng, monkeypatch):
        """At most two u0 calls per solve is this seeded set's measured count, not a guarantee: other sets of
        60 such fields hold a field whose solve takes a third (``test_random_fields_near_the_horizon``)."""
        for K in rng.integers(1, 17, size=60):
            u0 = InitialField(SineSpectrum(rng.uniform(-1, 1, K) / np.arange(1, K + 1) ** rng.integers(0, 3)))
            t = (1.0 - 2e-6) * u0.t_max
            feet, values, value, _ = self.counted_solve(u0, t, monkeypatch)
            assert np.all(np.abs(feet + t * values - self.X) <= characteristics._RESIDUAL_TOL)
            assert value <= 2

    def test_random_fields_near_the_horizon(self):
        # the solve's guarantee alone, whatever its step count: 20 sets of 60 fields, K <= 16, flat and 1/n^k
        # coefficients; the sets of seeds 0, 13 and 19 each hold a field whose solve takes a third u0 call
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for K in rng.integers(1, 17, size=60):
                u0 = InitialField(SineSpectrum(rng.uniform(-1, 1, K) / np.arange(1, K + 1) ** rng.integers(0, 3)))
                t = (1.0 - 2e-6) * u0.t_max
                feet, values = characteristics._solve_feet(u0, self.X, t)
                assert np.all(np.abs(feet + t * values - self.X) <= characteristics._RESIDUAL_TOL), (seed, K)

    def test_one_read_only_table_per_field(self, monkeypatch):
        calls = {"synthesize": 0, "synthesize_slope": 0}
        for name in calls:
            def counted(spec, M, name=name, transform=getattr(characteristics, name)):
                calls[name] += 1
                return transform(spec, M)

            monkeypatch.setattr(characteristics, name, counted)
        u0 = InitialField(SineSpectrum([0.3, -0.1, 0.05]))
        u0.t_max
        for frac in (0.2, 0.5, 0.9):
            sample_solution(u0, frac * u0.t_max, 256)
        assert calls == {"synthesize": 1, "synthesize_slope": 1}
        for column in u0._samples:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0


class TestSampleSolution:
    def test_t_zero_equals_synthesis(self):
        g = sample_solution(minus_sine(), 0.0, 256)
        np.testing.assert_allclose(g, synthesize(SineSpectrum([0.5]), 256), atol=1e-14)

    def test_odd_symmetry_preserved(self):
        for t in (0.2, 0.6, 0.9):
            g = sample_solution(minus_sine(), t, 1024)
            assert odd_symmetry_residual(g) <= 1e-10

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


class TestHalfGridSolve:
    """sample_solution solves the feet of (0, pi) alone and mirrors them onto (-pi, 0)."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        psi=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40).filter(any),
        zeros=st.integers(0, 8),
        log2_M=st.integers(2, 12),
        frac=st.floats(0.0, 0.99),
    )
    def test_odd_grid_matches_the_full_grid_reference(self, psi, zeros, log2_M, frac):
        u0 = InitialField(SineSpectrum([*psi, *[0.0] * zeros]))
        M = 2**log2_M
        t = frac * u0.t_max if np.isfinite(u0.t_max) else frac
        sizes = []
        solve = characteristics._solve_feet

        def counted(field, x, t):
            sizes.append(x.size)
            return solve(field, x, t)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(characteristics, "_solve_feet", counted)
            u = sample_solution(u0, t, M)
        assert sizes == [M // 2 - 1]
        assert u[0] == 0.0 and u[M // 2] == 0.0
        assert np.array_equal(u[1:], -u[:0:-1])
        ref = full_grid_solution(u0, t, M)
        # both grids hold each foot to the solver's residual tolerance, which moves u by u_x times it
        feet, _ = characteristics._solve_feet(u0, grid_points(M), t)
        slope = u0.slope(feet)
        u_x = slope / (1.0 + t * slope)
        bound = 1e-12 * np.max(np.abs(ref)) + 2.0 * characteristics._RESIDUAL_TOL * np.abs(u_x)
        assert np.all(np.abs(u - ref) <= bound)

    def test_no_work_on_a_refused_grid_size(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_solve_feet called")

        monkeypatch.setattr(characteristics, "_solve_feet", refuse)
        for M in (5, 7, 12, 2, 0, -4, 2_000_001, 64.0):
            with pytest.raises(ValueError, match="grid size must be a power of two, at least 4"):
                sample_solution(minus_sine(), 0.5, M)


class TestPdeResidual:
    def test_centered_differences_satisfy_equation(self):
        # |u_t + u u_x| should be O(h^2) away from the horizon
        u0 = minus_sine()
        t, ht, M = 0.3, 1e-5, 1024
        x = grid_points(M)
        um = sample_solution(u0, t - ht, M)
        u = sample_solution(u0, t, M)
        up = sample_solution(u0, t + ht, M)
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
        grids = [sample_solution(u0, float(times[-1]), 1024) for u0 in fields]
        tables = [attractor_decay_series(u0, times, AttractorFn(r, "origin"), M=1024) for u0 in fields]
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
