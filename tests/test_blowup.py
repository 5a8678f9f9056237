import math
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burgers_lab import blowup, dynamics
from burgers_lab.attractors import PROFILES, attractor_distance, c_alpha, optimal_r
from burgers_lab.blowup import (
    KAPPA_F,
    HypothesisError,
    OutsideValidityError,
    UnsupportedRegimeError,
    _equality_case,
    _margin,
    certify_blowup_F,
    certify_blowup_H,
    comparison_lower_bound,
    corollary_condition,
    detect_numerical_blowup,
    monitor_lyapunov_bound,
    quadratic_lyapunov_rate,
    save_certificate,
    simplified_horizon,
    simplified_lower_bound,
    simplified_window,
    verify_comparison_lemma,
)
from burgers_lab.characteristics import InitialField, tmax_inviscid
from burgers_lab.dynamics import (
    DiagnosticsConfig,
    ModelParams,
    SimulationRecord,
    evolve,
    lyapunov_diagnostic,
    nonlinear_direct,
)
from burgers_lab.spectral import FOUR_PI, SineSpectrum, sobolev_norm


class TestComparisonLowerBound:
    def test_initial_value(self):
        assert comparison_lower_bound(2.0, 1.0, 0.5, 0.0) == pytest.approx(2.0)

    def test_dissipation_free_limit_is_riccati(self):
        for t in (0.1, 0.5, 0.9):
            got = comparison_lower_bound(1.0, 1.0, 0.0, t)
            assert got == pytest.approx(1.0 / (1.0 - t), rel=1e-15)

    def test_worked_example(self):
        # independent arithmetic: 1 - 1/4 + (0.1*0.5)/(0.95^2)
        bracket = 1.0 - 0.25 + 0.05 / 0.9025
        got = comparison_lower_bound(1.0, 1.0, 0.1, 0.25)
        assert got == pytest.approx(1.0 / bracket, rel=1e-15)
        assert got == pytest.approx(1.24161, abs=1e-5)

    def test_window_enforced(self):
        with pytest.raises(OutsideValidityError):
            comparison_lower_bound(1.0, 1.0, 0.5, 4.0)  # window y0^2/M^2 = 4

    def test_bound_crossed_reports_infinity(self):
        assert comparison_lower_bound(1.0, 10.0, 0.0, 0.5) == math.inf

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            comparison_lower_bound(-1.0, 1.0, 0.0, 0.1)


class TestSimplifiedLowerBound:
    def test_value_at_zero(self):
        assert simplified_lower_bound(1.0, 1.0, 0.2, 0.0) == pytest.approx(1.0 / 3.0)

    def test_worked_example(self):
        # y0=2, kappa=1, M=0.5: hypothesis 8 >= 3 holds; value (1.5-1)^-1 = 2
        assert simplified_lower_bound(2.0, 1.0, 0.5, 1.0) == pytest.approx(2.0)

    def test_horizon(self):
        assert simplified_horizon(2.0, 1.0) == pytest.approx(1.5)

    def test_hypothesis_enforced(self):
        with pytest.raises(HypothesisError):
            simplified_lower_bound(1.0, 1.0, 2.0, 0.1)  # 12 M^2/kappa = 48 > 1

    def test_window_enforced(self):
        with pytest.raises(OutsideValidityError):
            simplified_lower_bound(2.0, 1.0, 0.5, 1.6)  # horizon is 1.5

    def test_window_value(self):
        assert simplified_window(2.0, 1.0, 0.5) == pytest.approx(4.0)
        assert simplified_window(2.0, 1.0, 0.0) == math.inf


class TestNonFiniteBoundInputs:
    """A NaN fails every comparison, so each input is checked in the form that NaN fails too."""

    @pytest.mark.parametrize("y0, kappa, M", [(math.nan, 1.0, 0.1), (1.0, math.nan, 0.1), (1.0, 1.0, math.nan),
                                              (math.inf, 1.0, 0.1), (1.0, math.inf, 0.1), (1.0, 1.0, math.inf)])
    def test_lemma_constants_refused(self, y0, kappa, M):
        for bound in (comparison_lower_bound, simplified_lower_bound):
            with pytest.raises(ValueError, match="finite"):
                bound(y0, kappa, M, 0.1)
        with pytest.raises(ValueError, match="finite"):
            simplified_window(y0, kappa, M)
        if not math.isfinite(y0) or not math.isfinite(kappa):
            with pytest.raises(ValueError, match="finite"):
                simplified_horizon(y0, kappa)

    @pytest.mark.parametrize("field, index, value", [("y0", 0, True), ("y0", 0, "1"), ("kappa", 1, np.True_),
                                                     ("M", 2, False), ("M", 2, None), ("t", 3, True), ("t", 3, "0.1")])
    def test_bools_and_non_numbers_refused(self, field, index, value):
        # simplified_lower_bound(True, 1.0, 0.0, 0.1) once returned 0.3448, and a string y0 raised TypeError
        args = [2.0, 1.0, 0.0, 0.1]
        args[index] = value
        for bound in (comparison_lower_bound, simplified_lower_bound):
            with pytest.raises(ValueError, match=f"^{field} must be .*, got {value!r}$"):
                bound(*args)

    def test_nan_time_outside_validity(self):
        with pytest.raises(OutsideValidityError):
            comparison_lower_bound(1.0, 1.0, 0.1, math.nan)
        with pytest.raises(OutsideValidityError):
            simplified_lower_bound(2.0, 1.0, 0.5, math.nan)


#: log-uniform on [1e-300, 1e300]
_LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


def _value_or_clean_error(fn, y0, kappa, *args):
    """fn's value, or None for a lemma error; an OverflowError only where the horizon 3/(kappa y0) is past the float range."""
    try:
        return fn(y0, kappa, *args)
    except (HypothesisError, OutsideValidityError, ValueError):
        return None
    except OverflowError:
        rate = kappa * y0
        assert rate == 0.0 or 3.0 / rate == math.inf
        return None


class TestLemmaHelpersOnAnyScale:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # a margin just above 1 that the hypothesis check once refused, and four inputs that once ended
    # in OverflowError or ZeroDivisionError: in each bound, in the simplified bound, in verify's window
    @example(0.31678204188311937, 0.133784856312601, 0.018825810638142107, 0.1)
    @example(1e200, 1.0, 1.0, 0.5)
    @example(1e-200, 1.0, 1e-300, 0.5)
    @example(1e103, 1.0, 1.0, 1e-110)
    @example(1.0, 1.0, 1e-200, 0.5)
    @example(1e-8, 3e-300, 1e-300, 1e300)  # ten horizons, the run's span, pass the float range
    @given(_LOG_UNIFORM, _LOG_UNIFORM, _LOG_UNIFORM, _LOG_UNIFORM)
    def test_value_or_clean_error(self, y0, kappa, M, t):
        for bound in (comparison_lower_bound, simplified_lower_bound):
            value = _value_or_clean_error(bound, y0, kappa, M, t)
            assert value is None or value >= 0.0, bound.__name__  # NaN fails
        rep = _value_or_clean_error(verify_comparison_lemma, y0, kappa, M)
        assert rep is None or rep.max_comparison_violation == rep.max_comparison_violation  # NaN fails
        if _margin(y0, kappa, M) > 1.0:
            # the hypothesis check is the certificates' own: where they hold, the bound starts at y0/3
            assert simplified_lower_bound(y0, kappa, M, 0.0) == y0 / 3.0


class TestMargin:
    @pytest.mark.parametrize(
        "case",
        # (L0/M)^2 underflows while kappa L0 overflows (once inf), and (L0/M)^2 overflows while
        # kappa L0 underflows (once NaN); the rest are normal or reach the float range's ends
        [(1e150, 1e160, 1e306), (1e-100, 1e-300, 1e-290), (1.0, 1.0, 1.0), (-2.0, 3.0, 0.5),
         (1e-200, 1.0, 1e-300), (1e300, 1e300, 1e-10), (1e-110, 1.0, 1.0), (1e-300, 1e-300, 1e300)],
    )  # fmt: skip
    def test_matches_high_precision_value(self, case):
        mpmath = pytest.importorskip("mpmath")
        L0, kappa, M = case
        with mpmath.workdps(30):
            exact = mpmath.mpf(L0) ** 3 * mpmath.mpf(kappa) / (12 * mpmath.mpf(M) ** 2)
            got = _margin(L0, kappa, M)
            if abs(exact) > sys.float_info.max:
                assert got == math.copysign(math.inf, L0)
            elif abs(exact) < sys.float_info.min:
                # a subnormal margin keeps fewer digits: within one spacing, 2^-1074
                assert abs(got - exact) <= 2.0**-1074
            else:
                assert abs(got - exact) <= 1e-15 * abs(exact)

    def test_normal_inputs_keep_the_direct_form(self, rng):
        for L0, kappa, M in rng.lognormal(0.0, 5.0, (200, 3)):
            ratio = L0 / M
            assert _margin(L0, kappa, M) == ratio * ratio * (kappa * L0 / 12.0)

    def test_false_hypothesis_refused_at_extreme_scales(self):
        # y0^3 kappa / (12 M^2) = 8.3e-4: the bound once returned 3.3e149
        with pytest.raises(HypothesisError):
            simplified_lower_bound(1e150, 1e160, 1e306, 0.0)


class TestVerifyComparisonLemma:
    @pytest.mark.parametrize("case", [(1.0, 1.0, 0.2), (2.0, 1.0, 0.5), (1.0, 0.5, 0.1)])
    def test_forced_cases_pass(self, case):
        rep = verify_comparison_lemma(*case)
        assert rep.hypothesis_ok
        assert rep.max_comparison_violation <= 1e-9
        assert rep.max_simplified_violation <= 1e-9
        assert rep.numeric_blowup_time is not None
        assert rep.numeric_blowup_time <= simplified_horizon(case[0], case[1]) + 1e-6

    def test_riccati_closed_form(self):
        rep = verify_comparison_lemma(1.0, 1.0, 0.0)
        assert rep.max_comparison_violation <= 1e-9 and rep.max_simplified_violation <= 1e-9
        assert rep.riccati_max_error <= 1e-9

    def test_violated_hypothesis_still_checks_first_bound(self):
        # y0^3 = 1 < 12 M^2/kappa = 12
        rep = verify_comparison_lemma(1.0, 1.0, 1.0)
        assert not rep.hypothesis_ok
        assert rep.max_simplified_violation is None
        assert rep.max_comparison_violation <= 1e-9

    def test_report_measures_without_a_verdict(self):
        # an absolute 1e-9 slack once failed this correct run: y nears the stop level 1e9, and the violation
        # 9.5e-7 is round-off of about 1e-15 relative; the comparison-lemma suite in verify is the one verdict
        rep = verify_comparison_lemma(1e8, 1e-3, 0.0)
        assert not hasattr(rep, "passed")
        assert rep.max_comparison_violation <= 1e-14 * 1e9

    @pytest.mark.parametrize("y0", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0])
    def test_unforced_run_matches_closed_form_to_round_off(self, y0, kappa):
        # the linearised integration keeps y0/(1 - kappa y0 t) to 1e-12 up to t = 0.9/(kappa y0)
        rep = verify_comparison_lemma(y0, kappa, 0.0)
        assert rep.riccati_max_error <= 1e-12
        # and stops where y0/(1 - kappa y0 t) = 1e9, at t = (1 - y0/1e9)/(kappa y0)
        exact = (1.0 - y0 / 1e9) / (kappa * y0)
        assert type(rep.numeric_blowup_time) is float
        assert abs(rep.numeric_blowup_time - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("case", [(1e-3, 1.0, 0.0), (1.0, 1e-6, 0.0), (1e3, 1e3, 1.0)])
    def test_extreme_scales_pass(self, case):
        # the series runs in unit variables, so no scale of the inputs leaves the float range
        rep = verify_comparison_lemma(*case)
        assert rep.max_comparison_violation <= 1e-9
        assert rep.max_simplified_violation is None or rep.max_simplified_violation <= 1e-9
        if case[2] == 0.0:
            # the grid's 1e-12 pin on y0 ~ 1, taken relative to y0
            assert rep.riccati_max_error <= 1e-12 * case[0]

    @pytest.mark.parametrize("case", [(1e9, 1.0, 0.0), (2e9, 1.0, 0.0)])
    def test_y0_at_or_above_the_stop_level_is_refused(self, case):
        # y0 at or above the stop level 1e9 never sees the stop's sign change
        with pytest.raises(ValueError, match="need 0 < y0 < 1e\\+09"):
            verify_comparison_lemma(*case)

    @pytest.mark.parametrize(
        "case, field",
        # a string y0 raised TypeError, as the range test ran before any field check
        [((math.nan, 1.0, 0.0), "y0"), ((1.0, math.nan, 0.0), "kappa"), ((1.0, 1.0, math.nan), "M"),
         ((1.0, math.inf, 0.0), "kappa"), (("1", 1.0, 0.0), "y0"), ((1.0, True, 0.0), "kappa"), ((1.0, 1.0, None), "M")],
    )
    def test_out_of_range_input_is_refused(self, case, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite and "):
            verify_comparison_lemma(*case)

    @pytest.mark.parametrize(
        "case", [(1.0, 1.0, 0.2), (2.0, 1.0, 0.5), (1.0, 0.5, 0.1), (2.0, 0.25, 0.05), (1.0, 1.0, math.sqrt(1.0 / 30.0))]
    )
    def test_forced_solution_matches_high_precision_reference(self, case):
        # the three forced verify cases, (2, 0.25, 0.05), with the weakest forcing kappa M, and the
        # corner of verify's inputs, where the series' coefficients a = kappa y0 t_end = 30 and b = 1
        mpmath = pytest.importorskip("mpmath")
        y0, kappa, M = case
        y, t_num, blew_up = _equality_case(y0, kappa, M, 10.0 * simplified_horizon(y0, kappa))
        assert blew_up
        with mpmath.workdps(25):
            k, m = mpmath.mpf(kappa), mpmath.mpf(M)
            # the Riccati form itself in s = sqrt(t), where the forcing M / (2 sqrt(t)) enters as
            # 2 s f(s^2) = M, by Taylor series to 1e-18
            ref = mpmath.odefun(lambda s, r: 2 * s * k * r * r - m, 0, mpmath.mpf(y0), tol=mpmath.mpf("1e-18"))
            for frac in (0.1, 0.5, 0.9):
                t = frac * t_num
                exact = ref(mpmath.sqrt(t))
                assert float(abs((y(np.array([t]))[0] - exact) / exact)) <= 1e-12, frac


SINE10 = SineSpectrum.sine_wave(10.0, N=4)
SUPER = ModelParams(alpha=0.25, nu=0.04)


class TestCertifyF:
    def test_sine_pairing_value(self):
        cert = certify_blowup_F(SINE10, SUPER)
        assert cert.L0 == pytest.approx(20 * np.pi, rel=1e-14)

    def test_wrong_sign_data(self):
        cert = certify_blowup_F(SineSpectrum([-0.5]), SUPER)
        assert cert.L0 == pytest.approx(-2 * np.pi)
        assert not cert.hypotheses_hold
        assert cert.predicted_bound_T is None
        assert "sign" in cert.diagnostic

    def test_supercritical_example(self):
        cert = certify_blowup_F(SINE10, SUPER)
        assert cert.hypotheses_hold
        assert cert.predicted_bound_T == pytest.approx(np.pi**2 / 5, rel=1e-12)
        assert cert.margin == pytest.approx(
            (20 * np.pi) ** 3 / (16 * np.pi**3 * 2 * np.pi * scipy.special.zeta(1.5) * 100 * np.pi * 0.04),
            rel=1e-8,
        )
        assert cert.margin > 1
        assert cert.kappa == pytest.approx(KAPPA_F)
        assert cert.window == pytest.approx(cert.L0**2 / (4 * cert.forcing_M**2))

    def test_alpha_regime_guard(self):
        with pytest.raises(UnsupportedRegimeError):
            certify_blowup_F(SINE10, ModelParams(0.5, 0.04))

    def test_inviscid_limit(self):
        cert = certify_blowup_F(SINE10, ModelParams(0.25, 0.0))
        assert cert.hypotheses_hold
        assert cert.margin == math.inf
        assert cert.window == math.inf


class TestCertifyH:
    def test_specialization_to_F(self, rng):
        for _ in range(5):
            u0 = SineSpectrum(rng.uniform(-1, 1, 8))
            a = certify_blowup_F(u0, SUPER)
            b = certify_blowup_H(u0, PROFILES["F"], SUPER)
            assert a.hypotheses_hold == b.hypotheses_hold
            assert b.L0 == pytest.approx(a.L0, rel=1e-12, abs=1e-12)
            assert b.threshold == pytest.approx(a.threshold, rel=1e-12)
            if a.hypotheses_hold:
                assert b.predicted_bound_T == pytest.approx(a.predicted_bound_T, rel=1e-12)
                assert b.kappa == pytest.approx(a.kappa, rel=1e-12)
                assert b.window == pytest.approx(a.window, rel=1e-12)

    def test_sawtooth_pairing_sign(self):
        # <x, -R sin x> < 0: no certificate for the canonical sine data
        cert = certify_blowup_H(SINE10, PROFILES["sawtooth"], SUPER)
        assert cert.L0 == pytest.approx(-20 * np.pi, rel=1e-12)
        assert not cert.hypotheses_hold

    def test_sawtooth_with_aligned_data(self):
        # +R sin x pairs positively with the sawtooth
        u0 = SineSpectrum([-5.0])
        cert = certify_blowup_H(u0, PROFILES["sawtooth"], SUPER)
        assert cert.L0 == pytest.approx(20 * np.pi, rel=1e-12)
        assert cert.hypotheses_hold
        assert cert.predicted_bound_T == pytest.approx(
            6 * (2 * np.pi**3 / 3) / (1.0 * 20 * np.pi), rel=1e-12
        )

    def test_inviscid_condition_trivially_holds(self):
        cert = certify_blowup_H(SineSpectrum([-5.0]), PROFILES["sawtooth"], ModelParams(0.25, 0.0))
        assert cert.hypotheses_hold and cert.margin == math.inf

    def test_phi_certificate_consistent_scaling(self):
        # Phi = F / ||F||: same verdict as F, bound scales with 1/||F||
        u0 = SineSpectrum.sine_wave(10.0, N=2)
        a = certify_blowup_F(u0, SUPER)
        b = certify_blowup_H(u0, PROFILES["Phi"], SUPER)
        assert a.hypotheses_hold == b.hypotheses_hold


class TestCorollary:
    def test_threshold_value(self):
        cert = corollary_condition(10.0, SUPER)
        assert cert.threshold == pytest.approx(8 * np.pi**2 * scipy.special.zeta(1.5), abs=1e-6)
        assert cert.threshold == pytest.approx(206.2649, abs=1e-3)

    def test_certificate_example(self):
        cert = corollary_condition(10.0, SUPER)
        assert cert.hypotheses_hold
        assert cert.margin == pytest.approx(250.0 / cert.threshold, rel=1e-12)
        assert cert.predicted_bound_T == pytest.approx(2 * np.pi**2 / 10, rel=1e-14)

    def test_threshold_blows_up_toward_half(self):
        grid = [0.1, 0.2, 0.3, 0.4, 0.45, 0.49]
        thresholds = [corollary_condition(1.0, ModelParams(a, 1.0)).threshold for a in grid]
        assert all(b > a for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] > 20 * thresholds[0]
        # the divergence is the harmonic series: still growing at 0.499
        assert corollary_condition(1.0, ModelParams(0.499, 1.0)).threshold > 2 * thresholds[-1]

    def test_below_threshold(self):
        cert = corollary_condition(1.0, ModelParams(0.25, 0.1))  # ratio 10 << 206
        assert not cert.hypotheses_hold
        assert cert.predicted_bound_T is None

    @pytest.mark.parametrize("R", [-1.0, 0.0, math.nan, math.inf, True, "2", None])
    def test_amplitude_validation(self, R):
        # R = True once certified R = 1 with margin 0.1212, and a string raised TypeError
        with pytest.raises(ValueError, match="amplitude R"):
            corollary_condition(R, SUPER)

    def test_agrees_with_theorem_on_sine_data(self):
        # corollary verdict true implies theorem verdict true (stricter threshold)
        for R, nu in ((10.0, 0.04), (5.0, 0.03), (1.0, 0.002)):
            p = ModelParams(0.25, nu)
            cor = corollary_condition(R, p)
            thm = certify_blowup_F(SineSpectrum.sine_wave(R, 2), p)
            if cor.hypotheses_hold:
                assert thm.hypotheses_hold
                assert thm.predicted_bound_T == pytest.approx(cor.predicted_bound_T, rel=1e-12)
                for name in ("window", "forcing_M", "kappa"):
                    assert getattr(thm, name) == pytest.approx(getattr(cor, name), rel=1e-12)
            # the same lemma on the same data: the corollary's threshold is twice as strict
            assert thm.margin == pytest.approx(2.0 * cor.margin, rel=1e-12)


class TestCertificateSerialization:
    def test_schema(self, tmp_path):
        cert = certify_blowup_F(SINE10, SUPER)
        d = asdict(cert)
        assert set(d) == {
            "theorem",
            "hypotheses_hold",
            "L0",
            "threshold",
            "margin",
            "predicted_bound_T",
            "y0",
            "kappa",
            "forcing_M",
            "window",
            "diagnostic",
        }
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        import json

        back = json.loads(path.read_text())
        assert back["theorem"] == "supercritical_F"
        assert back["predicted_bound_T"] == pytest.approx(np.pi**2 / 5)

    def test_failed_certificate_serializes_null_bound(self, tmp_path):
        cert = certify_blowup_F(SineSpectrum([-0.5]), SUPER)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        import json

        assert json.loads(path.read_text())["predicted_bound_T"] is None

    @pytest.mark.parametrize(
        "make_cert",
        [
            lambda: certify_blowup_F(SINE10, SUPER),
            lambda: certify_blowup_F(SineSpectrum([-0.5]), SUPER),  # sign diagnostic, null bounds
            lambda: certify_blowup_F(SINE10, ModelParams(0.25, 0.0)),  # Infinity margin and window
            lambda: certify_blowup_H(SineSpectrum([-5.0]), PROFILES["sawtooth"], SUPER),
            lambda: certify_blowup_H(SINE10, PROFILES["Phi"], SUPER),
            lambda: corollary_condition(10.0, SUPER),
            lambda: corollary_condition(1.0, ModelParams(0.25, 0.1)),
        ],
    )
    def test_every_field_round_trips(self, make_cert, tmp_path):
        import dataclasses
        import json

        cert = make_cert()
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        back = json.loads(path.read_text())
        assert back == asdict(cert)
        assert back == {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
        assert type(back["hypotheses_hold"]) is bool

    def test_failed_certificate_says_why(self, tmp_path):
        import json

        path = tmp_path / "cert.json"
        save_certificate(certify_blowup_F(SineSpectrum([-0.5]), SUPER), path)
        assert json.loads(path.read_text())["diagnostic"] == "sign condition failed: <F, u0> <= 0"
        save_certificate(certify_blowup_H(SINE10, PROFILES["sawtooth"], SUPER), path)
        assert json.loads(path.read_text())["diagnostic"] == "sign condition failed: <H, u0> <= 0"


class TestDetection:
    def test_dissipative_run_has_no_detection(self):
        rec = evolve(SineSpectrum([0.5]).padded(64), ModelParams(0.75, 0.5), 0.5, 1e-3)
        assert detect_numerical_blowup(rec) is None

    def test_supercritical_run_detected_before_bound(self):
        rec = evolve(
            SineSpectrum.sine_wave(10.0, 256),
            SUPER,
            2.5,
            2e-4,
            DiagnosticsConfig(stride=10),
        )
        t_star = detect_numerical_blowup(rec)
        assert t_star is not None
        assert t_star <= 2 * np.pi**2 / 10
        # the march stops at the first record whose tail fraction passes its threshold
        assert rec.termination == "blowup_detected"
        assert t_star == rec.times[np.argmax(rec.tail_fraction > 1e-3)]

    def test_inviscid_detection_near_classical_time(self):
        rec = evolve(
            SineSpectrum.sine_wave(1.0, 1024),
            ModelParams(0.5, 0.0),
            1.3,
            1e-3,
            DiagnosticsConfig(stride=10),
        )
        t_star = detect_numerical_blowup(rec)
        assert t_star is not None
        assert abs(t_star - 1.0) <= 0.1

    @staticmethod
    def record(h1_norm, termination, tail_fraction=None):
        """A hand-built record with the given H^1 norms at t = 0, 0.1, 0.2, ..."""
        count = len(h1_norm)
        rest = dict.fromkeys(("energy", "diss_integral", "lyapunov", "dist_rF", "min_ux"), np.zeros(count))
        tail = np.zeros(count) if tail_fraction is None else np.asarray(tail_fraction, dtype=float)
        return SimulationRecord(
            params=SUPER, N=8, dt=0.1, r=1.0, times=0.1 * np.arange(count), h1_norm=np.asarray(h1_norm, dtype=float),
            tail_fraction=tail, termination=termination, **rest,
        )

    def test_tail_stop_trips_at_the_last_record(self):
        rec = self.record([1.0, 2.0, 3.0, 4.0], "blowup_detected")
        assert detect_numerical_blowup(rec) == rec.times[-1]

    def test_h1_growth_before_the_tail_stop(self):
        rec = self.record([1.0, 2.0, 1001.0, 1500.0, 1600.0], "blowup_detected")
        assert detect_numerical_blowup(rec) == rec.times[2]

    @pytest.mark.parametrize("termination", ["step_failure", "t_end_reached"])
    def test_other_terminations_trip_only_on_h1(self, termination):
        # a tail fraction in the record does not trip the proxy: only the march's stop does
        assert detect_numerical_blowup(self.record([1.0, 2.0, 3.0], termination, [0.0, 0.5, 0.9])) is None
        assert detect_numerical_blowup(self.record([1.0, 999.0, 1000.0], termination)) is None
        rec = self.record([1.0, 1e4, 2.0], termination)
        assert detect_numerical_blowup(rec) == rec.times[1]
        # growth is measured against a nonzero initial norm only
        assert detect_numerical_blowup(self.record([0.0, 5.0, 10.0], termination)) is None


class TestBoundChain:
    def test_trajectory_dominates_both_bounds_in_order(self):
        # L(t) >= comparison bound >= simplified curve on the resolved,
        # in-window part of a certified run
        from burgers_lab.blowup import comparison_lower_bound

        u0 = SineSpectrum.sine_wave(10.0, 256)
        cert = certify_blowup_F(u0, SUPER)
        rec = evolve(u0, SUPER, 2.5, 2e-4, DiagnosticsConfig(stride=10, store_spectra=True))
        window = min(cert.window, simplified_horizon(cert.y0, cert.kappa))
        mask = (rec.times < window) & (rec.tail_fraction <= 1e-8)
        assert mask.sum() >= 10
        slack = 1e-6 * cert.L0
        for t, L in zip(rec.times[mask], rec.lyapunov[mask]):
            comp = comparison_lower_bound(cert.y0, cert.kappa, cert.forcing_M, float(t))
            simp = simplified_lower_bound(cert.y0, cert.kappa, cert.forcing_M, float(t))
            assert L + slack >= comp >= simp - 1e-12

    def test_every_upper_bound_is_at_least_the_inviscid_blowup_time(self):
        # g(r0) and every certificate that holds bound the blowup time from above, so none is below T_max;
        # the smallest ratios over these fields are about 1.08 for g(r0) and 14.6 for a certificate
        rng = np.random.default_rng(1)
        params = [ModelParams(0.25, nu) for nu in (0.0, 0.01)]
        held = 0
        for _ in range(500):
            K = int(rng.integers(1, 9))
            spec = SineSpectrum(rng.standard_normal(K) / np.arange(1, K + 1))
            t_max = tmax_inviscid(InitialField(spec))
            assert optimal_r(spec).g_r0 >= t_max
            for H in PROFILES.values():
                for p in params:
                    cert = certify_blowup_H(spec, H, p)
                    if cert.hypotheses_hold:
                        held += 1
                        assert cert.predicted_bound_T >= t_max
        assert held > 1000


class TestLyapunovMonitor:
    def test_requires_spectra(self):
        rec = evolve(SineSpectrum.sine_wave(1.0, 32), ModelParams(0.5, 0.1), 0.02, 1e-3)
        with pytest.raises(ValueError):
            monitor_lyapunov_bound(rec)

    def test_half_supported_inviscid_identity_is_exact(self):
        # dL/dt = ||u||^2/2 exactly when all product modes are retained
        rec = evolve(
            SineSpectrum([0.3, -0.2, 0.1]).padded(64),
            ModelParams(0.25, 0.0),
            0.01,
            1e-3,
            DiagnosticsConfig(stride=1, store_spectra=True),
        )
        rep = monitor_lyapunov_bound(rec)
        assert rep.max_exact_residual_resolved <= 1e-12 * FOUR_PI
        assert rep.min_slack_resolved >= 0.0

    def test_viscous_bound_holds_with_slack(self):
        rec = evolve(
            SineSpectrum.sine_wave(1.0, 128),
            ModelParams(0.25, 0.1),
            0.2,
            1e-3,
            DiagnosticsConfig(stride=5, store_spectra=True),
        )
        rep = monitor_lyapunov_bound(rec)
        L0 = rec.lyapunov[0]
        assert rep.min_slack_resolved >= -1e-8 * L0**2

    def test_zero_field(self):
        rec = evolve(
            SineSpectrum(np.zeros(16)),
            ModelParams(0.25, 0.1),
            0.01,
            1e-3,
            DiagnosticsConfig(stride=1, store_spectra=True),
        )
        rep = monitor_lyapunov_bound(rec)
        assert rep.min_slack_resolved == pytest.approx(0.0, abs=1e-15)

    def test_regime_guard(self):
        rec = evolve(
            SineSpectrum.sine_wave(1.0, 16),
            ModelParams(0.75, 0.1),
            0.01,
            1e-3,
            DiagnosticsConfig(stride=1, store_spectra=True),
        )
        with pytest.raises(UnsupportedRegimeError):
            monitor_lyapunov_bound(rec)

    def test_f_profile_vector_both_sides(self):
        # half-supported F-profile data: the step evaluation is exact and the
        # inequality holds with small slack (u is nearly parallel to F, so
        # both the pairing and the energy bounds are close to saturation)
        profile = np.zeros(128)
        profile[:64] = 1.0 / np.arange(1, 65)
        rec = evolve(
            SineSpectrum(profile),
            ModelParams(0.25, 0.05),
            0.003,
            1e-3,
            DiagnosticsConfig(stride=1, store_spectra=True),
        )
        rep = monitor_lyapunov_bound(rec)
        assert rep.exact_residual[0] <= 1e-12
        assert 0.0 < rep.slack[0] < 1.0  # near saturation, genuinely small slack

    def test_full_support_truncation_deficit_is_filtered(self):
        # a dense positive spectrum leaks quadratic interactions past the
        # truncation; such states must be excluded by the resolved-tail filter
        rec = evolve(
            SineSpectrum(1.0 / np.arange(1, 65)),
            ModelParams(0.25, 0.05),
            0.003,
            1e-3,
            DiagnosticsConfig(stride=1, store_spectra=True),
        )
        rep = monitor_lyapunov_bound(rec)
        assert not rep.resolved.any()
        assert np.any(rep.slack < 0)

    def test_monitor_does_not_call_the_direct_kernel(self, monkeypatch):
        rec = evolve(
            SineSpectrum.sine_wave(1.0, 64),
            ModelParams(0.25, 0.1),
            0.01,
            1e-3,
            DiagnosticsConfig(stride=1, store_spectra=True),
        )

        def refuse(psi):
            raise AssertionError("the monitor evaluated the O(N^2) kernel")

        monkeypatch.setattr(blowup, "nonlinear_direct", refuse)
        monkeypatch.setattr(dynamics, "nonlinear_direct", refuse)
        rep = monitor_lyapunov_bound(rec)
        assert rep.slack.size == rec.times.size


class TestQuadraticLyapunovRate:
    """The prefix-sum closed form against 4 pi sum nonlinear_direct(psi)_n / n."""

    @pytest.mark.parametrize("N", [*range(1, 41), 64, 127, 128, 512, 1024, 4096])
    def test_matches_direct_kernel(self, N, rng):
        n = np.arange(1, N + 1)
        for psi in (rng.standard_normal(N), rng.choice([-1.0, 1.0], N) / n):
            delta = quadratic_lyapunov_rate(psi) - lyapunov_diagnostic(nonlinear_direct(psi))
            assert abs(delta) <= 1e-14 * FOUR_PI * np.sum(np.abs(psi)) ** 2

    def test_single_mode_is_exactly_zero(self, rng):
        # one mode has no quadratic interaction inside the truncation
        for value in (1.0, -3.5, rng.standard_normal()):
            assert quadratic_lyapunov_rate(np.array([value])) == 0.0

    @pytest.mark.parametrize("N", [1, 2, 17, 512])
    def test_zero_field(self, N):
        assert quadratic_lyapunov_rate(np.zeros(N)) == 0.0


class TestScalarEntryPoints:
    def test_numpy_scalars_run_in_double_precision(self):
        # with float32 inputs the threshold was 206.26487731933594, the lemma check failed with a violation
        # of 1.36e7 and the bound came back as np.float32(0.89040744)
        assert corollary_condition(2.0, ModelParams(np.float32(0.25), 0.04)) == corollary_condition(2.0, SUPER)
        report = verify_comparison_lemma(1.0, 1.0, np.float32(0.2))
        assert report.max_comparison_violation <= 1e-9 and report.max_simplified_violation <= 1e-9
        assert report == verify_comparison_lemma(1.0, 1.0, np.float32(0.2).item())
        bound = comparison_lower_bound(1.0, 1.0, np.float32(0.5), 0.1)
        assert type(bound) is float and bound == comparison_lower_bound(1.0, 1.0, 0.5, 0.1)


#: the edges of the scalar domains, numpy scalars and a string among them, and values inside every domain
_EDGES = [0, 5e-324, 1e-300, 1e308, math.inf, -math.inf, math.nan, -1, True, "1",
          np.float32(0.25), np.float32(2.0), np.float32(math.inf), np.float32(math.nan), np.int64(1), np.int64(-1),
          0.1, 0.2, 0.5, 1.0, 2.0]

#: each scalar entry point with its number of scalar arguments; those that also take a spectrum get a fixed one
_ENTRY_POINTS = {
    "comparison_lower_bound": (comparison_lower_bound, 4),
    "simplified_lower_bound": (simplified_lower_bound, 4),
    "simplified_window": (simplified_window, 3),
    "simplified_horizon": (simplified_horizon, 2),
    "verify_comparison_lemma": (verify_comparison_lemma, 3),
    "corollary_condition": (lambda R, alpha, nu: corollary_condition(R, ModelParams(alpha, nu)), 3),
    "c_alpha": (c_alpha, 1),
    "sobolev_norm": (lambda s: sobolev_norm(SineSpectrum([0.5, 0.2]), s), 1),
    "attractor_distance": (lambda r: attractor_distance(SineSpectrum([0.5, 0.2]), r), 1),
}


def _outcome(fn, args):
    """repr of fn's result, or the type of its ValueError or OverflowError; any other error or warning propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return repr(fn(*args))
        except (ValueError, OverflowError) as exc:
            return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_ENTRY_POINTS)), st.lists(st.sampled_from(_EDGES), min_size=4, max_size=4))
def test_scalar_entry_points_end_in_a_value_or_a_clean_error(name, edges):
    # strings raised TypeError, and numpy scalars numpy RuntimeWarnings, in five of these functions
    fn, arity = _ENTRY_POINTS[name]
    args = edges[:arity]
    outcome = _outcome(fn, args)
    python_args = [a.item() if isinstance(a, np.generic) else a for a in args]
    assert outcome == _outcome(fn, python_args)
