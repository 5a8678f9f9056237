"""Finite-time blowup certificates and the comparison-ODE machinery.

Pairing a solution of the fractal Burgers equation with the attractor
profile F gives L(t) = <F, u> with

    dL/dt >= -sqrt(2) C_alpha nu ||u||_{H^alpha} + (3/(4 pi^3)) L^2,

and the energy equality bounds the time integral of the forcing term by
M*sqrt(t) with M = C_alpha sqrt(nu) ||u0||.  The scalar comparison lemma
then yields the singular lower bound (3/y0 - kappa t)^{-1} and the
horizon 3/(kappa y0), provided y0^3 >= 12 M^2 / kappa; for y0 = L0 that
hypothesis is exactly L0^3 > 16 pi^3 C_alpha^2 ||u0||^2 nu, and the
certified bound is T < 4 pi^3 / L0.  One private core, ``_certificate``,
runs that chain for every certificate: ``certify_blowup_F``,
``certify_blowup_H`` (any profile H = c F(x - s), with slope floor m = c and
kappa = m / (2 ||H||^2)) and ``corollary_condition`` only choose its inputs.

Numerical blowup detection is a resolution-loss proxy (the march's
spectral-tail stop, gradient-norm growth), not a proof.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import attractors
# power_sum, nonlinear_direct and UnsupportedRegimeError are unused here: tests/test_imports.py lists why
from .attractors import AttractorFn, UnsupportedRegimeError, c_alpha, lyapunov, power_sum, series_s
from .dynamics import F_L2_NORM_SQ, TERMINATION_BLOWUP, ModelParams, SimulationRecord, _checked, nonlinear_direct
from .spectral import FOUR_PI, SineSpectrum, sobolev_norm

#: Riccati coefficient attached to the profile F: 1 / (2 ||F||^2) = 3 / (4 pi^3)
KAPPA_F = 1.0 / (2.0 * F_L2_NORM_SQ)

#: growth of the H^1 norm over its initial value at which resolution counts as lost
H1_GROWTH_FACTOR = 1e3

#: tail fraction up to which ``monitor_lyapunov_bound`` counts a stored state as resolved
RESOLVED_TAIL = 1e-8

#: sampled times per bound in ``verify_comparison_lemma``
_LEMMA_SAMPLES = 100
#: level of y at which the equality-case run stops
_LEMMA_STOP = 1e9


class OutsideValidityError(ValueError):
    """Time lies outside the lower bound's validity window."""


class HypothesisError(ValueError):
    """The lemma hypothesis y0^3 >= 12 M^2 / kappa fails."""


# ---------------------------------------------------------------------------
# scalar comparison bounds

def _check_lemma_inputs(y0: float, kappa: float, M: float = 0.0) -> tuple[float, float, float]:
    """(y0, kappa, M) as ``_checked`` returns them; ValueError naming the field unless y0 > 0, kappa > 0 and M >= 0
    are finite reals, not bools (NaN fails too)."""
    return (
        _checked("y0", y0, "finite and > 0", lambda v: 0 < v < math.inf),
        _checked("kappa", kappa, "finite and > 0", lambda v: 0 < v < math.inf),
        _checked("M", M, "finite and >= 0", lambda v: 0 <= v < math.inf),
    )


def _product(a: float, b: float, c: float) -> float:
    """a b c for a, b, c >= 0, the smallest times the largest first: it leaves the float range only where a b c does."""
    lo, mid, hi = sorted((a, b, c))
    return lo * hi * mid


def comparison_lower_bound(y0: float, kappa: float, M: float, t: float) -> float:
    """Lower bound (1/y0 - kappa t + M sqrt(t)/(y0 - M sqrt(t))^2)^{-1}.

    With r = M sqrt(t) / y0 that is ((1 + r/(1 - r)^2)/y0 - kappa t)^{-1},
    valid while r < 1 (t < y0^2/M^2), and formed as y0 over
    1 + r/(1 - r)^2 - kappa t y0, whose first part never leaves the float
    range; returns +inf once that crosses zero (the bound has blown up).
    """
    y0, kappa, M = _check_lemma_inputs(y0, kappa, M)
    t = _checked("t", t, "a real number")
    if not t >= 0:
        raise OutsideValidityError(f"t must be nonnegative, got {t}")
    r = M * math.sqrt(t) / y0
    if not r < 1.0:
        raise OutsideValidityError(f"t={t} >= y0^2/M^2: M sqrt(t)/y0 = {r:.6g}")
    denominator = 1.0 + r / ((1.0 - r) * (1.0 - r)) - _product(kappa, y0, t)
    return y0 / denominator if denominator > 0.0 else math.inf


def simplified_horizon(y0: float, kappa: float) -> float:
    """Blowup horizon 3/(kappa y0) implied by the simplified bound; OverflowError beyond the float range."""
    y0, kappa, _ = _check_lemma_inputs(y0, kappa)
    rate = kappa * y0
    horizon = 3.0 / rate if rate > 0.0 else math.inf  # the rate underflows to 0 for tiny y0
    if horizon == math.inf:
        raise OverflowError(f"the horizon 3/(kappa y0) exceeds the float range at kappa={kappa:.17g}, y0={y0:.17g}")
    return horizon


def simplified_window(y0: float, kappa: float, M: float) -> float:
    """Validity window y0^2 / (4 M^2) of the simplified bound (T_max unknown a priori).

    Formed as (y0 / 2M)^2, which leaves the float range only where the window does.
    """
    y0, kappa, M = _check_lemma_inputs(y0, kappa, M)
    if M == 0:
        return math.inf
    half_ratio = y0 / (2.0 * M)
    return half_ratio * half_ratio


def _normal(x: float) -> bool:
    """Whether x is a finite float of full precision: neither zero, subnormal, infinite nor NaN."""
    return sys.float_info.min <= abs(x) < math.inf


def _margin(L0: float, kappa: float, M: float) -> float:
    """The lemma hypothesis as a ratio: L0^3 over 12 M^2 / kappa, as (L0 / M)^2 kappa L0 / 12.

    Where a factor of that form leaves the normal range (L0^3 and M^2 would
    far sooner), the margin is formed from the mantissas and exponents of
    L0, kappa and M instead, as ``spectral._unit_scaled`` scales spectra;
    it then leaves the float range only where the margin does.
    """
    if M == 0.0:
        return math.copysign(math.inf, L0) if L0 else 0.0
    ratio = L0 / M
    square, rest = ratio * ratio, kappa * L0 / 12.0
    margin = square * rest
    if all(map(_normal, (ratio, square, rest, margin))):
        return margin
    (a, p), (b, q), (c, r) = map(math.frexp, (L0, kappa, M))
    try:
        return math.ldexp(a * a * a * b / (12.0 * c * c), 3 * p + q - 2 * r)
    except OverflowError:
        return math.copysign(math.inf, L0)


def simplified_lower_bound(y0: float, kappa: float, M: float, t: float) -> float:
    """Simplified lower bound (3/y0 - kappa t)^{-1}, formed as y0 / (3 - kappa y0 t).

    Requires y0^3 >= 12 M^2/kappa (``_margin`` >= 1) and 0 <= t below both
    the window y0^2/(4 M^2) and the horizon 3/(kappa y0); t = 0 lies below
    both even where they underflow, and gives y0/3.
    """
    y0, kappa, M = _check_lemma_inputs(y0, kappa, M)
    t = _checked("t", t, "a real number")
    margin = _margin(y0, kappa, M)
    if not margin >= 1.0:
        raise HypothesisError(f"y0^3 kappa / (12 M^2) = {margin:.6g} < 1")
    if t != 0.0 and not 0.0 < t < min(simplified_window(y0, kappa, M), simplified_horizon(y0, kappa)):
        raise OutsideValidityError(f"t={t} outside the simplified bound's window")
    return y0 / (3.0 - _product(kappa, y0, t))


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of integrating y' = -f + kappa y^2 against both bounds."""

    hypothesis_ok: bool
    numeric_blowup_time: float | None
    max_comparison_violation: float
    max_simplified_violation: float | None
    riccati_max_error: float | None


def _equality_case(
    y0: float, kappa: float, M: float, t_end: float
) -> tuple[Callable[[np.ndarray], np.ndarray], float, bool]:
    """Integrate y' = kappa y^2 - M / (2 sqrt(t)), y(0) = y0, on [0, t_end] until y = _LEMMA_STOP.

    Returns y on the times reached, the last time reached (a float), and
    whether y hit the stop level there.  In sigma = sqrt(t / t_end) and
    U = V / (kappa y0), ``verify_comparison_lemma``'s linear system reads
    dW/dsigma = 2 a sigma U, dU/dsigma = b W, W(0) = 1, U(0) = -1, with
    a = kappa y0 t_end, b = M sqrt(t_end) / y0 and y = -y0 U / W.  W and U
    are entire (built from the Bessel functions I_{+-2/3} of t^{3/4},
    Abramowitz & Stegun 9.6.10): their Taylor coefficients in sigma, from
    w_0 = 1, u_0 = -1, (k + 1) w_{k+1} = 2 a u_{k-1} and
    (k + 1) u_{k+1} = b w_k, are summed by Horner's rule.  verify's t_end,
    the lesser of y0^2/M^2 and ten horizons 3/(kappa y0), gives a <= 30 and
    b <= 1 at any scale of the inputs.  Past k = 2a each coefficient is
    below one of the three before it, and the series stops where those three
    fall below 1e-18 of the largest: at (a, b) = (30, 1) after 62 terms,
    whose magnitudes sum to 584 (W) and 78 (U), a bound on the round-off.

    z = -y0 U - _LEMMA_STOP W, which is W (y - _LEMMA_STOP) while W > 0, is
    negative until y first reaches the stop level, from where y rises to its
    pole; W falls through zero there with U < 0, and then W and U both fall,
    so z changes sign at most once on [0, 1].  If z(1) >= 0 that change is
    bisected to one ulp of sigma; otherwise the run ends at t_end.
    """
    a, b = t_end * (kappa * y0), M * math.sqrt(t_end) / y0
    w, u, peak = [1.0], [-1.0], 1.0
    while len(w) <= 2.0 * a + 1.0 or max(map(abs, w[-3:] + u[-3:])) > 1e-18 * peak:
        k = len(w) - 1
        w.append(2.0 * a * u[k - 1] / (k + 1) if k else 0.0)
        u.append(b * w[k] / (k + 1))
        peak = max(peak, abs(w[-1]), abs(u[-1]))
    z = [-y0 * uk - _LEMMA_STOP * wk for wk, uk in zip(w, u)][::-1]

    def z_at(s: float) -> float:
        acc = 0.0
        for c in z:
            acc = acc * s + c
        return acc

    lo, hi = 0.0, 1.0
    blew_up = z_at(hi) >= 0.0
    while blew_up and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if z_at(mid) >= 0.0 else (mid, hi)
    coeffs = np.array([w, u]).T

    def y(t: np.ndarray) -> np.ndarray:
        W, U = np.polynomial.polynomial.polyval(np.sqrt(t / t_end), coeffs)
        return -y0 * U / W

    return y, hi * hi * t_end, blew_up


def verify_comparison_lemma(y0: float, kappa: float, M: float) -> ComparisonReport:
    """Integrate the equality case of the differential inequality, with the
    forcing f(t) = M / (2 sqrt(t)) that saturates the integral condition
    int_0^t f <= M sqrt(t), and report each lower bound's largest excess over
    that solution y on its window (<= 0 where the bound holds); the
    ``comparison-lemma`` suite in ``verify`` pins it.

    The equality case y' = kappa y^2 - f(t) is integrated through its
    linearisation: with y = -w'/(kappa w) it becomes w'' = kappa f w, which
    in s = sqrt(t) is

        dW/ds = 2 s V,   dV/ds = 2 s kappa f(s^2) W = kappa M W,   W(0) = 1, V(0) = -kappa y0,

    and y = -V/(kappa W): the forcing's singularity at t = 0 leaves only
    the constant 2 s f(s^2) = M.  W = exp(-kappa int y) stays positive until
    y blows up and then crosses zero linearly, so the integration never
    walks into the pole of y.  ``_equality_case`` sums this system's power
    series up to the first of the window y0^2/M^2 and ten horizons
    3/(kappa y0), and stops at y = _LEMMA_STOP (y0 at or above it is
    refused).  For M = 0 the run is also compared against the closed-form
    Riccati solution y0/(1 - kappa y0 t).
    """
    y0, kappa, M = _check_lemma_inputs(y0, kappa, M)
    if not y0 < _LEMMA_STOP:
        raise ValueError(f"need 0 < y0 < {_LEMMA_STOP:g} (the stop level), got y0={y0!r}")
    hypothesis_ok = _margin(y0, kappa, M) >= 1.0
    ratio = math.inf if M == 0 else y0 / M
    window_prop = ratio * ratio
    horizon = simplified_horizon(y0, kappa)
    t_end = min(window_prop, 10.0 * horizon, sys.float_info.max)  # ten horizons can pass the float range where one does not
    if t_end < sys.float_info.min:  # a subnormal span has too few digits to sample
        raise ValueError(f"the window y0^2/M^2 or the horizon 3/(kappa y0) underflows at y0={y0:g}, kappa={kappa:g}, M={M:g}")
    y, t_num, blew_up = _equality_case(y0, kappa, M, t_end)

    # with f = 0 the first bound has zero slack (it IS the solution), so the
    # samples stay away from the pole where phase error would dominate
    cap = 0.9 / (kappa * y0) if M == 0 else math.inf

    def sample(*windows: float) -> tuple[np.ndarray, np.ndarray]:
        """_LEMMA_SAMPLES times below t_num, cap and every window, with y there."""
        t_hi = min(t_num * (1.0 - 1e-9), cap, *(w * (1.0 - 1e-12) for w in windows))
        ts = np.linspace(t_hi / _LEMMA_SAMPLES, t_hi, _LEMMA_SAMPLES)
        return ts, y(ts)

    def max_violation(bound: Callable[..., float], ts: np.ndarray, ys: np.ndarray) -> float:
        values = np.array([bound(y0, kappa, M, float(t)) for t in ts])
        finite = np.isfinite(values)
        return float(np.max(values[finite] - ys[finite])) if finite.any() else -math.inf

    ts, ys = sample(window_prop)
    max_comp = max_violation(comparison_lower_bound, ts, ys)
    max_simp = None
    if hypothesis_ok:
        max_simp = max_violation(simplified_lower_bound, *sample(simplified_window(y0, kappa, M), horizon))

    riccati_err = None
    if M == 0:
        closed = y0 / (1.0 - kappa * y0 * ts)
        riccati_err = float(np.max(np.abs(ys - closed)))

    return ComparisonReport(
        hypothesis_ok=hypothesis_ok,
        numeric_blowup_time=t_num if blew_up else None,
        max_comparison_violation=max_comp,
        max_simplified_violation=max_simp,
        riccati_max_error=riccati_err,
    )


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class BlowupCertificate:
    """Hypothesis check plus the predicted bound on the blowup time.

    ``margin`` is the ratio of the cubed pairing to its threshold (the
    Reynolds-style ratio for the single-sine corollary); hypotheses hold
    exactly when margin > 1.  ``window`` is reported conservatively as
    y0^2/(4 M^2) since the true T_max is unknown a priori.
    """

    theorem: str  # "supercritical_F" | "sine_corollary" | "general_H"
    hypotheses_hold: bool
    L0: float
    threshold: float
    margin: float
    predicted_bound_T: float | None
    y0: float | None = None
    kappa: float | None = None
    forcing_M: float | None = None
    window: float | None = None
    diagnostic: str = ""


def _certificate(
    theorem: str, L0: float, kappa: float, M: float, threshold: float, margin: float, diagnostic: str = ""
) -> BlowupCertificate:
    """The one certificate body: the comparison lemma started at y0 = L0.

    Hypotheses hold when L0 > 0 and margin > 1; the certified bound is then
    the horizon 3/(kappa L0), valid on the window L0^2/(4 M^2).
    """
    hold = bool(L0 > 0.0 and margin > 1.0)  # numpy inputs would give a numpy bool, which JSON rejects
    return BlowupCertificate(
        theorem=theorem,
        hypotheses_hold=hold,
        L0=float(L0),
        threshold=float(threshold),
        margin=float(margin),
        predicted_bound_T=simplified_horizon(L0, kappa) if hold else None,
        y0=float(L0) if hold else None,
        kappa=float(kappa) if hold else None,
        forcing_M=float(M) if hold else None,
        window=simplified_window(L0, kappa, M) if hold else None,
        diagnostic=diagnostic,
    )


def _forcing_M(hs_norm_sq: float, u0: SineSpectrum, nu: float) -> float:
    """M = ||H||_{H^alpha} ||u0|| sqrt(nu / 2) from ||H||_{H^alpha}^2, sqrt(nu) taken first: a subnormal nu / 2 rounds to 0."""
    return math.sqrt(hs_norm_sq) * sobolev_norm(u0, 0.0) * (math.sqrt(nu) / math.sqrt(2.0))


def _profile_certificate(
    theorem: str, name: str, u0: SineSpectrum, H: AttractorFn, params: ModelParams
) -> BlowupCertificate:
    """Lemma inputs for a profile H with slope floor m = H.slope_floor and pairing L0 = <H, u0>.

    kappa = m / (2 ||H||^2) and M is ``_forcing_M``; the margin is L0^3
    over the lemma threshold 12 M^2 / kappa.
    """
    M = _forcing_M(H.hs_norm_sq(params.alpha), u0, params.nu)
    L0 = lyapunov(u0, H)
    kappa = H.slope_floor / (2.0 * H.l2_norm_sq)
    diagnostic = "" if L0 > 0 else f"sign condition failed: <{name}, u0> <= 0"
    return _certificate(theorem, L0, kappa, M, 12.0 * (M * M) / kappa, _margin(L0, kappa, M), diagnostic)


def certify_blowup_F(u0: SineSpectrum, params: ModelParams) -> BlowupCertificate:
    """Certificate for odd data paired with F at dissipation alpha < 1/2.

    F's slope floor is exactly 1 and ||F||_{H^alpha}^2 = 2 C_alpha^2, so kappa = 3/(4 pi^3),
    M = C_alpha sqrt(nu) ||u0||, the hypothesis reads L0^3 > 16 pi^3 C_alpha^2 ||u0||^2 nu
    and the bound is T < 4 pi^3 / L0.
    """
    return _profile_certificate("supercritical_F", "F", u0, attractors._F, params)


def certify_blowup_H(u0: SineSpectrum, H: AttractorFn, params: ModelParams) -> BlowupCertificate:
    """General-profile certificate; with H = F it reproduces certify_blowup_F.

    The slope floor m = H.slope_floor is exact (H' is constant off the jump);
    the hypothesis reads L0^3 > (12/m) ||H||_{H^alpha}^2 ||H||^2 ||u0||^2 nu
    and the bound is T < 6 ||H||^2 / (m L0).
    """
    return _profile_certificate("general_H", "H", u0, H, params)


def corollary_condition(R: float, params: ModelParams) -> BlowupCertificate:
    """Single-sine corollary: u0 = -R sin x blows up when R/nu > 8 pi^2 S(alpha).

    S(alpha) = sum n^{-2(1-alpha)} = C_alpha^2 / (2 pi).  The lemma runs with L0 = 2 pi R,
    ||u0||^2 = pi R^2 and F's kappa; the certified bound is T < 2 pi^2 / R.  The margin is
    R/nu over the threshold, which is twice as strict as F's hypothesis on the same data.
    L0, kappa and M are F's certificate's on u0, to the bit.
    """
    S = series_s(params.alpha)
    R = _checked("amplitude R", R, "positive and finite", lambda v: 0 < v < math.inf)
    threshold = 8.0 * np.pi**2 * S
    ratio = math.inf if params.nu == 0.0 else R / params.nu
    M = _forcing_M(FOUR_PI * S, SineSpectrum.sine_wave(R), params.nu)  # ||F||_{H^alpha}^2 = 4 pi S
    return _certificate("sine_corollary", 2.0 * np.pi * R, KAPPA_F, M, threshold, ratio / threshold)


def save_certificate(cert: BlowupCertificate, path: str | Path) -> None:
    # non-finite margins (inviscid limit) serialize as JSON Infinity
    Path(path).write_text(json.dumps(asdict(cert), indent=2) + "\n")


# ---------------------------------------------------------------------------
# numerical detection and trajectory monitoring

def detect_numerical_blowup(record: SimulationRecord) -> float | None:
    """Earliest recorded time at which resolution is considered lost; a proxy, not a proof.

    That is the last record of a march stopped by its tail-fraction threshold
    (termination 'blowup_detected'), or the first record whose H^1 norm
    exceeds H1_GROWTH_FACTOR times its initial value, whichever comes first.
    """
    flagged = (record.h1_norm > H1_GROWTH_FACTOR * record.h1_norm[0]) & (record.h1_norm[0] > 0.0)
    flagged[-1] |= record.termination == TERMINATION_BLOWUP
    hits = np.nonzero(flagged)[0]
    if hits.size == 0:
        return None
    return float(record.times[hits[0]])


@dataclass(frozen=True)
class LyapunovBoundReport:
    """Per-step audit of the differential inequality along a stored run."""

    times: np.ndarray
    slack: np.ndarray  # dL/dt - bound, per stored step
    exact_residual: np.ndarray  # |dL/dt - (-nu <.,.> + ||u||^2/2)|
    resolved: np.ndarray  # steps with tail fraction below the cutoff
    min_slack_resolved: float
    max_exact_residual_resolved: float


def quadratic_lyapunov_rate(psi: np.ndarray) -> float:
    """4 pi sum_n Nonlinear(psi)_n / n, the quadratic part of dL/dt, in O(N).

    Paired with 1/n, both truncated convolution sums of the Galerkin term
    telescope.  With prefix sums P_m = psi_1 + ... + psi_m,

        4 pi sum_n Nonlinear_n / n
            = 4 pi [ 1/2 sum_{j=1}^{N-1} psi_j P_{N-j} - 1/2 (P_N^2 - sum_n psi_n^2) ],

    the first term being sum_{j+k<=N} psi_j psi_k and the second the sum
    over pairs j < k.  It is an exact rearrangement of the sums that
    ``nonlinear_direct`` evaluates, not an approximation.
    """
    prefix = np.cumsum(psi)
    head = psi.size - 1
    return 2.0 * np.pi * float(psi[:head] @ prefix[:head][::-1] - prefix[-1] ** 2 + psi @ psi)


def monitor_lyapunov_bound(record: SimulationRecord) -> LyapunovBoundReport:
    """Check dL/dt >= -sqrt(2) C_alpha nu ||u||_{H^alpha} + kappa L^2 stepwise.

    dL/dt is evaluated exactly from the Galerkin right-hand side as
    4*pi * sum rhs_n / n: its dissipative part is -nu times the fractional
    pairing 4*pi * sum n^{2 alpha} psi_n / n, and its quadratic part is
    ``quadratic_lyapunov_rate``, in O(N) per stored state.  L and ||u||^2
    are the record's own ``lyapunov`` and ``energy`` columns.  The identity
    dL/dt = -nu * (fractional pairing) + ||u||^2/2 holds exactly only while
    the quadratic interactions fit inside the truncation: ``exact_residual``
    is the truncation cross term 2 pi |sum_{j+k>N, j,k<=N} psi_j psi_k|.
    Both the inequality slack and that residual are reported per step, for
    the record's own alpha and nu, with summary values restricted to steps
    whose tail fraction is at most ``RESOLVED_TAIL``.  At nu > 0 the constant
    C_alpha needs alpha < 1/2 (UnsupportedRegimeError otherwise).
    """
    if record.spectra is None:
        raise ValueError("record was produced without store_spectra=True")
    params = record.params
    C = c_alpha(params.alpha) if params.nu > 0.0 else 0.0

    # every stored state has the record's N; rows are taken one at a time,
    # since stacking the whole run costs more memory than the loop costs time
    n = np.arange(1, record.N + 1, dtype=float)
    hs_weight = FOUR_PI * n ** (2.0 * params.alpha)
    pairing_weight = hs_weight / n
    count = len(record.spectra)
    pairing, hs_sq, dLdt = np.empty(count), np.empty(count), np.empty(count)
    for i, psi in enumerate(record.spectra):
        pairing[i] = pairing_weight @ psi
        hs_sq[i] = hs_weight @ (psi * psi)
        dLdt[i] = quadratic_lyapunov_rate(psi) - params.nu * pairing[i]
    L, energy = record.lyapunov[:count], record.energy[:count]
    slack = dLdt - (-math.sqrt(2.0) * C * params.nu * np.sqrt(hs_sq) + KAPPA_F * L * L)
    exact_residual = np.abs(dLdt - (-params.nu * pairing + 0.5 * energy))

    resolved = record.tail_fraction[:count] <= RESOLVED_TAIL
    min_slack = float(np.min(slack[resolved])) if resolved.any() else math.inf
    max_exact = float(np.max(exact_residual[resolved])) if resolved.any() else 0.0
    return LyapunovBoundReport(
        times=record.times[:count].copy(),
        slack=slack,
        exact_residual=exact_residual,
        resolved=resolved,
        min_slack_resolved=min_slack,
        max_exact_residual_resolved=max_exact,
    )
