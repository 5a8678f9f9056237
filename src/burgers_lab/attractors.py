"""The attractor family and its functionals.

The profile F is the 2*pi-periodic, odd sawtooth with a downward jump at
the origin (x - pi on (0, pi], zero at 0, x + pi on [-pi, 0)); its sine
coefficients are 1/n, so that for an odd field u with coefficients psi_n

    L(u) = <F, u> = 4*pi * sum psi_n / n.

For any C^1 odd field, <F, u u_x> = -||u||^2 / 2 exactly: that single
identity drives both the linear-in-time decay of ||u - r F||^2 along
inviscid solutions and the Riccati lower bounds behind the blowup
certificates.  The same holds, as an inequality with constant m, for any
bounded odd H with H' >= m > 0 on (0, pi).  Every profile built here is
c F(x - s) with s = 0 or pi, whose slope is c off the jump, so there it is
the equality <H, u u_x> = -c ||u||^2 / 2.

Each functional has one implementation, shared with the march: the
energy is ``spectral._weighted_energy``, the pairing <F(x - s), u> is
``dynamics.lyapunov_diagnostic`` and the distance ||u - c F(x - s)||^2 is
``dynamics.profile_distance``, never a truncation of F's slowly
converging series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .characteristics import InitialField, sample_solution
from .dynamics import F_L2_NORM_SQ, _checked, _jump, lyapunov_diagnostic, nonlinear_direct, optimal_scale, profile_distance
from .spectral import FOUR_PI, SineSpectrum, UnderResolvedError, _unit_scaled, _weighted_energy, analyze, check_grid_size, evaluate_field, evaluate_slope


class DivergentSeriesError(ValueError):
    """The requested fractional norm diverges (needs exponent < 1/2)."""


class UnsupportedRegimeError(DivergentSeriesError):
    """S(alpha) diverges at alpha >= 1/2, so no certificate applies: they need supercritical dissipation."""


#: bound on the summation error of every series constant (``power_sum``) the lab uses
SERIES_TOL = 1e-9


@dataclass(frozen=True)
class AttractorFn:
    """The profile c F(x - s): F scaled by c = ``scale`` (> 0 for an attractor) and moved by s.

    ``jump_location`` is "origin" (s = 0) or "pi" (s = pi, where the profile
    is the identity x on (-pi, pi) times c).  H' = c on (0, pi) away from the
    jump, phi_n = c (+-1)^n / n and ||H|| = c ||F||, so the slope floor, the
    pairings and every fractional norm are exact.
    """

    scale: float
    jump_location: str  # "origin" | "pi"

    def __post_init__(self):
        object.__setattr__(self, "scale", _checked("scale", self.scale, "a real number"))
        _jump(self.jump_location)
        if not math.isfinite(self.l2_norm_sq):
            raise ValueError(f"scale {self.scale} is too large: ||H||^2 = c^2 ||F||^2 leaves the float range")

    @property
    def slope_floor(self) -> float:
        """The infimum m of H' on (0, pi): exactly c, since H' is constant off the jump."""
        return self.scale

    @property
    def l2_norm_sq(self) -> float:
        """||H||^2 = c^2 ||F||^2."""
        return float(self.scale) * float(self.scale) * F_L2_NORM_SQ

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Pointwise values; at the jump, the midpoint 0."""
        xr = (np.asarray(x, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi
        if self.jump_location == "pi":
            return self.scale * np.where(xr == -np.pi, 0.0, xr)
        return self.scale * np.where(xr > 0, xr - np.pi, np.where(xr < 0, xr + np.pi, 0.0))

    def hs_norm_sq(self, alpha: float) -> float:
        """Squared homogeneous fractional norm c^2 4 pi S(alpha), finite only for alpha < 1/2."""
        return self.scale**2 * FOUR_PI * series_s(alpha)


#: every profile the lab builds, by name
PROFILES = {
    "F": AttractorFn(1.0, "origin"),
    "Phi": AttractorFn(1.0 / math.sqrt(F_L2_NORM_SQ), "origin"),
    "sawtooth": AttractorFn(1.0, "pi"),
}


_F = PROFILES["F"]


# ---------------------------------------------------------------------------
# quadrature split at F's jump

def _panel_rule(N: int) -> tuple[np.ndarray, float]:
    """Midpoints m_p of N // 8 + 1 equal panels on each of [-pi, 0] and [0, pi], and their half-width h.

    A panel is shorter than 8 pi / N, so it spans fewer than 8 periods of mode 2N, the top mode of u u_x
    for N modes of u.  The 32-point rule's nodes are m_p + h t_j, and the jump at the origin is never one.
    """
    n_panels = N // 8 + 1
    h = np.pi / (2 * n_panels)
    return np.concatenate([a + h * np.arange(1.0, 2 * n_panels, 2) for a in (-np.pi, 0.0)]), h


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 32-point Gauss-Legendre rule on [-1, 1], computed once per process.

    Both arrays are read-only: the cache shares them with every caller.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# functionals

def lyapunov(spec: SineSpectrum, attractor: AttractorFn) -> float:
    """<H, u> for H = c F(x - s): c times the march's pairing with F(x - s)."""
    return attractor.scale * lyapunov_diagnostic(spec.psi, attractor.jump_location)


def key_identity_residuals(spec: SineSpectrum) -> tuple[float, float]:
    """Both evaluations of <F, u u_x> + ||u||^2/2 (coefficient, quadrature).

    The coefficient path embeds u in 2N modes so the quadratic product is
    complete, takes u u_x = -(Galerkin nonlinearity), and pairs with 1/n.
    The quadrature path integrates F*u*u_x with the 32-point rule on the
    64 (N // 8 + 1) nodes of ``_panel_rule``, split at the origin, taking
    u and u_x at every node from the lab's point evaluator
    (``evaluate_field``, ``evaluate_slope``).
    """
    energy = float(_weighted_energy(spec.psi))
    padded = spec.padded(2 * spec.N)
    res_coeff = float(lyapunov_diagnostic(-nonlinear_direct(padded.psi)) + 0.5 * energy)
    nodes, weights = _gauss_legendre()
    mids, h = _panel_rule(spec.N)
    x = mids[:, None] + h * nodes
    f_w = _F.evaluate(x) * (h * weights)
    return res_coeff, float(np.sum(f_w * evaluate_field(spec, x) * evaluate_slope(spec, x)) + 0.5 * energy)


def attractor_distance(spec: SineSpectrum, r: float, jump_location: str = "origin") -> float:
    """||u - r F(x - s)||^2 by ``profile_distance``, E on ``_unit_scaled`` psi as the march records it; OverflowError beyond the float range."""
    r = _checked("r", r, "a real number with r^2 ||F||^2 finite", lambda v: v * v * F_L2_NORM_SQ < math.inf)
    scaled, k = _unit_scaled(spec.psi)
    with np.errstate(over="ignore"):
        dist = float(profile_distance(_weighted_energy(scaled), lyapunov_diagnostic(spec.psi, jump_location), r, k))
    if dist == math.inf:
        raise OverflowError(f"||u - r F||^2 leaves the float range at r={r}")
    return dist


@dataclass(frozen=True)
class OptimalScaling:
    r0: float
    g_r0: float  # ||u0 - r0 F||^2 / (r0 ||u0||^2), the blowup-time bound


def optimal_r(u0: SineSpectrum) -> OptimalScaling:
    """Fastest-approached multiple r0 = ||u0|| / ||F|| (``dynamics.optimal_scale``) and g(r0).

    With E = ||u0||^2 and L = <F, u0>, g(r) = ||u0 - r F||^2 / (r E) =
    1/r - 2L/E + r ||F||^2 / E, whose minimum on r > 0 lies at r0 = sqrt(E) / ||F||
    whatever L is.  g is homogeneous of degree -1 in u0, so it is taken on the
    ``_unit_scaled`` u0 / 2^k, where nothing under- or overflows, and scaled back.
    """
    scaled, k = _unit_scaled(u0.psi)
    r = float(optimal_scale(scaled))
    if r == 0.0:
        raise ValueError("optimal scaling undefined for zero initial data")
    energy = float(_weighted_energy(scaled))
    g = float(profile_distance(energy, lyapunov_diagnostic(scaled), r)) / (r * energy)
    return OptimalScaling(r0=math.ldexp(r, int(k)), g_r0=math.ldexp(g, -int(k)))


# ---------------------------------------------------------------------------
# decay tables along the exact inviscid flow

@dataclass(frozen=True)
class DecayTable:
    """Measured squared distances with the predicted straight line."""

    times: np.ndarray
    distance: np.ndarray
    predicted: np.ndarray


def attractor_decay_series(u0: InitialField, times: Sequence[float], attractor: AttractorFn, M: int = 4096) -> DecayTable:
    """||u(t) - H||^2 along the characteristics oracle for the profile H; H = r F is AttractorFn(r, "origin").

    Each distance is ``attractor_distance`` of the sample analyzed on the
    M-point grid, so the only error is the (spectrally small) analysis error
    of a smooth pre-blowup field.  Since H' = m off the jump,
    <H, u u_x> = -m ||u||^2 / 2 and the predicted line D(0) - m ||u0||^2 t
    is the exact law.  A grid whose M/2 - 1 analyzed modes are fewer than
    u0's K is refused before any solve.
    """
    check_grid_size(M)
    if M // 2 - 1 < u0.spectrum.N:
        raise UnderResolvedError(f"grid size {M} analyzes {M // 2 - 1} modes, fewer than the {u0.spectrum.N} of u0")
    ts = np.asarray(times, dtype=float)
    c, s = attractor.scale, attractor.jump_location
    # sample first: a time past the horizon raises before the line is formed
    spectra = [u0.spectrum if t == 0.0 else analyze(sample_solution(u0, float(t), M), M // 2 - 1) for t in ts]
    dist = np.array([attractor_distance(spec, c, s) for spec in spectra])
    d0 = attractor_distance(u0.spectrum, c, s)
    # m ||u0||^2 can overflow where the line is finite: E on the unit-scaled psi, times 4^k last
    scaled, k = _unit_scaled(u0.spectrum.psi)
    predicted = d0 - np.ldexp(attractor.slope_floor * _weighted_energy(scaled) * ts, 2 * k)
    return DecayTable(times=ts, distance=dist, predicted=predicted)


# ---------------------------------------------------------------------------
# series constants

def power_sum(p: float, tol: float) -> float:
    """sum_{n>=1} n^{-p} for p > 1 by direct summation plus integral tail.

    The tail past N0 is the midpoint integral int_{N0+1/2}^inf x^{-p} dx,
    whose error is below p*N0^{-(p+1)}/24; N0 is chosen so that bound is
    under tol.  Since x^{-p} is convex the midpoint tail over-counts, so the
    result never falls below the true sum (the safe side for the certificate
    thresholds).  The float round-off of the partial sum can push the excess
    slightly past tol: up to 1.009e-12 at tol = 1e-12 against mpmath's zeta.
    A tol that needs more than 10^7 terms (80 MB of floats) is refused before any is formed.
    """
    p = _checked("p", p, "a real number")
    tol = _checked("tol", tol, "positive and finite", lambda v: 0 < v < math.inf)
    if not p > 1.0:  # NaN too
        raise DivergentSeriesError(f"sum n^(-{p}) diverges")
    terms = (p / (24.0 * tol)) ** (1.0 / (p + 1.0))
    if not terms <= 1e7:
        raise ValueError(f"tol={tol} needs {terms:.3g} terms of sum n^(-{p}), more than 1e+07")
    n0 = max(64, math.ceil(terms))
    n = np.arange(1, n0 + 1, dtype=float)
    partial = float(np.sum(n**-p))
    tail = (n0 + 0.5) ** (1.0 - p) / (p - 1.0)
    return partial + tail


def series_s(alpha: float) -> float:
    """S(alpha) = sum n^{-2(1-alpha)} summed to SERIES_TOL: the one alpha < 1/2 guard, since every certificate needs it."""
    alpha = _checked("alpha", alpha, "positive", lambda a: a > 0)  # NaN fails too
    if alpha >= 0.5:
        raise UnsupportedRegimeError(f"alpha={alpha} is not supercritical (< 1/2): S(alpha) = sum n^(-2(1-alpha)) diverges")
    return power_sum(2.0 * (1.0 - alpha), SERIES_TOL)


def c_alpha(alpha: float) -> float:
    """Pairing constant sqrt(2*pi * S(alpha)), alpha in (0, 1/2)."""
    return float(np.sqrt(2.0 * np.pi * series_s(alpha)))
