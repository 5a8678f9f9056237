"""Exact inviscid Burgers solutions on the torus by characteristics.

For smooth odd data u0 the strong solution satisfies u(x, t) = u0(xi)
where xi solves the characteristic equation xi + t*u0(xi) = x.  The map
xi -> xi + t*u0(xi) is strictly increasing while

    t < T_max = 1 / (-min_x u0'(x)),

so the root is unique and the solver below (vectorized Newton from a cubic Hermite inverse of the
map through a table of u0 and u0', kept inside a guaranteed bracket, taking its midpoint when a
step would leave it) is an oracle for the Galerkin dynamics up to the guarded horizon.

Odd data stay odd, u(-x, t) = -u(x, t), so a grid sample needs only the
feet of its points in (0, pi): the other half is their mirror image, and
u = 0 exactly at x = -pi and x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import SineSpectrum, _checked, check_grid_size, evaluate_field, evaluate_slope, grid_points, next_pow2, synthesize, synthesize_slope

#: fraction of T_max kept away from the horizon, where the map stays monotone
HORIZON_GUARD = 1e-6

_RESIDUAL_TOL = 1e-12
#: steps per foot; midpoint steps alone shrink any bracket to round-off in about 60
_MAX_STEPS = 200
#: least number of points of the table of u0 and u0' that the T_max search and the Newton start read
_SLOPE_SAMPLES = 4096
#: points u0' is evaluated at in each zoom round; each round shrinks the bracket 16-fold
_ZOOM_POINTS = 33
#: half-width of the bracket at which the zoom on that minimum stops
_ZOOM_TOL = 1e-12


class HorizonError(ValueError):
    """Requested time is past the guarded characteristics horizon."""


class RootFindError(RuntimeError):
    """The safeguarded Newton solve failed (unreachable before the horizon)."""


@dataclass(frozen=True)
class InitialField:
    """Odd initial data with closed-form value and slope evaluators.

    Trailing zero coefficients are dropped on construction (at least one
    mode is kept), so every evaluation costs O(K) per point for the K
    active modes rather than the padded N.  u0 and u0' are sampled once
    per field, on first use, by inverse transform (``_samples``).
    """

    spectrum: SineSpectrum

    def __post_init__(self):
        psi = self.spectrum.psi
        active = np.flatnonzero(psi)
        K = int(active[-1]) + 1 if active.size else 1
        if K < psi.size:
            object.__setattr__(self, "spectrum", SineSpectrum(psi[:K]))

    @cached_property
    def _samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (xs, u0(xs), u0'(xs)) on the M = next_pow2(max(_SLOPE_SAMPLES, 2K))-point grid and at xi = pi,
        where odd data vanish and u0' repeats its value at xi = -pi."""
        M = next_pow2(max(_SLOPE_SAMPLES, 2 * self.spectrum.N))
        values, slopes = synthesize(self.spectrum, M), synthesize_slope(self.spectrum.psi, M)
        table = np.append(grid_points(M), np.pi), np.append(values, 0.0), np.append(slopes, slopes[0])
        for column in table:
            column.flags.writeable = False
        return table

    @cached_property
    def t_max(self) -> float:
        """Classical blowup time 1 / (-min u0'), searched once per field."""
        m = min_initial_slope(self)
        return np.inf if m >= 0.0 else 1.0 / (-m)

    def value(self, x):
        return evaluate_field(self.spectrum, x)

    def slope(self, x):
        return evaluate_slope(self.spectrum, x)

    @property
    def sup_bound(self) -> float:
        """Guaranteed bound on |u0|: 2 * sum |psi_n| (used for brackets)."""
        return float(2.0 * np.sum(np.abs(self.spectrum.psi)))


def min_initial_slope(u0: InitialField) -> float:
    """Least u0' seen on the grid of ``u0._samples`` and in a zoom on its least
    sample: each round evaluates u0' at _ZOOM_POINTS points across the bracket around the best point and keeps
    the two cells beside the round's least value, until the bracket's half-width is below _ZOOM_TOL."""
    xs, _, slopes = u0._samples
    i = int(np.argmin(slopes))  # never the appended xi = pi, whose slope repeats that of xi = -pi
    least, x_best, h = slopes[i], xs[i], 2.0 * np.pi / (xs.size - 1)
    while h > _ZOOM_TOL:
        x = np.linspace(x_best - h, x_best + h, _ZOOM_POINTS)
        slopes = u0.slope(x)
        i = int(np.argmin(slopes))
        least, x_best, h = min(least, slopes[i]), x[i], 2.0 * h / (_ZOOM_POINTS - 1)
    return float(least)


def tmax_inviscid(u0: InitialField) -> float:
    """Classical blowup time 1 / (-min u0'), or +inf for nondecreasing data."""
    return u0.t_max


def _check_horizon(u0: InitialField, t: float) -> float:
    """``t`` (a numpy scalar as its Python value) if it is a real time below the guarded horizon, else ValueError."""
    t = _checked("time", t, "finite and nonnegative", lambda v: 0.0 <= v < np.inf)
    t_max = tmax_inviscid(u0)
    if np.isfinite(t_max) and t >= t_max * (1.0 - HORIZON_GUARD):
        raise HorizonError(f"t={t} is past the guarded horizon {t_max * (1.0 - HORIZON_GUARD):.6g}")
    return t


def _newton_start(u0: InitialField, x: np.ndarray, t: float) -> np.ndarray:
    """Cubic Hermite interpolant, at x, of the inverse of X(xi) = xi + t*u0(xi) through the points of ``u0._samples``.

    Its slopes there are the exact dxi/dX = 1/(1 + t*u0'), so below the horizon it is O(h^4) off for the grid
    spacing h.  One interpolation of the sample index gives the interval j and the offset s in it; the start is
    formed locally, xs[j] plus a cubic in s, since xs[0] plus a long offset loses about 7e-13 to rounding.
    """
    xs, values, slopes = u0._samples
    X = xs + t * values
    p = np.interp(x, X, np.arange(xs.size, dtype=float))
    j = np.fmin(np.floor(p), xs.size - 2)  # fmin takes the last interval for a NaN p (NaN t)
    s = p - j
    r, j = 1.0 - s, j.astype(np.intp)
    k = j + 1
    xi_j, d_X = xs[j], X[k] - X[j]
    d_xi, m_j, m_k = xs[k] - xi_j, d_X / (1.0 + t * slopes[j]), d_X / (1.0 + t * slopes[k])
    return xi_j + s * (d_xi + r * (r * (m_j - d_xi) + s * (d_xi - m_k)))


def _solve_feet(u0: InitialField, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve g(xi) = xi + t*u0(xi) - x = 0 for every point of x by safeguarded Newton; returns (feet, u0(feet)).

    Newton starts at ``_newton_start``, clipped into the bracket x -/+ 2 t sup|u0| that holds the root before the
    horizon: the start sets the step count (most feet meet the tolerance there and take no step), the bracket
    the guarantee.  Each step moves the bracket end on g's side to the iterate, then takes the Newton point if
    strictly inside and the midpoint if not.  Points above tolerance or NaN are stepped; one left above
    10 * _RESIDUAL_TOL after _MAX_STEPS raises RootFindError.  The values are the last evaluated, equal to
    u0.value(feet) as evaluation is point-local.
    """
    half_width = 2.0 * t * u0.sup_bound
    xi = np.clip(_newton_start(u0, x, t), x - half_width, x + half_width)
    val = u0.value(xi)
    res = xi + t * val - x
    todo = np.flatnonzero(~(np.abs(res) <= _RESIDUAL_TOL))
    z, r, target = xi[todo], res[todo], x[todo]
    lo, hi = target - half_width, target + half_width
    for _ in range(_MAX_STEPS):
        if todo.size == 0:
            return xi, val
        below = r < 0.0
        lo = np.where(below, z, lo)
        hi = np.where(below, hi, z)
        z = z - r / (1.0 + t * u0.slope(z))
        z = np.where((lo < z) & (z < hi), z, 0.5 * (lo + hi))
        v = u0.value(z)
        r = z + t * v - target
        xi[todo], val[todo] = z, v
        keep = ~(np.abs(r) <= _RESIDUAL_TOL)
        todo, z, r, target, lo, hi = todo[keep], z[keep], r[keep], target[keep], lo[keep], hi[keep]
    unsolved = ~(np.abs(r) <= 10.0 * _RESIDUAL_TOL)
    if np.any(unsolved):
        raise RootFindError(f"{np.count_nonzero(unsolved)} characteristic feet unsolved at t={t}: "
                            f"worst residual {np.max(np.abs(r)):.3e} > {10 * _RESIDUAL_TOL:.0e}")
    return xi, val


def sample_solution(u0: InitialField, t: float, M: int) -> np.ndarray:
    """Read-only samples of the characteristics solution on the M-point grid, for 0 <= t < T_max (1 - HORIZON_GUARD).

    Solves the M/2 - 1 feet in (0, pi) alone; u(x_j) = -u(x_{M-j}) fills (-pi, 0).
    """
    check_grid_size(M)
    t = _check_horizon(u0, t)
    half = M // 2
    u = np.zeros(M)
    u[half + 1 :] = _solve_feet(u0, grid_points(M)[half + 1 :], t)[1]
    u[half - 1 : 0 : -1] = -u[half + 1 :]
    u.flags.writeable = False
    return u
