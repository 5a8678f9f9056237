"""Exact inviscid Burgers solutions on the torus by characteristics.

For smooth odd data u0 the strong solution satisfies u(x, t) = u0(xi)
where xi solves the characteristic equation xi + t*u0(xi) = x.  The map
xi -> xi + t*u0(xi) is strictly increasing while

    t < T_max = 1 / (-min_x u0'(x)),

so the root is unique and the solver below (vectorized Newton with a
guaranteed bisection bracket) is an oracle for the Galerkin dynamics up
to the guarded horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import GridFunction, SineSpectrum, evaluate_field, evaluate_slope, grid_points, odd_symmetry_residual

#: fraction of T_max kept away from the horizon, where the map stays monotone
HORIZON_GUARD = 1e-6

_NEWTON_MAX_ITER = 50
_RESIDUAL_TOL = 1e-12
#: dense samples of u0' taken before golden-section refinement of its minimum
_SLOPE_SAMPLES = 4096


class HorizonError(ValueError):
    """Requested time is past the guarded characteristics horizon."""


class RootFindError(RuntimeError):
    """Newton and bisection both failed (unreachable before the horizon)."""


@dataclass(frozen=True)
class InitialField:
    """Odd initial data with closed-form value and slope evaluators.

    Trailing zero coefficients are dropped on construction (at least one
    mode is kept), so every evaluation costs O(K) per point for the K
    active modes rather than the padded N.
    """

    spectrum: SineSpectrum

    def __post_init__(self):
        psi = self.spectrum.psi
        active = np.flatnonzero(psi)
        K = int(active[-1]) + 1 if active.size else 1
        if K < psi.size:
            object.__setattr__(self, "spectrum", SineSpectrum(psi[:K]))

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


def _golden_min(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Golden-section argmin of f on [a, b] to window width tol."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def min_initial_slope(u0: InitialField) -> float:
    """Global minimum of u0' located by dense sampling plus refinement."""
    x = np.linspace(-np.pi, np.pi, _SLOPE_SAMPLES, endpoint=False)
    slopes = u0.slope(x)
    i = int(np.argmin(slopes))
    h = 2.0 * np.pi / _SLOPE_SAMPLES
    x_star = _golden_min(lambda xi: float(u0.slope(xi)), x[i] - h, x[i] + h)
    return float(min(np.min(slopes), u0.slope(x_star)))


def tmax_inviscid(u0: InitialField) -> float:
    """Classical blowup time 1 / (-min u0'), or +inf for nondecreasing data."""
    return u0.t_max


def _check_horizon(u0: InitialField, t: float, guard: float) -> None:
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    t_max = tmax_inviscid(u0)
    if np.isfinite(t_max) and t >= t_max * (1.0 - guard):
        raise HorizonError(f"t={t} is past the guarded horizon {t_max * (1.0 - guard):.6g}")


def _bisect_feet(u0: InitialField, x: np.ndarray, t: float) -> np.ndarray:
    """Bisect xi + t*u0(xi) = x for all points of x at once.

    The bracket x -/+ t*sup|u0| holds every root.  A point stops at the
    first midpoint with residual <= _RESIDUAL_TOL, or after 200 halvings.
    """
    half_width = t * u0.sup_bound
    lo, hi = x - half_width, x + half_width
    glo = lo + t * u0.value(lo) - x
    feet = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(200):
        mid = 0.5 * (lo[todo] + hi[todo])
        gm = mid + t * u0.value(mid) - x[todo]
        feet[todo] = mid
        up = (glo[todo] < 0) == (gm < 0)
        lo[todo[up]], glo[todo[up]] = mid[up], gm[up]
        hi[todo[~up]] = mid[~up]
        todo = todo[np.abs(gm) > _RESIDUAL_TOL]
        if todo.size == 0:
            return feet
    feet[todo] = 0.5 * (lo[todo] + hi[todo])
    return feet


def _solve_feet(u0: InitialField, x: np.ndarray, t: float) -> np.ndarray:
    """Solve xi + t*u0(xi) = x for every point of x.

    Newton steps only the points still above tolerance; those left after
    _NEWTON_MAX_ITER steps are bisected together, so the cost follows the
    number of unsolved points rather than a Python loop over them.
    """
    xi = np.array(x, dtype=float, copy=True)
    res = xi + t * u0.value(xi) - x
    todo = np.flatnonzero(np.abs(res) > _RESIDUAL_TOL)
    for _ in range(_NEWTON_MAX_ITER):
        if todo.size == 0:
            return xi
        z = xi[todo]
        z = z - res[todo] / (1.0 + t * u0.slope(z))
        r = z + t * u0.value(z) - x[todo]
        xi[todo], res[todo] = z, r
        todo = todo[np.abs(r) > _RESIDUAL_TOL]
    if todo.size:
        z = _bisect_feet(u0, x[todo], t)
        if np.any(np.abs(z + t * u0.value(z) - x[todo]) > 10.0 * _RESIDUAL_TOL):
            raise RootFindError("characteristic foot not found to tolerance")
        xi[todo] = z
    return xi


def eval_characteristics(u0: InitialField, x, t: float, guard: float = HORIZON_GUARD):
    """u(x, t) = u0(xi) with xi + t*u0(xi) = x, residual below 1e-12."""
    _check_horizon(u0, t, guard)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    feet = _solve_feet(u0, xa, t)
    vals = u0.value(feet)
    return vals if np.ndim(x) else float(vals[0])


def sample_solution(u0: InitialField, t: float, M: int, guard: float = HORIZON_GUARD) -> GridFunction:
    """Characteristics solution sampled on the M-point grid, tagged odd."""
    _check_horizon(u0, t, guard)
    feet = _solve_feet(u0, grid_points(M), t)
    u = np.asarray(u0.value(feet), dtype=float)
    return GridFunction(u, odd_residual=odd_symmetry_residual(u))
