"""Shared brute-force oracles, kept deliberately slow and transparent."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from burgers_lab import characteristics
from burgers_lab.attractors import _gauss_legendre, c_alpha
from burgers_lab.blowup import KAPPA_F, RESOLVED_TAIL
from burgers_lab.dynamics import (
    _jump,
    dissipation_symbol,
    lyapunov_diagnostic,
    nonlinear_direct,
    nonlinear_pseudospectral,
    optimal_scale,
    profile_distance,
)
from burgers_lab.spectral import FOUR_PI, _unit_scaled, evaluate_field, grid_points, next_pow2, synthesize_slope


def synthesize_direct(spec, M):
    """O(N*M) summation oracle for synthesize; kept slow and obvious."""
    x = grid_points(M)
    u = np.zeros(M)
    for n in range(1, spec.N + 1):
        u -= 2.0 * spec.psi[n - 1] * np.sin(n * x)
    return u


def analyze_direct(samples, N):
    """O(N*M) projection oracle: psi_n = -(1/M) sum_j u_j sin(n x_j)."""
    u = np.asarray(samples, dtype=float)
    x = grid_points(u.size)
    return np.array([-np.dot(u, np.sin(n * x)) / u.size for n in range(1, N + 1)])


def odd_symmetry_residual(samples):
    """max_j |u(x_j) + u(-x_j)| on the uniform grid; -x_j lands on index (M - j) mod M."""
    u = np.asarray(samples, dtype=float)
    return float(np.max(np.abs(u + np.roll(u[::-1], 1))))


def torus_panels(jump_location, total_nodes):
    """Panel midpoints and half-width of the torus split at the jump of c F(x - s).

    For a jump at the origin, max(4, total_nodes // 64) panels on each of [-pi, 0] and [0, pi],
    so the origin is a panel edge; for a jump at pi, one piece of max(4, total_nodes // 32) panels.
    """
    n_panels = 2 * max(4, total_nodes // 64) if _jump(jump_location) == "origin" else max(4, total_nodes // 32)
    h = np.pi / n_panels
    return -np.pi + h * np.arange(1.0, 2 * n_panels, 2), h


def integrate_torus(f, jump_location, total_nodes):
    """Integrate f over [-pi, pi] by the 32-point Gauss-Legendre rule on ``torus_panels``.

    Each panel lies in a smooth piece, so trig polynomials times the profile converge to round-off.
    """
    nodes, weights = _gauss_legendre()
    mids, h = torus_panels(jump_location, total_nodes)
    return float(np.dot(np.tile(h * weights, mids.size), f((mids[:, None] + h * nodes).ravel())))


def lyapunov_quadrature(spec, attractor, total_nodes=4096):
    """Quadrature evaluation of <H, u>, the independent cross-check of the coefficient rule."""
    return integrate_torus(
        lambda x: evaluate_field(spec, x) * attractor.evaluate(x),
        attractor.jump_location,
        total_nodes,
    )


def brute_force_nonlinear(psi):
    """Triple-loop evaluation of the quadratic Galerkin term."""
    N = len(psi)
    out = np.zeros(N)
    for n in range(1, N + 1):
        s1 = 0.0
        for j in range(1, n):
            s1 += psi[j - 1] * psi[n - j - 1]
        s2 = 0.0
        for k in range(1, N - n + 1):
            s2 += psi[k - 1] * psi[k + n - 1]
        out[n - 1] = 0.5 * n * s1 - n * s2
    return out


def nonlinear_pseudospectral_fftpack(psi):
    """The half-grid kernel through ``scipy.fftpack``'s public wrappers, the reference its fast path must equal bit for bit."""
    from scipy.fft import next_fast_len
    from scipy.fftpack import dct, dst

    psi = np.asarray(psi, dtype=float)
    N = psi.shape[-1]
    L = next_fast_len(3 * N // 2 + 1, real=True)
    scale = -np.arange(1, N + 1, dtype=float) / (4.0 * L)
    u = np.zeros(psi.shape[:-1] + (L,))
    u[..., :N] = psi
    u = dst(u, type=3, overwrite_x=True)
    u *= u
    return scale * dct(u, type=2, overwrite_x=True)[..., 1 : N + 1]


def if_rk4_step_reference(psi, dt, factors, nonlinear):
    """One IF-RK4 step written out of place, term by term, as the formula reads."""
    e1, e2, dt_e1, two_e1 = factors
    k1 = nonlinear(psi)
    k2 = nonlinear(e1 * (psi + 0.5 * dt * k1))
    k3 = nonlinear(e1 * psi + 0.5 * dt * k2)
    e2_psi = e2 * psi
    k4 = nonlinear(e2_psi + dt_e1 * k3)
    return e2_psi + dt / 6.0 * (e2 * k1 + two_e1 * (k2 + k3) + k4)


def march_reference(spectra, params, t_end, dt, diag, kernel=nonlinear_pseudospectral):
    """Each spectrum marched alone, one step at a time, as ``evolve_batch`` is specified.

    Every step is tested for a non-finite state and adds dt w_n psi_n^2 to
    the running sum S_n = dt w_n (psi_{0,n}^2 / 2 + sum_{1<=j<=k} psi_{j,n}^2)
    of each mode; every record forms its seven columns from its own (1, N)
    row, with the formulas of the march: the dissipation integral, the
    trapezoid sum of g = sum_n w_n psi_n^2 summed per mode first, is
    sum_n (S_n - dt w_n psi_{k,n}^2 / 2).
    Per spectrum: times, the columns by name, termination, the stored
    spectra (or None) and the number of steps taken.
    """
    n_steps, out = round(t_end / dt), []
    for spec, p in zip(spectra, params):
        N = spec.N
        n = np.arange(1, N + 1, dtype=float)
        M = next_pow2(max(256, 2 * (N + 1)))
        e1 = np.exp(-0.5 * dt * dissipation_symbol(p, N))
        factors = (e1, e1 * e1, dt * e1, 2.0 * e1)
        weights = 2.0 * p.nu * FOUR_PI * n ** (2.0 * p.alpha)
        psi = spec.psi[None].copy()
        r = optimal_scale(psi) if diag.r is None else np.array([float(diag.r)])
        rows, kept, termination, steps = [], [], "t_end_reached", 0
        with np.errstate(over="ignore", invalid="ignore"):
            weights = dt * weights
            sums = 0.5 * (weights * psi**2)
            for k in range(n_steps + 1):
                if k:
                    psi, steps = if_rk4_step_reference(psi, dt, factors, kernel), k
                    if not np.isfinite(psi).all():
                        termination = "step_failure"
                        break
                    sums = sums + weights * psi**2
                if k % diag.stride == 0 or k == n_steps:
                    scaled, exp2 = _unit_scaled(psi)
                    squares = scaled**2
                    total = squares.sum(axis=-1)
                    energy, lyap = FOUR_PI * total, lyapunov_diagnostic(psi)
                    cut = N - (max(1, N // 8) if N > 1 else 0)
                    tail = np.divide(squares[..., cut:].sum(axis=-1), total, out=np.zeros_like(total), where=total != 0.0)
                    columns = (
                        np.ldexp(energy, 2 * exp2),
                        (sums - 0.5 * (weights * psi**2)).sum(axis=-1),
                        lyap,
                        profile_distance(energy, lyap, r, exp2),
                        np.ldexp(np.sqrt(FOUR_PI * (n**2 * squares).sum(axis=-1)), exp2),
                        tail,
                        synthesize_slope(psi, M).min(axis=-1),
                    )
                    rows.append([k * dt] + [float(np.squeeze(c)) for c in columns])
                    kept.append(psi[0].copy())
                    if tail[0] > diag.tail_threshold:
                        termination = "blowup_detected"
                        break
        table = np.array(rows).T
        out.append(SimpleNamespace(
            times=table[0],
            columns=dict(zip(DIAGNOSTIC_COLUMNS, table[1:])),
            termination=termination,
            spectra=kept if diag.store_spectra else None,
            steps=steps,
        ))
    return out


#: the per-record columns of a SimulationRecord besides ``times``
DIAGNOSTIC_COLUMNS = ("energy", "diss_integral", "lyapunov", "dist_rF", "h1_norm", "tail_fraction", "min_ux")


def monitor_direct(record):
    """Slack of the Lyapunov inequality per stored state, with dL/dt from the O(N^2) direct kernel.

    dL/dt = 4 pi sum rhs_n / n with rhs the full Galerkin right-hand side;
    returns the slack and the resolved mask as ``monitor_lyapunov_bound``
    defines them.
    """
    params = record.params
    C = c_alpha(params.alpha) if params.nu > 0.0 else 0.0
    slack = []
    for psi in record.spectra:
        N = psi.size
        n = np.arange(1, N + 1, dtype=float)
        rhs = nonlinear_direct(psi) - dissipation_symbol(params, N) * psi
        L = lyapunov_diagnostic(psi)
        hs = math.sqrt(FOUR_PI * np.sum(n ** (2.0 * params.alpha) * psi**2))
        slack.append(lyapunov_diagnostic(rhs) + math.sqrt(2.0) * C * params.nu * hs - KAPPA_F * L * L)
    return np.array(slack), record.tail_fraction[: len(slack)] <= RESOLVED_TAIL


def bisect_characteristic_foot(u0_value, x, t, half_width, tol=1e-14):
    """Pure-bisection root of z + t*u0(z) = x on a guaranteed bracket."""
    lo, hi = x - half_width, x + half_width
    g = lambda z: z + t * u0_value(z) - x
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= tol:
            return mid
        if (glo < 0) == (gm < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def full_grid_solution(u0, t, M):
    """The characteristics solution with every one of the M feet solved, none mirrored."""
    characteristics._check_horizon(u0, t)
    feet, _ = characteristics._solve_feet(u0, grid_points(M), t)
    return np.asarray(u0.value(feet), dtype=float)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
