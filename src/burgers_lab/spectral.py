"""Odd torus fields as sine spectra, and exact conversions to grid samples.

Every field handled here is a real, odd, mean-free function on the torus
[-pi, pi), stored through its sine coefficients in the convention

    u(x) = -2 * sum_{n=1}^{N} psi_n * sin(n x),

equivalently u_hat(n) = i*psi_n and u_hat(-n) = -i*psi_n for the transform
u_hat(k) = (1/2pi) * integral of u(y) exp(-i k y) dy.  With that scaling,

    ||u||_{Hs}^2  = 4*pi * sum n^{2s} psi_n^2,
    <u, v>        = 4*pi * sum psi_n phi_n.

Grids are uniform with x_j = -pi + 2*pi*j/M and M a power of two, so x = 0
is always a sample point.  Only odd content is representable; analyze()
rejects grids with cosine/mean energy instead of silently projecting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FOUR_PI = 4.0 * np.pi

SPECTRUM_CONVENTION = "u(x) = -2 * sum_n psi_n * sin(n*x)"

#: default absolute tolerance for analyze <-> synthesize round trips
ROUNDTRIP_TOL = 1e-12
#: default relative tolerance above which a grid is rejected as non-odd
ODDNESS_TOL = 1e-10


class UnderResolvedError(ValueError):
    """Grid too coarse to resolve the requested mode count."""


class NonOddInputError(ValueError):
    """Grid carries cosine/mean energy above the oddness tolerance."""


def _as_coeff_array(values) -> np.ndarray:
    psi = np.asarray(values, dtype=float)
    if psi.ndim != 1 or psi.size < 1:
        raise ValueError("need a 1d coefficient sequence with N >= 1")
    if not np.all(np.isfinite(psi)):
        raise ValueError("sine coefficients must be finite")
    return psi


@dataclass(frozen=True)
class SineSpectrum:
    """Truncated odd field, coefficients psi_n for n = 1..N."""

    psi: np.ndarray

    def __post_init__(self):
        psi = _as_coeff_array(self.psi)
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    @property
    def N(self) -> int:
        return self.psi.size

    @classmethod
    def zeros(cls, N: int) -> "SineSpectrum":
        return cls(np.zeros(N))

    @classmethod
    def single_mode(cls, n: int, value: float, N: int | None = None) -> "SineSpectrum":
        psi = np.zeros(N if N is not None else n)
        psi[n - 1] = value
        return cls(psi)

    @classmethod
    def sine_wave(cls, amplitude: float, N: int = 1) -> "SineSpectrum":
        """Spectrum of u0(x) = -amplitude * sin(x), i.e. psi_1 = amplitude/2."""
        return cls.single_mode(1, 0.5 * amplitude, N=N)

    def padded(self, N: int) -> "SineSpectrum":
        if N < self.N:
            raise ValueError("can only pad to a larger mode count")
        psi = np.zeros(N)
        psi[: self.N] = self.psi
        return SineSpectrum(psi)


@dataclass(frozen=True)
class GridFunction:
    """Samples u(x_j) on the uniform grid x_j = -pi + 2*pi*j/M.

    ``odd_residual`` is set when the grid was produced by (or checked
    against) the odd-symmetry invariant max_j |u(x_j) + u(-x_j)|.
    """

    samples: np.ndarray
    odd_residual: float | None = field(default=None)

    def __post_init__(self):
        u = np.asarray(self.samples, dtype=float)
        M = u.size
        if u.ndim != 1 or M < 4 or (M & (M - 1)) != 0:
            raise ValueError("grid size must be a power of two, at least 4")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "samples", u)

    @property
    def M(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.M)


def grid_points(M: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(M) / M


def next_pow2(n: int) -> int:
    m = 4
    while m < n:
        m *= 2
    return m


def odd_symmetry_residual(samples: np.ndarray) -> float:
    """max_j |u(x_j) + u(-x_j)| on the grid (x = -pi pairs with itself)."""
    u = np.asarray(samples, dtype=float)
    # -x_j lands on grid index (M - j) mod M
    return float(np.max(np.abs(u + np.roll(u[::-1], 1))))


def _alternating_signs(count: int) -> np.ndarray:
    # (-1)^k for k = 0..count-1; compensates the grid offset x_0 = -pi
    alt = np.ones(count)
    alt[1::2] = -1.0
    return alt


def synthesize(spec: SineSpectrum, M: int) -> GridFunction:
    """Evaluate -2 sum psi_n sin(n x_j) on the M-point grid, exactly.

    Requires M >= 2N so every stored mode is resolved.
    """
    if M < 2 * spec.N:
        raise UnderResolvedError(f"grid size {M} < 2N = {2 * spec.N}")
    if M < 4 or (M & (M - 1)) != 0:
        raise ValueError("grid size must be a power of two, at least 4")
    coeffs = np.zeros(M // 2 + 1, dtype=complex)
    n_max = min(spec.N, M // 2)
    alt = _alternating_signs(n_max + 1)
    coeffs[1 : n_max + 1] = 1j * M * alt[1:] * spec.psi[:n_max]
    u = np.fft.irfft(coeffs, n=M)
    return GridFunction(u, odd_residual=odd_symmetry_residual(u))


def synthesize_direct(spec: SineSpectrum, M: int) -> np.ndarray:
    """O(N*M) summation oracle for synthesize; kept slow and obvious."""
    x = grid_points(M)
    u = np.zeros(M)
    for n in range(1, spec.N + 1):
        u -= 2.0 * spec.psi[n - 1] * np.sin(n * x)
    return u


def synthesize_slope(spec: SineSpectrum, M: int) -> np.ndarray:
    """Samples of du/dx = -2 sum n psi_n cos(n x_j) (an even function)."""
    if M < 2 * spec.N:
        raise UnderResolvedError(f"grid size {M} < 2N = {2 * spec.N}")
    coeffs = np.zeros(M // 2 + 1, dtype=complex)
    n = np.arange(1, spec.N + 1)
    alt = _alternating_signs(spec.N + 1)
    coeffs[1 : spec.N + 1] = -M * n * alt[1:] * spec.psi
    return np.fft.irfft(coeffs, n=M)


def oddness_residual(samples: np.ndarray) -> float:
    """Relative energy in the cosine/mean modes of a grid function.

    Zero for exactly odd grids; returns 0 for the zero field.
    """
    u = np.asarray(samples, dtype=float)
    Y = np.fft.rfft(u)
    weights = np.full(Y.size, 2.0)
    weights[0] = 1.0
    if u.size % 2 == 0:
        weights[-1] = 1.0
    cos_energy = float(np.sum(weights * Y.real**2))
    total = float(np.sum(weights * np.abs(Y) ** 2))
    if total == 0.0:
        return 0.0
    return np.sqrt(cos_energy / total)


def analyze(grid: GridFunction | np.ndarray, N: int, odd_tol: float = ODDNESS_TOL) -> SineSpectrum:
    """Recover psi_n, n = 1..N from grid samples (u_hat(n) = i*psi_n).

    Raises NonOddInputError when the relative cosine/mean energy exceeds
    ``odd_tol``, and UnderResolvedError when M < 2N.
    """
    u = grid.samples if isinstance(grid, GridFunction) else np.asarray(grid, dtype=float)
    M = u.size
    if M < 2 * N:
        raise UnderResolvedError(f"grid size {M} < 2N = {2 * N}")
    residual = oddness_residual(u)
    if residual > odd_tol:
        raise NonOddInputError(
            f"cosine/mean energy fraction {residual:.3e} exceeds tolerance {odd_tol:.1e}"
        )
    Y = np.fft.rfft(u)
    alt = _alternating_signs(N + 1)
    psi = alt[1:] * Y[1 : N + 1].imag / M
    return SineSpectrum(psi)


def analyze_direct(samples: np.ndarray, N: int) -> np.ndarray:
    """O(N*M) projection oracle: psi_n = -(1/M) sum_j u_j sin(n x_j)."""
    u = np.asarray(samples, dtype=float)
    x = grid_points(u.size)
    return np.array([-np.dot(u, np.sin(n * x)) / u.size for n in range(1, N + 1)])


#: points x modes up to which one exp over all phases n*x beats Horner's
#: rule, whose N array operations each cost about a microsecond of overhead
_DIRECT_POINT_MODES = 512


def _power_series(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_{n=1}^{N} c_n w^n at w = exp(i x).

    Small inputs (scalars, the last unconverged feet) take one exp over the
    (points x N) phases.  Larger ones use Horner's rule: N array operations
    over the points and no (points x N) temporary; since |w| = 1 the
    rounding error stays O(N eps sum |c_n|).
    """
    if x.size * coeffs.size <= _DIRECT_POINT_MODES:
        return np.exp(1j * np.multiply.outer(x, np.arange(1, coeffs.size + 1))) @ coeffs
    w = np.exp(1j * x)
    acc = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= w
        acc += c
    return acc * w


def evaluate_field(spec: SineSpectrum, x) -> np.ndarray | float:
    """Closed-form evaluation of u = -2 Im sum psi_n e^{inx} (vectorized)."""
    xa = np.asarray(x, dtype=float)
    out = -2.0 * _power_series(spec.psi, xa).imag
    return out if xa.ndim else float(out)


def evaluate_slope(spec: SineSpectrum, x) -> np.ndarray | float:
    """Closed-form evaluation of du/dx = -2 Re sum n psi_n e^{inx} (vectorized)."""
    xa = np.asarray(x, dtype=float)
    n = np.arange(1, spec.N + 1)
    out = -2.0 * _power_series(n * spec.psi, xa).real
    return out if xa.ndim else float(out)


def sobolev_norm(spec: SineSpectrum, s: float) -> float:
    """Homogeneous Sobolev norm sqrt(4*pi * sum n^{2s} psi_n^2); s=0 is L2."""
    if s < 0:
        raise ValueError("order s must be >= 0")
    n = np.arange(1, spec.N + 1, dtype=float)
    return float(np.sqrt(FOUR_PI * np.sum(n ** (2.0 * s) * spec.psi**2)))


def inner_product(a: SineSpectrum, b: SineSpectrum) -> float:
    """Torus L2 pairing: 4*pi * sum psi_n phi_n (shorter side zero-padded)."""
    m = min(a.N, b.N)
    return float(FOUR_PI * np.dot(a.psi[:m], b.psi[:m]))


def grid_lq_norm(grid: GridFunction | np.ndarray, q: float) -> float:
    """L^q norm by uniform-grid quadrature; q = inf gives max |u_j|."""
    u = grid.samples if isinstance(grid, GridFunction) else np.asarray(grid, dtype=float)
    if np.isinf(q):
        return float(np.max(np.abs(u)))
    if q < 1:
        raise ValueError("q must be >= 1")
    h = 2.0 * np.pi / u.size
    return float((h * np.sum(np.abs(u) ** q)) ** (1.0 / q))


def grid_l2_norm_sq(grid: GridFunction | np.ndarray) -> float:
    u = grid.samples if isinstance(grid, GridFunction) else np.asarray(grid, dtype=float)
    return float(2.0 * np.pi / u.size * np.sum(u**2))


def save_spectrum(spec: SineSpectrum, path: str | Path) -> None:
    payload = {
        "convention": SPECTRUM_CONVENTION,
        "N": spec.N,
        "psi": [float(v) for v in spec.psi],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_spectrum(path: str | Path) -> SineSpectrum:
    payload = json.loads(Path(path).read_text())
    psi = payload["psi"]
    if payload.get("N") != len(psi):
        raise ValueError(f"{path}: N field does not match coefficient count")
    return SineSpectrum(np.asarray(psi, dtype=float))
