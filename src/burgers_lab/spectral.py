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
import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

FOUR_PI = 4.0 * np.pi

#: relative cosine/mean energy above which a grid is rejected as non-odd
ODDNESS_TOL = 1e-10


def _checked(name: str, value, what: str, ok: Callable | None = None, kind: type = numbers.Real):
    """``value`` if it is a ``kind`` (a bool only where ``kind`` is bool) and ``ok(value)`` holds, else ValueError naming both.

    A numpy scalar is checked and returned as its Python value, so nothing downstream runs in float32.
    The one field rule of the library's dataclasses, of ``sobolev_norm``, of ``AttractorFn`` and of the scalar entry points.
    """
    checked = value.item() if isinstance(value, np.generic) else value
    if not isinstance(checked, kind) or isinstance(checked, bool) != (kind is bool) or not (ok is None or ok(checked)):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return checked


class UnderResolvedError(ValueError):
    """Grid too coarse to resolve the requested mode count."""


class NonOddInputError(ValueError):
    """Grid carries cosine/mean energy above the oddness tolerance."""


def _as_coeff_array(values) -> np.ndarray:
    raw = np.asarray(values)
    if raw.ndim != 1 or raw.size < 1:
        raise ValueError("need a 1d coefficient sequence with N >= 1")
    if raw.dtype.kind not in "iuf" or (raw is not values and any(isinstance(v, (bool, np.bool_)) for v in values)):
        raise ValueError(f"psi must hold real numbers, not bools, got {values!r}")
    psi = raw.astype(float)  # a copy: the spectrum freezes its own array, never the caller's
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
    def sine_wave(cls, amplitude: float, N: int = 1) -> "SineSpectrum":
        """Spectrum of u0(x) = -amplitude * sin(x), i.e. psi_1 = amplitude/2; N >= 1."""
        psi = np.zeros(N)
        psi[:1] = 0.5 * amplitude  # N = 0 leaves psi empty, which the constructor refuses
        return cls(psi)

    def padded(self, N: int) -> "SineSpectrum":
        if N < self.N:
            raise ValueError("can only pad to a larger mode count")
        psi = np.zeros(N)
        psi[: self.N] = self.psi
        return SineSpectrum(psi)


def check_grid_size(M: int) -> None:
    """ValueError unless M is a power of two, at least 4, the grids on which x = -pi and x = 0 are samples."""
    if not (isinstance(M, (int, np.integer)) and M >= 4 and M & (M - 1) == 0):
        raise ValueError("grid size must be a power of two, at least 4")


def grid_points(M: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(M) / M


def next_pow2(n: int) -> int:
    m = 4
    while m < n:
        m *= 2
    return m


def _alternating_signs(count: int) -> np.ndarray:
    # (-1)^k for k = 0..count-1; compensates the grid offset x_0 = -pi
    alt = np.ones(count)
    alt[1::2] = -1.0
    return alt


def _alternating_synthesis(psi: np.ndarray, M: int, signed_prefactor) -> np.ndarray:
    """Inverse real FFT, along the last axis, of mode n = signed_prefactor_n psi_n.

    The signed prefactor carries a sign (-1)^n, which moves the samples
    onto x_j = -pi + 2 pi j/M.  ``psi`` may be one coefficient row or a
    (..., N) stack; M >= 2N resolves every mode.
    """
    N = psi.shape[-1]
    if M < 2 * N:
        raise UnderResolvedError(f"grid size {M} < 2N = {2 * N}")
    coeffs = np.zeros(psi.shape[:-1] + (M // 2 + 1,), dtype=complex)
    coeffs[..., 1 : N + 1] = signed_prefactor * psi
    return np.fft.irfft(coeffs, n=M)


@lru_cache(maxsize=64)
def _slope_prefactor(N: int, M: int) -> np.ndarray:
    """-M n (-1)^n for n = 1..N; read-only, since the cache shares it with every caller."""
    prefactor = -M * np.arange(1, N + 1) * _alternating_signs(N + 1)[1:]
    prefactor.flags.writeable = False
    return prefactor


def synthesize(spec: SineSpectrum, M: int) -> np.ndarray:
    """Read-only samples of -2 sum psi_n sin(n x_j) on the M-point grid, exact.

    Requires M a power of two, at least 4 (``check_grid_size``), and
    M >= 2N so every stored mode is resolved.
    """
    check_grid_size(M)
    u = _alternating_synthesis(spec.psi, M, 1j * M * _alternating_signs(spec.N + 1)[1:])
    u.flags.writeable = False
    return u


def synthesize_slope(psi: np.ndarray, M: int) -> np.ndarray:
    """Samples of du/dx = -2 sum n psi_n cos(n x_j) (an even function), for a (..., N) stack of coefficient rows."""
    return _alternating_synthesis(psi, M, _slope_prefactor(psi.shape[-1], M))


def _oddness_residual(Y: np.ndarray, M: int) -> float:
    """sqrt of the relative energy in the cosine/mean modes of M grid samples with real FFT Y; 0 for the zero field."""
    weights = np.full(Y.size, 2.0)
    weights[0] = 1.0
    if M % 2 == 0:
        weights[-1] = 1.0
    cos_energy = float(np.sum(weights * Y.real**2))
    total = float(np.sum(weights * np.abs(Y) ** 2))
    if total == 0.0:
        return 0.0
    return np.sqrt(cos_energy / total)


def analyze(grid: np.ndarray, N: int) -> SineSpectrum:
    """Recover psi_n, n = 1..N from grid samples (u_hat(n) = i*psi_n).

    Raises NonOddInputError when the relative cosine/mean energy exceeds ODDNESS_TOL, UnderResolvedError
    when M < 2N, and ValueError for a non-finite sample.  It transforms u / 2^k, max |u_j| / 2^k in
    [1/2, 1) as in ``_unit_scaled``, so no square overflows: exact in the normal range.
    """
    u = np.asarray(grid, dtype=float)
    M = u.size
    if M < 2 * N:
        raise UnderResolvedError(f"grid size {M} < 2N = {2 * N}")
    peak = np.abs(u).max()
    if not np.isfinite(peak):
        raise ValueError("grid samples must be finite")
    k = np.frexp(peak)[1]
    scaled = np.ldexp(u, -k)
    Y = np.fft.rfft(scaled)
    residual = _oddness_residual(Y, M)
    if not residual <= ODDNESS_TOL:  # NaN fails too
        raise NonOddInputError(
            f"cosine/mean energy fraction {residual:.3e} exceeds tolerance {ODDNESS_TOL:.1e}"
        )
    alt = _alternating_signs(N + 1)
    psi = np.ldexp(alt[1:] * Y[1 : N + 1].imag / M, k)
    return SineSpectrum(psi)


def _power_series(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_{n=1}^{N} c_n w^n at w = exp(i x), by Horner's rule, over at least 1-d points.

    N array operations over the points and no (points x N) temporary; since
    |w| = 1 the rounding error stays O(N eps sum |c_n|).  The product is
    formed out of place: numpy's in-place complex multiply rounds a
    one-element array differently from a longer one, and out of place each
    point gets the same bits whatever is evaluated with it.
    """
    w = np.exp(1j * np.atleast_1d(x))
    acc = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * w
        acc += c
    return acc * w


def evaluate_field(spec: SineSpectrum, x) -> np.ndarray | float:
    """Closed-form evaluation of u = -2 Im sum psi_n e^{inx} (vectorized)."""
    xa = np.asarray(x, dtype=float)
    out = -2.0 * _power_series(spec.psi, xa).imag
    return out if xa.ndim else float(out[0])


def evaluate_slope(spec: SineSpectrum, x) -> np.ndarray | float:
    """Closed-form evaluation of du/dx = -2 Re sum n psi_n e^{inx} (vectorized)."""
    xa = np.asarray(x, dtype=float)
    n = np.arange(1, spec.N + 1)
    out = -2.0 * _power_series(n * spec.psi, xa).real
    return out if xa.ndim else float(out[0])


def _weighted_energy(psi: np.ndarray, weights: np.ndarray | None = None):
    """4*pi * sum_n w_n psi_n^2 along the last axis, one value per row of a (..., N) stack.

    Without weights it is the energy ||u||^2; with w_n = n^{2s}, the squared H^s norm.
    """
    return FOUR_PI * np.sum(psi**2 if weights is None else weights * psi**2, axis=-1)


def _unit_scaled(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi / 2**k, k) per row, k bringing max |psi_n| to [1/2, 1): exact, and no norm's squares under- or overflow."""
    k = np.frexp(np.abs(psi).max(axis=-1))[1]
    return np.ldexp(psi, -k[..., None]), k


def sobolev_norm(spec: SineSpectrum, s: float) -> float:
    """Homogeneous Sobolev norm sqrt(4*pi * sum n^{2s} psi_n^2); s=0 is L2, taken on ``_unit_scaled`` psi.

    Zero coefficients add 0 at any s.  Where a term overflows, the terms are summed over the largest, through
    their logarithms, and only a norm beyond the float range raises OverflowError.
    """
    s = _checked("s", s, "finite and >= 0", lambda v: 0 <= v < math.inf)
    n = np.arange(1, spec.N + 1, dtype=float)
    scaled, k = _unit_scaled(spec.psi)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.where(scaled != 0, n ** (2.0 * s), 0.0)
        norm = float(np.ldexp(np.sqrt(_weighted_energy(scaled, weights)), k))
        if not norm < math.inf:  # inf, or NaN where an overflowing n^{2s} met an underflowing psi_n^2
            logs = s * np.log(n[weights > 0]) + np.log(np.abs(spec.psi[weights > 0]))  # log(n^s |psi_n|)
            norm = float(np.exp(logs.max()) * np.sqrt(_weighted_energy(np.exp(logs - logs.max()))))
    if not norm < math.inf:
        raise OverflowError(f"the H^s norm at s={s} leaves the float range")
    return norm


def grid_lq_norm(grid: np.ndarray, q: float) -> float:
    """L^q norm by uniform-grid quadrature; q = inf gives max |u_j|."""
    u = np.asarray(grid, dtype=float)
    if np.isinf(q):
        return float(np.max(np.abs(u)))
    if q < 1:
        raise ValueError("q must be >= 1")
    h = 2.0 * np.pi / u.size
    return float((h * np.sum(np.abs(u) ** q)) ** (1.0 / q))


def _is_number(value) -> bool:
    """A JSON number that converts to a float: a float, or an int (not bool) within the float range."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def load_spectrum(path: str | Path) -> SineSpectrum:
    payload = json.loads(Path(path).read_text())
    psi = payload.get("psi") if isinstance(payload, dict) else None
    if not (isinstance(psi, list) and all(map(_is_number, psi)) and payload.get("N") == len(psi)):
        raise ValueError(f"{path}: a spectrum file holds a JSON object with a list of numbers 'psi' and its length 'N'")
    return SineSpectrum(np.asarray(psi, dtype=float))
