"""Sine-Galerkin dynamics of the fractal Burgers equation.

Projecting the divergence-form equation  u_t + nu*(-Lap)^alpha u + (u^2/2)_x = 0
onto the first N sine modes gives the coefficient system

    d psi_n / dt = -nu * n^{2 alpha} * psi_n
                   + (n/2) * sum_{j=1}^{n-1} psi_j psi_{n-j}
                   - n     * sum_{k=1}^{N-n} psi_k psi_{k+n},      n = 1..N.

The tail sum stops at k = N-n (pure Galerkin truncation), which keeps the
pairing cancellation sum_n psi_n * Nonlinear(psi)_n = 0 exact at any N.

Two independent kernels evaluate the same quadratic term:
``nonlinear_direct`` computes its sums by O(N^2) convolution, and
``nonlinear_pseudospectral`` (the default of ``step`` and ``evolve``)
squares the field on a half-length grid.  Since u is odd and u^2 even,
both live on the staggered half grid
xi_k = pi (k + 1/2) / L, k = 0..L-1: a type-3 DST of the zero-padded psi
gives the samples of u, and a type-2 DCT of u^2 gives its cosine modes.
Products of modes <= N reach 2N, and on this grid mode j of u^2 aliases
(with a sign flip) onto 2L - j; with 2L > 3N that lands above N, so the
retained modes are alias-free.

Time stepping is fixed-step integrating-factor RK4: the dissipative part
is absorbed exactly through exp(-nu n^{2 alpha} dt) and classical RK4
advances the transformed nonlinearity, reducing to plain RK4 when nu = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.fft import next_fast_len
from scipy.fftpack import dct, dst

from .spectral import FOUR_PI, SineSpectrum, next_pow2, synthesize_slope

#: ||F||_{L2}^2 = 4*pi * sum 1/n^2 = 2*pi^3/3 for the attractor profile F,
#: whose sine coefficients 1/n make  L = 4*pi*sum(psi_n/n)  the natural
#: Lyapunov diagnostic of this system (re-exported by attractors)
F_L2_NORM_SQ = 2.0 * np.pi**3 / 3.0

Kernel = Callable[[np.ndarray], np.ndarray]

TERMINATION_T_END = "t_end_reached"
TERMINATION_BLOWUP = "blowup_detected"
TERMINATION_STEP_FAILURE = "step_failure"


class StepFailureError(RuntimeError):
    """A time step produced non-finite coefficients."""


@dataclass(frozen=True)
class ModelParams:
    """Fractional dissipation exponent alpha in (0, 1] and viscosity nu >= 0."""

    alpha: float
    nu: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")

    @property
    def inviscid(self) -> bool:
        return self.nu == 0.0


def dissipation_symbol(params: ModelParams, N: int) -> np.ndarray:
    """Multiplier nu * n^{2 alpha} for n = 1..N."""
    n = np.arange(1, N + 1, dtype=float)
    return params.nu * n ** (2.0 * params.alpha)


def nonlinear_direct(psi: np.ndarray) -> np.ndarray:
    """Quadratic term (n/2)*S1(n) - n*S2(n) by direct convolution.

    S1(n) = sum_{j+k=n} psi_j psi_k  and  S2(n) = sum_k psi_k psi_{k+n},
    both over the truncated support only.
    """
    psi = np.asarray(psi, dtype=float)
    N = psi.size
    n = np.arange(1, N + 1, dtype=float)
    s1 = np.zeros(N)
    if N >= 2:
        s1[1:] = np.convolve(psi, psi)[: N - 1]
    s2 = np.zeros(N)
    if N >= 2:
        # np.convolve(psi, psi[::-1])[N-1-lag] = sum_k psi_k psi_{k+lag}
        s2[: N - 1] = np.convolve(psi, psi[::-1])[N - 2 :: -1][: N - 1]
    return n * (0.5 * s1 - s2)


@lru_cache(maxsize=64)
def _half_grid(N: int) -> tuple[int, np.ndarray]:
    """Half-grid length L (2L > 3N, fast FFT size) and the output scale -n/(4L).

    The scale is read-only: the cache is shared by every thread.
    """
    L = next_fast_len(3 * N // 2 + 1, real=True)
    scale = -np.arange(1, N + 1, dtype=float) / (4.0 * L)
    scale.flags.writeable = False
    return L, scale


def nonlinear_pseudospectral(psi: np.ndarray) -> np.ndarray:
    """Same quadratic term via squaring on the staggered half grid.

    Unnormalised DST-III of psi (zero-padded to L) gives -u(xi_k); the
    midpoint rule on (0, pi) turns the unnormalised DCT-II of u^2 into
    2L times its Fourier coefficients w_hat(n), and mode n of -(u^2/2)_x
    is -(n/2) * w_hat(n).
    """
    psi = np.asarray(psi, dtype=float)
    N = psi.size
    L, scale = _half_grid(N)
    u = np.zeros(L)
    u[:N] = psi
    u = dst(u, type=3, overwrite_x=True)
    u *= u
    return scale * dct(u, type=2, overwrite_x=True)[1 : N + 1]


def _if_rk4_step(psi: np.ndarray, dt: float, half_decay: np.ndarray, nonlinear: Kernel) -> np.ndarray:
    e1 = half_decay
    e2 = half_decay * half_decay
    # overflow here is reported as StepFailureError by the callers
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = nonlinear(psi)
        k2 = nonlinear(e1 * (psi + 0.5 * dt * k1))
        k3 = nonlinear(e1 * psi + 0.5 * dt * k2)
        k4 = nonlinear(e2 * psi + dt * e1 * k3)
        return e2 * psi + dt / 6.0 * (e2 * k1 + 2.0 * e1 * (k2 + k3) + k4)


def step(
    spec: SineSpectrum,
    params: ModelParams,
    dt: float,
    kernel: Kernel = nonlinear_pseudospectral,
) -> SineSpectrum:
    """One integrating-factor RK4 step of size dt.

    Raises StepFailureError when the result is not finite.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    half_decay = np.exp(-0.5 * dt * dissipation_symbol(params, spec.N))
    out = _if_rk4_step(spec.psi, dt, half_decay, kernel)
    if not np.all(np.isfinite(out)):
        raise StepFailureError(f"non-finite state after step of dt={dt}")
    return SineSpectrum(out)


@dataclass(frozen=True)
class DiagnosticsConfig:
    stride: int = 10
    r: float | None = None  # None: use ||u0|| / ||F|| for the distance diagnostic
    tail_threshold: float = 1e-3
    store_spectra: bool = False
    grid_size: int | None = None  # grid for the min du/dx diagnostic

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.tail_threshold <= 0:
            raise ValueError("tail threshold must be positive")


@dataclass
class SimulationRecord:
    """Diagnostic time series of one fixed-step run."""

    params: ModelParams
    N: int
    dt: float
    r: float
    times: np.ndarray
    energy: np.ndarray
    diss_integral: np.ndarray
    lyapunov: np.ndarray
    dist_rF: np.ndarray
    h1_norm: np.ndarray
    tail_fraction: np.ndarray
    min_ux: np.ndarray
    termination: str
    spectra: list[np.ndarray] | None = field(default=None, repr=False)

    CSV_HEADER = "t,energy,diss_integral,lyapunov,dist_rF,h1_norm,tail_fraction,min_ux"

    def metadata(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "nu": self.params.nu,
            "N": self.N,
            "dt": self.dt,
            "r": self.r,
            "t_final": float(self.times[-1]),
            "termination": self.termination,
        }


def tail_energy_fraction(psi: np.ndarray) -> float:
    """Energy in the top eighth of the modes over total energy (0 if empty)."""
    total = float(np.sum(psi**2))
    if total == 0.0:
        return 0.0
    cut = psi.size - psi.size // 8
    return float(np.sum(psi[cut:] ** 2) / total)


def lyapunov_diagnostic(psi: np.ndarray) -> float:
    n = np.arange(1, psi.size + 1, dtype=float)
    return float(FOUR_PI * np.sum(psi / n))


def _distance_to_scaled_attractor(energy: float, lyap: float, r: float) -> float:
    return energy - 2.0 * r * lyap + r * r * F_L2_NORM_SQ


def evolve(
    spec0: SineSpectrum,
    params: ModelParams,
    t_end: float,
    dt: float,
    diag: DiagnosticsConfig | None = None,
    kernel: Kernel = nonlinear_pseudospectral,
) -> SimulationRecord:
    """Fixed-step march to t_end, recording diagnostics every ``stride`` steps.

    Halts early with termination 'blowup_detected' when the spectral tail
    fraction exceeds its threshold (a resolution-loss proxy, not a proof),
    and with 'step_failure' (partial record) on non-finite states.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    diag = diag or DiagnosticsConfig()
    N = spec0.N
    n = np.arange(1, N + 1, dtype=float)
    symbol = dissipation_symbol(params, N)
    half_decay = np.exp(-0.5 * dt * symbol)
    n_steps = max(1, int(round(t_end / dt)))
    M_diag = diag.grid_size or next_pow2(max(256, 2 * (N + 1)))

    energy0 = float(FOUR_PI * np.sum(spec0.psi**2))
    if diag.r is not None:
        r = diag.r
    else:
        r = np.sqrt(energy0 / F_L2_NORM_SQ)

    rows: list[tuple] = []
    spectra: list[np.ndarray] | None = [] if diag.store_spectra else None

    # g(psi) = 2 nu ||psi||_{H^alpha}^2, the dissipation rate
    diss_weights = 2.0 * params.nu * FOUR_PI * n ** (2.0 * params.alpha)

    def diss_rate(psi: np.ndarray) -> float:
        return float(np.sum(diss_weights * psi**2))

    def record(k: int, psi: np.ndarray, diss: float):
        energy = float(FOUR_PI * np.sum(psi**2))
        lyap = lyapunov_diagnostic(psi)
        rows.append(
            (
                k * dt,
                energy,
                diss,
                lyap,
                _distance_to_scaled_attractor(energy, lyap, r),
                float(np.sqrt(FOUR_PI * np.sum(n**2 * psi**2))),
                tail_energy_fraction(psi),
                float(synthesize_slope(SineSpectrum(psi), M_diag).min()),
            )
        )
        if spectra is not None:
            spectra.append(psi.copy())

    psi = spec0.psi.copy()
    diss_acc = 0.0
    g_prev = diss_rate(psi)
    record(0, psi, diss_acc)
    termination = TERMINATION_T_END
    for k in range(1, n_steps + 1):
        try:
            out = _if_rk4_step(psi, dt, half_decay, kernel)
            if not np.all(np.isfinite(out)):
                raise StepFailureError(f"non-finite state at t={k * dt}")
        except StepFailureError:
            termination = TERMINATION_STEP_FAILURE
            break
        psi = out
        g_new = diss_rate(psi)
        diss_acc += 0.5 * dt * (g_prev + g_new)
        g_prev = g_new
        if k % diag.stride == 0 or k == n_steps:
            record(k, psi, diss_acc)
            if tail_energy_fraction(psi) > diag.tail_threshold:
                termination = TERMINATION_BLOWUP
                break

    cols = [np.array(c) for c in zip(*rows)]
    return SimulationRecord(
        params=params,
        N=N,
        dt=dt,
        r=float(r),
        times=cols[0],
        energy=cols[1],
        diss_integral=cols[2],
        lyapunov=cols[3],
        dist_rF=cols[4],
        h1_norm=cols[5],
        tail_fraction=cols[6],
        min_ux=cols[7],
        termination=termination,
        spectra=spectra,
    )


def record_to_csv(record: SimulationRecord, path: str | Path) -> None:
    """CSV time series, 17 significant digits per value."""
    lines = [SimulationRecord.CSV_HEADER]
    for i in range(record.times.size):
        lines.append(
            ",".join(
                f"{v:.17g}"
                for v in (
                    record.times[i],
                    record.energy[i],
                    record.diss_integral[i],
                    record.lyapunov[i],
                    record.dist_rF[i],
                    record.h1_norm[i],
                    record.tail_fraction[i],
                    record.min_ux[i],
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_record_metadata(record: SimulationRecord, path: str | Path, extra: dict | None = None) -> None:
    payload = record.metadata()
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
