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
``nonlinear_pseudospectral`` (the default of ``evolve`` and ``evolve_batch``)
squares the field on a half-length grid.  Since u is odd and u^2 even,
both live on the staggered half grid
xi_k = pi (k + 1/2) / L, k = 0..L-1: a type-3 DST of the zero-padded psi
gives the samples of u, and a type-2 DCT of u^2 gives its cosine modes.
Products of modes <= N reach 2N, and on this grid mode j of u^2 aliases
(with a sign flip) onto 2L - j; with 2L > 3N that lands above N, so the
retained modes are alias-free.  Both transforms, and the slope samples of
each record's min du/dx, come from the one pocketfft binding that
``spectral`` loads; without it a march raises one ImportError naming it.

Kernel contract: a kernel maps an array of shape (..., N) to the quadratic
term of each row along the last axis, one row independently of the
others, so one call evaluates a whole stack of spectra.  The time step
copies the result and later overwrites the input it passed, so a kernel
keeps no reference to its input.

Buffers: the public ``nonlinear_pseudospectral`` pads each call's input
into an (..., L) array of that call's own.  A march owns its buffers
through its stepper (``_if_rk4_stepper``): a contiguous (B, N) stage, the
four k arrays, and for the default kernel a (B, L) pad and a (B, L)
transform work buffer.
Both paths run the same transforms, ``_half_grid_quadratic``, bound once.
Per step a march only adds its weighted squares to a running sum per mode,
which is tested for non-finite rows at each record and every
``_CHECK_INTERVAL`` steps; a record forms its dissipation integral from the
sums and its tail fraction, and holds its rows, whose other columns are
formed for a block of records at once (see ``evolve_batch``).

Time stepping is fixed-step integrating-factor RK4: the dissipative part
is absorbed exactly through exp(-nu n^{2 alpha} dt) and classical RK4
advances the transformed nonlinearity, reducing to plain RK4 when nu = 0.
``evolve_batch`` marches a (B, N) stack of spectra at once; ``evolve`` is
its one-row case.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .spectral import FOUR_PI, SineSpectrum, _checked, _load_pocketfft, _unit_scaled, _weighted_energy, next_pow2, synthesize_slope

#: ||F||_{L2}^2 = 4*pi * sum 1/n^2 = 2*pi^3/3 for the attractor profile F,
#: whose sine coefficients 1/n make  L = 4*pi*sum(psi_n/n)  the natural
#: Lyapunov diagnostic of this system (re-exported by attractors)
F_L2_NORM_SQ = 2.0 * np.pi**3 / 3.0

Kernel = Callable[[np.ndarray], np.ndarray]

TERMINATION_T_END = "t_end_reached"
TERMINATION_BLOWUP = "blowup_detected"
TERMINATION_STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class ModelParams:
    """Fractional dissipation exponent alpha in (0, 1] and viscosity nu >= 0."""

    alpha: float
    nu: float = 0.0

    def __post_init__(self):
        alpha = _checked("alpha", self.alpha, "finite and lie in (0, 1]", lambda alpha: 0.0 < alpha <= 1.0)  # NaN fails too
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "nu", _checked("nu", self.nu, "finite and >= 0", lambda nu: 0.0 <= nu < math.inf))


def _positive(name: str, value: float) -> float:
    """``value``, unless it is not a finite positive real (NaN included): then ValueError naming it."""
    return _checked(name, value, "positive and finite", lambda v: 0.0 < v < math.inf)


def _jump(jump_location: str) -> str:
    """``jump_location`` if it is "origin" (s = 0) or "pi" (s = pi), where c F(x - s) jumps; else ValueError naming it."""
    if jump_location not in ("origin", "pi"):
        raise ValueError(f"unknown jump location {jump_location!r}")
    return jump_location


def dissipation_symbol(params: ModelParams, N: int) -> np.ndarray:
    """Multiplier nu * n^{2 alpha} for n = 1..N."""
    n = np.arange(1, N + 1, dtype=float)
    return params.nu * n ** (2.0 * params.alpha)


def nonlinear_direct(psi: np.ndarray) -> np.ndarray:
    """Quadratic term (n/2)*S1(n) - n*S2(n) by direct convolution.

    S1(n) = sum_{j+k=n} psi_j psi_k  and  S2(n) = sum_k psi_k psi_{k+n},
    both over the truncated support only.  A (..., N) stack is done row
    by row.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim > 1:
        return np.apply_along_axis(nonlinear_direct, -1, psi)
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
def _half_grid(N: int) -> tuple[int, Callable, Callable]:
    """Half-grid length L (2L > 3N, fast FFT size), DST and DCT.

    The transforms are pocketfft's own ``dst``/``dct``, the binding that
    ``scipy.fft`` and ``scipy.fftpack`` both wrap, called as
    ``(a, type, axes, inorm, out, nthreads)``, all positional: at the N of
    a march the wrappers' argument handling costs about as much as the
    transforms, and keywords cost about a microsecond more a call.  L is
    the binding's ``good_size(n, True)``, which ``scipy.fft.next_fast_len``
    caches.  The binding is ``spectral._load_pocketfft``'s, the one copy of
    pocketfft whose ``c2r`` also gives the march's slope samples, so a
    march imports neither a scipy module nor ``numpy.fft``.
    """
    binding = _load_pocketfft()
    return binding.good_size(3 * N // 2 + 1, True), binding.dst, binding.dct


def _half_grid_quadratic(padded: np.ndarray, work: np.ndarray, N: int) -> Callable[..., np.ndarray]:
    """A call writing the quadratic term of the spectra in padded[..., :N] (zeros past N, only read) into ``out``.

    The transforms are bound once.  The DST-III goes into ``work`` (which may be ``padded``), where the square and the DCT-II run in place.
    """
    L, dst, dct = _half_grid(N)
    modes = work[..., 1 : N + 1]
    scale = np.full(modes.shape, -np.arange(1, N + 1, dtype=float) / (4.0 * L))  # of the modes' shape: a product that broadcasts is slower

    def quadratic(out: np.ndarray | None = None) -> np.ndarray:
        dst(padded, 3, (-1,), 0, work, 1)
        np.multiply(work, work, out=work)
        dct(work, 2, (-1,), 0, work, 1)
        return np.multiply(scale, modes, out=out)

    return quadratic


def nonlinear_pseudospectral(psi: np.ndarray) -> np.ndarray:
    """Same quadratic term via squaring on the staggered half grid.

    Unnormalised DST-III of psi (zero-padded to L) gives -u(xi_k); the
    midpoint rule on (0, pi) turns the unnormalised DCT-II of u^2 into
    2L times its Fourier coefficients w_hat(n), and mode n of -(u^2/2)_x
    is -(n/2) * w_hat(n).  Both transforms run along the last axis, in
    place on a padded buffer of the call's own, so the input is only read.
    """
    psi = np.asarray(psi, dtype=float)
    N = psi.shape[-1]
    u = np.zeros(psi.shape[:-1] + (_half_grid(N)[0],))
    u[..., :N] = psi
    return _half_grid_quadratic(u, u, N)()


def _if_rk4_stepper(e1: np.ndarray, dt: float, kernel: Kernel) -> Callable[[np.ndarray], np.ndarray]:
    """IF-RK4 steps of one march's (B, N) stack; e1 = exp(-nu n^{2 alpha} dt/2) per row.

    The new state is  e2 psi + dt/6 (e2 k1 + 2 e1 (k2 + k3) + k4)  with
    e2 = e1 * e1, k1 = N(psi), k2 = N(e1 (psi + dt/2 k1)), k3 = N(e1 psi + dt/2 k2)
    and k4 = N(e2 psi + dt e1 k3), each operation done in place but in the
    order and grouping of that formula, so every rounding is the same as if
    it were evaluated term by term.

    The buffers are the stepper's own: no two marches share one.  Each
    stage is formed in a contiguous (B, N) ``stage``, and its last
    operation writes it into the kernel's input ``kin``.  For the
    default kernel ``kin`` is the first N columns of a (B, L) pad whose tail
    is zeroed once, here, and ``_half_grid_quadratic`` transforms the pad
    through a (B, L) work buffer; a custom kernel reads a (B, N) ``kin``
    and its result is copied into k.  Where ``kin`` is contiguous (B = 1, or
    a custom kernel) it is the stage itself.  A step leaves the state it is
    given as it is, then keeps it as scratch that the next step overwrites.
    """
    e2, dt_e1, two_e1 = e1 * e1, dt * e1, 2.0 * e1
    half_dt, sixth_dt, N = np.full(e1.shape, 0.5 * dt), np.full(e1.shape, dt / 6.0), e1.shape[-1]  # arrays: faster factors than scalars
    k1, k2, k3, k4, e_psi = (np.empty(e1.shape) for _ in range(5))
    if kernel is nonlinear_pseudospectral:
        pad = np.zeros(e1.shape[:-1] + (_half_grid(N)[0],))
        kin = pad[..., :N]
        nonlinear = _half_grid_quadratic(pad, np.empty_like(pad), N)
    else:
        kin = np.empty(e1.shape)
        nonlinear = lambda k: np.copyto(k, kernel(kin))  # noqa: E731
    stage = kin if kin.flags.c_contiguous else np.empty(e1.shape)

    def step(psi: np.ndarray) -> np.ndarray:
        nonlocal k1, k2, stage  # in-place operators rebind these names (to the same arrays)
        np.copyto(kin, psi)
        nonlinear(k1)
        np.multiply(k1, half_dt, out=stage)
        stage += psi
        np.multiply(stage, e1, out=kin)
        nonlinear(k2)
        np.multiply(e1, psi, out=e_psi)
        np.multiply(k2, half_dt, out=stage)
        np.add(stage, e_psi, out=kin)
        nonlinear(k3)
        np.multiply(e2, psi, out=e_psi)  # now e2 psi
        np.multiply(dt_e1, k3, out=stage)
        np.add(stage, e_psi, out=kin)
        nonlinear(k4)
        k2 += k3
        k2 *= two_e1
        k1 *= e2
        k1 += k2
        k1 += k4
        k1 *= sixth_dt
        k1 += e_psi
        new, k1 = k1, psi
        return new

    return step


@dataclass(frozen=True)
class DiagnosticsConfig:
    stride: int = 10
    r: float | None = None  # None: use r0 = ||u0|| / ||F|| (``optimal_scale``) for the distance diagnostic
    tail_threshold: float = 1e-3
    store_spectra: bool = False

    def __post_init__(self):
        checked = {
            "stride": _checked("stride", self.stride, "a positive integer", lambda stride: stride >= 1, numbers.Integral),
            "tail_threshold": _positive("tail threshold", self.tail_threshold),  # a NaN threshold would never trip
            "store_spectra": _checked("store_spectra", self.store_spectra, "a bool", kind=bool),
            "r": None if self.r is None else _checked("r", self.r, "a real number or None"),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.r is not None and not math.isfinite(float(self.r) * float(self.r) * F_L2_NORM_SQ):
            raise ValueError(f"r={self.r} is too large: the distance term r^2 ||F||^2 leaves the float range")


#: the per-record series of a SimulationRecord besides ``times``, in CSV order
_DIAGNOSTIC_COLUMNS = ("energy", "diss_integral", "lyapunov", "dist_rF", "h1_norm", "tail_fraction", "min_ux")


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

    CSV_HEADER = ",".join(("t",) + _DIAGNOSTIC_COLUMNS)

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


def tail_energy_fraction(psi: np.ndarray) -> float | np.ndarray:
    """Energy in the top eighth of the modes over total energy (0 for a zero field).

    Below N = 8 the tail is the top mode, so that blowup detection still
    sees energy reach the truncation; a single mode (N = 1) has no
    quadratic term to feed it and no tail.  Reduces along the last axis:
    one value per row of a (..., N) stack.
    """
    squares, N = psi**2, psi.shape[-1]
    total, tail = squares.sum(axis=-1), squares[..., N - (max(1, N // 8) if N > 1 else 0) :].sum(axis=-1)
    frac = np.divide(tail, total, out=np.zeros_like(total), where=total != 0.0)
    return frac if psi.ndim > 1 else float(frac)


def lyapunov_diagnostic(psi: np.ndarray, jump_location: str = "origin") -> float | np.ndarray:
    """L = <F(x - s), u> = 4 pi sum psi_n / n, times (-1)^n for s = pi; one value per row of a stack.

    The march records it for F (s = 0); the pairing with c F(x - s) is c times it.
    """
    n = np.arange(1, psi.shape[-1] + 1, dtype=float)
    if _jump(jump_location) == "pi":
        n[::2] *= -1.0
    lyap = FOUR_PI * np.sum(psi / n, axis=-1)
    return lyap if psi.ndim > 1 else float(lyap)


def optimal_scale(psi: np.ndarray) -> np.ndarray:
    """r0 = ||u|| / ||F|| per row (``attractors.optimal_r``), taken on ``_unit_scaled`` rows: exact where ||u||^2 underflows."""
    scaled, k = _unit_scaled(psi)
    return np.ldexp(np.sqrt(_weighted_energy(scaled) / F_L2_NORM_SQ), k)


def profile_distance(energy, pairing, c, k=0):
    """||u - c F(x - s)||^2 = E - 2 c <F(x - s), u> + c^2 ||F||^2, elementwise, from E / 4^k (of u / 2^k) and the pairing.

    The terms are formed for u and c F both divided by 2^j, j = max(k, exponent of c), where none
    under- or overflows, and scaled back: in the normal range that is exact, the plain expression's bits.
    """
    j = np.maximum(k, np.frexp(c)[1])
    c_j = np.ldexp(c, -j)
    return np.ldexp(np.ldexp(energy, 2 * (k - j)) - 2.0 * c_j * np.ldexp(pairing, -j) + c_j * c_j * F_L2_NORM_SQ, 2 * j)


def evolve(
    spec0: SineSpectrum,
    params: ModelParams,
    t_end: float,
    dt: float,
    diag: DiagnosticsConfig | None = None,
    kernel: Kernel = nonlinear_pseudospectral,
) -> SimulationRecord:
    """Fixed-step march of one spectrum: ``evolve_batch`` with a single row."""
    return evolve_batch([spec0], [params], t_end, dt, diag, kernel)[0]


#: relative tolerance within which t_end/dt counts as a whole number of steps
_STEP_COUNT_RTOL = 1e-9
#: the most steps a march or table may ask for: a step takes tens of microseconds even at N = 1, so 10^9 take hours
_MAX_STEPS = 10**9


def _step_count(t_end: float, dt: float) -> int:
    """round(t_end/dt) for finite positive dt and t_end; ValueError unless t_end/dt is whole,
    since any other count stops early or late, and at most ``_MAX_STEPS``, since no longer march finishes."""
    steps = _positive("t_end", t_end) / _positive("dt", dt)
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= _STEP_COUNT_RTOL * steps):
        raise ValueError(f"t_end/dt must be a whole number of steps, got {t_end}/{dt} = {steps}")
    if steps > _MAX_STEPS:
        raise ValueError(f"t_end/dt = {steps:g} steps is more than the {_MAX_STEPS:.0e} a march can finish")
    return round(steps)


#: the most modes x steps x rows a march may ask for: a mode-step-row takes at least 100 ns on one core, so 10^11 take hours
_MAX_MARCH_WORK = 10**11


def _march_steps(t_end: float, dt: float, N: int, rows: int) -> int:
    """``_step_count`` of a march of ``rows`` spectra of N modes; ValueError if N x steps x rows exceeds ``_MAX_MARCH_WORK``."""
    steps = _step_count(t_end, dt)
    if N * steps * rows > _MAX_MARCH_WORK:
        raise ValueError(f"modes x steps x rows = {N} x {steps} x {rows} is more than the {_MAX_MARCH_WORK:.0e} a march may take (hours)")
    return steps


#: a march tests its rows for a non-finite state at least this often, besides at each record, so a row that fails
#: stops within this many steps at any stride; it forms the columns of the records it holds once their min du/dx
#: grids reach this many samples (64 KiB: 2 records at N = 1024, B = 1)
_CHECK_INTERVAL, _RECORD_BLOCK_FLOATS = 64, 2**13


def evolve_batch(
    spectra: Sequence[SineSpectrum],
    params: Sequence[ModelParams],
    t_end: float,
    dt: float,
    diag: DiagnosticsConfig | None = None,
    kernel: Kernel = nonlinear_pseudospectral,
) -> list[SimulationRecord]:
    """Fixed-step march of a stack of spectra to t_end, one record per spectrum.

    The spectra share N, dt, t_end and ``diag``; alpha and nu may differ
    from row to row.  Diagnostics are recorded every ``stride`` steps.  A
    row halts on its own, with termination 'blowup_detected' when its
    spectral tail fraction exceeds the threshold at a record, the t = 0
    one included (a resolution-loss proxy, not a proof), or 'step_failure' (partial record)
    on a non-finite state; the other rows march on.  Each record equals the
    one its spectrum gives when marched alone.  t_end/dt must be a whole
    number of steps (to a relative 1e-9), at most ``_MAX_STEPS``, N x steps
    x rows at most ``_MAX_MARCH_WORK``, and a viscous row's dissipation rate
    g(u0) must be finite.

    The energy, ``dist_rF``, ``h1_norm`` and tail fraction of a record are
    taken on ``_unit_scaled`` rows, exact where ||u||^2 is subnormal.
    ``diss_integral`` is the trapezoid sum of g = 2 nu ||u||_{H^alpha}^2
    = sum_n w_n psi_n^2 over every step, reordered by linearity: each step
    adds dt w_n psi_n^2 of the unscaled state to a running sum per mode,
    S_n = dt w_n (psi_{0,n}^2 / 2 + sum_{1<=j<=k} psi_{j,n}^2), and a
    record at step k forms sum_n (S_n - dt w_n psi_{k,n}^2 / 2).  S is
    tested at each record and every ``_CHECK_INTERVAL`` steps, so a row gone
    non-finite retires before its next record and within that many steps.
    The other columns but the tail fraction are formed when a block of held
    records is flushed (when full, at a retirement and at the end).
    """
    if not spectra or len(spectra) != len(params):
        raise ValueError("need at least one spectrum and one ModelParams per spectrum")
    N = spectra[0].N
    if any(spec.N != N for spec in spectra):
        raise ValueError("all spectra must have the same mode count")
    n_steps = _march_steps(t_end, dt, N, len(spectra))
    diag = diag or DiagnosticsConfig()
    n = np.arange(1, N + 1, dtype=float)
    n_sq = n**2
    M_diag = next_pow2(max(256, 2 * (N + 1)))  # grid of the min du/dx diagnostic

    # one row per spectrum, each built exactly as a single-row march builds it
    psi = np.stack([spec.psi for spec in spectra])
    with np.errstate(over="ignore", invalid="ignore"):
        half_decay = np.stack([np.exp(-0.5 * dt * dissipation_symbol(p, N)) for p in params])
        # g(psi) = 2 nu ||psi||_{H^alpha}^2 = sum w psi^2, the dissipation rate
        diss_weights = np.stack([2.0 * p.nu * FOUR_PI * n ** (2.0 * p.alpha) for p in params])
        g0 = (diss_weights * psi**2).sum(axis=-1)
    for p, weights, g in zip(params, diss_weights, g0):
        if not np.isfinite(weights[-1]):
            raise ValueError(f"nu={p.nu:g} is too large: the dissipation weight 8 pi nu N^(2 alpha) overflows at N={N}")
        if p.nu > 0.0 and not np.isfinite(g):
            raise ValueError(f"nu={p.nu:g} is too large for this initial data: its dissipation rate g(u0) overflows")

    r = optimal_scale(psi) if diag.r is None else np.full(len(spectra), float(diag.r))
    step = _if_rk4_stepper(half_decay, dt, kernel)  # rebuilt when rows retire

    log: list[tuple[int, np.ndarray, np.ndarray]] = []  # (step, active spectra, diagnostics x rows)
    pending: list[tuple] = []  # (step, rows, diss, their _unit_scaled rows and exponents, tail) of unlogged records
    stored: list[list[np.ndarray]] | None = [[] for _ in spectra] if diag.store_spectra else None
    terminations = [TERMINATION_T_END] * len(spectra)
    active = np.arange(len(spectra))  # the spectrum each row of psi belongs to

    def record(k: int, psi: np.ndarray, diss: np.ndarray) -> np.ndarray:
        """Hold a copy of the rows of every active spectrum for ``flush``; return their tail fractions."""
        scaled, exp2 = _unit_scaled(psi)
        rows, tail = psi.copy(), tail_energy_fraction(scaled)
        pending.append((k, rows, diss, scaled, exp2, tail))
        if stored is not None:
            for cell, row in zip(active, rows):
                stored[cell].append(row)
        if len(pending) * len(psi) * M_diag >= _RECORD_BLOCK_FLOATS:
            flush()
        return tail

    def flush() -> None:
        """Log the held records, each column formed for all at once; the quadratic ones on ``_unit_scaled`` rows, scaled back."""
        if pending:
            steps, psi, diss, scaled, exp2, tails = map(np.array, zip(*pending))
            squares = scaled**2
            energy = FOUR_PI * squares.sum(axis=-1)  # _weighted_energy(scaled), from the shared squares
            lyap = lyapunov_diagnostic(psi)
            values = [np.ldexp(energy, 2 * exp2), diss, lyap, profile_distance(energy, lyap, r[active], exp2),
                      np.ldexp(np.sqrt(FOUR_PI * (n_sq * squares).sum(axis=-1)), exp2), tails,
                      synthesize_slope(psi, M_diag).min(axis=-1)]
            log.extend(zip(steps, [active] * len(steps), np.array(values).swapaxes(0, 1)))
            pending.clear()

    def retire(ended: np.ndarray, reason: str) -> bool:
        """Give the rows in ``ended`` their termination and drop them; return whether any row is left."""
        nonlocal active, psi, diss_weights, sums, squares, half_decay, step
        flush()
        for cell in active[ended]:
            terminations[cell] = reason
        keep = ~ended
        # ``squares`` too: a record at the step of a retirement reads it
        active, psi, diss_weights, sums, squares, half_decay = (
            a[keep] for a in (active, psi, diss_weights, sums, squares, half_decay)
        )
        step = _if_rk4_stepper(half_decay, dt, kernel)
        return bool(keep.any())

    # overflow in a step is caught by the finiteness test that follows it; the
    # diagnostics of a state too large to square read inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # the squares are weighted by dt w as they are summed, so a sum overflows only where its share of D does
        diss_weights *= dt
        squares = diss_weights * psi**2
        sums = 0.5 * squares
        # k = 0 only records, so data under-resolved from the start stops there
        for k in range(n_steps + 1):
            if k:
                psi = step(psi)
                np.multiply(psi, psi, out=squares)
                squares *= diss_weights
                sums += squares
            at_record = k % diag.stride == 0 or k == n_steps
            # a NaN or inf coefficient makes its row of sums NaN or inf (0 * inf is NaN) at every later step
            if (at_record or k % _CHECK_INTERVAL == 0) and not np.isfinite(sums).all():
                failed = ~np.isfinite(psi).all(axis=-1)
                if failed.any() and not retire(failed, TERMINATION_STEP_FAILURE):
                    break
            if at_record:
                diss = (sums - 0.5 * squares).sum(axis=-1)
                blown = record(k, psi, diss) > diag.tail_threshold
                if blown.any() and not retire(blown, TERMINATION_BLOWUP):
                    break
        flush()

    # spectra only ever leave the stack, so each one's records are a prefix of the log
    times = np.array([k * dt for k, _, _ in log])
    table = np.empty((len(log), len(_DIAGNOSTIC_COLUMNS), len(spectra)))
    for i, (_, cells, values) in enumerate(log):
        table[i][:, cells] = values
    counts = np.bincount(np.concatenate([cells for _, cells, _ in log]), minlength=len(spectra))
    return [
        SimulationRecord(
            params=p,
            N=N,
            dt=dt,
            r=float(r[cell]),
            times=times[: counts[cell]].copy(),
            **dict(zip(_DIAGNOSTIC_COLUMNS, table[: counts[cell], :, cell].T.copy())),
            termination=terminations[cell],
            spectra=stored[cell] if stored is not None else None,
        )
        for cell, p in enumerate(params)
    ]


def write_table(path: str | Path, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns to path as CSV under header, every value "%.17g", which float() reads back exactly."""
    row = ",".join(["%.17g"] * len(columns))
    lines = [header] + [row % tuple(values) for values in np.column_stack(columns).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def record_to_csv(record: SimulationRecord, path: str | Path) -> None:
    """Write the record's times and diagnostics to path under ``SimulationRecord.CSV_HEADER``, via ``write_table``."""
    write_table(path, SimulationRecord.CSV_HEADER, [record.times] + [getattr(record, n) for n in _DIAGNOSTIC_COLUMNS])


def write_record_metadata(record: SimulationRecord, path: str | Path, extra: dict) -> None:
    payload = record.metadata() | extra
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
