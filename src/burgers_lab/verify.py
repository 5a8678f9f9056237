"""Named invariant suites behind the ``verify`` command.

Each suite draws its own data from a seeded generator, checks one of the
structural identities at its pinned tolerance, and reports the worst
deviation seen.  The quadratic kernel is injectable so a deliberately
broken build (e.g. a sign flip in the tail sum) can be shown to fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attractors import key_identity_residuals
from .blowup import verify_comparison_lemma
from .characteristics import InitialField, sample_solution, tmax_inviscid
from .dynamics import nonlinear_direct, nonlinear_pseudospectral
from .spectral import SineSpectrum, grid_lq_norm, sobolev_norm, synthesize


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    detail: str


Kernel = Callable[[np.ndarray], np.ndarray]


def key_identity_suite(seed: int = 0, cases: int = 50, quad_nodes: int = 4096) -> SuiteResult:
    """<F, u u_x> + ||u||^2/2 = 0 over random odd trig polynomials, both paths."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(cases):
        N = int(rng.integers(1, 33))
        spec = SineSpectrum(rng.uniform(-1.0, 1.0, N))
        energy = sobolev_norm(spec, 0.0) ** 2
        res_coeff, res_quad = key_identity_residuals(spec, quad_nodes)
        rel = abs(res_coeff) / max(energy, 1e-300)
        worst = max(worst, rel, abs(res_quad))
        ok = ok and rel <= 1e-10 and abs(res_quad) <= 1e-6
    return SuiteResult("key-identity", ok, worst, f"{cases} odd polynomials, N<=32")


def energy_neutrality_suite(
    seed: int = 0, cases: int = 100, N: int = 256, nonlinear: Kernel | None = None
) -> SuiteResult:
    """sum psi_n * Nonlinear(psi)_n = 0 exactly under truncation."""
    nl = nonlinear or nonlinear_direct
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        psi = rng.uniform(-1.0, 1.0, N)
        scale = float(np.sum(np.abs(psi))) ** 3
        worst = max(worst, abs(float(np.dot(psi, nl(psi)))) / scale)
    return SuiteResult("energy-neutrality", worst <= 1e-12, worst, f"{cases} spectra at N={N}")


def lyapunov_identity_suite(
    seed: int = 0, cases: int = 100, N: int = 256, nonlinear: Kernel | None = None
) -> SuiteResult:
    """sum Nonlinear(psi)_n / n = sum psi_n^2 / 2 for half-supported spectra."""
    nl = nonlinear or nonlinear_direct
    rng = np.random.default_rng(seed)
    n = np.arange(1, N + 1, dtype=float)
    worst = 0.0
    for _ in range(cases):
        psi = np.zeros(N)
        psi[: N // 2] = rng.uniform(-1.0, 1.0, N // 2)
        scale = float(np.sum(np.abs(psi))) ** 2
        res = abs(float(np.sum(nl(psi) / n)) - 0.5 * float(np.sum(psi**2)))
        worst = max(worst, res / scale)
    return SuiteResult("lyapunov-identity", worst <= 1e-12, worst, f"{cases} half-supported spectra at N={N}")


def oracle_equivalence_suite(
    seed: int = 0, cases: int = 20, sizes: Sequence[int] = (64, 256, 1024)
) -> SuiteResult:
    """Direct-sum and padded-transform kernels agree to 1e-10 relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for N in sizes:
        for _ in range(cases):
            psi = rng.uniform(-1.0, 1.0, N)
            d = nonlinear_direct(psi)
            p = nonlinear_pseudospectral(psi)
            worst = max(worst, float(np.max(np.abs(d - p))) / max(float(np.max(np.abs(d))), 1e-300))
    return SuiteResult("oracle-equivalence", worst <= 1e-10, worst, f"{cases} spectra per N in {tuple(sizes)}")


def comparison_lemma_suite(seed: int = 0) -> SuiteResult:
    """Scalar comparison bounds hold along integrated equality-case runs."""
    del seed  # deterministic cases
    worst = -np.inf
    ok = True
    for y0, kappa, M in ((1.0, 1.0, 0.2), (2.0, 1.0, 0.5), (1.0, 0.5, 0.1)):
        rep = verify_comparison_lemma(y0, kappa, M)
        ok = ok and rep.passed
        worst = max(worst, rep.max_comparison_violation)
        if rep.max_simplified_violation is not None:
            worst = max(worst, rep.max_simplified_violation)
    rep0 = verify_comparison_lemma(1.0, 1.0, 0.0)
    ok = ok and rep0.passed and rep0.riccati_max_error <= 1e-9
    return SuiteResult("comparison-lemma", ok, worst, "3 forced cases + closed-form check")


def lq_conservation_suite(seed: int = 0, M: int = 4096) -> SuiteResult:
    """L1/L2/Linf norms are carried unchanged along characteristics."""
    del seed  # fixed canonical data
    u0 = InitialField(SineSpectrum([0.5]))
    t_max = tmax_inviscid(u0)
    ref = synthesize(u0.spectrum, M)
    worst = 0.0
    for frac in np.arange(0.1, 0.95, 0.1):
        grid = sample_solution(u0, float(frac * t_max), M)
        for q in (1.0, 2.0, np.inf):
            a, b = grid_lq_norm(grid, q), grid_lq_norm(ref, q)
            worst = max(worst, abs(a - b) / b)
    return SuiteResult("lq-conservation", worst <= 1e-6, worst, "q in {1,2,inf}, t/Tmax in 0.1..0.9")


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "key-identity": key_identity_suite,
    "energy-neutrality": energy_neutrality_suite,
    "lyapunov-identity": lyapunov_identity_suite,
    "oracle-equivalence": oracle_equivalence_suite,
    "comparison-lemma": comparison_lemma_suite,
    "lq-conservation": lq_conservation_suite,
}


def run_suites(seed: int = 0, only: str | None = None) -> list[SuiteResult]:
    names = [only] if only else list(SUITES)
    if only and only not in SUITES:
        raise ValueError(f"unknown suite {only!r}; choose from {sorted(SUITES)}")
    return [SUITES[name](seed=seed) for name in names]

