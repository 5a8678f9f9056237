"""Named invariant suites behind the ``verify`` command.

Each suite takes only a seed: it draws its own data from a seeded
generator, checks one of the structural identities at its pinned
tolerance, and reports the worst deviation seen.  A seed is an integer
>= 0 of the standard library's ``random.Random`` (``_draws``), so it gives
the same cases on every platform; ``comparison-lemma`` and
``lq-conservation`` run fixed cases and read no seed.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .attractors import key_identity_residuals
from .blowup import verify_comparison_lemma
from .characteristics import InitialField, sample_solution, tmax_inviscid
from .dynamics import nonlinear_direct, nonlinear_pseudospectral
from .spectral import SineSpectrum, _checked, _weighted_energy, grid_lq_norm, synthesize


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite: its largest deviation ``worst``, found at ``where``.

    A suite with more than one pinned quantity names the worst of each in
    ``worsts``; ``worst`` and ``where`` belong to the largest of them.
    """

    name: str
    passed: bool
    worst: float
    where: str
    detail: str
    worsts: dict[str, float] = field(default_factory=dict)


def _check(deviations: Sequence[float], pin: float, where: Callable[[int], str]) -> tuple[bool, float, str]:
    """(largest deviation <= pin, largest deviation, where(i) of its case i); a NaN is the largest and fails."""
    i = int(np.argmax(deviations))
    return bool(deviations[i] <= pin), float(deviations[i]), where(i)


def _named_result(name: str, detail: str, checks: dict[str, tuple[bool, float, str]]) -> SuiteResult:
    """Result of a suite with one ``_check`` per pinned quantity."""
    parts = list(checks.values())
    _, worst, where = parts[int(np.argmax([value for _, value, _ in parts]))]
    worsts = {key: value for key, (_, value, _) in checks.items()}
    return SuiteResult(name, all(ok for ok, _, _ in parts), worst, where, detail, worsts)


def _draws(seed: int) -> tuple[Callable[[int, int], int], Callable[[int], np.ndarray]]:
    """(randrange, uniform) of ``random.Random(seed)``, which would seed -1 as 1: ValueError unless seed is an integer >= 0.

    ``uniform(n)`` is n exact doubles on [-1, 1), each from the top 53 of 64 random bits, the same on every platform.
    """
    rng = random.Random(_checked("seed", seed, "an integer >= 0", lambda v: v >= 0, numbers.Integral))

    def uniform(n: int) -> np.ndarray:
        return (np.frombuffer(rng.randbytes(8 * n), "<u8") >> 11) * 2.0**-52 - 1.0

    return rng.randrange, uniform


def key_identity_suite(seed: int = 0) -> SuiteResult:
    """<F, u u_x> + ||u||^2/2 = 0 over 50 random odd trig polynomials, each path pinned on its own."""
    randrange, uniform = _draws(seed)
    coeff, quad, sizes = [], [], []
    for _ in range(50):
        N = randrange(1, 33)
        spec = SineSpectrum(uniform(N))
        energy = float(_weighted_energy(spec.psi))
        res_coeff, res_quad = key_identity_residuals(spec)
        coeff.append(abs(res_coeff) / max(energy, 1e-300))
        quad.append(abs(res_quad))
        sizes.append(N)
    at = lambda i: f"seed {seed}, case {i}, N={sizes[i]}"
    checks = {"coefficient": _check(coeff, 1e-10, at), "quadrature": _check(quad, 1e-6, at)}
    return _named_result("key-identity", "50 odd polynomials, N<=32", checks)


def energy_neutrality_suite(seed: int = 0) -> SuiteResult:
    """sum psi_n * Nonlinear(psi)_n = 0 exactly under truncation, over 100 spectra at N = 256."""
    cases, N = 100, 256
    _, uniform = _draws(seed)
    deviations = []
    for _ in range(cases):
        psi = uniform(N)
        scale = float(np.sum(np.abs(psi))) ** 3
        deviations.append(abs(float(np.dot(psi, nonlinear_direct(psi)))) / scale)
    at = lambda i: f"seed {seed}, case {i}, N={N}"
    return SuiteResult("energy-neutrality", *_check(deviations, 1e-12, at), f"{cases} spectra at N={N}")


def lyapunov_identity_suite(seed: int = 0) -> SuiteResult:
    """sum Nonlinear(psi)_n / n = sum psi_n^2 / 2 for 100 half-supported spectra at N = 256."""
    cases, N = 100, 256
    _, uniform = _draws(seed)
    n = np.arange(1, N + 1, dtype=float)
    deviations = []
    for _ in range(cases):
        psi = np.zeros(N)
        psi[: N // 2] = uniform(N // 2)
        scale = float(np.sum(np.abs(psi))) ** 2
        res = abs(float(np.sum(nonlinear_direct(psi) / n)) - 0.5 * float(np.sum(psi**2)))
        deviations.append(res / scale)
    at = lambda i: f"seed {seed}, case {i}, N={N}"
    return SuiteResult("lyapunov-identity", *_check(deviations, 1e-12, at), f"{cases} half-supported spectra at N={N}")


def oracle_equivalence_suite(seed: int = 0) -> SuiteResult:
    """Direct-sum and half-length DST/DCT kernels agree to 1e-10 relative, 20 spectra per N."""
    _, uniform = _draws(seed)
    deviations, case_sizes = [], []
    for N in (64, 256, 1024):
        for _ in range(20):
            psi = uniform(N)
            d = nonlinear_direct(psi)
            p = nonlinear_pseudospectral(psi)
            deviations.append(float(np.max(np.abs(d - p))) / max(float(np.max(np.abs(d))), 1e-300))
            case_sizes.append(N)
    at = lambda i: f"seed {seed}, case {i}, N={case_sizes[i]}"
    return SuiteResult("oracle-equivalence", *_check(deviations, 1e-10, at), "20 spectra per N in (64, 256, 1024)")


def comparison_lemma_suite(seed: int = 0) -> SuiteResult:
    """Scalar comparison bounds hold along integrated equality-case runs.

    The violation is the worst over all four runs, the unforced one (M = 0)
    included; that run must also match the closed-form Riccati solution.
    """
    del seed  # deterministic cases
    cases = ((1.0, 1.0, 0.2), (2.0, 1.0, 0.5), (1.0, 0.5, 0.1), (1.0, 1.0, 0.0))
    reports = [verify_comparison_lemma(*case) for case in cases]
    pairs = [(rep.max_comparison_violation, rep.max_simplified_violation) for rep in reports]
    violations = [np.max([v for v in pair if v is not None]) for pair in pairs]
    at = lambda i: "y0={:g}, kappa={:g}, M={:g}".format(*cases[i])
    riccati = _check([reports[-1].riccati_max_error], 1e-9, lambda _: at(len(cases) - 1))
    checks = {"violation": _check(violations, 1e-9, at), "riccati": riccati}
    return _named_result("comparison-lemma", "3 forced cases + closed-form check", checks)


def lq_conservation_suite(seed: int = 0) -> SuiteResult:
    """L1/L2/Linf norms are carried unchanged along characteristics, on the 4096-point grid."""
    del seed  # fixed canonical data
    M = 4096
    u0 = InitialField(SineSpectrum([0.5]))
    t_max = tmax_inviscid(u0)
    ref = synthesize(u0.spectrum, M)
    deviations, cases = [], []
    for frac in np.arange(0.1, 0.95, 0.1):
        grid = sample_solution(u0, float(frac * t_max), M)
        for q in (1.0, 2.0, np.inf):
            a, b = grid_lq_norm(grid, q), grid_lq_norm(ref, q)
            deviations.append(abs(a - b) / b)
            cases.append(f"t/Tmax={frac:.1f}, q={q:g}")
    detail = "q in {1,2,inf}, t/Tmax in 0.1..0.9"
    return SuiteResult("lq-conservation", *_check(deviations, 1e-6, cases.__getitem__), detail)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "key-identity": key_identity_suite,
    "energy-neutrality": energy_neutrality_suite,
    "lyapunov-identity": lyapunov_identity_suite,
    "oracle-equivalence": oracle_equivalence_suite,
    "comparison-lemma": comparison_lemma_suite,
    "lq-conservation": lq_conservation_suite,
}


def run_suites(seed: int = 0, only: str | None = None) -> list[SuiteResult]:
    """Every suite, or only the one named ``only``; a name not in SUITES, the empty one too, is refused."""
    if only is not None and only not in SUITES:
        raise ValueError(f"unknown suite {only!r}; choose from {sorted(SUITES)}")
    names = list(SUITES) if only is None else [only]
    return [SUITES[name](seed=seed) for name in names]

