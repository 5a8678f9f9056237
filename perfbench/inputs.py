"""Seeded workload inputs, made with numpy alone.

run.py calls ``generate`` once per run, before any measuring process
starts, and the workers read the result back.  So the program sees only
generated inputs, and the cost of drawing them (rejection sampling on
inviscid) stays out of ``setup_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPEC = "spec.json"
CONVENTION = "u(x) = -2 * sum_n psi_n * sin(n*x)"

# inviscid
SAMPLES = 3  # sampled times per field, the last at 0.9 T_max
MODES = 256  # the CLI default --modes; file fields are stored at this N
NEWTON_CAP = 50  # the characteristics oracle's Newton iteration limit
FAST_NEWTON = 10  # iterations that count as a fast solve


def perturbed_sine(rng: np.random.Generator, amplitude: float, N: int) -> list[float]:
    """-amplitude*sin(x) plus modes 2..6 of relative L2 size in [2e-4, 1e-3]."""
    psi = np.zeros(N)
    psi[0] = 0.5 * amplitude
    bump = rng.standard_normal(5)
    bump *= rng.uniform(2e-4, 1e-3) * psi[0] / np.linalg.norm(bump)
    psi[1:6] = bump
    return psi.tolist()


def galerkin(rng: np.random.Generator, inputs: Path) -> dict:
    R = 10.0
    return {"viscous_psi": perturbed_sine(rng, 1.0, 512), "super_psi": perturbed_sine(rng, R, 1024), "R": R}


def tmax_estimate(psi: np.ndarray) -> float:
    """1 / (-min u0') from 2^16 samples; it lies at or above the true T_max."""
    x = np.linspace(-np.pi, np.pi, 1 << 16, endpoint=False)
    n = np.arange(1, psi.size + 1)
    slope = -2.0 * np.cos(np.multiply.outer(x, n)) @ (n * psi)
    return 1.0 / -float(slope.min())


def newton_iterations(psi: np.ndarray, t: float, M: int = 4096, tol: float = 1e-12) -> int:
    """Newton iterations from xi = x until every foot of xi + t u0(xi) = x
    is solved, or NEWTON_CAP + 1 when some are left.

    Mirrors the oracle's iteration (start, cap, tolerance) on the active
    modes only.
    """
    x = -np.pi + 2.0 * np.pi * np.arange(M) / M
    n = np.arange(1, psi.size + 1)

    def residual(xi):
        return xi - 2.0 * t * (np.sin(np.multiply.outer(xi, n)) @ psi) - x

    xi = x.copy()
    res = residual(xi)
    for k in range(NEWTON_CAP):
        if np.all(np.abs(res) <= tol):
            return k
        xi = xi - res / (1.0 - 2.0 * t * (np.cos(np.multiply.outer(xi, n)) @ (n * psi)))
        res = residual(xi)
    return NEWTON_CAP + int(np.any(np.abs(res) > tol))


def draw_field(rng: np.random.Generator, stalls_at_last: bool) -> tuple[np.ndarray, float]:
    """Draw 2..16 active low modes until the solves at the sampled times all
    converge within FAST_NEWTON iterations, except that the last one stalls
    when ``stalls_at_last`` is set."""
    while True:
        active = int(rng.integers(2, 17))
        psi = rng.uniform(-1.0, 1.0, active) / np.arange(1, active + 1) ** 2
        tmax = tmax_estimate(psi)
        iters = [newton_iterations(psi, 0.9 * tmax * k / SAMPLES) for k in range(1, SAMPLES + 1)]
        last_ok = iters[-1] > NEWTON_CAP if stalls_at_last else iters[-1] <= FAST_NEWTON
        if last_ok and max(iters[:-1]) <= FAST_NEWTON:
            return psi, tmax


def inviscid(rng: np.random.Generator, inputs: Path) -> dict:
    amplitude = float(rng.uniform(0.5, 2.0))
    fields = [[f"sine:{amplitude!r}", 1.0 / amplitude]]
    # One multi-mode field on which every Newton solve converges fast, and
    # one on which the solve at 0.9 T_max hits the iteration cap and falls
    # back to bisection.  About a third of random fields stall, and a
    # stalled solve costs ~7x a converged one, so leaving the mix to chance
    # made the cost of a pass vary 2x between seeds.
    for i, stalls_at_last in enumerate((False, True)):
        psi, tmax = draw_field(rng, stalls_at_last)
        path = inputs / f"field{i}.json"
        psi = np.pad(psi, (0, MODES - psi.size))
        path.write_text(json.dumps({"convention": CONVENTION, "N": MODES, "psi": psi.tolist()}))
        fields.append([f"file:{path}", tmax])
    return {"fields": fields}


def survey(rng: np.random.Generator, inputs: Path) -> dict:
    def distinct(lo, hi, count, digits):
        values = set()
        while len(values) < count:
            values.add(round(float(rng.uniform(lo, hi)), digits))
        return sorted(values)

    return {
        "alphas": distinct(0.15, 0.45, 3, 3),  # certificates need alpha < 1/2
        "nus": distinct(0.03, 0.2, 2, 3),
        # R <= 3 keeps every cell short of the detection stop (t_end < 1/R),
        # so each cell runs all its steps and a pass costs the same for
        # every seed
        "Rs": distinct(0.5, 3.0, 4, 2),
        "verify_seed": int(rng.integers(0, 2**31 - 1)),
    }


GENERATORS = {"galerkin": galerkin, "inviscid": inviscid, "survey": survey}


def generate(workload: str, seed: int, inputs: Path) -> dict:
    """Draw the inputs of one workload from ``seed`` and write them under ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    stream = list(GENERATORS).index(workload) + 1
    spec = GENERATORS[workload](np.random.default_rng([seed, stream]), inputs)
    (inputs / SPEC).write_text(json.dumps(spec))
    return spec


def load(inputs: Path) -> dict:
    return json.loads((inputs / SPEC).read_text())
