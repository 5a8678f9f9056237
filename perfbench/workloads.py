"""The three benchmark workloads: seeded inputs, one pass, correctness checks.

Each workload takes the inputs that ``inputs.generate`` drew from the seed.
``warmup`` calls every entry point once on a small input, so that
``lru_cache``s and FFT set-up are filled before the first timed pass.
``run_pass`` runs the job list once, times the jobs (not the checks), and
checks every output against the tolerances pinned in the acceptance gate.

Library functions are looked up as module attributes at call time
(``dynamics.evolve``, ``blowup.monitor_lyapunov_bound``) so that a traced
pass sees the tracer's wrappers; an untraced pass calls the originals.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from burgers_lab import blowup, cli, dynamics
from burgers_lab.spectral import SineSpectrum

#: ||F||_{L2} of the attractor profile, sqrt(2 pi^3 / 3)
F_NORM = math.sqrt(2.0 * math.pi**3 / 3.0)

# pinned tolerances of tests/test_acceptance.py, reused as they stand
ENERGY_EQUALITY_TOL = 1e-6  # criterion 7
MONITOR_SLACK_FLOOR = 1e-8  # criterion 8, times L0^2
CURVE_SLACK = 1e-6  # criterion 9, times L0
RESOLVED_TAIL = 1e-8  # criterion 9
CEILING_SLACK = 1e-9  # criterion 12
DECAY_LAW_TOL = 1e-6  # criterion 2, times D0
ORACLE_TOL = 1e-10  # criterion 6, relative to max |direct|


@dataclass
class PassResult:
    """Outcome of one pass over a workload's job list."""

    wall: float  # seconds spent in the jobs, checks excluded
    work: float  # the workload's unit of work completed in the pass
    work_wall: float  # seconds of the jobs that do that work
    attempted: int = 0
    failed: int = 0
    files: int = 0
    bytes: int = 0
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class Tally:
    """Counts jobs and checks attempted and failed within one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, what: str):
        self.failed += 1
        self.problems.append(what)

    def job(self, what: str, fn, *args, **kwargs):
        """Run one job; a raised exception counts as a failed job."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self._fail(f"{what}: {traceback.format_exc(limit=2).strip()}")
            return None

    def cli(self, argv: list[str]) -> int | None:
        """cli.main in-process, output captured; a nonzero exit is a failure."""
        self.attempted += 1
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:
            self._fail(f"cli {argv[0]}: {traceback.format_exc(limit=2).strip()}")
            return None
        if code != 0:
            self._fail(f"cli {argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}")
        return code

    def check(self, what: str, predicate, *args):
        """One correctness check; an exception while checking is a failure."""
        self.attempted += 1
        try:
            ok = bool(predicate(*args))
        except Exception as exc:
            ok = False
            what = f"{what} ({type(exc).__name__}: {exc})"
        if not ok:
            self._fail(what)


def _fmt(x: float) -> str:
    return repr(float(x))


def _dir_usage(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def ceiling_holds(energy: np.ndarray, lyap: np.ndarray) -> bool:
    """L(t) <= ||F|| ||u0|| along a record (criterion 12)."""
    return float(np.max(lyap)) <= F_NORM * math.sqrt(float(energy[0])) + CEILING_SLACK


# ---------------------------------------------------------------------------

class Galerkin:
    """The acceptance gate's two IF-RK4 trajectories, audited end to end."""

    name = "galerkin"
    work_unit = "steps"
    host_exponent = 1.1  # see NOTES.md, "Host-speed correction"
    VISCOUS = (dynamics.ModelParams(0.25, 0.1), 0.5, 1e-4)  # params, t_end, dt
    SUPERCRITICAL = (dynamics.ModelParams(0.25, 0.04), 2.5, 5e-5)

    def __init__(self, spec: dict, workdir: Path):
        self.viscous_u0 = SineSpectrum(np.array(spec["viscous_psi"]))
        self.super_u0 = SineSpectrum(np.array(spec["super_psi"]))
        self.R = spec["R"]
        self.diag = dynamics.DiagnosticsConfig(stride=10, store_spectra=True)

    def warmup(self):
        for u0, (params, _, dt) in ((self.viscous_u0, self.VISCOUS), (self.super_u0, self.SUPERCRITICAL)):
            rec = dynamics.evolve(u0, params, 20 * dt, dt, self.diag)
            blowup.monitor_lyapunov_bound(rec)
            blowup.detect_numerical_blowup(rec)
        blowup.certify_blowup_F(self.super_u0, self.SUPERCRITICAL[0])
        blowup.corollary_condition(self.R, self.SUPERCRITICAL[0])

    def run_pass(self, kernel=None) -> PassResult:
        """One pass; ``kernel`` replaces the quadratic kernel of both runs."""
        tally = Tally()
        extra = {} if kernel is None else {"kernel": kernel}
        records = []
        t0 = perf_counter()
        for what, u0, (params, t_end, dt) in (
            ("viscous", self.viscous_u0, self.VISCOUS),
            ("supercritical", self.super_u0, self.SUPERCRITICAL),
        ):
            records.append(tally.job(f"evolve {what}", dynamics.evolve, u0, params, t_end, dt, self.diag, **extra))
        t1 = perf_counter()
        params = self.SUPERCRITICAL[0]
        reports = [tally.job("monitor", blowup.monitor_lyapunov_bound, rec) for rec in records]
        cert = tally.job("certify_blowup_F", blowup.certify_blowup_F, self.super_u0, params)
        corollary = tally.job("corollary_condition", blowup.corollary_condition, self.R, params)
        t_star = tally.job("detect", blowup.detect_numerical_blowup, records[1])
        t2 = perf_counter()

        visc, sup = records
        tally.check(
            "energy equality (viscous)",
            lambda: np.max(np.abs(visc.energy + visc.diss_integral - visc.energy[0]) / visc.energy[0])
            <= ENERGY_EQUALITY_TOL,
        )
        for what, rec, rep in zip(("viscous", "supercritical"), records, reports):
            tally.check(
                f"monitor slack ({what})",
                lambda: rep.min_slack_resolved >= -MONITOR_SLACK_FLOOR * rec.lyapunov[0] ** 2,
            )
            tally.check(f"L(t) ceiling ({what})", ceiling_holds, rec.energy, rec.lyapunov)
        tally.check("certificate holds", lambda: cert.hypotheses_hold and corollary.hypotheses_hold)
        tally.check("detection t* <= predicted bound", lambda: t_star is not None and t_star <= cert.predicted_bound_T)
        tally.check("L(t) dominates the singular curve", self._curve_dominated, sup, cert)
        nonlinear = kernel or dynamics.nonlinear_pseudospectral
        for what, rec in zip(("viscous", "supercritical"), records):
            tally.check(f"kernel matches the direct-sum oracle ({what})", self._kernel_matches_oracle, nonlinear, rec)

        steps = sum(round(float(r.times[-1]) / r.dt) for r in records if r is not None)
        return PassResult(
            wall=t2 - t0,
            work=float(steps),
            work_wall=t1 - t0,
            attempted=tally.attempted,
            failed=tally.failed,
            counts={"steps": steps},
            problems=tally.problems,
        )

    @staticmethod
    def _kernel_matches_oracle(nonlinear, rec) -> bool:
        """Criterion 6 on the run's own first, middle and last stored states.

        The state-wise checks above (energy equality, monitor slack, L(t)
        ceiling) hold along any trajectory of a kernel that conserves
        energy, including a sign-flipped one; this one ties the trajectory
        to the equation's quadratic term.
        """
        spectra = rec.spectra
        for psi in (spectra[0], spectra[len(spectra) // 2], spectra[-1]):
            direct = dynamics.nonlinear_direct(psi)
            if np.max(np.abs(nonlinear(psi) - direct)) > ORACLE_TOL * np.max(np.abs(direct)):
                return False
        return True

    @staticmethod
    def _curve_dominated(rec, cert) -> bool:
        """Criterion 9: L(t) + 1e-6 L0 >= simplified lower bound on resolved steps."""
        window = min(cert.window, blowup.simplified_horizon(cert.y0, cert.kappa))
        mask = (rec.times < window) & (rec.tail_fraction <= RESOLVED_TAIL)
        curve = np.array(
            [blowup.simplified_lower_bound(cert.y0, cert.kappa, cert.forcing_M, float(t)) for t in rec.times[mask]]
        )
        return bool(mask.any()) and float(np.min(rec.lyapunov[mask] + CURVE_SLACK * cert.L0 - curve)) >= 0.0


class Inviscid:
    """`burgers-lab inviscid` decay tables for seeded odd fields."""

    name = "inviscid"
    work_unit = "feet"
    host_exponent = 0.5  # its large matrix products slow down less than the probe

    def __init__(self, spec: dict, workdir: Path):
        self.fields = [tuple(f) for f in spec["fields"]]
        self.workdir = workdir

    def _argv(self, init: str, dt: float, t_end: float, out: Path) -> list[str]:
        return ["inviscid", "--init", init, "--dt", _fmt(dt), "--t-end", _fmt(t_end), "--out", str(out)]

    def warmup(self):
        init, tmax = self.fields[0]
        Tally().cli(self._argv(init, 0.01 * tmax, 0.01 * tmax, _fresh(self.workdir / "warmup")))

    def run_pass(self, kernel=None) -> PassResult:
        del kernel  # no Galerkin kernel runs here
        tally = Tally()
        out = _fresh(self.workdir / "pass")
        t0 = perf_counter()
        for i, (init, tmax) in enumerate(self.fields):
            t_end = 0.9 * tmax
            tally.cli(self._argv(init, t_end / inputs.SAMPLES, t_end, out / f"field{i}"))
        wall = perf_counter() - t0

        grid = cli.ExperimentConfig.grid_size
        feet = 0
        for i in range(len(self.fields)):
            try:
                rows = _read_csv(out / f"field{i}" / "decay.csv")
            except (OSError, ValueError):
                rows = None
            tally.check(f"decay table field{i} complete", lambda: rows.shape[0] == inputs.SAMPLES + 1)
            tally.check(f"decay law field{i}", self._decay_law_holds, rows)
            if rows is not None:
                feet += grid * int(np.count_nonzero(rows[:, 0] > 0.0))
        files, size = _dir_usage(out)
        return PassResult(wall, float(feet), wall, tally.attempted, tally.failed, files, size,
                          {"feet": feet}, tally.problems)

    @staticmethod
    def _decay_law_holds(rows: np.ndarray) -> bool:
        """Criterion 2: |D(t) - (D0 - r ||u0||^2 t)| <= 1e-6 D0."""
        return float(np.max(np.abs(rows[:, 1] - rows[:, 2]))) <= DECAY_LAW_TOL * rows[0, 1]


class Survey:
    """`burgers-lab sweep --simulate` over a seeded grid, then `verify`."""

    name = "survey"
    work_unit = "cells"
    host_exponent = 1.4
    MODES, DT, T_END = 128, 5e-4, 0.25  # 500 steps per cell at most

    def __init__(self, spec: dict, workdir: Path):
        self.alphas, self.nus, self.Rs = spec["alphas"], spec["nus"], spec["Rs"]
        self.verify_seed = spec["verify_seed"]
        self.workdir = workdir

    def _argv(self, alphas, nus, Rs, t_end, out: Path) -> list[str]:
        return [
            "sweep",
            "--alphas", ",".join(map(_fmt, alphas)),
            "--nus", ",".join(map(_fmt, nus)),
            "--Rs", ",".join(map(_fmt, Rs)),
            "--modes", str(self.MODES), "--dt", _fmt(self.DT), "--t-end", _fmt(t_end),
            "--simulate", "--out", str(out),
        ]  # fmt: skip

    def warmup(self):
        tally = Tally()
        out = _fresh(self.workdir / "warmup")
        tally.cli(self._argv(self.alphas[:1], self.nus[:1], self.Rs[:1], 10 * self.DT, out))
        tally.cli(["verify", "--suite", "comparison-lemma"])

    def run_pass(self, kernel=None) -> PassResult:
        del kernel  # the sweep calls evolve with its default kernel
        tally = Tally()
        out = _fresh(self.workdir / "pass")
        t0 = perf_counter()
        tally.cli(self._argv(self.alphas, self.nus, self.Rs, self.T_END, out))
        t1 = perf_counter()
        tally.cli(["verify", "--seed", str(self.verify_seed)])
        t2 = perf_counter()

        expected = sorted((a, nu, R) for a in self.alphas for nu in self.nus for R in self.Rs)
        tally.check("every sweep cell once in sweep.csv", lambda: self._cells_listed(out / "sweep.csv") == expected)
        cell_csvs = sorted(out.glob("cell_*.csv"))
        tally.check("one time series per cell", lambda: len(cell_csvs) == len(expected))
        steps = 0
        for path in cell_csvs:
            try:
                series = _read_csv(path)
            except ValueError:
                series = None
            tally.check(f"finite series {path.name}", lambda: bool(np.all(np.isfinite(series))))
            tally.check(f"L(t) ceiling {path.name}", lambda: ceiling_holds(series[:, 1], series[:, 3]))
            if series is not None:
                steps += round(float(series[-1, 0]) / self.DT)
        files, size = _dir_usage(out)
        return PassResult(t2 - t0, float(len(cell_csvs)), t1 - t0, tally.attempted, tally.failed, files, size,
                          {"cells": len(cell_csvs), "steps": steps, "sweep_s": t1 - t0}, tally.problems)

    @staticmethod
    def _cells_listed(path: Path) -> list[tuple]:
        with open(path, newline="") as fh:
            return sorted((float(r["alpha"]), float(r["nu"]), float(r["R"])) for r in csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (Galerkin, Inviscid, Survey)}
