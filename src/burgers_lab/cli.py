"""Command-line runner for reproducible experiments.

Subcommands: simulate, inviscid, verify, certify, sweep.  Settings come
from a flat JSON config file (--config) and/or flags; flags win.  All
floating-point output is printed with 17 significant digits so files
round-trip exactly.

Exit codes: 0 on completion, 1 on configuration/validation errors, 2 when
a simulation step fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .attractors import (
    AttractorFn,
    attractor_decay_series,
    load_attractor,
    make_F,
    make_Phi,
    make_sawtooth,
    optimal_r,
)
from .blowup import (
    certificate_to_dict,
    certify_blowup_F,
    certify_blowup_H,
    corollary_condition,
    detect_numerical_blowup,
)
from .characteristics import HorizonError, InitialField, RootFindError, tmax_inviscid
from .dynamics import (
    TERMINATION_STEP_FAILURE,
    DiagnosticsConfig,
    ModelParams,
    evolve,
    record_to_csv,
    write_record_metadata,
)
from .spectral import SineSpectrum, load_spectrum
from .verify import SUITES, run_suites

MODES = ("simulate", "inviscid", "verify", "certify", "sweep")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    mode: str
    alpha: float | None = None
    nu: float | None = None
    init: str = "sine:1"
    modes: int = 256
    dt: float = 1e-4
    t_end: float = 1.0
    grid_size: int = 4096
    stride: int = 10
    attractor: str = "F"
    r: str = "auto"
    out: str = "out"
    seed: int = 0
    tail_threshold: float = 1e-3
    certify: bool = False
    suite: str | None = None
    alphas: list = field(default_factory=list)
    nus: list = field(default_factory=list)
    Rs: list = field(default_factory=list)
    simulate: bool = False


_CONFIG_KEYS = {f for f in ExperimentConfig.__dataclass_fields__ if f != "mode"}


def load_config(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    unknown = set(payload) - _CONFIG_KEYS - {"mode"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return payload


def normalized_dict(cfg: ExperimentConfig) -> dict:
    """Canonical flat form of a config (what a config file should contain)."""
    return {k: v for k, v in sorted(asdict(cfg).items())}


def merge_config(mode: str, args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(load_config(args.config))
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    settings.pop("mode", None)
    cfg = ExperimentConfig(mode=mode, **settings)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.mode in ("simulate", "certify"):
        if cfg.alpha is None:
            raise ConfigError(f"{cfg.mode} requires --alpha")
        if cfg.nu is None:
            raise ConfigError(f"{cfg.mode} requires --nu")
    for name in ("alpha", "nu", "dt", "t_end", "tail_threshold"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if cfg.alpha is not None and not 0.0 < cfg.alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {cfg.alpha}")
    if cfg.nu is not None and cfg.nu < 0:
        raise ConfigError(f"nu must be >= 0, got {cfg.nu}")
    for name in ("dt", "t_end"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("modes", "grid_size", "stride"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be a positive integer")
    if cfg.r != "auto":
        try:
            if float(cfg.r) <= 0:
                raise ConfigError("r must be positive or 'auto'")
        except (TypeError, ValueError):
            raise ConfigError(f"r must be a positive real or 'auto', got {cfg.r!r}")
    if cfg.suite is not None and cfg.suite not in SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)}")
    if cfg.mode == "sweep" and not (cfg.alphas and cfg.nus and cfg.Rs):
        raise ConfigError("sweep requires nonempty --alphas, --nus and --Rs")


def _initial_spectrum(cfg: ExperimentConfig) -> SineSpectrum:
    kind, _, rest = cfg.init.partition(":")
    if kind == "sine":
        try:
            amplitude = float(rest)
        except ValueError:
            raise ConfigError(f"bad sine amplitude in init {cfg.init!r}")
        return SineSpectrum.sine_wave(amplitude, N=cfg.modes)
    if kind == "file":
        return load_spectrum(rest)
    raise ConfigError(f"init must be sine:R or file:PATH, got {cfg.init!r}")


def _resolve_attractor(name: str) -> AttractorFn:
    kind, _, rest = name.partition(":")
    if kind in ("F",):
        return make_F()
    if kind.lower() == "phi":
        return make_Phi()
    if kind == "sawtooth":
        return make_sawtooth()
    if kind == "file":
        return load_attractor(rest)
    raise ConfigError(f"attractor must be F|phi|sawtooth|file:PATH, got {name!r}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def run_simulate(cfg: ExperimentConfig) -> int:
    spec0 = _initial_spectrum(cfg)
    params = ModelParams(cfg.alpha, cfg.nu)
    diag = DiagnosticsConfig(
        stride=cfg.stride,
        r=None if cfg.r == "auto" else float(cfg.r),
        tail_threshold=cfg.tail_threshold,
    )
    record = evolve(spec0, params, cfg.t_end, cfg.dt, diag)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    record_to_csv(record, out / "run.csv")
    write_record_metadata(record, out / "run.json", extra={"init": cfg.init, "seed": cfg.seed})
    print(f"termination: {record.termination} at t = {_fmt(float(record.times[-1]))}")
    if cfg.certify and cfg.alpha < 0.5:
        cert = certify_blowup_F(spec0, params)
        (out / "certificate.json").write_text(json.dumps(certificate_to_dict(cert), indent=2) + "\n")
        print(f"certificate: hypotheses_hold={cert.hypotheses_hold} bound_T="
              f"{_fmt(cert.predicted_bound_T) if cert.predicted_bound_T else 'n/a'}")
    detected = detect_numerical_blowup(record)
    if detected is not None:
        print(f"numerical blowup proxy tripped at t = {_fmt(detected)}")
    print(f"wrote {out / 'run.csv'} and {out / 'run.json'}")
    return 2 if record.termination == TERMINATION_STEP_FAILURE else 0


def run_inviscid(cfg: ExperimentConfig) -> int:
    spec0 = _initial_spectrum(cfg)
    u0 = InitialField(spec0)
    t_max = tmax_inviscid(u0)
    scaling = optimal_r(spec0)
    times = np.arange(0.0, cfg.t_end + 0.5 * cfg.dt, cfg.dt)
    if cfg.attractor == "F":
        r = scaling.r0 if cfg.r == "auto" else float(cfg.r)
        table = attractor_decay_series(u0, times, r=r, M=cfg.grid_size)
    else:
        table = attractor_decay_series(
            u0, times, attractor=_resolve_attractor(cfg.attractor), M=cfg.grid_size
        )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["t,dist,predicted"]
    for i in range(times.size):
        lines.append(f"{_fmt(times[i])},{_fmt(table.distance[i])},{_fmt(table.predicted[i])}")
    (out / "decay.csv").write_text("\n".join(lines) + "\n")
    print(f"T_max = {_fmt(t_max)}")
    print(f"blowup_time_bound = {_fmt(scaling.g_r0)}")
    print(f"wrote {out / 'decay.csv'}")
    return 0


def run_verify(cfg: ExperimentConfig) -> int:
    results = run_suites(seed=cfg.seed, only=cfg.suite)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  worst={r.worst:.3e}  ({r.detail})")
    return 0 if all(r.passed for r in results) else 1


def run_certify(cfg: ExperimentConfig) -> int:
    spec0 = _initial_spectrum(cfg)
    params = ModelParams(cfg.alpha, cfg.nu)
    certs = []
    if cfg.attractor == "F":
        certs.append(certify_blowup_F(spec0, params))
        kind, _, rest = cfg.init.partition(":")
        if kind == "sine":
            certs.append(corollary_condition(float(rest), params))
    else:
        certs.append(certify_blowup_H(spec0, _resolve_attractor(cfg.attractor), params))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for cert in certs:
        payload = certificate_to_dict(cert)
        (out / f"certificate_{cert.theorem}.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(json.dumps(payload))
    return 0


def _sweep_cell(cfg: ExperimentConfig, alpha: float, nu: float, R: float, out: Path) -> dict:
    params = ModelParams(alpha, nu)
    cert = corollary_condition(R, params)
    cell_name = f"cell_a{alpha:g}_nu{nu:g}_R{R:g}"
    (out / f"{cell_name}.json").write_text(
        json.dumps(certificate_to_dict(cert), indent=2) + "\n"
    )
    detected = None
    if cfg.simulate:
        record = evolve(
            SineSpectrum.sine_wave(R, N=cfg.modes),
            params,
            cfg.t_end,
            cfg.dt,
            DiagnosticsConfig(stride=cfg.stride, tail_threshold=cfg.tail_threshold),
        )
        record_to_csv(record, out / f"{cell_name}.csv")
        detected = detect_numerical_blowup(record)
    return {
        "alpha": alpha,
        "nu": nu,
        "R": R,
        "margin": cert.margin,
        "bound_T": cert.predicted_bound_T,
        "detected_T": detected,
    }


def run_sweep(cfg: ExperimentConfig) -> int:
    cells = sorted(product(map(float, cfg.alphas), map(float, cfg.nus), map(float, cfg.Rs)))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    workers = int(os.environ.get("BURGERS_LAB_THREADS", "0")) or min(len(cells), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        rows = list(pool.map(lambda c: _sweep_cell(cfg, *c, out), cells))
    rows.sort(key=lambda row: (row["alpha"], row["nu"], row["R"]))
    lines = ["alpha,nu,R,margin,bound_T,detected_T"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _fmt(row["alpha"]),
                    _fmt(row["nu"]),
                    _fmt(row["R"]),
                    _fmt(row["margin"]),
                    _fmt(row["bound_T"]) if row["bound_T"] is not None else "",
                    _fmt(row["detected_T"]) if row["detected_T"] is not None else "",
                ]
            )
        )
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} cells)")
    return 0


RUNNERS = {
    "simulate": run_simulate,
    "inviscid": run_inviscid,
    "verify": run_verify,
    "certify": run_certify,
    "sweep": run_sweep,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat JSON config file; flags override it")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--nu", type=float)
    sub.add_argument("--init", help="sine:R or file:PATH")
    sub.add_argument("--modes", type=int)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--grid-size", dest="grid_size", type=int)
    sub.add_argument("--stride", type=int)
    sub.add_argument("--attractor", help="F | phi | sawtooth | file:PATH")
    sub.add_argument("--r", help="positive real or 'auto'")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--tail-threshold", dest="tail_threshold", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="burgers-lab", description=__doc__)
    subs = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sub = subs.add_parser(mode)
        _add_common(sub)
        if mode == "simulate":
            sub.add_argument("--certify", action="store_const", const=True, default=None)
        if mode == "verify":
            sub.add_argument("--suite", help=f"run only one of {sorted(SUITES)}")
        if mode == "sweep":
            sub.add_argument("--alphas", type=lambda s: [float(v) for v in s.split(",") if v])
            sub.add_argument("--nus", type=lambda s: [float(v) for v in s.split(",") if v])
            sub.add_argument("--Rs", type=lambda s: [float(v) for v in s.split(",") if v])
            sub.add_argument("--simulate", action="store_const", const=True, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args.mode, args)
        return RUNNERS[cfg.mode](cfg)
    except (ValueError, FileNotFoundError, RootFindError) as exc:
        # covers ConfigError, HorizonError, regime/series guards, bad files,
        # and a characteristic foot the root finder could not reach
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
