"""Command-line runner for reproducible experiments.

Subcommands: simulate, inviscid, verify, certify, sweep.  Settings come
from a flat JSON config file (--config) and/or flags; flags win.  Each
command takes only the settings it reads (SETTINGS) and refuses others.  All
floating-point output is printed with 17 significant digits so files
round-trip exactly.

Exit codes: 0 on completion, 1 on configuration/validation errors, 2 when
a simulation step fails.  ``sweep`` finishes every cell it can and then
exits 2 if any cell had a step failure, else 1 if any cell lies outside
the certificates' regime.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .attractors import PROFILES, AttractorFn, attractor_decay_series, optimal_r
from .blowup import (
    UnsupportedRegimeError,
    certify_blowup_F,
    certify_blowup_H,
    corollary_condition,
    detect_numerical_blowup,
    save_certificate,
)
from .characteristics import InitialField, RootFindError, tmax_inviscid
from .dynamics import (
    TERMINATION_STEP_FAILURE,
    DiagnosticsConfig,
    ModelParams,
    _march_steps,
    _positive,
    _step_count,
    evolve,
    evolve_batch,
    record_to_csv,
    write_record_metadata,
    write_table,
)
from .spectral import SineSpectrum, _is_number, _weighted_energy, load_spectrum
from .verify import SUITES, run_suites

#: the ExperimentConfig keys each command reads: its flags and config keys, and no others
SETTINGS = {
    "simulate": ("alpha", "nu", "init", "modes", "dt", "t_end", "stride", "r", "out", "seed", "tail_threshold", "certify"),
    "inviscid": ("init", "dt", "t_end", "grid_size", "attractor", "r", "out"),
    "verify": ("seed", "suite"),
    "certify": ("alpha", "nu", "init", "attractor", "out"),
    "sweep": ("alphas", "nus", "Rs", "modes", "dt", "t_end", "stride", "tail_threshold", "simulate", "out"),
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    mode: str
    alpha: float | None = None
    nu: float | None = None
    init: str = "sine:1"
    modes: int = 256  # of sine: data; inviscid and certify read sine:R alone, whose mode count changes nothing
    dt: float = 1e-4
    t_end: float = 1.0
    grid_size: int = 4096
    stride: int = 10
    attractor: str = "F"
    r: str | float = "auto"
    out: str = "out"
    seed: int = 0
    tail_threshold: float = 1e-3
    certify: bool = False
    suite: str | None = None
    alphas: list = field(default_factory=list)
    nus: list = field(default_factory=list)
    Rs: list = field(default_factory=list)
    simulate: bool = False


_FIELD_TYPES = get_type_hints(ExperimentConfig)
#: the types each field admits: float | None admits float and None
_MEMBERS = {key: getattr(annotation, "__args__", (annotation,)) for key, annotation in _FIELD_TYPES.items()}
#: whether a JSON value is of a member type
_IS_OF = {
    bool: lambda v: isinstance(v, bool),
    int: lambda v: type(v) is int,
    float: _is_number,
    str: lambda v: isinstance(v, str),
    list: lambda v: isinstance(v, list) and all(map(_is_number, v)),
    type(None): lambda v: v is None,
}


def load_config(path: str | Path, mode: str) -> dict:
    """The settings of a flat JSON config file, each one a key that ``mode`` reads, of its field's type."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unread = sorted(set(payload) - set(SETTINGS[mode]))
    if unread:
        raise ConfigError(f"{mode} does not take --{unread[0].replace('_', '-')}")
    for key, value in payload.items():
        if not any(_IS_OF[member](value) for member in _MEMBERS[key]):
            expected = _FIELD_TYPES[key]
            name = getattr(expected, "__name__", None) or str(expected)
            raise ConfigError(f"config key {key!r} must be of type {name}, got {value!r}")
    return payload


def merge_config(mode: str, args: argparse.Namespace) -> ExperimentConfig:
    settings = load_config(args.config, mode) if args.config else {}
    for key in SETTINGS[mode]:
        val = getattr(args, key)
        if val is not None:
            settings[key] = val
    cfg = ExperimentConfig(mode=mode, **settings)
    if "modes" in settings and cfg.init.startswith("file:"):
        raise ConfigError("--modes applies only to sine:R data; a file:PATH spectrum has its own mode count")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """The rules only the command line knows; alpha, nu, dt, t_end, stride and tail_threshold are checked by the library objects built from them."""
    for name in ("alpha", "nu"):
        if cfg.mode in ("simulate", "certify") and getattr(cfg, name) is None:
            raise ConfigError(f"{cfg.mode} requires --{name}")
    if cfg.r != "auto":
        try:
            r = float(cfg.r)
        except (TypeError, ValueError):
            r = math.nan
        if not 0.0 < r < math.inf:
            raise ConfigError(f"r must be a finite positive real or 'auto', got {cfg.r!r}")
        if cfg.attractor != "F":  # only inviscid reads both; the other commands keep the default F
            raise ConfigError("r applies only to the scaled-F mode")
    try:
        if cfg.mode in ("simulate", "certify"):
            ModelParams(cfg.alpha, cfg.nu)
        for alpha, nu in product(cfg.alphas, cfg.nus):
            ModelParams(alpha, nu)
        if "stride" in SETTINGS[cfg.mode]:
            _diagnostics(cfg)
        # a march, or a table row every dt, must end at t_end itself; a sweep without --simulate marches nothing
        if cfg.mode == "simulate" or cfg.simulate:
            # counts every sweep cell, marched or not; evolve_batch checks a file:PATH spectrum's own mode count
            rows = len(cfg.alphas) * len(cfg.nus) * len(cfg.Rs) if cfg.mode == "sweep" else 1
            _march_steps(cfg.t_end, cfg.dt, cfg.modes if cfg.init.startswith("sine:") else 1, rows)
        elif cfg.mode == "inviscid":
            _step_count(cfg.t_end, cfg.dt)
        elif cfg.mode == "sweep":
            _positive("t_end", cfg.t_end)
            _positive("dt", cfg.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.modes < 1:  # sweep reads it even where it marches nothing
        raise ConfigError("modes must be a positive integer")
    if cfg.mode == "sweep":
        if not (cfg.alphas and cfg.nus and cfg.Rs):
            raise ConfigError("sweep requires nonempty --alphas, --nus and --Rs")
        # every cell runs the sine corollary, which needs R > 0: refuse before any cell is written
        bad = [R for R in cfg.Rs if not 0.0 < R < math.inf]
        if bad:
            raise ConfigError(f"--Rs entries must be positive and finite, got {bad}")
        bad = [R for R in cfg.Rs if not _finite_energy(SineSpectrum.sine_wave(R))]
        if bad:
            raise ConfigError(f"--Rs entries must have an energy pi R^2 within the float range, got {bad}")
        # one cell file per cell: a repeated value, or two values one label cannot tell apart, is refused
        for flag, values in (("--alphas", cfg.alphas), ("--nus", cfg.nus), ("--Rs", cfg.Rs)):
            labels: dict[str, float] = {}
            for value in map(float, values):
                label = _cell_label(value + 0.0)  # + 0.0 folds -0.0 into 0.0, whose labels differ
                if label in labels:
                    raise ConfigError(f"{flag} entries {labels[label]!r} and {value!r} share the cell-file label {label!r}")
                labels[label] = value


def _finite_energy(spec: SineSpectrum) -> bool:
    """Whether the energy 4*pi*sum psi_n^2 lies within the float range."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(_weighted_energy(spec.psi)))


def _initial_spectrum(cfg: ExperimentConfig) -> SineSpectrum:
    kind, _, rest = cfg.init.partition(":")
    if kind == "sine":
        try:
            amplitude = float(rest)
        except ValueError:
            raise ConfigError(f"bad sine amplitude in init {cfg.init!r}")
        spec = SineSpectrum.sine_wave(amplitude, N=cfg.modes)
    elif kind == "file":
        spec = load_spectrum(rest)
    else:
        raise ConfigError(f"init must be sine:R or file:PATH, got {cfg.init!r}")
    if not _finite_energy(spec):
        raise ConfigError(f"init {cfg.init!r} has an energy 4*pi*sum psi^2 beyond the float range")
    return spec


def _resolve_attractor(name: str) -> AttractorFn:
    kind = "Phi" if name.lower() == "phi" else name  # phi in any case; the other kinds exactly, with no ':' suffix
    if kind in PROFILES:
        return PROFILES[kind]
    raise ConfigError(f"attractor must be F|phi|sawtooth, got {name!r}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell_label(x: float) -> str:
    """How a sweep value appears in its cell's file name."""
    return f"{x:g}"


def _diagnostics(cfg: ExperimentConfig) -> DiagnosticsConfig:
    return DiagnosticsConfig(cfg.stride, None if cfg.r == "auto" else float(cfg.r), cfg.tail_threshold)


def run_simulate(cfg: ExperimentConfig) -> int:
    spec0 = _initial_spectrum(cfg)
    params = ModelParams(cfg.alpha, cfg.nu)
    record = evolve(spec0, params, cfg.t_end, cfg.dt, _diagnostics(cfg))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    record_to_csv(record, out / "run.csv")
    write_record_metadata(record, out / "run.json", extra={"init": cfg.init, "seed": cfg.seed})
    print(f"termination: {record.termination} at t = {_fmt(float(record.times[-1]))}")
    if cfg.certify:
        try:
            cert = certify_blowup_F(spec0, params)
        except UnsupportedRegimeError as exc:
            print(f"note: certificate skipped: {exc}", file=sys.stderr)
        else:
            save_certificate(cert, out / "certificate.json")
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
    times = cfg.dt * np.arange(_step_count(cfg.t_end, cfg.dt) + 1)
    # F is scaled, by --r or by r0 = ||u0|| / ||F||; any other profile is taken as it is
    attractor = (
        AttractorFn(scaling.r0 if cfg.r == "auto" else float(cfg.r), "origin")
        if cfg.attractor == "F"
        else _resolve_attractor(cfg.attractor)
    )
    table = attractor_decay_series(u0, times, attractor, M=cfg.grid_size)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "decay.csv", "t,dist,predicted", [times, table.distance, table.predicted])
    print(f"T_max = {_fmt(t_max)}")
    print(f"blowup_time_bound = {_fmt(scaling.g_r0)}")
    print(f"wrote {out / 'decay.csv'}")
    return 0


def run_verify(cfg: ExperimentConfig) -> int:
    results = run_suites(seed=cfg.seed, only=cfg.suite)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        named = f" [{' '.join(f'{key}={value:.3e}' for key, value in r.worsts.items())}]" if r.worsts else ""
        print(f"{r.name:<{width}}  {status}  worst={r.worst:.3e}{named} at {r.where}  ({r.detail})")
    return 0 if all(r.passed for r in results) else 1


def run_certify(cfg: ExperimentConfig) -> int:
    spec0 = _initial_spectrum(cfg)
    params = ModelParams(cfg.alpha, cfg.nu)
    certs = []
    if cfg.attractor == "F":
        certs.append(certify_blowup_F(spec0, params))
        kind, _, rest = cfg.init.partition(":")
        if kind == "sine":
            # the corollary needs R > 0; without it the theorem's certificate is still written
            try:
                certs.append(corollary_condition(float(rest), params))
            except ValueError as exc:
                print(f"note: sine corollary skipped: {exc}", file=sys.stderr)
    else:
        certs.append(certify_blowup_H(spec0, _resolve_attractor(cfg.attractor), params))
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for cert in certs:
        save_certificate(cert, out / f"certificate_{cert.theorem}.json")
        print(json.dumps(asdict(cert)))
    return 0


def run_sweep(cfg: ExperimentConfig) -> int:
    """Certify every (alpha, nu, R) cell, march the supported ones as one batch, tabulate.

    A cell outside the certificates' regime gets status 'unsupported' and no
    files; a cell whose march fails gets 'step_failure' and its partial CSV.
    """
    cells = sorted(product(map(float, cfg.alphas), map(float, cfg.nus), map(float, cfg.Rs)))
    rows, batch, certs = [], [], []
    for alpha, nu, R in cells:
        name = f"cell_a{_cell_label(alpha)}_nu{_cell_label(nu)}_R{_cell_label(R)}"
        row = {"alpha": alpha, "nu": nu, "R": R, "margin": None, "bound_T": None, "detected_T": None, "status": "ok"}
        rows.append(row)
        params = ModelParams(alpha, nu)
        try:
            cert = corollary_condition(R, params)
        except UnsupportedRegimeError as exc:
            row["status"] = "unsupported"
            print(f"error: {name}: {exc}", file=sys.stderr)
            continue
        certs.append((name, cert))
        row.update(margin=cert.margin, bound_T=cert.predicted_bound_T)
        if cfg.simulate:
            batch.append((name, row, params))
    records = evolve_batch(
        [SineSpectrum.sine_wave(row["R"], N=cfg.modes) for _, row, _ in batch],
        [params for _, _, params in batch],
        cfg.t_end,
        cfg.dt,
        _diagnostics(cfg),
    ) if batch else []
    # every cell is certified and marched before any file is written, so a cell that raises leaves none
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, cert in certs:
        save_certificate(cert, out / f"{name}.json")
    for (name, row, _), record in zip(batch, records):
        record_to_csv(record, out / f"{name}.csv")
        row["detected_T"] = detect_numerical_blowup(record)
        if record.termination == TERMINATION_STEP_FAILURE:
            row["status"] = TERMINATION_STEP_FAILURE
            print(f"error: {name}: step failure after t = {_fmt(float(record.times[-1]))}", file=sys.stderr)
    lines = ["alpha,nu,R,margin,bound_T,detected_T,status"]
    for row in rows:
        numbers = [row[key] for key in ("alpha", "nu", "R", "margin", "bound_T", "detected_T")]
        lines.append(",".join([*("" if v is None else _fmt(v) for v in numbers), row["status"]]))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} cells)")
    statuses = {row["status"] for row in rows}
    if TERMINATION_STEP_FAILURE in statuses:
        return 2
    return 1 if "unsupported" in statuses else 0


RUNNERS = {
    "simulate": run_simulate,
    "inviscid": run_inviscid,
    "verify": run_verify,
    "certify": run_certify,
    "sweep": run_sweep,
}


def float_list(text: str) -> list[float]:
    """A comma-separated list of reals, such as --Rs 2,10,40."""
    return [float(v) for v in text.split(",") if v]


#: how a flag reads its value: as text where its field may be text, else as the field's type (a list as float_list)
_FLAG_TYPES = {key: None if str in m else float_list if m[0] is list else m[0] for key, m in _MEMBERS.items()}
_HELP = {
    "init": "sine:R or file:PATH",
    "grid_size": "sample grid points",
    "attractor": "F | phi | sawtooth",
    "r": "finite positive real or 'auto'",
    "out": "output directory",
    "suite": f"run only one of {sorted(SUITES)}",
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (it keeps no parse state).

    Each command offers the flags of its SETTINGS keys and --config.  A bad
    value raises argparse.ArgumentError rather than exiting, and abbreviated
    flags are not expanded: ``sweep --alpha`` is refused, not read as --alphas.
    """
    parser = argparse.ArgumentParser(prog="burgers-lab", description=__doc__, exit_on_error=False)
    # not required: argparse would exit 2 on a missing command, the step-failure code; main refuses it
    subs = parser.add_subparsers(dest="mode")
    for mode, keys in SETTINGS.items():
        sub = subs.add_parser(mode, allow_abbrev=False, exit_on_error=False)
        sub.add_argument("--config", help="flat JSON config file; flags override it")
        for key in keys:
            flag = "--" + key.replace("_", "-")
            if _FIELD_TYPES[key] is bool:
                sub.add_argument(flag, dest=key, action="store_const", const=True)
            else:
                sub.add_argument(flag, dest=key, type=_FLAG_TYPES[key], help=_HELP.get(key))
    return parser


def main(argv=None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if args.mode is None:
            given = f"got {unread[0].partition('=')[0]}" if unread else "none given"
            raise ConfigError(f"choose a command from {', '.join(RUNNERS)} ({given})")
        if unread:
            raise ConfigError(f"{args.mode} does not take {unread[0].partition('=')[0]}")
        cfg = merge_config(args.mode, args)
        return RUNNERS[cfg.mode](cfg)
    except (argparse.ArgumentError, ValueError, OSError, RootFindError) as exc:
        # covers a flag value argparse cannot read, ConfigError, HorizonError, regime/series guards,
        # malformed or unreadable files, and a characteristic foot the root finder could not reach
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. a --modes far beyond memory; numpy names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # data of finite energy can still overflow a certificate's powers, such as L0**3
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
