"""Spans recorded around calls into burgers_lab, from outside the package.

The tracer swaps module attributes that callers look up at call time
(``cli.evolve``, ``attractors.sample_solution``, ...) for wrappers that
record a span: name, start, end, parent span and thread id.  Spans stay in
memory; ``layer_metrics`` folds them into the per-layer numbers.

Only public names are intercepted.  Private work (``_min_slope``, the RK4
stage combination, inline norms, ``_solve_feet``) therefore shows up as
self time of the nearest traced caller, e.g. ``dynamics.evolve.self_ms``.
The untraced benchmark run never creates a tracer and patches nothing.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from burgers_lab import attractors, blowup, characteristics, cli, dynamics, verify


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "error", "attrs")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.error = None
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        # parent for spans opened on pool threads, whose own stack is empty
        self._fan_out_parent: Span | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, measure=None, fan_out=False):
        """Callable that runs ``fn`` inside a span; ``measure`` adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._fan_out_parent
            span = Span(name, parent, threading.get_ident())
            stack.append(span)
            self.spans.append(span)  # list.append is atomic under the GIL
            if fan_out:
                self._fan_out_parent = span
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if fan_out:
                    self._fan_out_parent = None
            if measure is not None:
                span.attrs = measure(args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _measure_evaluate(args, kwargs, result):
    spec, x = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "x")
    points = int(np.size(x))
    N = spec.N
    zeros = int(np.count_nonzero(spec.psi == 0.0))
    # np.multiply.outer and the sin/cos of it: two points x N float64 arrays
    return {
        "scalar": np.ndim(x) == 0,
        "point_modes": points * N,
        "zero_point_modes": points * zeros,
        "bytes": 2 * 8 * points * N,
    }


def _measure_record(args, kwargs, result):
    return {
        "steps": int(round(float(result.times[-1]) / result.dt)),
        "records": int(result.times.size),
        "termination": result.termination,
    }


def _measure_csv(args, kwargs, result):
    return {"bytes": Path(_arg(args, kwargs, 1, "path")).stat().st_size}


@contextmanager
def traced_program(tracer: Tracer):
    """Patch the call-time names of burgers_lab for the duration of a pass.

    The patched ``evolve`` passes a traced pseudospectral kernel through
    ``evolve(kernel=...)`` unless the caller gives a kernel of its own.
    """
    kernel = tracer.wrap(
        "dynamics.kernel", dynamics.nonlinear_pseudospectral, lambda a, k, r: {"N": a[0].size}
    )
    real_evolve = dynamics.evolve

    def evolve_with_traced_kernel(*args, **kwargs):
        kwargs.setdefault("kernel", kernel)
        return real_evolve(*args, **kwargs)

    evolve = tracer.wrap("dynamics.evolve", evolve_with_traced_kernel, _measure_record)
    sample = tracer.wrap(
        "characteristics.sample_solution",
        characteristics.sample_solution,
        lambda a, k, r: {"feet": int(_arg(a, k, 2, "M"))},
    )
    tmax = tracer.wrap(
        "characteristics.tmax",
        characteristics.tmax_inviscid,
        lambda a, k, r: {"key": _arg(a, k, 0, "u0").spectrum.psi.tobytes()},
    )
    power_sum = tracer.wrap(
        "attractors.power_sum",
        attractors.power_sum,
        lambda a, k, r: {"key": (a, tuple(sorted(k.items())))},
    )
    analyze = tracer.wrap("spectral.analyze", attractors.analyze)
    certify_F = tracer.wrap("blowup.certify", blowup.certify_blowup_F)
    corollary = tracer.wrap("blowup.certify", blowup.corollary_condition)
    detect = tracer.wrap("blowup.detect", blowup.detect_numerical_blowup)
    evaluate = {
        name: tracer.wrap("spectral.evaluate", getattr(characteristics, name), _measure_evaluate)
        for name in ("evaluate_field", "evaluate_slope")
    }
    patches = [
        (dynamics, "evolve", evolve),
        (cli, "evolve", evolve),
        (dynamics, "tail_energy_fraction", tracer.wrap("dynamics.diagnostics", dynamics.tail_energy_fraction)),
        (dynamics, "lyapunov_diagnostic", tracer.wrap("dynamics.diagnostics", dynamics.lyapunov_diagnostic)),
        (cli, "record_to_csv", tracer.wrap("dynamics.record_to_csv", dynamics.record_to_csv, _measure_csv)),
        (characteristics, "tmax_inviscid", tmax),
        (cli, "tmax_inviscid", tmax),
        (verify, "tmax_inviscid", tmax),
        (characteristics, "evaluate_field", evaluate["evaluate_field"]),
        (characteristics, "evaluate_slope", evaluate["evaluate_slope"]),
        (attractors, "evaluate_field", evaluate["evaluate_field"]),
        (attractors, "evaluate_slope", evaluate["evaluate_slope"]),
        (attractors, "sample_solution", sample),
        (verify, "sample_solution", sample),
        (attractors, "analyze", analyze),
        (verify, "synthesize", tracer.wrap("spectral.synthesize", verify.synthesize)),
        (cli, "attractor_decay_series", tracer.wrap("attractors.decay_series", cli.attractor_decay_series)),
        (cli, "optimal_r", tracer.wrap("attractors.optimal_r", cli.optimal_r)),
        (verify, "key_identity_residuals", tracer.wrap("attractors.key_identity", verify.key_identity_residuals)),
        (attractors, "power_sum", power_sum),
        (blowup, "power_sum", power_sum),
        (blowup, "certify_blowup_F", certify_F),
        (cli, "certify_blowup_F", certify_F),
        (blowup, "corollary_condition", corollary),
        (cli, "corollary_condition", corollary),
        (
            blowup,
            "monitor_lyapunov_bound",
            tracer.wrap(
                "blowup.monitor",
                blowup.monitor_lyapunov_bound,
                lambda a, k, r: {"records": int(r.times.size)},
            ),
        ),
        (blowup, "nonlinear_direct", tracer.wrap("blowup.direct_kernel", blowup.nonlinear_direct)),
        (verify, "verify_comparison_lemma", tracer.wrap("blowup.comparison_lemma", verify.verify_comparison_lemma)),
        (blowup, "detect_numerical_blowup", detect),
        (cli, "detect_numerical_blowup", detect),
    ]
    dict_patches = [
        (verify.SUITES, name, tracer.wrap(f"verify.suite.{name}", fn)) for name, fn in verify.SUITES.items()
    ] + [
        (cli.RUNNERS, mode, tracer.wrap(f"cli.{mode}", fn, fan_out=mode == "sweep"))
        for mode, fn in cli.RUNNERS.items()
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    saved_items = [(d, key, d[key]) for d, key, _ in dict_patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        for d, key, fn in dict_patches:
            d[key] = fn
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
        for d, key, fn in saved_items:
            d[key] = fn


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span; ``parent`` is the index of the parent span."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s.name,
                "parent": index.get(id(s.parent)),
                "thread": s.thread,
                "start_us": round(1e6 * (s.start - t0), 1),
                "end_us": round(1e6 * (s.end - t0), 1),
                "error": s.error,
            }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children may run on other threads (the sweep pool), so they can
    overlap each other; the union of their intervals is subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end)) for c in children.get(id(s), ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = s.duration - covered
    return out


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def calls(name):
        return float(len(by[name]))

    def self_ms(name):
        return 1e3 * sum(selfs[id(s)] for s in by[name])

    def total(name, key):
        return float(sum(s.attrs[key] for s in by[name] if s.attrs))

    def repeat_frac(name):
        n = len(by[name])
        return _frac(n - len({s.attrs["key"] for s in by[name] if s.attrs}), n)

    m = {}
    for layer in ("spectral.evaluate", "spectral.analyze", "spectral.synthesize"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_ms"] = self_ms(layer)
    m["spectral.evaluate.point_modes"] = total("spectral.evaluate", "point_modes")
    m["spectral.evaluate.zero_mode_frac"] = _frac(
        total("spectral.evaluate", "zero_point_modes"), m["spectral.evaluate.point_modes"]
    )
    m["spectral.evaluate.bytes_computed"] = total("spectral.evaluate", "bytes")

    evolves = by["dynamics.evolve"]
    evolve_total = sum(s.duration for s in evolves)
    m["dynamics.evolve.calls"] = calls("dynamics.evolve")
    m["dynamics.evolve.self_ms"] = self_ms("dynamics.evolve")
    m["dynamics.steps"] = total("dynamics.evolve", "steps")
    m["dynamics.records"] = total("dynamics.evolve", "records")
    m["dynamics.kernel.calls"] = calls("dynamics.kernel")
    m["dynamics.kernel.self_ms"] = self_ms("dynamics.kernel")
    m["dynamics.kernel.ns_per_mode"] = _frac(1e6 * m["dynamics.kernel.self_ms"], total("dynamics.kernel", "N"))
    m["dynamics.diagnostics.self_ms"] = self_ms("dynamics.diagnostics")
    m["dynamics.glue_frac"] = _frac(1e-3 * m["dynamics.evolve.self_ms"], evolve_total)
    m["dynamics.record_to_csv.calls"] = calls("dynamics.record_to_csv")
    m["dynamics.record_to_csv.self_ms"] = self_ms("dynamics.record_to_csv")
    m["dynamics.record_to_csv.bytes"] = total("dynamics.record_to_csv", "bytes")
    terminations = [s.attrs["termination"] for s in evolves if s.attrs]
    m["dynamics.step_failures"] = float(terminations.count("step_failure"))
    m["dynamics.blowup_stops"] = float(terminations.count("blowup_detected"))

    samples = by["characteristics.sample_solution"]
    vector_evals = sum(
        1
        for s in by["spectral.evaluate"]
        if s.parent is not None and s.parent.name == "characteristics.sample_solution"
    )
    m["characteristics.sample_solution.calls"] = calls("characteristics.sample_solution")
    m["characteristics.sample_solution.self_ms"] = self_ms("characteristics.sample_solution")
    m["characteristics.feet"] = total("characteristics.sample_solution", "feet")
    m["characteristics.tmax.calls"] = calls("characteristics.tmax")
    m["characteristics.tmax.self_ms"] = self_ms("characteristics.tmax")
    m["characteristics.tmax.repeat_frac"] = repeat_frac("characteristics.tmax")
    m["characteristics.evals_per_solve"] = _frac(vector_evals, len(samples))
    m["characteristics.scalar_evals"] = float(
        sum(1 for s in by["spectral.evaluate"] if s.attrs and s.attrs["scalar"])
    )
    m["characteristics.horizon_errors"] = float(sum(1 for s in samples if s.error == "HorizonError"))

    for layer in ("attractors.decay_series", "attractors.optimal_r", "attractors.key_identity", "attractors.power_sum"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_ms"] = self_ms(layer)
    m["attractors.power_sum.repeat_frac"] = repeat_frac("attractors.power_sum")

    for layer in ("blowup.certify", "blowup.monitor", "blowup.direct_kernel", "blowup.comparison_lemma", "blowup.detect"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_ms"] = self_ms(layer)
    m["blowup.monitor.records"] = total("blowup.monitor", "records")

    for name in verify.SUITES:
        m[f"verify.suite.{name}.self_ms"] = self_ms(f"verify.suite.{name}")

    m["cli.sweep.self_ms"] = self_ms("cli.sweep")
    busy, capacity = 0.0, 0.0
    for sweep in by["cli.sweep"]:
        cells = [s for s in spans if s.parent is sweep and s.thread != sweep.thread]
        busy += sum(s.duration for s in cells)
        capacity += len({s.thread for s in cells}) * sweep.duration
    m["cli.sweep.busy_frac"] = _frac(busy, capacity)
    return m
