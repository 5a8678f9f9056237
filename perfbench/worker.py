"""One benchmark process: set up a workload, then run timed passes.

Started by run.py with the BLAS thread count fixed in its environment.
It first pins itself to one vCPU, the lowest it may use, so that the
host-speed probe (``hostspeed.py``) samples the vCPU that does the work;
the sweep pool's threads share that vCPU.  Prints ``ready <factor>`` once
set-up is done, with the host-speed factor sampled during set-up (run.py
times a fresh process up to that line), then, unless ``--setup-only``,
runs passes for ``--seconds`` and prints one JSON object as its last line.

With ``--trace 0`` every pass is untraced and probed for host speed.
With ``--trace 1`` untraced and traced passes alternate, unprobed; the
traced ones give the per-layer metrics (averaged per pass) and the pairs
give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

MIN_PASSES = 3  # untraced passes in an untraced run, so that a median exists
MIN_PAIRS = 2  # untraced/traced pairs in a traced run


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "max": max(values), "n": len(values)}


def _mean_metrics(dicts: list[dict]) -> dict:
    return {k: statistics.fmean(d[k] for d in dicts) for k in dicts[0]}


def _first_line(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            return next((line.split(":", 1)[-1].strip() for line in fh if line.startswith(prefix)), None)
    except OSError:
        return None


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}

    def git(*cmd):
        return subprocess.run(["git", "-C", str(root), *cmd], capture_output=True, text=True, timeout=30).stdout

    return {"commit": git("rev-parse", "HEAD").strip() or None, "dirty": bool(git("status", "--porcelain").strip())}


def environment(root: Path) -> dict:
    """Versions, machine and BLAS set-up this result was measured with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "l2": _first_line(cache.format(2)),
        "l3": _first_line(cache.format(3)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git": _git(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True, help="directory written by inputs.generate")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its last pass's spans")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup_probe = hostspeed.Probe()
    with setup_probe.sampling():
        t0 = perf_counter()
        import burgers_lab  # noqa: F401  (imports every module and its make_F() instances)
        import inputs
        import workloads

        t1 = perf_counter()
        workload = workloads.WORKLOADS[args.workload](inputs.load(args.inputs), args.workdir)
        workload.warmup()
        t2 = perf_counter()
    print(f"ready {setup_probe.factor()!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import tracing

    untraced, traced, layer, factors, rounds = [], [], [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        if not args.trace:
            probe = hostspeed.Probe()
            with probe.sampling():
                untraced.append(workload.run_pass())
            factors.append(probe.factor())
        else:
            untraced.append(workload.run_pass())
            tracer = tracing.Tracer()
            with tracing.traced_program(tracer):
                traced.append(workload.run_pass())
            layer.append(tracing.layer_metrics(tracer.spans))
            last_spans = tracer.spans
        rounds.append(perf_counter() - round_start)  # checks and tracing included
        enough = len(traced) >= MIN_PAIRS if args.trace else len(untraced) >= MIN_PASSES
        if enough and perf_counter() - start + statistics.median(rounds) > args.seconds:
            break

    passes = untraced + traced
    # a pass's time at the reference host speed; traced runs keep raw times
    scales = [f**workload.host_exponent for f in factors] or [1.0] * len(untraced)
    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": sorted({msg for p in passes for msg in p.problems})[:20],
        "wall_s": _quartiles([p.wall * s for p, s in zip(untraced, scales)]),
        "raw_wall_s": _quartiles([p.wall for p in untraced]),
        "pass_walls_s": [p.wall for p in untraced],
        "speed_factors": factors,
        "host_exponent": workload.host_exponent,
        "work_unit": workload.work_unit,
        "work_per_s": statistics.median(p.work / (p.work_wall * s) for p, s in zip(untraced, scales)),
        "counts": untraced[0].counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_split_ms": {"import": 1e3 * (t1 - t0), "warmup": 1e3 * (t2 - t1)},
        "env": environment(Path(__file__).resolve().parent.parent),
    }
    if args.trace:
        metrics = _mean_metrics(layer)
        metrics["cli.files_written"] = statistics.fmean(p.files for p in traced)
        metrics["cli.bytes_written"] = statistics.fmean(p.bytes for p in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / result["raw_wall_s"]["median"] - 1.0
        )
        metrics["setup.import_ms"] = 1e3 * (t1 - t0)
        metrics["setup.warmup_ms"] = 1e3 * (t2 - t1)
        result["layers"] = metrics
        if args.spans:
            tracing.write_spans(last_spans, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
