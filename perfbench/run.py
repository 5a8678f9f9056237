"""burgers-lab benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload galerkin --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed.  Workloads (see
``workloads.py``): ``galerkin``, ``inviscid``, ``survey``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several fresh processes of the time to the first timed pass), ``wall_s``
(median wall time of one pass), ``work_per_s`` (IF-RK4 steps per second
of ``evolve`` on galerkin, characteristic feet per second on inviscid,
sweep cells per second of ``sweep`` on survey) and ``peak_rss_mb``.  The
three time metrics are at the reference host speed: each measured time is
multiplied by the host-speed factor sampled while it ran (``hostspeed.py``),
raised to the workload's ``host_exponent`` for passes and to 1 for set-up.
The raw times are in the ``summary`` line.
``--trace 1`` prints the per-layer metrics of traced passes instead.

Every pass is checked for correctness; the last line's ``failed`` counts
jobs that raised or exited nonzero plus checks that failed, out of
``attempted``.  Load comes from one process in a closed loop; the only
extra threads are the sweep pool's, and every worker process is pinned
to one vCPU.  BLAS runs single-threaded
(``OPENBLAS_NUM_THREADS=1`` and friends in the worker's environment), so
that ``evaluate_field``'s matrix-vector products do not compete with the
sweep pool for the cores.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("galerkin", "inviscid", "survey")
SETUP_PROBES = 3  # fresh processes timed to "ready", besides the measuring one
TIME_LIMIT_S = 170  # the whole run, set-up probes included, ends within this
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("ns_per_mode"):
        return "ns"
    if "bytes" in name:
        return "B"
    return "count"


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], timeout: float) -> tuple[float, float, str]:
    """Start worker.py; return (seconds from start to 'ready', the set-up's
    host-speed factor, rest of stdout)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    word, _, factor = ready.partition(" ")
    if word != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {code}")
    return setup, float(factor), rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "burgers_lab" / "__init__.py").is_file():
        print(f"error: no burgers_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update(BLAS_THREADS)  # before numpy loads, here and in every worker
    # on SIGTERM, unwind through run_worker's cleanup, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    import inputs

    deadline = perf_counter() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--inputs", str(workdir / "inputs"), "--workdir", str(workdir)]
    try:
        inputs.generate(args.workload, args.seed, workdir / "inputs")
        setups = []  # (raw seconds, host-speed factor)
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker([*common, "--setup-only"], deadline - perf_counter())[:2])
        measure = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            measure += ["--spans", str(spans)]
        raw, factor, out = run_worker(measure, deadline - perf_counter())
        setups.append((raw, factor))
        result = json.loads(out.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    attempted, failed = result["attempted"], result["failed"]
    counts, wall_s = result["counts"], result["wall_s"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_frac": failed / attempted,
        "wall_s": wall_s,
        "raw_wall_s": result["raw_wall_s"],
        "pass_walls_s": result["pass_walls_s"],
        "speed_factors": result["speed_factors"],
        "host_exponent": result["host_exponent"],
        "setup_s_samples": [raw for raw, _ in setups],
        "setup_speed_factors": [f for _, f in setups],
        "setup_split_ms": result["setup_split_ms"],
        f"{result['work_unit']}_per_s": result["work_per_s"],
        "counts": counts,
    }
    if "steps" in counts and "sweep_s" in counts:
        summary["steps_per_s"] = counts["steps"] / counts["sweep_s"]
    if result["problems"]:
        summary["problems"] = result["problems"]
    print("env " + json.dumps(result["env"]))
    print("summary " + json.dumps(summary))

    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(result["layers"].items())}
    else:
        values = {
            "setup_s": statistics.median(raw * f for raw, f in setups),
            "wall_s": wall_s["median"],
            "work_per_s": result["work_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
