"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import inputs
import run
import tracing
import workloads
from burgers_lab.dynamics import nonlinear_pseudospectral

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_sign_flipped_kernel_fails_the_checks(tmp_path):
    """Negative control: a broken kernel passed through evolve(kernel=...) is caught."""
    galerkin = workloads.Galerkin(inputs.generate("galerkin", 7, tmp_path), tmp_path)
    good = galerkin.run_pass()
    bad = galerkin.run_pass(kernel=lambda psi: -nonlinear_pseudospectral(psi))
    assert good.failed == 0, good.problems
    assert bad.failed > 0
    assert bad.attempted == good.attempted


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path, workload):
    def draw(seed, name):
        spec = json.dumps(inputs.generate(workload, seed, tmp_path / name)).replace(str(tmp_path / name), "")
        return spec, {p.name: p.read_text() for p in (tmp_path / name).glob("field*.json")}

    assert draw(5, "a") == draw(5, "b")
    assert draw(5, "a")[0] != draw(6, "c")[0]


def test_inputs_meet_their_stated_ranges(tmp_path):
    survey = inputs.generate("survey", 5, tmp_path)
    assert max(survey["alphas"]) < 0.5 and max(survey["Rs"]) <= 3.0
    g = inputs.generate("galerkin", 5, tmp_path)
    psi = np.array(g["super_psi"])
    assert 2e-4 <= np.linalg.norm(psi[1:]) / psi[0] <= 1e-3
    fields = inputs.generate("inviscid", 5, tmp_path)["fields"]
    assert fields[0][0].startswith("sine:") and len(fields) == 3
    for init, _ in fields[1:]:
        active = np.count_nonzero(json.loads(Path(init[5:]).read_text())["psi"])
        assert 2 <= active <= 16


def _span(name, parent, start, end, thread=1):
    s = tracing.Span(name, parent, thread)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_the_union_of_overlapping_children():
    sweep = _span("cli.sweep", None, 0.0, 10.0)
    a = _span("dynamics.evolve", sweep, 1.0, 6.0, thread=2)
    b = _span("dynamics.evolve", sweep, 4.0, 8.0, thread=3)
    k = _span("dynamics.kernel", a, 2.0, 3.0, thread=2)
    selfs = tracing.self_times([sweep, a, b, k])
    assert selfs[id(sweep)] == pytest.approx(3.0)  # 10 - |[1, 8]|
    assert selfs[id(a)] == pytest.approx(4.0)
    assert selfs[id(b)] == pytest.approx(4.0)
    m = tracing.layer_metrics([sweep, a, b, k])
    assert m["cli.sweep.busy_frac"] == pytest.approx(9.0 / 20.0)
    assert m["dynamics.glue_frac"] == pytest.approx(8.0 / 9.0)


def test_pool_thread_spans_hang_under_the_fan_out_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def fan_out():
        t = threading.Thread(target=leaf)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.wrap("cli.sweep", fan_out, fan_out=True)()
    spans = {s.name: s for s in tracer.spans}
    sweep, child = spans["cli.sweep"], spans["leaf"]
    assert child.parent is sweep and child.thread != sweep.thread


def test_traced_run_reports_every_declared_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    harness = {"cli.files_written", "cli.bytes_written", "trace.overhead_frac", "setup.import_ms", "setup.warmup_ms"}
    assert set(tracing.layer_metrics([])) | harness == set(per_layer)
    assert all(run.layer_unit(name) == unit for name, unit in per_layer.items())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_host_speed_probe_samples_only_while_active():
    probe = hostspeed.Probe()
    with pytest.raises(RuntimeError):
        probe.factor()
    before = signal.getsignal(signal.SIGALRM)
    with probe.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            sum(range(1000))
    sampled = len(probe.samples)
    assert sampled >= 5 and probe.factor() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    time.sleep(0.02)
    assert len(probe.samples) == sampled


def test_patching_is_undone_after_a_traced_pass():
    from burgers_lab import cli, dynamics, verify

    before = (cli.evolve, dynamics.evolve, dict(verify.SUITES), dict(cli.RUNNERS))
    with tracing.traced_program(tracing.Tracer()):
        assert cli.evolve is not before[0]
    assert (cli.evolve, dynamics.evolve, dict(verify.SUITES), dict(cli.RUNNERS)) == before


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "galerkin", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
