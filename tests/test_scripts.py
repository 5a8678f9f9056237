"""Smoke tests for the experiment scripts, which import the library's public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_blowup_threshold_sweep_table():
    proc = run_script("blowup_threshold_sweep.py", "--alpha", "0.25", "--nu", "0.04", "--ratios", "0.5", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("alpha=0.25  nu=0.04  threshold R/nu = 206.26")
    assert lines[1].split() == ["R", "margin", "bound_T", "detected_T"]
    rows = [line.split() for line in lines[2:]]
    # each probed R sits at its multiple of the threshold; only the one above it is certified
    assert [float(row[1]) for row in rows] == pytest.approx([0.5, 2.0], rel=1e-4)
    assert rows[0][2] == "-"
    assert float(rows[1][2]) == pytest.approx(2 * 3.141592653589793**2 / float(rows[1][0]), rel=1e-3)


def test_blowup_threshold_sweep_simulate():
    # the horizon 3 pi^2 / R is no whole number of steps; the script rounds it to one
    proc = run_script(
        "blowup_threshold_sweep.py", "--ratios", "0.5", "2", "--simulate", "--modes", "32", "--dt", "1e-3"
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.strip().splitlines()[2:]]
    assert len(rows) == 2
    for R, _, _, detected in rows:
        assert detected == "none" or 0.0 < float(detected) <= 3 * 3.141592653589793**2 / float(R) + 1e-3


@pytest.mark.parametrize("amplitude", ["1", "0.1"])
def test_decay_law_experiment_table(amplitude):
    proc = run_script("decay_law_experiment.py", "--amplitude", amplitude, "--points", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith(f"u0 = -{amplitude} sin x   T_max = {1 / float(amplitude):.6f}")
    assert len(lines) == 5
    for line in lines[1:4]:
        # the measured slope is the predicted one, and the law holds to round-off
        measured, predicted = (float(line.split(key)[1].split()[0]) for key in ("measured slope =", "predicted ="))
        assert measured == pytest.approx(predicted, rel=1e-8)
        assert float(line.rsplit("max law error = ", 1)[1]) <= 1e-10
    assert lines[4].startswith("sawtooth profile:")
    assert float(lines[4].split("margin min over t = ")[1].split()[0]) >= 0.0
