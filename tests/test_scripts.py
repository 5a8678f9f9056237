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
