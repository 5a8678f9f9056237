"""Golden outputs of a fixed set of cheap CLI runs, and the script that writes them.

    PYTHONPATH=src python tests/golden/regenerate.py

runs every command of ``RUNS`` in process, in a scratch directory, and
writes what it produced (its files, its stdout and its stderr) under
``tests/golden/<run>/``, and the exit codes and the numpy and scipy
versions to ``tests/golden/header.json``.  ``tests/test_golden.py`` runs
the same commands and compares every number with these files, naming the
file, the column or key and the largest distance in ulps.  A change that
moves a golden number on purpose regenerates them and reports the ulps
that test printed before.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from burgers_lab import cli

GOLDEN = Path(__file__).resolve().parent

#: run name -> command line; a command that writes files gets ``--out out`` appended
RUNS = {
    "simulate": "simulate --alpha 0.25 --nu 0.1 --init sine:1 --modes 64 --dt 1e-3 --t-end 0.2 --certify",
    # exits 2: its 1e150 rows fail at the first step and leave the batch between records
    "sweep": "sweep --alphas 0.25,0.4 --nus 0.04 --Rs 1,1e150 --modes 32 --dt 1e-3 --t-end 0.1 --stride 7 --simulate",
    "inviscid": "inviscid --init sine:1 --dt 0.1 --t-end 0.9",
    "inviscid_sawtooth": "inviscid --init sine:1 --dt 0.1 --t-end 0.9 --attractor sawtooth",
    # T_max = 1.623 for this field
    "inviscid_file": f"inviscid --init file:{shlex.quote(str(GOLDEN / 'four_modes.json'))} --dt 0.1 --t-end 1.5",
    "certify": "certify --alpha 0.25 --nu 0.04 --init sine:10",
    "verify": "verify --seed 1",
}


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run(name: str, where: Path) -> tuple[int, dict[str, str]]:
    """Run ``RUNS[name]`` in process from the empty directory ``where``: its exit code and texts by file name.

    The texts are every file it wrote (under ``out/``) plus ``stdout.txt`` and ``stderr.txt``; the run
    writes relative paths, so what it prints does not depend on ``where``.
    """
    argv = shlex.split(RUNS[name])
    if "out" in cli.SETTINGS[argv[0]]:
        argv += ["--out", "out"]
    stdout, stderr, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        os.chdir(home)
    out = where / "out"
    texts = {path.name: path.read_text() for path in sorted(out.iterdir())} if out.is_dir() else {}
    return code, texts | {"stdout.txt": stdout.getvalue(), "stderr.txt": stderr.getvalue()}


def golden_texts(name: str) -> dict[str, str]:
    """The committed texts of run ``name``, by file name."""
    return {path.name: path.read_text() for path in sorted((GOLDEN / name).iterdir())}


def main() -> int:
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in RUNS:
            where = Path(scratch) / name
            where.mkdir()
            codes[name], texts = run(name, where)
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            (GOLDEN / name).mkdir()
            for file, text in texts.items():
                (GOLDEN / name / file).write_text(text)
    header = versions() | {"exit_codes": codes}
    (GOLDEN / "header.json").write_text(json.dumps(header, indent=2) + "\n")
    print(f"wrote {len(RUNS)} runs under {GOLDEN} (numpy {header['numpy']}, scipy {header['scipy']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
