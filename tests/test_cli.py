import contextlib
import io
import json
import math
import re
import shlex
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

from burgers_lab import characteristics, cli
from burgers_lab.attractors import PROFILES, optimal_r
from burgers_lab.blowup import certify_blowup_F, corollary_condition
from burgers_lab.cli import (
    SETTINGS,
    ConfigError,
    ExperimentConfig,
    build_parser,
    main,
    merge_config,
)
from burgers_lab.dynamics import ModelParams, _step_count
from burgers_lab.spectral import SineSpectrum
from burgers_lab.verify import SUITES
from golden.regenerate import RUNS

R0_SINE = np.sqrt(3.0) / (np.pi * np.sqrt(2.0))


def _number(value):
    try:
        return float(value) if value else np.nan
    except ValueError:  # a text column, such as sweep.csv's status
        return np.nan


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[_number(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


class TestSimulate:
    def test_conservation_run(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--alpha", "1", "--nu", "0",
                "--init", "sine:1",
                "--modes", "128",
                "--dt", "1e-3",
                "--t-end", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, data = read_csv(out / "run.csv")
        assert header[:2] == ["t", "energy"]
        energy = data[:, 1]
        assert np.max(np.abs(energy - energy[0])) <= 1e-8 * energy[0]
        meta = json.loads((out / "run.json").read_text())
        assert meta["termination"] == "t_end_reached"

    def test_blowup_run_with_certificate(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--alpha", "0.25", "--nu", "0.04",
                "--init", "sine:10",
                "--modes", "256",
                "--dt", "2e-4",
                "--t-end", "2.5",
                "--out", str(out),
                "--certify",
            ]
        )
        assert rc == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["termination"] == "blowup_detected"
        assert meta["t_final"] < 2 * np.pi**2 / 10
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["hypotheses_hold"] is True
        assert cert["predicted_bound_T"] == pytest.approx(np.pi**2 / 5)

    def test_missing_alpha_exits_one(self, capsys):
        assert main(["simulate", "--nu", "0.1"]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_invalid_init_exits_one(self):
        assert main(["simulate", "--alpha", "0.5", "--nu", "0", "--init", "bogus:1"]) == 1

    def test_step_failure_exits_two(self, tmp_path):
        spec_file = tmp_path / "huge.json"
        spec_file.write_text(json.dumps({"N": 2, "psi": [80.0, 80.0], "convention": ""}))
        rc = main(
            [
                "simulate",
                "--alpha", "0.5", "--nu", "0",
                "--init", f"file:{spec_file}",
                "--dt", "1.0",
                "--t-end", "60",
                "--tail-threshold", "1e9",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("threshold, termination", [("1e-6", "blowup_detected"), ("0.5", "t_end_reached")])
    def test_tail_threshold_also_sets_the_detector(self, threshold, termination, tmp_path, capsys):
        # the march stops at a tail fraction above the threshold; the proxy must trip there too, and only there
        out = tmp_path / "run"
        argv = ["simulate", "--alpha", "0.25", "--nu", "0.04", "--init", "sine:10", "--modes", "128",
                "--dt", "5e-4", "--t-end", "0.5", "--tail-threshold", threshold, "--out", str(out)]
        assert main(argv) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["termination"] == termination
        tripped = re.search(r"proxy tripped at t = (\S+)", capsys.readouterr().out)
        if termination == "blowup_detected":
            assert tripped is not None and float(tripped.group(1)) == meta["t_final"]
        else:
            assert tripped is None

    def test_data_under_resolved_at_t0_trips_the_proxy_there(self, tmp_path, capsys):
        # tail fraction 0.0099 > 1e-3 at t = 0: the march stops before its first step
        psi = [0.0] * 64
        psi[0], psi[60] = 0.5, 0.05
        spec_file = tmp_path / "tail.json"
        spec_file.write_text(json.dumps({"N": 64, "psi": psi}))
        out = tmp_path / "run"
        argv = ["simulate", "--alpha", "0.75", "--nu", "0.5", "--init", f"file:{spec_file}",
                "--dt", "1e-3", "--t-end", "0.05", "--out", str(out)]
        assert main(argv) == 0
        meta = json.loads((out / "run.json").read_text())
        assert (meta["termination"], meta["t_final"]) == ("blowup_detected", 0.0)
        assert "numerical blowup proxy tripped at t = 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("as_flag", [True, False], ids=["flag", "config"])
    def test_modes_refused_with_a_spectrum_file(self, as_flag, tmp_path, capsys):
        # a file: spectrum has its own mode count; --modes 512 used to be ignored without a word
        spec_file = tmp_path / "u0.json"
        spec_file.write_text(json.dumps({"N": 3, "psi": [0.5, -0.2, 0.1]}))
        out = tmp_path / "run"
        argv = ["simulate", "--alpha", "0.25", "--nu", "0.04", "--init", f"file:{spec_file}", "--dt", "0.01",
                "--t-end", "0.1", "--out", str(out)]
        if as_flag:
            argv += ["--modes", "512"]
        else:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({"modes": 512}))
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --modes applies only to sine:R data") and err.count("\n") == 1
        assert not out.exists()

    def test_certify_outside_the_regime_notes_the_skip(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["simulate", "--alpha", "0.5", "--nu", "0.1", "--modes", "16", "--dt", "0.01", "--t-end", "0.1",
                "--certify", "--out", str(out)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.startswith("note: certificate skipped: ") and "supercritical" in err and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["run.csv", "run.json"]


class TestInviscid:
    def test_decay_table_slope(self, tmp_path, capsys):
        out = tmp_path / "inv"
        rc = main(
            [
                "inviscid",
                "--init", "sine:1",
                "--dt", "0.1",
                "--t-end", "0.9",
                "--out", str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "T_max = 1" in printed
        assert "blowup_time_bound = 1.13" in printed
        header, data = read_csv(out / "decay.csv")
        assert header == ["t", "dist", "predicted"]
        slopes = np.diff(data[:, 1]) / np.diff(data[:, 0])
        np.testing.assert_allclose(slopes, -R0_SINE * np.pi, atol=1e-6)
        np.testing.assert_allclose(data[:, 1], data[:, 2], atol=1e-6 * data[0, 1])

    @pytest.mark.parametrize("amplitude, dt", [("0.1", "1"), ("1", "0.1")])
    @pytest.mark.parametrize("attractor", ["F", "phi", "sawtooth"])
    def test_predicted_is_the_exact_law(self, tmp_path, attractor, amplitude, dt):
        # every profile has H' = m off its jump, so D(t) = D(0) - m ||u0||^2 t holds exactly to T_max
        out = tmp_path / "inv"
        argv = ["inviscid", "--init", f"sine:{amplitude}", "--attractor", attractor, "--dt", dt,
                "--t-end", str(9 * float(dt)), "--out", str(out)]
        assert main(argv) == 0
        _, data = read_csv(out / "decay.csv")
        assert data.shape == (10, 3)
        np.testing.assert_allclose(data[:, 1], data[:, 2], rtol=0, atol=1e-6 * data[0, 1])

    @pytest.mark.parametrize("exponent", [110, 150])
    def test_huge_amplitude_scales_exactly(self, tmp_path, capsys, exponent):
        # u_R(x, t) = R u_1(x, R t): distances scale as R^2 and the bound as 1/R, though r0 ||u0||^2 overflows
        tables, bounds = [], []
        for R, dt in ((1.0, 0.01), (10.0**exponent, 10.0 ** -(exponent + 2))):
            out = tmp_path / f"inv{R:g}"
            assert main(["inviscid", "--init", f"sine:{R:g}", "--dt", f"{dt:g}", "--t-end", f"{3 * dt:g}", "--out", str(out)]) == 0
            printed = capsys.readouterr().out
            bounds.append(R * float(printed.split("blowup_time_bound = ")[1].split()[0]))
            tables.append(read_csv(out / "decay.csv")[1][:, 1:] / R**2)
        np.testing.assert_allclose(tables[1], tables[0], rtol=1e-12)
        assert bounds[1] == pytest.approx(bounds[0], rel=1e-12)

    @pytest.mark.parametrize("amplitude", ["1e-160", "1e-200"])
    def test_subnormal_energy_bound_scales_exactly(self, tmp_path, capsys, amplitude):
        # g(r0) scales as 1/R: at ||u0||^2 = pi R^2 subnormal (1e-160) or zero (1e-200) it used to be
        # 1.13028893e160 (r0 rounded) or a refusal as zero data
        bounds = []
        for init in ("sine:1", f"sine:{amplitude}"):
            assert main(["inviscid", "--init", init, "--dt", "0.1", "--t-end", "0.2", "--out", str(tmp_path / init)]) == 0
            bounds.append(float(capsys.readouterr().out.split("blowup_time_bound = ")[1].split()[0]))
        assert bounds[1] * float(amplitude) == pytest.approx(bounds[0], rel=1e-12)

    @pytest.mark.parametrize("name, kind", [("F", "F"), ("phi", "Phi"), ("Phi", "Phi"), ("PHI", "Phi"), ("sawtooth", "sawtooth")])
    def test_attractor_names(self, name, kind):
        assert cli._resolve_attractor(name) is PROFILES[kind]

    @pytest.mark.parametrize(
        "name", ["f", "Sawtooth", "SAWTOOTH", "custom", "", "F:junk", "phi:x", "sawtooth:x", "F:", "file:att.json"]
    )
    def test_other_attractor_names_refused(self, name):
        with pytest.raises(ConfigError, match="attractor must be F|phi|sawtooth"):
            cli._resolve_attractor(name)

    def test_suffixed_attractor_name_exits_one(self, tmp_path, capsys):
        # F:junk used to be measured against 1*F instead of r0*F
        out = tmp_path / "inv"
        argv = ["inviscid", "--attractor", "F:junk", "--dt", "0.3", "--t-end", "0.9", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: attractor must be F|phi|sawtooth, got 'F:junk'\n"
        assert not out.exists()

    def test_sawtooth_mode(self, tmp_path):
        out = tmp_path / "inv"
        rc = main(
            [
                "inviscid",
                "--init", "sine:1",
                "--attractor", "sawtooth",
                "--dt", "0.25",
                "--t-end", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        _, data = read_csv(out / "decay.csv")
        assert np.all(data[1:, 1] <= data[0, 1] - data[1:, 0] + 1e-6 * data[0, 1])

    def test_r_refused_for_a_profile_other_than_F(self, tmp_path, capsys):
        # --r scales F only; with the sawtooth it used to be ignored
        out = tmp_path / "inv"
        argv = ["inviscid", "--attractor", "sawtooth", "--r", "7", "--dt", "0.25", "--t-end", "0.5", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: r applies only to the scaled-F mode\n"
        assert not out.exists()

    def test_horizon_exits_one(self, tmp_path, capsys):
        rc = main(
            [
                "inviscid",
                "--init", "sine:1",
                "--dt", "0.5",
                "--t-end", "1.0",
                "--out", str(tmp_path / "inv"),
            ]
        )
        assert rc == 1
        assert "horizon" in capsys.readouterr().err

    def test_grid_too_coarse_for_the_initial_field_exits_one(self, tmp_path, capsys):
        # --grid-size 4 analyzes 1 of the 40 modes: it used to exit 0 with dist 5.486 against predicted 8.712
        spec_file = tmp_path / "u0.json"
        spec_file.write_text(json.dumps({"N": 40, "psi": (0.1 / np.arange(1, 41) ** 2).tolist()}))
        out = tmp_path / "inv"
        argv = ["inviscid", "--init", f"file:{spec_file}", "--grid-size", "4", "--dt", "0.01", "--t-end", "0.02", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: grid size 4 analyzes 1 modes, fewer than the 40 of u0\n"
        assert not out.exists()

    def test_root_find_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def fail(u0, x, t):
            raise characteristics.RootFindError("characteristic foot not found to tolerance")

        monkeypatch.setattr(characteristics, "_solve_feet", fail)
        rc = main(["inviscid", "--init", "sine:1", "--dt", "0.5", "--t-end", "0.5", "--out", str(tmp_path / "inv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_full_table_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for name in (
            "key-identity",
            "energy-neutrality",
            "lyapunov-identity",
            "oracle-equivalence",
            "comparison-lemma",
            "lq-conservation",
        ):
            assert name in out
        assert "FAIL" not in out

    def test_single_suite(self, capsys):
        assert main(["verify", "--suite", "lyapunov-identity"]) == 0
        out = capsys.readouterr().out
        assert "lyapunov-identity" in out and "key-identity" not in out

    def test_unknown_suite_exits_one(self):
        assert main(["verify", "--suite", "nope"]) == 1

    def test_empty_suite_name_exits_one(self, capsys):
        # an empty name once ran all six suites, as if no --suite were given
        assert main(["verify", "--suite", ""]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown suite ''") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--seed", "-1"], 1),  # random.Random would seed it as 1
            (["--seed", "-1", "--suite", "comparison-lemma"], 0),  # a deterministic suite reads no seed
            (["--seed", str(2**64)], 0),
        ],
    )
    def test_seed_rule(self, argv, code, capsys):
        assert main(["verify", *argv]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == "error: seed must be an integer >= 0, got -1\n" and captured.out == ""
        else:
            assert "FAIL" not in captured.out and captured.out.count("  PASS  ") == (1 if "--suite" in argv else len(SUITES))

    def test_named_worsts_and_where(self, capsys):
        assert main(["verify", "--suite", "key-identity", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        found = re.search(r"worst=(\S+) \[coefficient=(\S+) quadrature=(\S+)\] at seed 1, case \d+, N=\d+", out)
        assert found is not None, out
        worst, coefficient, quadrature = map(float, found.groups())
        assert worst == max(coefficient, quadrature)


class TestCertify:
    def test_writes_both_certificates_for_sine(self, tmp_path, capsys):
        out = tmp_path / "cert"
        rc = main(
            [
                "certify",
                "--alpha", "0.25", "--nu", "0.04",
                "--init", "sine:10",
                "--out", str(out),
            ]
        )
        assert rc == 0
        thm = json.loads((out / "certificate_supercritical_F.json").read_text())
        cor = json.loads((out / "certificate_sine_corollary.json").read_text())
        assert thm["L0"] == pytest.approx(20 * np.pi)
        assert cor["threshold"] == pytest.approx(206.2649, abs=1e-3)
        assert thm["predicted_bound_T"] == pytest.approx(cor["predicted_bound_T"])

    def test_unsupported_regime_exits_one(self, tmp_path, capsys):
        rc = main(
            ["certify", "--alpha", "0.6", "--nu", "0.04", "--init", "sine:10",
             "--out", str(tmp_path / "cert")]
        )
        assert rc == 1
        assert "supercritical" in capsys.readouterr().err

    def test_general_attractor_certificate(self, tmp_path):
        out = tmp_path / "cert"
        rc = main(
            [
                "certify",
                "--alpha", "0.25", "--nu", "0.04",
                "--init", "sine:-5",
                "--attractor", "sawtooth",
                "--out", str(out),
            ]
        )
        assert rc == 0
        cert = json.loads((out / "certificate_general_H.json").read_text())
        assert cert["hypotheses_hold"] is True

    def test_negative_amplitude_writes_the_theorem_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert"
        rc = main(["certify", "--alpha", "0.25", "--nu", "0.04", "--init", "sine:-10", "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["certificate_supercritical_F.json"]
        thm = json.loads((out / "certificate_supercritical_F.json").read_text())
        assert thm["hypotheses_hold"] is False
        assert thm["diagnostic"] == "sign condition failed: <F, u0> <= 0"
        err = capsys.readouterr().err
        assert "corollary skipped" in err and err.count("\n") == 1

    def test_normalized_profile_certificate(self, tmp_path):
        # Phi's coefficients are numpy floats; the verdict must still serialize
        out = tmp_path / "cert"
        rc = main(
            ["certify", "--alpha", "0.25", "--nu", "0.04", "--init", "sine:10", "--attractor", "phi", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads((out / "certificate_general_H.json").read_text())["hypotheses_hold"] is True


class TestSweep:
    def test_margin_crosses_threshold(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--alphas", "0.25",
                "--nus", "0.04",
                "--Rs", "2,10,40",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, data = read_csv(out / "sweep.csv")
        assert header == ["alpha", "nu", "R", "margin", "bound_T", "detected_T", "status"]
        margins = data[:, 3]
        assert margins[0] < 1 < margins[1] < margins[2]
        assert (out / "cell_a0.25_nu0.04_R10.json").exists()

    def test_tail_threshold_also_sets_detected_T(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "10", "--modes", "128", "--dt", "5e-4",
                "--t-end", "0.5", "--tail-threshold", "1e-6", "--simulate", "--out", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out / "sweep.csv")
        _, series = read_csv(out / "cell_a0.25_nu0.04_R10.csv")
        assert series[-1, 0] < 0.5 and rows[0, 5] == series[-1, 0]

    def test_certificates_alone_need_no_whole_step_count(self, tmp_path):
        # without --simulate nothing marches, so dt and t_end need only be finite and positive
        out = tmp_path / "sweep"
        assert main(["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "2", "--dt", "0.3", "--t-end", "1",
                     "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_empty_grid_exits_one(self):
        assert main(["sweep", "--alphas", "", "--nus", "1", "--Rs", "1"]) == 1

    @pytest.mark.parametrize(
        "grid",
        [
            ["--alphas", "0.25", "--nus", "0.04", "--Rs=-1,2"],
            ["--alphas", "0.25", "--nus", "0.04", "--Rs", "0,2"],
            ["--alphas", "0.25", "--nus", "0.04", "--Rs", "2,nan"],
            ["--alphas", "0.25", "--nus", "0.04", "--Rs", "2,1e200"],  # energy pi R^2 overflows
        ],
    )
    def test_bad_amplitude_refused_before_any_file(self, grid, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", *grid, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    # cells that stop at different times: t_end, two blowup detections, a step failure
    GRID = {"alphas": "0.25,0.3", "nus": "0.04", "Rs": "2,10,40,1e150"}
    MARCH = ["--modes", "64", "--dt", "1e-3", "--t-end", "0.2"]

    @pytest.fixture(scope="class")
    def grid_sweep(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("grid") / "sweep"
        argv = ["sweep", *(f"--{key}={value}" for key, value in self.GRID.items()), *self.MARCH]
        rc = main([*argv, "--simulate", "--out", str(out)])
        return rc, out

    @pytest.mark.parametrize(
        "alpha, R", [("0.25", "2"), ("0.25", "10"), ("0.3", "40"), ("0.3", "1e150")], ids=lambda v: v
    )
    def test_single_cell_matches_simulate(self, grid_sweep, alpha, R, tmp_path):
        rc, out_sweep = grid_sweep
        assert rc == 2  # the 1e150 cells overflow
        out_sim = tmp_path / "sim"
        argv = ["simulate", "--alpha", alpha, "--nu", "0.04", *self.MARCH, "--init", f"sine:{R}"]
        assert main([*argv, "--out", str(out_sim)]) == (2 if R == "1e150" else 0)
        sim_bytes = (out_sim / "run.csv").read_bytes()
        cell_bytes = (out_sweep / f"cell_a{alpha}_nu0.04_R{float(R):g}.csv").read_bytes()
        assert sim_bytes == cell_bytes

    def test_cells_stop_at_different_times(self, grid_sweep):
        _, out = grid_sweep
        stops = {path.read_text().strip().split("\n")[-1].split(",")[0] for path in out.glob("cell_*.csv")}
        assert len(stops) >= 3
        _, data = read_csv(out / "sweep.csv")
        statuses = [line.rsplit(",", 1)[1] for line in (out / "sweep.csv").read_text().split("\n")[1:-1]]
        assert statuses == ["ok", "ok", "ok", "step_failure"] * 2
        assert np.isnan(data[3, 5]) and np.isfinite(data[2, 5])

    def test_unsupported_cell_listed_and_others_written(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--alphas", "0.25,0.6", "--nus", "0.04", "--Rs", "2", "--modes", "32"]
        assert main([*argv, "--dt", "1e-3", "--t-end", "0.01", "--simulate", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cell_a0.6_nu0.04_R2: ") and err.count("\n") == 1
        lines = (out / "sweep.csv").read_text().split("\n")
        assert lines[0].endswith(",status") and len(lines) == 4 and lines[3] == ""
        assert lines[1].startswith("0.25,") and lines[1].endswith(",ok")
        assert lines[2] == "0.59999999999999998,0.040000000000000001,2,,,,unsupported"
        assert (out / "cell_a0.25_nu0.04_R2.json").exists() and (out / "cell_a0.25_nu0.04_R2.csv").exists()
        assert not list(out.glob("cell_a0.6*"))

    def test_overflowing_cell_exits_two(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "2,1e150", "--modes", "32"]
        assert main([*argv, "--dt", "1e-3", "--t-end", "0.01", "--simulate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cell_a0.25_nu0.04_R1e+150: step failure") and err.count("\n") == 1
        lines = (out / "sweep.csv").read_text().split("\n")
        assert lines[1].endswith(",ok") and lines[2].endswith(",step_failure")
        assert (out / "cell_a0.25_nu0.04_R1e+150.csv").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--alphas", "0.25,1.5"), ("--alphas", "0,0.25"), ("--nus", "-1"), ("--nus", "inf")]
    )
    def test_bad_alpha_or_nu_refused_before_any_file(self, flag, value, tmp_path, capsys):
        grid = {"--alphas": "0.25", "--nus": "0.04", "--Rs": "2", flag: value}
        out = tmp_path / "sweep"
        assert main(["sweep", *(f"{k}={v}" for k, v in grid.items()), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--alphas", "0.25,0.25", ["0.25"]),
            ("--alphas", "0.25000001,0.25000002", ["0.25000001", "0.25000002"]),
            ("--nus", "0.04,0.04", ["0.04"]),
            ("--nus", "0.04,0.0400000001", ["0.04", "0.0400000001"]),
            ("--nus", "0,-0", ["0.0", "-0.0"]),
            ("--Rs", "2,2", ["2.0"]),
            ("--Rs", "2.0000001,2.0000002", ["2.0000001", "2.0000002"]),
        ],
    )
    def test_colliding_cell_names_refused_before_any_file(self, flag, value, named, tmp_path, capsys):
        # a repeated value, or two values one cell-file label cannot tell apart
        grid = {"--alphas": "0.25", "--nus": "0.04", "--Rs": "2", flag: value}
        out = tmp_path / "sweep"
        assert main(["sweep", *(f"{k}={v}" for k, v in grid.items()), "--simulate", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert all(v in err for v in named)
        assert not out.exists()


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "flag, payload",
        [
            ("--init", {"N": 1}),
            ("--init", [0.5]),
            ("--init", {"N": 1, "psi": ["0.5"]}),
            ("--init", {"N": 1, "psi": [10**400]}),
            ("--init", None),
            ("--attractor", ["F"]),
            ("--attractor", {"kind": "F", "m": "x"}),
            ("--attractor", {"kind": "F", "m": 10**400}),
            ("--attractor", {"kind": ["F"]}),
            ("--attractor", None),
            ("--config", None),
        ],
        ids=["init-no-psi", "init-list", "init-text-psi", "init-huge-psi", "init-directory", "attractor-list",
             "attractor-text-m", "attractor-huge-m", "attractor-list-kind", "attractor-directory", "config-directory"],
    )
    def test_one_line_error(self, flag, payload, tmp_path, capsys):
        # None stands for a directory where a file is expected
        path = tmp_path / "input"
        if payload is None:
            path.mkdir()
        else:
            path.write_text(json.dumps(payload))
        value = str(path) if flag == "--config" else f"file:{path}"
        argv = ["inviscid", "--dt", "0.1", "--t-end", "0.2", flag, value, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestCertificateFiles:
    """Every command writes the full certificate, as dataclasses.asdict gives it."""

    def test_simulate_certify(self, tmp_path):
        out = tmp_path / "run"
        argv = ["simulate", "--alpha", "0.25", "--nu", "0.04", "--init", "sine:10", "--modes", "64"]
        assert main([*argv, "--dt", "1e-3", "--t-end", "0.01", "--certify", "--out", str(out)]) == 0
        want = certify_blowup_F(SineSpectrum.sine_wave(10.0, N=64), ModelParams(0.25, 0.04))
        assert json.loads((out / "certificate.json").read_text()) == asdict(want)

    def test_certify(self, tmp_path):
        out = tmp_path / "cert"
        assert main(["certify", "--alpha", "0.25", "--nu", "0.04", "--init", "sine:10", "--out", str(out)]) == 0
        params = ModelParams(0.25, 0.04)
        thm = certify_blowup_F(SineSpectrum.sine_wave(10.0, N=256), params)
        assert json.loads((out / "certificate_supercritical_F.json").read_text()) == asdict(thm)
        cor = corollary_condition(10.0, params)
        assert json.loads((out / "certificate_sine_corollary.json").read_text()) == asdict(cor)

    def test_sweep_cell(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "1,10", "--out", str(out)]) == 0
        for R in (1.0, 10.0):
            want = asdict(corollary_condition(R, ModelParams(0.25, 0.04)))
            assert json.loads((out / f"cell_a0.25_nu0.04_R{R:g}.json").read_text()) == want


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "--alpha", "0.25", "--nu", "0.02",
            "--init", "sine:3",
            "--modes", "128",
            "--dt", "1e-3",
            "--t-end", "0.2",
        ]
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) == 0
            outputs.append((out / "run.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "burgers_lab", "verify", "--suite", "energy-neutrality"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout


class TestRoundTrip:
    """cli's promise: float() reads every number of run.csv, a sweep cell's CSV and decay.csv back to
    the bits of the record or table it was written from."""

    #: CSV header name -> attribute, where the two differ
    ATTRIBUTES = {"t": "times", "dist": "distance"}

    def assert_read_back(self, path, source):
        lines = path.read_text().splitlines()
        for j, name in enumerate(lines[0].split(",")):
            written = np.array([float(line.split(",")[j]) for line in lines[1:]])
            kept = np.asarray(getattr(source, self.ATTRIBUTES.get(name, name)), dtype=float)
            assert written.view(np.int64).tolist() == kept.view(np.int64).tolist(), (path.name, name)

    def test_files_read_back_bit_for_bit(self, tmp_path, monkeypatch):
        written = []

        def record_to_csv(record, path, write=cli.record_to_csv):
            written.append((Path(path), record))
            write(record, path)

        def decay_series(*args, compute=cli.attractor_decay_series, **kwargs):
            written.append((tmp_path / "inviscid" / "decay.csv", compute(*args, **kwargs)))
            return written[-1][1]

        monkeypatch.setattr(cli, "record_to_csv", record_to_csv)
        monkeypatch.setattr(cli, "attractor_decay_series", decay_series)
        # the sweep's 1e150 cells hold values near 1e300 and end at a step failure; the inviscid distances are
        # subnormal
        for name, argv in (("simulate", RUNS["simulate"]), ("sweep", RUNS["sweep"]),
                           ("inviscid", "inviscid --init sine:1e-160 --dt 0.1 --t-end 0.9")):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(shlex.split(argv) + ["--out", str(tmp_path / name)])
        names = [path.name for path, _ in written]
        assert {"run.csv", "cell_a0.25_nu0.04_R1e+150.csv", "decay.csv"} <= set(names), names
        for path, source in written:
            self.assert_read_back(path, source)
        cell = dict(written)[tmp_path / "sweep" / "cell_a0.25_nu0.04_R1e+150.csv"]
        assert cell.termination == "step_failure" and cell.energy.max() > 1e300
        decay = dict(written)[tmp_path / "inviscid" / "decay.csv"]
        assert 0.0 < decay.distance.max() < sys.float_info.min


def _transform_modules_after(code: str) -> list[str]:
    """The scipy and ``numpy.fft`` modules a fresh interpreter has loaded after running ``code``."""
    probe = code + "\nimport sys\nprint('loaded:', *(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("loaded:")
    return last.split()[1:]


class TestColdStart:
    """No command loads a scipy module or ``numpy.fft``: a transform loads only pocketfft's binding, by itself."""

    def test_import_inviscid_and_certify_load_no_scipy(self, tmp_path):
        assert _transform_modules_after("import burgers_lab, burgers_lab.cli") == []
        out = tmp_path / "out"
        loaded = _transform_modules_after(
            "from burgers_lab.cli import main\n"
            f"assert main(['inviscid', '--dt', '0.1', '--t-end', '0.5', '--out', {str(out / 'inv')!r}]) == 0\n"
            "import sys\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            f"assert main(['certify', '--alpha', '0.25', '--nu', '0.04', '--init', 'sine:10', "
            f"'--out', {str(out / 'cert')!r}]) == 0"
        )
        assert loaded == []
        assert (out / "inv" / "decay.csv").exists() and (out / "cert" / "certificate_sine_corollary.json").exists()

    def test_simulate_and_verify_load_no_scipy(self, tmp_path):
        loaded = _transform_modules_after(
            "import sys\n"
            "from burgers_lab.cli import main\n"
            "assert main(['simulate', '--alpha', '0.25', '--nu', '0.04', '--modes', '32', '--dt', '0.01', "
            f"'--t-end', '0.1', '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'a march loads scipy'\n"
            "assert main(['verify']) == 0\n"
            "drawn = [m for m in sys.modules if m.startswith('numpy.random') or m in ('secrets', '_hashlib')]\n"
            "assert not drawn, f'verify loads {drawn}'"
        )
        assert loaded == []


class TestNonFiniteSettings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "nan", "--nu", "0"],
            ["simulate", "--alpha", "0.5", "--nu", "nan"],
            ["simulate", "--alpha", "0.5", "--nu", "inf"],
            ["simulate", "--alpha", "0.5", "--nu", "0", "--dt", "nan"],
            ["simulate", "--alpha", "0.5", "--nu", "0", "--t-end", "inf"],
            ["simulate", "--alpha", "0.5", "--nu", "0", "--tail-threshold", "nan"],
            ["inviscid", "--t-end", "nan"],
            ["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "2", "--dt", "nan"],
            ["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "2", "--tail-threshold", "inf"],
            ["simulate", "--alpha", "0.5", "--nu", "0", "--tail-threshold", "inf"],
        ],
    )
    def test_rejected_with_one_line_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestFloatOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            ["inviscid", "--init", "sine:1e200", "--dt", "1e-201", "--t-end", "3e-201"],
            ["simulate", "--alpha", "0.25", "--nu", "0.04", "--init", "sine:1e200", "--dt", "1e-3", "--t-end", "1e-2", "--certify"],
        ],
        ids=["inviscid", "simulate"],
    )
    def test_infinite_energy_refused_before_any_file(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float range" in err and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_distance_exits_one(self, tmp_path, capsys):
        # finite energy, but ||u - r F||^2 beyond the float range: decay.csv read inf after two numpy warnings
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"N": 1, "psi": [-3e153]}))
        out = tmp_path / "out"
        argv = ["inviscid", "--init", f"file:{spec}", "--r", "2.9e153", "--dt", "1e-160", "--t-end", "1e-160"]
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: float overflow: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_large_amplitude_follows_the_decay_law(self, tmp_path):
        # the samples' squared transform overflowed in analyze's oddness check
        out = tmp_path / "out"
        argv = ["inviscid", "--init", "sine:1e153", "--dt", "1e-154", "--t-end", "3e-154", "--out", str(out)]
        assert main(argv) == 0
        _, data = read_csv(out / "decay.csv")
        np.testing.assert_allclose(data[:, 1], data[:, 2], rtol=1e-12)

    def test_certificate_overflow_exits_one(self, tmp_path, capsys):
        # the hypotheses hold, but the bound 2 pi^2 / R is beyond the float range
        out = tmp_path / "out"
        assert main(["certify", "--alpha", "0.25", "--nu", "0", "--init", "sine:1e-310", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: float overflow: the horizon 3/(kappa y0)") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--alpha", "0.25", "--nu", "0", "--init", "sine:5e-324"],
            ["sweep", "--alphas", "0.25", "--nus", "0", "--Rs", "5e-324"],
        ],
        ids=["certify", "sweep"],
    )
    def test_underflowing_rate_exits_one(self, argv, tmp_path, capsys):
        # kappa L0 underflows to 0, where 3 / (kappa L0) used to raise ZeroDivisionError
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: float overflow: the horizon 3/(kappa y0)") and err.count("\n") == 1

    def test_sweep_writes_no_cell_before_an_overflowing_one(self, tmp_path, capsys):
        # R / nu = 100 fails the first cell's hypothesis; the second's holds with a bound beyond the float range
        out = tmp_path / "out"
        assert main(["sweep", "--alphas", "0.25", "--nus", "1e-320", "--Rs", "1e-318,1e-310", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: float overflow:")
        assert not out.exists()

    @pytest.mark.parametrize("amplitude, nu", [("1e120", "0.04"), ("1e-200", "0"), ("1e-100", "1e-200")])
    def test_extreme_amplitudes_certify_like_the_corollary(self, amplitude, nu, tmp_path, capsys):
        # L0^3, M^2 or ||u0||^2 leave the float range here, the margins do not: F's
        # certificate holds as the corollary's does, with the same kappa and bound
        argv = ["certify", "--alpha", "0.25", "--nu", nu, "--init", f"sine:{amplitude}", "--out", str(tmp_path)]
        assert main(argv) == 0
        theorem, corollary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        assert theorem["hypotheses_hold"] and corollary["hypotheses_hold"]
        assert theorem["kappa"] == corollary["kappa"]
        assert theorem["predicted_bound_T"] == corollary["predicted_bound_T"]
        assert math.isfinite(theorem["window"]) == math.isfinite(corollary["window"])

    def test_underflowing_energy_keeps_the_hypothesis_false(self, tmp_path, capsys):
        # ||u0||^2 underflows at R = 1e-200; R / nu = 1e-50 fails both hypotheses by far
        argv = ["certify", "--alpha", "0.25", "--nu", "1e-150", "--init", "sine:1e-200", "--out", str(tmp_path)]
        assert main(argv) == 0
        certs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [cert["hypotheses_hold"] for cert in certs] == [False, False]
        assert 0.0 < certs[0]["margin"] < 1e-50

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "0.25", "--nu", "1e308", "--init", "sine:1", "--dt", "0.1", "--t-end", "0.2"],
            ["simulate", "--alpha", "0.25", "--nu", "1e306", "--modes", "512", "--dt", "0.1", "--t-end", "0.2"],
            ["sweep", "--alphas", "0.25", "--nus", "1e308", "--Rs", "1", "--dt", "0.1", "--t-end", "0.2", "--simulate"],
        ],
        ids=["simulate", "simulate-weight", "sweep"],
    )
    def test_huge_nu_refused_without_warning(self, argv, tmp_path):
        # the dissipation weight 8 pi nu N^(2 alpha) overflows: numpy used to warn and write diss_integral = nan
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "burgers_lab", *argv, "--out", str(out)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: nu=") and "dissipation weight" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
        assert not out.exists()

    def test_overflowing_dissipation_weight_exits_one(self, tmp_path, capsys):
        # the refusal above, in process: 8 pi nu N^(2 alpha) = 8 pi 1e305 4096^2 overflows
        out = tmp_path / "out"
        argv = ["simulate", "--alpha", "1", "--nu", "1e305", "--init", "sine:1", "--modes", "4096", "--dt", "0.1", "--t-end", "0.1"]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: nu=1e+305 is too large: the dissipation weight 8 pi nu N^(2 alpha) overflows at N=4096\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "0.25", "--nu", "1e150", "--init", "sine:1e150", "--modes", "16"],
            ["sweep", "--alphas", "0.25", "--nus", "2,1e150", "--Rs", "2,1e150", "--modes", "16", "--simulate"],
        ],
        ids=["simulate", "sweep"],
    )
    def test_overflowing_dissipation_rate_refused_without_warning(self, argv, tmp_path):
        # a finite weight, but g(u0) = 2 nu ||u0||^2_{H^alpha} overflows: diss_integral read inf at exit 0
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "burgers_lab", *argv, "--dt", "0.05", "--t-end", "0.5", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: nu=1e+150 is too large for this initial data: its dissipation rate g(u0) overflows\n"
        assert not out.exists()

    def test_past_horizon_refusal_prints_no_warning(self, tmp_path):
        # a fresh interpreter prints numpy's overflow warnings to stderr as a user would see them
        out = tmp_path / "out"
        argv = ["inviscid", "--init", "sine:1e150", "--dt", "0.1", "--t-end", "1", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "burgers_lab", *argv], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: t=0.1 is past the guarded horizon") and proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr
        assert not out.exists()


class TestScaleR:
    @pytest.mark.parametrize("mode", ["inviscid", "simulate"])
    @pytest.mark.parametrize("r", ["nan", "inf", "0", "-1"])
    def test_rejected_with_one_line_error(self, mode, r, tmp_path, capsys):
        args = {"inviscid": ["--dt", "0.25"], "simulate": ["--alpha", "0.5", "--nu", "0", "--dt", "0.01"]}[mode]
        out = tmp_path / "out"
        assert main([mode, *args, "--t-end", "0.5", "--r", r, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: r must be a finite positive real or 'auto', got {r!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["inviscid", "simulate"])
    @pytest.mark.parametrize("r", ["1e200", "1e308"])
    def test_overflowing_distance_term_refused(self, mode, r, tmp_path, capsys):
        # r^2 ||F||^2 overflows: dist_rF used to read inf (1e200) or nan (1e308), and inviscid's table inf
        args = {"inviscid": ["--dt", "0.25"], "simulate": ["--alpha", "0.5", "--nu", "0", "--dt", "0.01"]}[mode]
        out = tmp_path / "out"
        assert main([mode, *args, "--t-end", "0.5", "--r", r, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float range" in err and err.count("\n") == 1
        assert not out.exists()

    def test_config_file_value_checked_alike(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"r": Infinity}')
        assert main(["inviscid", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: r must be a finite positive real or 'auto', got inf\n"


class TestStepCount:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "0.5", "--nu", "0.1"],
            ["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "2", "--simulate"],
            ["inviscid", "--init", "sine:0.5"],  # T_max = 2: its table, a row every dt from 0, ended at 0.9
        ],
    )
    def test_partial_last_step_rejected(self, argv, tmp_path, capsys):
        # 1/0.3 steps: round() would stop at t = 0.9 and report t_end_reached
        assert main([*argv, "--dt", "0.3", "--t-end", "1", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: t_end/dt") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "0.25", "--nu", "0.04"],
            ["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "2", "--simulate"],
            ["inviscid", "--init", "sine:0.5"],
        ],
    )
    def test_step_count_that_cannot_finish_refused(self, argv, tmp_path, capsys):
        # 0.01 / 1e-310 is a whole 1e308 steps
        assert main([*argv, "--dt", "1e-310", "--t-end", "0.01", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: t_end/dt = 1e+308 steps is more than the 1e+09 a march can finish\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "0.25", "--nu", "0.04", "--modes", "1000000"],
            ["sweep", "--alphas", "0.25", "--nus", "0.04,0.1", "--Rs", "2,4", "--modes", "250000", "--simulate"],
        ],
    )
    def test_march_work_past_the_cap_refused(self, argv, tmp_path, capsys, monkeypatch):
        # 10^6 steps of 10^6 modes, or of 4 rows of 2.5 x 10^5 modes, are 10^12 mode-steps: days of marching
        def no_march(*args, **kwargs):
            raise AssertionError("a refused march must not start")

        monkeypatch.setattr(cli, "evolve", no_march)
        monkeypatch.setattr(cli, "evolve_batch", no_march)
        assert main([*argv, "--dt", "1e-6", "--t-end", "1", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: modes x steps x rows = ") and err.count("\n") == 1
        assert "is more than the 1e+11 a march may take" in err
        assert not (tmp_path / "out").exists()


class TestGridSize:
    MARCHES = {
        "simulate": ["simulate", "--alpha", "0.25", "--nu", "0.1", "--modes", "32", "--dt", "1e-3", "--t-end", "0.01"],
        "sweep": ["sweep", "--alphas", "0.25", "--nus", "0.1", "--Rs", "1", "--modes", "32", "--dt", "1e-3",
                  "--t-end", "0.01", "--simulate"],
    }  # fmt: skip

    @pytest.mark.parametrize("mode", ["simulate", "sweep"])
    @pytest.mark.parametrize("given", [["--grid-size", "64"], ["--grid-size", "4096"], {"grid_size": 64}])
    def test_march_refuses_a_grid_size(self, mode, given, tmp_path, capsys):
        # the march's min du/dx grid follows --modes: a grid size asked of it used to be ignored
        if isinstance(given, dict):
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps(given))
            given = ["--config", str(cfg_file)]
        assert main([*self.MARCHES[mode], *given, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mode} does not take --grid-size") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    INVISCID = ["inviscid", "--init", "sine:1", "--dt", "0.1", "--t-end", "0.2"]

    @pytest.mark.parametrize("size", ["5", "7", "-4", "0", "2000001"])
    def test_inviscid_refuses_a_grid_size_before_any_solve(self, size, monkeypatch, tmp_path, capsys):
        # 2000001 once solved two million feet before the grid refused it; 5 and 7 ended in numpy's own errors
        def refuse(*args):
            raise AssertionError("_solve_feet called")

        monkeypatch.setattr(characteristics, "_solve_feet", refuse)
        assert main([*self.INVISCID, "--grid-size", size, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: grid size must be a power of two, at least 4\n"
        assert not (tmp_path / "out").exists()


class TestParserReuse:
    def test_flags_do_not_leak_between_calls(self, monkeypatch, tmp_path):
        seen = []
        for mode in ("simulate", "sweep"):
            monkeypatch.setitem(cli.RUNNERS, mode, lambda cfg: seen.append(cfg) or 0)
        simulate = ["simulate", "--alpha", "0.5", "--nu", "0.1", "--out", str(tmp_path)]
        sweep = ["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "2", "--out", str(tmp_path)]
        for argv in ([*simulate, "--certify"], simulate, [*sweep, "--simulate"], sweep):
            assert main(argv) == 0
        assert [cfg.certify for cfg in seen[:2]] == [True, False]
        assert [cfg.simulate for cfg in seen[2:]] == [True, False]
        assert build_parser() is build_parser()


class TestConfigHandling:
    def test_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": 0.3, "nu": 0.1, "modes": 64}))
        args = build_parser().parse_args(
            ["simulate", "--config", str(cfg_file), "--alpha", "0.25"]
        )
        cfg = merge_config("simulate", args)
        assert cfg.alpha == 0.25  # flag wins
        assert cfg.nu == 0.1 and cfg.modes == 64  # config survives

    # each payload goes to a command that reads its keys, so that the type check is what refuses it
    TYPED = {"simulate": ["simulate", "--alpha", "0.5", "--nu", "0.1"], "sweep": ["sweep", "--Rs", "1"], "verify": ["verify"]}

    @pytest.mark.parametrize(
        "mode, payload",
        [
            ("simulate", {"modes": "abc"}),
            ("simulate", {"modes": True}),
            ("simulate", {"modes": 2.5}),
            ("simulate", {"modes": None}),
            ("simulate", {"dt": "1e-3"}),
            ("simulate", {"dt": 10**400}),
            ("simulate", {"nu": False}),
            ("simulate", {"init": 1}),
            ("simulate", {"certify": 1}),
            ("sweep", {"alphas": 0.2}),
            ("sweep", {"alphas": [0.2, "x"]}),
            ("sweep", {"alphas": [True]}),
            ("sweep", {"nus": [10**400]}),
            ("verify", {"suite": 3}),
            ("simulate", [0.25]),
        ],
    )
    def test_wrongly_typed_config_exits_one(self, mode, payload, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload))
        argv = [*self.TYPED[mode], "--config", str(cfg_file)]
        assert main(argv if mode == "verify" else [*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("must be a JSON object" if isinstance(payload, list) else "must be of type") in err
        assert not (tmp_path / "out").exists()

    def test_typed_config_values_accepted(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": None, "nu": 1, "r": 0.5, "certify": False}))
        args = build_parser().parse_args(["simulate", "--config", str(cfg_file), "--alpha", "0.25"])
        cfg = merge_config("simulate", args)
        assert (cfg.alpha, cfg.nu, cfg.r, cfg.certify) == (0.25, 1, 0.5, False)
        cfg_file.write_text(json.dumps({"alphas": [0.2, 1], "simulate": False}))
        args = build_parser().parse_args(["sweep", "--config", str(cfg_file), "--nus", "0.04", "--Rs", "2"])
        cfg = merge_config("sweep", args)
        assert (cfg.alphas, cfg.simulate) == ([0.2, 1], False)

    def test_mode_count_beyond_memory_exits_one(self, tmp_path, capsys):
        # 10^14 modes ask for 728 TiB; the work cap refuses them before anything is allocated
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": 0.25, "nu": 0.04, "modes": 10**14}))
        assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: modes x steps x rows = 100000000000000 x 10000 x 1") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_grid_size_beyond_memory_exits_one(self, tmp_path, capsys):
        # a 2^50-point grid asks for 8 PiB, which the allocator refuses at once
        argv = ["inviscid", "--init", "sine:0.5", "--grid-size", str(2**50), "--dt", "0.1", "--t-end", "0.2"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": 0.3, "nu": 0.1, "bogus": 1}))
        args = build_parser().parse_args(["simulate", "--config", str(cfg_file)])
        with pytest.raises(ConfigError):
            merge_config("simulate", args)

    def test_round_trip_is_stable(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": 0.25, "nu": 0.04, "init": "sine:10", "dt": 5e-05}))
        args = build_parser().parse_args(["simulate", "--config", str(cfg_file)])
        cfg = merge_config("simulate", args)
        # the normal form: every key simulate reads, at its value; fed back, it yields the same config
        normalized = {key: getattr(cfg, key) for key in SETTINGS["simulate"]}
        full_file = tmp_path / "full.json"
        full_file.write_text(json.dumps(normalized))
        args2 = build_parser().parse_args(["simulate", "--config", str(full_file)])
        assert asdict(merge_config("simulate", args2)) == asdict(cfg)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            merge_config("simulate", build_parser().parse_args(["simulate", "--alpha", "2", "--nu", "0"]))
        with pytest.raises(ConfigError):
            merge_config("simulate", build_parser().parse_args(["simulate", "--alpha", "0.5", "--nu", "0", "--r", "-1"]))
        with pytest.raises(ConfigError):
            merge_config(
                "simulate",
                build_parser().parse_args(["simulate", "--alpha", "0.5", "--nu", "0", "--dt", "-1"]),
            )


class TestSettings:
    """Each command takes the flags and config keys it reads, and refuses the others."""

    RUNS = {
        "simulate": ["simulate", "--alpha", "0.25", "--nu", "0.1", "--modes", "16", "--dt", "0.01", "--t-end", "0.02"],
        "inviscid": ["inviscid", "--dt", "0.1", "--t-end", "0.2"],
        "verify": ["verify", "--suite", "energy-neutrality"],
        "certify": ["certify", "--alpha", "0.25", "--nu", "0.04", "--init", "sine:10"],
        "sweep": ["sweep", "--alphas", "0.25", "--nus", "0.04", "--Rs", "2"],
    }  # fmt: skip

    def test_every_setting_is_read_by_some_command(self):
        fields = set(ExperimentConfig.__dataclass_fields__) - {"mode"}
        assert set().union(*SETTINGS.values()) == fields
        assert list(SETTINGS) == list(cli.RUNNERS)

    @pytest.mark.parametrize("as_flag", [True, False], ids=["flag", "config"])
    @pytest.mark.parametrize(
        "mode, key, value",
        [
            ("simulate", "attractor", "sawtooth"),
            ("simulate", "seed", 7),
            ("inviscid", "nu", 0.1),
            ("verify", "out", None),
            ("certify", "dt", 0.01),
            ("inviscid", "modes", 4),
            ("certify", "modes", 4),
            ("sweep", "init", "sine:1"),
        ],
    )
    def test_unread_setting_refused(self, mode, key, value, as_flag, tmp_path, capsys):
        out = tmp_path / "out"
        # None: the refused value is the output directory itself
        value = str(out) if value is None else value
        argv = [*self.RUNS[mode], *([] if mode == "verify" else ["--out", str(out)])]
        if as_flag:
            argv += [f"--{key}", str(value)]
        else:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg_file)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {mode} does not take --{key}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["simulate", "--alpha", "0.25", "--nu", "0.1", "--modes", "abc"], "invalid int value: 'abc'"),
            (["sweep", "--alphas", "0.2,x", "--nus", "0.1", "--Rs", "1"], "--alphas: invalid float_list value: '0.2,x'"),
            (["inviscid", "--dt"], "--dt: expected one argument"),
            (["simulate", "--alpah", "0.25", "--nu", "0.1"], "simulate does not take --alpah"),
            # a flag is not expanded to the one it abbreviates
            (["sweep", "--alpha", "0.25", "--nus", "0.1", "--Rs", "1"], "sweep does not take --alpha"),
            (["inviscid", "--dt", "0.1", "--t-end", "0.2", "--grid", "64"], "inviscid does not take --grid"),
        ],
        ids=["int", "list", "missing-value", "misspelt", "abbreviated-list", "abbreviated-int"],
    )
    def test_unparsable_command_line_exits_one(self, argv, named, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([argv[0], "--out", str(out), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["sweep", "--help"])
        assert stop.value.code == 0
        assert "--alphas" in capsys.readouterr().out

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert "{simulate,inviscid,verify,certify,sweep}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, given", [([], "none given"), (["--bogus"], "got --bogus")], ids=["none", "bogus"])
    def test_missing_command_exits_one(self, argv, given, capsys):
        # argparse alone would exit 2, the step-failure code, with a two-line usage error
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: choose a command from simulate, inviscid, verify, certify, sweep ({given})\n"


class TestOneValuePerQuantity:
    """Where two outputs print the same quantity, they print the same bits."""

    def test_both_sine_certificates_carry_one_kappa_and_bound(self, tmp_path, capsys):
        argv = ["certify", "--alpha", "0.25", "--nu", "0.04", "--init", "sine:10", "--out", str(tmp_path)]
        assert main(argv) == 0
        theorem, corollary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        assert theorem["kappa"] == corollary["kappa"] == 0.02418865082489962
        assert theorem["predicted_bound_T"] == corollary["predicted_bound_T"]

    @pytest.mark.parametrize("alpha, nu, amplitude", [("0.3", "0.04", "10"), ("0.25", "0.02", "40"), ("0.25", "5e-324", "1")])
    def test_both_sine_certificates_carry_one_forcing(self, alpha, nu, amplitude, tmp_path, capsys):
        # M was formed two ways, which differed in the last bits, and as sqrt(nu / 2), which is 0 at nu = 5e-324
        argv = ["certify", "--alpha", alpha, "--nu", nu, "--init", f"sine:{amplitude}", "--out", str(tmp_path)]
        assert main(argv) == 0
        theorem, corollary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        assert theorem["hypotheses_hold"] and corollary["hypotheses_hold"]
        assert theorem["forcing_M"] == corollary["forcing_M"] > 0.0
        assert theorem["window"] == corollary["window"]

    @pytest.mark.parametrize("seed", range(5))
    def test_simulate_r_is_optimal_r(self, seed, tmp_path):
        # run.json's r is the march's r0 = ||u0|| / ||F||, which optimal_r reports as well
        psi = np.random.default_rng(seed).uniform(-1.0, 1.0, 63)
        spec_file = tmp_path / "u0.json"
        spec_file.write_text(json.dumps({"N": psi.size, "psi": psi.tolist()}))
        out = tmp_path / "out"
        argv = ["simulate", "--alpha", "0.25", "--nu", "0.5", "--init", f"file:{spec_file}", "--dt", "1e-3",
                "--t-end", "1e-3", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "run.json").read_text())["r"] == optimal_r(SineSpectrum(psi)).r0


#: edge values of the certify property test: zeros, subnormals, the float range's ends, infinities, NaN
_EDGES = [0.0, -0.0, 5e-324, 1e-310, 1e308, math.inf, -math.inf, math.nan]


def _run_in_process(argv: list[str]) -> tuple[int, list[str], list[str]]:
    """main(argv) with stdout and stderr captured; fails on any Python warning, traceback or warning text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in stderr.getvalue() and "Warning" not in stderr.getvalue()
    assert code in (0, 1, 2)
    return code, stdout.getvalue().splitlines(), stderr.getvalue().splitlines()


def _assert_one_error_and_no_file(lines: list[str], out: Path) -> None:
    assert [line for line in lines if not line.startswith("note: ")] == lines[-1:]
    assert lines[-1].startswith("error: ")
    assert not out.exists()


def _finite_table(path: Path) -> bool:
    """Whether every value below a CSV file's header is a finite number."""
    return all(math.isfinite(float(v)) for line in path.read_text().split("\n")[1:-1] for v in line.split(","))


def _finite_json(path: Path, may_be_infinite=()) -> bool:
    """Whether every number of a flat JSON object is finite, the keys documented as possibly +inf aside."""
    payload = json.loads(path.read_text())
    numbers = {k: v for k, v in payload.items() if isinstance(v, float)}
    return all(math.isfinite(v) or (k in may_be_infinite and v == math.inf) for k, v in numbers.items())


#: a certificate's margin and window are +inf at nu = 0, or where they pass the float range
_CERT_INF = ("margin", "window")
#: edge values of a real-valued flag, as text: zeros, negatives, subnormals, the float range's end, inf, NaN, junk
_REALS = ["0", "-0", "-1", "5e-324", "1e-310", "1e308", "inf", "-inf", "nan", "", "x"]
#: edge values of each setting of a march and of the inviscid table
_EDGES_OF = {
    "alpha": ["0.5", "0.75", "1", *_REALS],
    "nu": _REALS,
    "init": ["sine:-1", "sine:0", "sine:1e-200", "sine:1e150", "sine:5e-324", "sine:1e308", "sine:nan", "sine:inf",
             "sine:", "sine:x", "bogus:1", "", "file:{dir}/u0.json", "file:{dir}/missing.json", "file:{dir}"],
    "modes": ["1", "2", "0", "-1", "", "x", "1.5"],
    "dt": ["0.1", "1e308", *_REALS],
    "t_end": ["0.05", "1", "1e308", *_REALS],
    "stride": ["1", "1000", "0", "-1", "", "x"],
    "r": ["1", "1e153", "1e200", "1e308", *_REALS],
    "tail_threshold": ["1", "1e-300", *_REALS],
    "grid_size": ["16", "4", "3", "0", "-1", "", "x"],
    "attractor": ["phi", "sawtooth", "F:x", "", "x"],
}


def _draw_settings(data, valid: dict[str, str], edges: dict[str, list[str]] = _EDGES_OF) -> dict[str, str]:
    """``valid`` with one or two settings replaced by an edge value each, and each on/off flag drawn."""
    keys = st.sampled_from(sorted(set(valid) & set(edges)))
    edited = data.draw(st.lists(keys, min_size=1, max_size=data.draw(st.sampled_from([1, 1, 2])), unique=True))
    settings_ = valid | {key: data.draw(st.sampled_from(edges[key]), label=key) for key in edited}
    return settings_ | {key: data.draw(st.booleans(), label=key) for key, value in valid.items() if value is False}


def _command_line(command: str, settings_: dict, work: str) -> list[str]:
    argv = [command]
    for key, value in settings_.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv += [flag] if value else []
        else:
            argv.append(f"{flag}={value.format(dir=work)}")
    return [*argv, "--out", str(Path(work, "out"))]


def _steps_bounded(settings_: dict) -> bool:
    """Whether t_end/dt asks for at most 20 steps, or is refused (not a whole positive number of steps up to the ceiling)."""
    try:
        return _step_count(float(settings_["t_end"]), float(settings_["dt"])) <= 20
    except ValueError:
        return True


@contextlib.contextmanager
def _work_dir(settings_: dict):
    """A fresh directory holding a 3-mode spectrum u0.json; settings that ask for over 20 steps are not run."""
    hypothesis.assume(_steps_bounded(settings_))
    with tempfile.TemporaryDirectory() as work:
        Path(work, "u0.json").write_text(json.dumps({"N": 3, "psi": [0.5, -0.2, 0.1]}))
        yield work


class TestSimulateProperty:
    VALID = {"alpha": "0.25", "nu": "0.04", "init": "sine:1", "modes": "16", "dt": "0.05", "t_end": "0.5",
             "stride": "3", "r": "auto", "tail_threshold": "1e-3", "certify": False}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_input_ends_in_a_run_or_one_error(self, data):
        settings_ = _draw_settings(data, self.VALID)
        with _work_dir(settings_) as work:
            out = Path(work, "out")
            code, _, lines = _run_in_process(_command_line("simulate", settings_, work))
            if code == 1:
                _assert_one_error_and_no_file(lines, out)
            if code == 0:
                assert not any(line.startswith("error: ") for line in lines)
                assert _finite_table(out / "run.csv") and _finite_json(out / "run.json")
                if (out / "certificate.json").exists():
                    assert _finite_json(out / "certificate.json", _CERT_INF)


class TestInviscidProperty:
    VALID = {"init": "sine:1", "dt": "0.05", "t_end": "0.5", "grid_size": "64", "attractor": "F", "r": "auto"}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_input_ends_in_a_table_or_one_error(self, data):
        settings_ = _draw_settings(data, self.VALID)
        with _work_dir(settings_) as work:
            code, printed, lines = _run_in_process(_command_line("inviscid", settings_, work))
            assert code in (0, 1)
            if code == 1:
                _assert_one_error_and_no_file(lines, Path(work, "out"))
            else:
                assert not lines and _finite_table(Path(work, "out", "decay.csv"))
                assert all(math.isfinite(float(line.split(" = ")[1])) for line in printed[:2])


class TestVerifyProperty:
    SEEDS = ["0", "3", str(2**64), str(10**30), "-1", "", "x", "1.5", "1e3"]
    SUITE_NAMES = [*SUITES, "", "nope", "Key-Identity", " key-identity"]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.sampled_from([None, *SEEDS]), suite=st.sampled_from([None, *SUITE_NAMES]))
    def test_every_input_ends_in_a_table_or_one_error(self, seed, suite):
        argv = ["verify", *([f"--seed={seed}"] if seed is not None else []), *([f"--suite={suite}"] if suite is not None else [])]
        code, printed, lines = _run_in_process(argv)
        assert code in (0, 1)
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert not lines and len(printed) == (len(SUITES) if suite is None else 1)
            assert all("  PASS  " in line for line in printed)


class TestSweepProperty:
    VALID = {"alphas": "0.25,0.3", "nus": "0.04", "Rs": "2,10", "modes": "16", "dt": "0.05", "t_end": "0.5",
             "stride": "3", "tail_threshold": "1e-3", "simulate": False}
    #: each list's edge values: one edge real, a repeated entry, an empty entry, or a cell outside the regime
    LISTS = [*_REALS, "0.25,0.25", "0.25,,1", "0.25,-0", "0,-0", "0.6", "2,1e150"]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_input_ends_in_a_table_or_one_error(self, data):
        edges = {**_EDGES_OF, **dict.fromkeys(("alphas", "nus", "Rs"), self.LISTS)}
        settings_ = _draw_settings(data, self.VALID, edges)
        with _work_dir(settings_) as work:
            out = Path(work, "out")
            code, _, lines = _run_in_process(_command_line("sweep", settings_, work))
            if not (out / "sweep.csv").exists():
                assert code == 1
                _assert_one_error_and_no_file(lines, out)
                return
            rows = [line.split(",") for line in (out / "sweep.csv").read_text().split("\n")[1:-1]]
            statuses = [row[-1] for row in rows]
            # one error line per unsupported or failed cell, and the exit code they give
            assert len(lines) == len(rows) - statuses.count("ok")
            assert all(line.startswith("error: cell_") for line in lines)
            assert code == (2 if "step_failure" in statuses else 1 if "unsupported" in statuses else 0)
            for row, status in zip(rows, statuses):
                alpha, nu, R, margin, bound_T, detected_T = (float(v) if v else None for v in row[:-1])
                assert all(math.isfinite(v) for v in (alpha, nu, R))
                assert all(v is None or math.isfinite(v) for v in (bound_T, detected_T))
                # the margin (R / nu) / threshold is +inf at nu = 0 and where R / nu leaves the float range
                assert margin is None or math.isfinite(margin) or (margin == math.inf and R > nu * sys.float_info.max)
                if status == "ok" and settings_["simulate"]:
                    assert _finite_table(out / f"cell_a{alpha:g}_nu{nu:g}_R{R:g}.csv")
            for cert in out.glob("cell_*.json"):
                assert _finite_json(cert, _CERT_INF)


class TestCertifyProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.sampled_from([0.25, *_EDGES]),
        nu=st.sampled_from([0.04, *_EDGES]),
        amplitude=st.sampled_from([1.0, -1.0, 1e-200, *_EDGES]),
        attractor=st.sampled_from(["F", "phi", "sawtooth", "F:x", "", "x"]),
    )
    def test_every_input_ends_in_a_certificate_or_one_error(self, alpha, nu, amplitude, attractor):
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            argv = ["certify", f"--alpha={alpha!r}", f"--nu={nu!r}", f"--init=sine:{amplitude!r}",
                    f"--attractor={attractor}", "--out", out]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            certs = [json.loads(path.read_text()) for path in sorted(Path(out).glob("certificate_*.json"))]
        assert not caught, [str(w.message) for w in caught]
        lines = stderr.getvalue().splitlines()
        assert "Traceback" not in stderr.getvalue() and "Warning" not in stderr.getvalue()
        assert code in (0, 1, 2)
        if code == 1:
            assert [line for line in lines if not line.startswith("note: ")] == lines[-1:]
            assert lines[-1].startswith("error: ")
        if code == 0:
            assert certs and not any(line.startswith("error: ") for line in lines)
            for cert in certs:
                bound = cert["predicted_bound_T"]
                assert bound is None if not cert["hypotheses_hold"] else 0.0 < bound < math.inf

