import json
import subprocess
import sys

import numpy as np
import pytest

from burgers_lab import characteristics
from burgers_lab.cli import (
    ConfigError,
    build_parser,
    main,
    merge_config,
    normalized_dict,
)

R0_SINE = np.sqrt(3.0) / (np.pi * np.sqrt(2.0))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array(
        [[float(v) if v else np.nan for v in line.split(",")] for line in lines[1:]]
    )
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
        assert header == ["alpha", "nu", "R", "margin", "bound_T", "detected_T"]
        margins = data[:, 3]
        assert margins[0] < 1 < margins[1] < margins[2]
        assert (out / "cell_a0.25_nu0.04_R10.json").exists()

    def test_empty_grid_exits_one(self):
        assert main(["sweep", "--alphas", "", "--nus", "1", "--Rs", "1"]) == 1

    def test_single_cell_matches_simulate(self, tmp_path):
        common = ["--alpha", "0.25", "--nu", "0.04", "--modes", "64", "--dt", "1e-3", "--t-end", "0.2"]
        out_sim = tmp_path / "sim"
        assert main(["simulate", *common, "--init", "sine:2", "--out", str(out_sim)]) == 0
        out_sweep = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--alphas", "0.25", "--nus", "0.04", "--Rs", "2",
                "--modes", "64", "--dt", "1e-3", "--t-end", "0.2",
                "--simulate",
                "--out", str(out_sweep),
            ]
        )
        assert rc == 0
        sim_bytes = (out_sim / "run.csv").read_bytes()
        cell_bytes = (out_sweep / "cell_a0.25_nu0.04_R2.csv").read_bytes()
        assert sim_bytes == cell_bytes


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "--alpha", "0.25", "--nu", "0.02",
            "--init", "sine:3",
            "--modes", "128",
            "--dt", "1e-3",
            "--t-end", "0.2",
            "--seed", "7",
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
        ],
    )
    def test_rejected_with_one_line_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


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
        normalized = normalized_dict(cfg)
        # feeding the normalized form back yields the identical normal form
        full_file = tmp_path / "full.json"
        full_file.write_text(json.dumps(normalized))
        args2 = build_parser().parse_args(["simulate", "--config", str(full_file)])
        assert normalized_dict(merge_config("simulate", args2)) == normalized

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
