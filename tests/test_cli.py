import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from hybridlab import cli
from hybridlab.cli import main, parse_config
from hybridlab.errors import ParseError, ValidationError


def base_config(**overrides):
    cfg = {
        "scenario": "clitest",
        "generator": [[-1.0, 1.0], [2.0, -2.0]],
        "model": {
            "kind": "controlled_linear",
            "dim": 1,
            "noise_dim": 1,
            "drift": [[[1.0]], [[1.0]]],
            "gains": [[[-2.0]], [[-2.0]]],
            "diffusion": [[[[0.5]]], [[[0.5]]]],
            "rho": 0.1,
        },
        "sim": {"steps_per_rho": 4, "seed": 321},
        "samples": {"paths": 60, "starts": 8, "paths_per_start": 4},
        "times": {"t_burn": 6.0, "horizon": 4.0, "time_ladder": [2.0, 5.0],
                  "lookbacks": [3, 6], "pair_horizon": 1.0},
        "rho_ladder": [0.4, 0.2, 0.1],
        "tolerances": {"atom_cap": 80, "calibration_pairs": 2},
        "suites": ["stability"],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_config_records_certificate(tmp_path):
    cfg = parse_config(write_config(tmp_path, base_config()))
    assert cfg.provenance["certificate"]["certified"]
    assert cfg.provenance["certificate"]["beta"] == pytest.approx(1.75, abs=1e-12)
    assert cfg.scenario == "clitest"


def test_parse_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_config(str(path))


def test_parse_config_missing_generator(tmp_path):
    raw = base_config()
    del raw["generator"]
    with pytest.raises(ValidationError, match="generator"):
        parse_config(write_config(tmp_path, raw))


def test_parse_config_bad_ladder(tmp_path):
    raw = base_config(rho_ladder=[0.1, 0.2])
    with pytest.raises(ValidationError, match="ladder"):
        parse_config(write_config(tmp_path, raw))


def test_validate_ok(tmp_path):
    res = CliRunner().invoke(main, ["validate", "--config",
                                    write_config(tmp_path, base_config())])
    assert res.exit_code == 0
    assert "certificate" in res.output


def test_validate_bad_config_exit_2(tmp_path):
    raw = base_config(generator=[[-1.0, 0.5], [2.0, -2.0]])
    res = CliRunner().invoke(main, ["validate", "--config",
                                    write_config(tmp_path, raw)])
    assert res.exit_code == 2


def test_simulate_writes_trajectory(tmp_path):
    path = write_config(tmp_path, base_config())
    res = CliRunner().invoke(main, ["simulate", "--config", path,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 0
    csv = tmp_path / "out" / "clitest" / "trajectory.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0]
    assert header == "t,u_1,mode"


def test_simulate_blowup_exit_3(tmp_path):
    raw = base_config()
    raw["model"]["gains"] = [[[0.0]], [[0.0]]]
    raw["sim"]["blowup_guard"] = 100.0
    raw["times"]["horizon"] = 15.0
    res = CliRunner().invoke(main, ["simulate", "--config",
                                    write_config(tmp_path, raw),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 3
    assert "Blowup" in res.output


def test_measure_writes_atom_table(tmp_path):
    path = write_config(tmp_path, base_config())
    res = CliRunner().invoke(main, ["measure", "--config", path,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 0
    csv = tmp_path / "out" / "clitest" / "measure.csv"
    assert csv.exists()
    assert csv.read_text().splitlines()[0].startswith("weight,mode,seg_0")


def test_suite_pass_writes_artifacts(tmp_path):
    path = write_config(tmp_path, base_config())
    res = CliRunner().invoke(main, ["suite", "--config", path,
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 0
    out = tmp_path / "out" / "clitest"
    assert (out / "stability.csv").exists()
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["suites"][0]["suite"] == "stability"
    assert "timestamp" in verdict


def test_suite_failure_exit_1(tmp_path):
    raw = base_config(expected_negative=True)  # certified model will NOT diverge
    res = CliRunner().invoke(main, ["suite", "--config",
                                    write_config(tmp_path, raw),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    verdict = json.loads((tmp_path / "out" / "clitest" / "verdict.json").read_text())
    assert verdict["passed"] is False


def test_suite_unknown_name_exit_2(tmp_path):
    raw = base_config(suites=["mystery"])
    res = CliRunner().invoke(main, ["suite", "--config",
                                    write_config(tmp_path, raw),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2


def test_suite_rerun_byte_identical(tmp_path):
    path = write_config(tmp_path, base_config())
    for d in ("a", "b"):
        res = CliRunner().invoke(main, ["suite", "--config", path,
                                        "--out", str(tmp_path / d)])
        assert res.exit_code == 0
    csv_a = (tmp_path / "a" / "clitest" / "stability.csv").read_bytes()
    csv_b = (tmp_path / "b" / "clitest" / "stability.csv").read_bytes()
    assert csv_a == csv_b
    va = json.loads((tmp_path / "a" / "clitest" / "verdict.json").read_text())
    vb = json.loads((tmp_path / "b" / "clitest" / "verdict.json").read_text())
    va.pop("timestamp"), vb.pop("timestamp")
    assert va == vb


def test_seed_override_changes_output(tmp_path):
    path = write_config(tmp_path, base_config())
    runner = CliRunner()
    runner.invoke(main, ["simulate", "--config", path, "--out", str(tmp_path / "a")])
    runner.invoke(main, ["simulate", "--config", path, "--seed", "999",
                         "--out", str(tmp_path / "b")])
    assert ((tmp_path / "a" / "clitest" / "trajectory.csv").read_bytes()
            != (tmp_path / "b" / "clitest" / "trajectory.csv").read_bytes())


def test_shipped_configs_parse():
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("certified_scalar.json", "uncontrolled_scalar.json"):
        cfg = parse_config(os.path.join(here, name))
        assert cfg.provenance["generator_valid"]


def test_validate_misaligned_time_exit_2(tmp_path):
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    with open(os.path.join(here, "certified_scalar.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["times"]["t"] = 0.013
    path = write_config(tmp_path, raw)
    for command in (["validate"], ["suite", "--out", str(tmp_path / "out")],
                    ["measure", "--out", str(tmp_path / "out")]):
        res = CliRunner().invoke(main, command + ["--config", path])
        assert res.exit_code == 2, command
        assert "grid alignment" in res.output


def test_dt_per_rho_override_rechecks_alignment(tmp_path):
    raw = base_config()
    raw["times"]["t_burn"] = 6.1  # a multiple of 0.4 / 4, not of 0.4 / 3
    path = write_config(tmp_path, raw)
    assert CliRunner().invoke(main, ["validate", "--config", path]).exit_code == 0
    res = CliRunner().invoke(main, ["simulate", "--config", path, "--dt-per-rho", "3",
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 2


def test_suite_help_has_no_threads_option():
    res = CliRunner().invoke(main, ["suite", "--help"])
    assert res.exit_code == 0
    assert "--threads" not in res.output


def test_measure_writes_every_coordinate(tmp_path):
    raw = base_config(generator=[[-3.0, 1.0, 2.0], [1.5, -2.0, 0.5], [2.0, 2.0, -4.0]])
    raw["model"] = {
        "kind": "controlled_linear", "dim": 2, "noise_dim": 2,
        "drift": [[[0.5, 1.0], [-1.0, 0.5]], [[0.3, -0.5], [0.8, 0.2]], [[0.6, 0.0], [0.4, -0.2]]],
        "gains": [[[-2.0, 0.0], [0.0, -2.0]]] * 3,
        "diffusion": [[[[0.3, 0.0], [0.0, 0.3]], [[0.0, 0.2], [0.2, 0.0]]]] * 3,
        "rho": 0.1,
    }
    raw["samples"]["paths"] = 12
    raw["times"]["t_burn"] = 1.0
    path = write_config(tmp_path, raw)
    res = CliRunner().invoke(main, ["measure", "--config", path, "--out", str(tmp_path / "out")])
    assert res.exit_code == 0
    lines = (tmp_path / "out" / "clitest" / "measure.csv").read_text().splitlines()
    header = lines[0].split(",")
    nodes = raw["sim"]["steps_per_rho"] + 1
    assert len(header) == 2 + 2 * nodes
    assert header[2:6] == ["seg_0_1", "seg_0_2", "seg_1_1", "seg_1_2"]
    assert len(lines) == 13 and all(len(r.split(",")) == len(header) for r in lines[1:])


def test_cli_import_does_not_import_scipy_optimize():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hybridlab.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_validate_reducible_generator_exit_2(tmp_path):
    path = write_config(tmp_path, base_config(generator=[[-1.0, 1.0], [0.0, 0.0]]))
    res = CliRunner().invoke(main, ["validate", "--config", path])
    assert res.exit_code == 2
    assert "not reachable" in res.output


def test_python_m_cli_runs_main():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "hybridlab.cli", "--help"], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0
    for command in ("validate", "simulate", "measure", "suite"):
        assert command in out.stdout


@pytest.mark.parametrize("command", ["validate", "suite", "simulate", "measure"])
@pytest.mark.parametrize("override", [{"initial": {"mode": 3}}, {"initial": {"mode": 0}},
                                      {"suites": ["stabilty"]}],
                         ids=["mode_above_range", "mode_zero", "unknown_suite"])
def test_config_error_exits_2_at_parse(tmp_path, command, override):
    path = write_config(tmp_path, base_config(**override))
    args = [command, "--config", path]
    if command != "validate":
        args += ["--out", str(tmp_path / "out")]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert "ValidationError" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "suite", "simulate", "measure"])
@pytest.mark.parametrize("guard", [float("inf"), float("nan"), 0.0, -1.0],
                         ids=["Infinity", "NaN", "zero", "negative"])
def test_blowup_guard_must_be_finite_positive(tmp_path, command, guard):
    raw = base_config()
    raw["sim"]["blowup_guard"] = guard  # json.dumps writes Infinity and NaN
    res = CliRunner().invoke(main, command_args(command, write_config(tmp_path, raw), tmp_path))
    assert res.exit_code == 2
    assert "ValidationError: sim.blowup_guard" in res.output
    assert not (tmp_path / "out").exists()


def test_endpoint_convergence_blowup_exit_3(tmp_path):
    raw = base_config(suites=["endpoint_convergence"])
    raw["model"]["gains"] = [[[0.5]], [[0.5]]]
    raw["sim"]["blowup_guard"] = 4.0
    res = CliRunner().invoke(main, ["suite", "--config", write_config(tmp_path, raw),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 3
    assert "Blowup in suite endpoint_convergence" in res.output


def command_args(command, path, tmp_path):
    args = [command, "--config", path]
    return args if command == "validate" else args + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["validate", "suite", "simulate", "measure"])
def test_unknown_registry_model_exits_2(tmp_path, command):
    raw = base_config()
    raw["model"] = {"kind": "registry", "name": "nope"}
    res = CliRunner().invoke(main, command_args(command, write_config(tmp_path, raw), tmp_path))
    assert res.exit_code == 2
    assert "ValidationError: model.name" in res.output


def test_measure_config_error_from_ensemble_exits_2(tmp_path):
    # a burn-in shorter than rho passes parsing, and the ensemble rejects it
    raw = base_config()
    raw["times"]["t_burn"] = 0.0
    res = CliRunner().invoke(main, command_args("measure", write_config(tmp_path, raw), tmp_path))
    assert res.exit_code == 2
    assert "ValidationError" in res.output


@pytest.mark.parametrize("command, target", [
    ("validate", "parse_config"), ("simulate", "integrate"), ("measure", "ensemble_at"),
    ("suite", "SUITES")])
def test_unexpected_exception_exits_3_with_traceback(tmp_path, monkeypatch, command, target):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    if target == "SUITES":
        monkeypatch.setitem(cli.SUITES, "stability", broken)
    else:
        monkeypatch.setattr(cli, target, broken)
    res = CliRunner().invoke(main, command_args(command, write_config(tmp_path, base_config()),
                                                tmp_path))
    assert res.exit_code == 3
    assert "Traceback" in res.output and "RuntimeError: broken on purpose" in res.output
