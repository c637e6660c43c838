"""End-to-end command-line tests: exit codes, file outputs, determinism."""
import argparse
import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from rollball import landscape, optimizer, verify
from rollball.cli import (ConfigError, OffsetConfig, RunConfig, SweepConfig,
                          TrainConfig, build_parser, config_from_mapping, main)
from rollball.neural import train_mlp
from rollball.optimizer import OPTIMIZERS, RULES, ProjectionConfig, hyperparameters
from test_neural import TINY, seed_mnist_dir, tiny_dataset

TRAJ_HEADER = ("t,theta_0,loss,center_0,center_1,grad_norm,"
               "projection_iters,projection_residual")


# the subcommands whose flags set the fields of a config, and those of them
# that also read the fields from a --config file
CONFIG_OF = {"trajectory": RunConfig, "sweep": SweepConfig, "train": TrainConfig,
             "offset": OffsetConfig}
FILE_CONFIG_OF = {"trajectory": RunConfig, "sweep": SweepConfig}


def _flag_actions(command):
    """The argparse actions of a subcommand's flags, apart from --help and
    --config."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.dest not in ("help", "config")]


CONFIG_FLAGS = [(command, a) for command in FILE_CONFIG_OF for a in _flag_actions(command)]


def _sample_flag(action):
    """The flag with a value it accepts."""
    if action.choices:
        return [action.option_strings[0], action.choices[-1]]
    return [action.option_strings[0], {int: "7", float: "0.5"}.get(action.type, "k=5")]


@pytest.fixture()
def sandbox(tmp_path, monkeypatch):
    """Isolated cwd with no ambient data directory."""
    monkeypatch.delenv("RLB_DATA_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

class TestConfigs:
    def test_run_config_round_trip(self):
        cfg = RunConfig(landscape="quadratic", landscape_params={"a": [[2.0]]},
                        optimizer="rbo", theta0=[1.0], rho=0.5, eta=2.0,
                        steps=7, seed=3)
        assert config_from_mapping(RunConfig, json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_sweep_config_round_trip(self):
        cfg = SweepConfig(task="landscape", rho_min=0.5, rho_max=2.0,
                          rho_count=2, seed=9)
        assert config_from_mapping(SweepConfig, json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping(RunConfig, {"landscapes": "riemann"})

    def test_run_config_validation(self):
        with pytest.raises(ConfigError, match="rho applies"):
            RunConfig(optimizer="gd", rho=1.0).validated()
        with pytest.raises(ConfigError, match="sam_rho applies"):
            RunConfig(optimizer="rbo", sam_rho=0.1).validated()
        with pytest.raises(ConfigError, match="unknown optimizer"):
            RunConfig(optimizer="adam").validated()
        with pytest.raises(ConfigError, match="format"):
            RunConfig(format="yaml").validated()
        with pytest.raises(ConfigError, match="steps"):
            RunConfig(steps=-1).validated()

    def test_run_config_fill_defaults(self):
        assert hyperparameters("rbo") == {"rho": 1.0, "eta": 6.0, "max_iters": 100,
                                          "grad_tol": 1e-8}
        assert hyperparameters("sam") == {"sam_rho": 0.05, "eta": 0.01}
        assert hyperparameters("gd") == hyperparameters("sgd") == {"eta": 0.01}
        given = hyperparameters("rbo", rho=0.25, eta=3.0, max_iters=None)
        assert (given["rho"], given["eta"], given["max_iters"]) == (0.25, 3.0, 100)
        with pytest.raises(ValueError, match="unknown optimizer 'adam'"):
            hyperparameters("adam")
        with pytest.raises(ValueError, match="unknown hyperparameter 'momentum'"):
            hyperparameters("sgd", momentum=0.9)

    def test_projection_defaults_fill_rbo_only(self):
        rbo = hyperparameters("rbo")
        assert ProjectionConfig(rbo["max_iters"], rbo["grad_tol"]) == ProjectionConfig()
        unset = dict(rho=None, max_iters=None, grad_tol=None)
        for name in ("gd", "sgd", "sam"):
            assert hyperparameters(name, **unset) == hyperparameters(name)
            for key, value in [("rho", 1.0), ("max_iters", 5), ("grad_tol", 1e-3)]:
                with pytest.raises(ValueError, match=f"{key} applies to the rbo optimizer only"):
                    hyperparameters(name, **{key: value})
        with pytest.raises(ValueError, match="sam_rho applies to the sam optimizer only"):
            hyperparameters("rbo", sam_rho=0.1)
        for key, value, message in [("max_iters", 0, "max_iters must be >= 1"),
                                    ("grad_tol", -1.0, "grad_tol must be positive")]:
            with pytest.raises(ValueError, match=message):
                hyperparameters("rbo", **{key: value})

    def test_sweep_config_validation(self):
        with pytest.raises(ConfigError, match="task"):
            SweepConfig(task="cnn").validated()
        with pytest.raises(ConfigError, match="rho_min"):
            SweepConfig(rho_min=2.0, rho_max=1.0).validated()
        with pytest.raises(ConfigError, match="rho_min"):
            SweepConfig(rho_min=float("nan")).validated()
        with pytest.raises(ConfigError, match="eta_scale_min"):
            SweepConfig(eta_scale_max=float("nan")).validated()
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping(SweepConfig, {"optimizer": "rbo"})

    @pytest.mark.parametrize("command, data, key", [
        ("trajectory", {"steps": 2.5}, "steps"),
        ("trajectory", {"eta": True, "steps": 2}, "eta"),
        ("trajectory", {"theta0": 2.0}, "theta0"),
        ("trajectory", {"theta0": [0.5, "1"]}, "theta0"),
        ("sweep", {"steps": "3"}, "steps"),
        ("sweep", {"rho_count": 2.5}, "rho_count"),
        ("trajectory", {"landscape_params": [1.0]}, "landscape_params")])
    def test_config_file_values_are_type_checked(self, sandbox, capsys, command, data, key):
        config = sandbox / "config.json"
        config.write_text(json.dumps(data))
        assert main([command, "--config", str(config)]) == 2
        assert f"config key {key!r} takes" in capsys.readouterr().err
        assert [p.name for p in sandbox.iterdir()] == ["config.json"]


# ---------------------------------------------------------------------------
# trajectory subcommand
# ---------------------------------------------------------------------------

class TestTrajectory:
    def test_gd_quadratic_golden_rows(self, sandbox, capsys):
        out = sandbox / "run.csv"
        code = main(["trajectory", "--landscape", "quadratic",
                     "--optimizer", "gd", "--theta0", "1.0",
                     "--eta", "0.1", "--steps", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == TRAJ_HEADER
        assert len(lines) == 7  # header + initial record + 5 updates
        assert lines[1] == "0,1.0,0.5,1.0,0.5,1.0,0,0.0"
        assert "final loss" in capsys.readouterr().out

    def test_default_run_writes_cwd_csv(self, sandbox):
        assert main(["trajectory", "--steps", "5"]) == 0
        lines = (sandbox / "trajectory.csv").read_text().splitlines()
        assert lines[0] == TRAJ_HEADER
        assert len(lines) == 7

    def test_json_format(self, sandbox):
        out = sandbox / "run.json"
        code = main(["trajectory", "--steps", "4", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["header"]["optimizer"] == "rbo"
        assert data["header"]["landscape"] == "riemann(100)"
        assert data["header"]["hyperparameters"]["rho"] == 1.0
        assert data["error"] is None
        assert len(data["records"]) == 5
        assert data["records"][0]["t"] == 0

    def test_json_writes_a_non_finite_value_as_null(self, sandbox):
        # the loss overflows to inf on every record; strict JSON has no literal for it
        out = sandbox / "run.json"
        with np.errstate(over="ignore"):
            assert main(["trajectory", "--landscape", "quadratic", "--param", "a=[[1e300]]",
                         "--optimizer", "gd", "--eta", "1e-310", "--theta0", "1e5",
                         "--steps", "2", "--format", "json", "--out", str(out)]) == 0

        def reject(literal):
            raise ValueError(f"non-standard JSON literal {literal}")
        data = json.loads(out.read_text(), parse_constant=reject)
        assert [r["loss"] for r in data["records"]] == [None, None, None]
        assert all(None not in r["theta"] for r in data["records"])

    def test_repeat_runs_byte_identical(self, sandbox):
        a, b = sandbox / "a.csv", sandbox / "b.csv"
        args = ["trajectory", "--steps", "20", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_merge_and_flag_override(self, sandbox):
        cfg_path = sandbox / "cfg.json"
        cfg_path.write_text(json.dumps({
            "landscape": "quadratic", "optimizer": "gd", "theta0": [2.0],
            "eta": 0.5, "steps": 3, "out": str(sandbox / "merged.csv")}))
        code = main(["trajectory", "--config", str(cfg_path), "--eta", "0.1"])
        assert code == 0
        rows = (sandbox / "merged.csv").read_text().splitlines()
        # flag eta wins: 2.0 * (1 - 0.1) = 1.8 after one step
        assert rows[2].startswith("1,1.8,")

    @pytest.mark.parametrize("command", CONFIG_OF)
    def test_every_flag_sets_a_config_field(self, command):
        """Each flag sets a config field, and each field has exactly one flag."""
        dests = [a.dest for a in _flag_actions(command)]
        assert sorted(dests) == sorted(f.name for f in fields(CONFIG_OF[command]))

    def test_param_flag_overrides_the_file_params_key_by_key(self, sandbox, capsys):
        (sandbox / "cfg.json").write_text(json.dumps({
            "landscape": "quadratic", "landscape_params": {"a": [[2.0]], "theta_star": [1.0]},
            "optimizer": "gd", "steps": 1}))
        assert main(["trajectory", "--config", "cfg.json"]) == 0
        assert "final loss 0.9603999999999999," in capsys.readouterr().out
        # a = 3 with the file's theta_star = 1 kept, not a = 3 alone (loss 0.0)
        assert main(["trajectory", "--config", "cfg.json", "--param", "a=[[3.0]]"]) == 0
        assert "final loss 1.41135," in capsys.readouterr().out

    @pytest.mark.parametrize("command, action", CONFIG_FLAGS,
                             ids=[f"{c}{a.option_strings[0]}" for c, a in CONFIG_FLAGS])
    def test_each_flag_overrides_its_config_file_field(self, sandbox, monkeypatch,
                                                       command, action):
        seen = []

        def stop(cfg):  # capture the merged config instead of running it
            seen.append(cfg)
            raise ConfigError("stopped before validation")

        monkeypatch.setattr(CONFIG_OF[command], "validated", stop)
        (sandbox / "cfg.json").write_text(json.dumps({action.dest: "from file"}))
        argv = [command, "--config", "cfg.json", *_sample_flag(action)]
        assert main(argv) == 2
        flag_value = getattr(build_parser().parse_args(argv), action.dest)
        assert getattr(seen[0], action.dest) == flag_value != "from file"

    def test_divergence_writes_partial_file_then_exit_3(self, sandbox, capsys):
        out = sandbox / "div.csv"
        code = main(["trajectory", "--landscape", "quadratic",
                     "--optimizer", "gd", "--theta0", "1.0",
                     "--eta", "2.5", "--steps", "200", "--out", str(out)])
        assert code == 3
        assert "diverged" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == TRAJ_HEADER
        assert 2 < len(lines) < 202  # partial: stopped at the divergence step

    @pytest.mark.parametrize("argv, header", [
        (["--landscape", "quadratic", "--param", "a=[[2.0, 0.5], [0.5, 1.0]]",
          "--optimizer", "sam", "--theta0", "1.0", "-2.0", "--steps", "6"],
         "t,theta_0,theta_1,loss,center_0,center_1,center_2,grad_norm,"
         "projection_iters,projection_residual"),
        (["--landscape", "quadratic", "--optimizer", "gd", "--theta0", "1.0",
          "--eta", "2.5", "--steps", "200"], TRAJ_HEADER)], ids=["sam-2d", "gd-aborted"])
    def test_csv_and_json_forms_agree_field_by_field(self, sandbox, argv, header):
        codes = [main(["trajectory", *argv, "--format", fmt, "--out", f"run.{fmt}"])
                 for fmt in ("csv", "json")]
        assert codes[0] == codes[1]
        lines = (sandbox / "run.csv").read_text().splitlines()
        records = json.loads((sandbox / "run.json").read_text())["records"]
        assert lines[0] == header and len(lines) == len(records) + 1 > 2
        for line, record in zip(lines[1:], records):
            flat = {}
            for name, value in record.items():
                flat.update({f"{name}_{i}": v for i, v in enumerate(value)}
                            if isinstance(value, list) else {name: value})
            assert list(flat) == header.split(",")
            assert [json.loads(cell) for cell in line.split(",")] == list(flat.values())

    def test_config_errors(self, sandbox, capsys):
        assert main(["trajectory", "--landscape", "volcano"]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["trajectory", "--optimizer", "gd", "--rho", "1.0"]) == 2
        assert main(["trajectory", "--landscape", "quadratic",
                     "--theta0", "1.0", "2.0"]) == 2
        assert main(["trajectory", "--param", "notakeyvalue"]) == 2
        assert main(["trajectory", "--config", str(sandbox / "absent.json")]) == 2
        bad = sandbox / "bad.json"
        bad.write_text("{not json")
        assert main(["trajectory", "--config", str(bad)]) == 2
        listy = sandbox / "list.json"
        listy.write_text("[1, 2]")
        assert main(["trajectory", "--config", str(listy)]) == 2

    @pytest.mark.parametrize("flag, field, value", [
        ("--max-iters", "max_iters", "5"), ("--grad-tol", "grad_tol", "1e-3")])
    def test_projection_flags_are_rbo_only(self, sandbox, capsys, flag, field, value):
        for optimizer in ("gd", "sgd", "sam"):
            assert main(["trajectory", "--optimizer", optimizer, flag, value,
                         "--steps", "2"]) == 2
            assert f"{field} applies to the rbo optimizer only" in capsys.readouterr().err
        assert not (sandbox / "trajectory.csv").exists()
        assert main(["trajectory", "--optimizer", "rbo", flag, value, "--steps", "2"]) == 0

    @pytest.mark.parametrize("flags, value, message", [
        ("--max-iters", "0", "max_iters must be >= 1"),
        ("--grad-tol", "-1", "grad_tol must be positive"),
        ("--rho", "0", "rho must be positive"),
        ("--rho", "nan", "rho must be positive and finite, got nan"),
        ("--optimizer gd --eta", "-1", "eta must be >= 0"),
        ("--optimizer sam --sam-rho", "-1", "sam_rho must be >= 0")])
    def test_bad_projection_settings_exit_2_before_the_run(self, sandbox, capsys,
                                                           flags, value, message):
        assert main(["trajectory", *flags.split(), value, "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert list(sandbox.iterdir()) == []

    def test_landscape_param_flag(self, sandbox):
        out = sandbox / "r5.json"
        code = main(["trajectory", "--landscape", "riemann", "--param", "n=5",
                     "--steps", "2", "--format", "json", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["header"]["landscape"] == "riemann(5)"


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------

SWEEP_ARGS = ["sweep", "--landscape", "quadratic", "--theta0", "1.0",
              "--rho-min", "0.5", "--rho-max", "2.0", "--rho-count", "2",
              "--eta-scale-min", "0.1", "--eta-scale-max", "1.0",
              "--eta-count", "3", "--steps", "5", "--seed", "42"]


class TestSweep:
    def test_grid_csv(self, sandbox):
        out = sandbox / "sweep.csv"
        assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,eta,metric,error"
        assert len(lines) == 7  # header + 2 radii * 3 step sizes
        assert all(line.endswith(",") for line in lines[1:])  # no failures

    def test_parallelism_flag_is_gone(self, sandbox):
        out = sandbox / "sweep.csv"
        assert main(SWEEP_ARGS + ["--parallelism", "3", "--out", str(out)]) == 2
        assert not out.exists()

    def test_parallelism_config_key_is_gone(self, sandbox, capsys):
        config, out = sandbox / "sweep.json", sandbox / "sweep.csv"
        config.write_text(json.dumps({"parallelism": 2}))
        assert main(SWEEP_ARGS + ["--config", str(config), "--out", str(out)]) == 2
        assert "unknown config keys: ['parallelism']" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_size_config_key_is_gone(self, sandbox, capsys):
        config, out = sandbox / "sweep.json", sandbox / "sweep.csv"
        config.write_text(json.dumps({"batch_size": 128}))
        assert main(SWEEP_ARGS + ["--config", str(config), "--out", str(out)]) == 2
        assert "unknown config keys: ['batch_size']" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_cells_recorded_as_nan(self, sandbox, capsys):
        out = sandbox / "sweep.csv"
        code = main(["sweep", "--landscape", "quadratic", "--theta0", "1.0",
                     "--rho-min", "1.0", "--rho-max", "2.0", "--rho-count", "1",
                     "--eta-scale-min", "1e14", "--eta-scale-max", "2e14",
                     "--eta-count", "1", "--steps", "5", "--out", str(out)])
        assert code == 0  # the grid is the deliverable; failures live inside
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        rho, eta, metric, error = lines[1].split(",", 3)
        assert metric == "nan"
        assert error != ""
        assert "1 failed" in capsys.readouterr().out

    def test_the_cells_of_one_radius_share_its_lattice(self, sandbox, monkeypatch):
        # the 4x4 riemann sweep of tools/outputs.py: 21 riemann blocks when
        # each of the 16 cells builds its own lattice, 9 when they share
        blocks, held, block, run_rbo = [], [], landscape._riemann_block, optimizer.run_rbo
        monkeypatch.setattr(landscape, "_riemann_block",
                            lambda t, inv: blocks.append(t.size) or block(t, inv))

        def spy(*args, lattices, **kwargs):
            held.append(len(lattices))
            return run_rbo(*args, lattices=lattices, **kwargs)
        monkeypatch.setattr(optimizer, "run_rbo", spy)
        assert main(["sweep", "--landscape", "riemann", "--param", "n=100", "--theta0", "2.0",
                     "--rho-count", "4", "--eta-count", "4", "--steps", "100", "--seed", "0",
                     "--out", "sweep.csv"]) == 0
        assert len(held) == 16 and max(held) <= 1  # one lattice at a time
        assert len(blocks) <= 10

    @pytest.mark.parametrize("param", ["n=x", "n=2.5"])
    def test_bad_landscape_exits_2_before_any_cell(self, sandbox, capsys, param):
        out = sandbox / "sweep.csv"
        assert main(["sweep", "--landscape", "riemann", "--param", param,
                     "--rho-count", "1", "--eta-count", "1", "--steps", "2",
                     "--out", str(out)]) == 2
        assert "'n'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_max_iters_exits_2_before_any_cell(self, sandbox, capsys):
        config, out = sandbox / "sweep.json", sandbox / "sweep.csv"
        config.write_text(json.dumps({"max_iters": 0}))
        assert main(SWEEP_ARGS + ["--config", str(config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "max_iters must be >= 1" in captured.err and captured.out == ""
        assert not out.exists()

    def test_max_iters_flag_exits_2_before_any_cell(self, sandbox, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(optimizer, "run_rbo", lambda *a, **k: calls.append(a))
        out = sandbox / "sweep.csv"
        assert main(SWEEP_ARGS + ["--max-iters", "0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "max_iters must be >= 1" in captured.err and captured.out == ""
        assert not out.exists() and calls == []

    @pytest.mark.parametrize("argv, field", [
        (["--steps", "-1"], "steps"), (["--task", "mlp", "--epochs", "-1"], "epochs")])
    def test_negative_run_length_exits_2_before_any_cell(self, sandbox, capsys, argv, field):
        # no data here, so an mlp sweep that got as far as loading it would exit 3
        out = sandbox / "sweep.csv"
        assert main(["sweep", "--rho-count", "1", "--eta-count", "2", *argv,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{field} must be >= 0" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["--epochs", "7"], "epochs"), (["--subset", "5"], "subset"),
        (["--data-dir", "/nope"], "data_dir"), (["--split", "5"], "split")])
    def test_mlp_fields_exit_2_under_the_landscape_task(self, sandbox, capsys, argv, field):
        out = sandbox / "sweep.csv"
        assert main(SWEEP_ARGS + argv + ["--out", str(out)]) == 2
        assert f"{field} applies to the mlp sweep task only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["--steps", "5"], "steps"), (["--landscape", "riemann"], "landscape"),
        (["--param", "n=5"], "landscape_params"), (["--theta0", "1.0"], "theta0")])
    def test_landscape_fields_exit_2_under_the_mlp_task(self, sandbox, capsys, argv, field):
        # no data here, so a run that got as far as loading it would exit 3
        assert main(["sweep", "--task", "mlp"] + argv) == 2
        assert f"{field} applies to the landscape sweep task only" in capsys.readouterr().err
        assert list(sandbox.iterdir()) == []

    def test_non_rbo_rejected(self, sandbox):
        cfg = sandbox / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": "gd"}))
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_mlp_task_without_data_exits_3(self, sandbox, capsys):
        assert main(["sweep", "--task", "mlp"]) == 3
        assert "RLB_DATA_DIR" in capsys.readouterr().err

    def test_bad_split_exits_2_before_the_data_search(self, sandbox, capsys):
        # no data here, so a sweep that got as far as loading it would exit 3
        assert main(["sweep", "--task", "mlp", "--split", "0"]) == 2
        captured = capsys.readouterr()
        assert "split must be >= 1" in captured.err and captured.out == ""
        assert list(sandbox.iterdir()) == []

    @pytest.mark.parametrize("subset", ["-4000", "0", "1", "127"])
    def test_subset_below_one_batch_exits_2_before_the_data_search(self, sandbox, capsys,
                                                                   subset):
        # the sweep trains on 128-row batches; no data here, so a sweep that got
        # as far as loading it would exit 3
        assert main(["sweep", "--task", "mlp", "--subset", subset]) == 2
        captured = capsys.readouterr()
        assert "subset must be >= 128" in captured.err and captured.out == ""
        assert list(sandbox.iterdir()) == []

    def test_mlp_task_on_a_small_training_set(self, sandbox, capsys):
        seed_mnist_dir(sandbox / "digits", rows=2048)
        out = sandbox / "sweep.csv"
        argv = ["sweep", "--task", "mlp", "--data-dir", str(sandbox / "digits"),
                "--epochs", "0", "--rho-count", "1", "--eta-count", "1", "--out", str(out)]
        assert main(argv) == 3  # the default split point needs 50,000 rows
        assert "split point" in capsys.readouterr().err and not out.exists()
        assert main(argv + ["--split", "1536"]) == 0
        rho, eta, metric, error = out.read_text().splitlines()[1].split(",", 3)
        assert float(metric) == 0.5 and error == ""  # blank digits labelled 0, 1, 0, ...


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

class TestVerify:
    def test_single_check_writes_report(self, sandbox, capsys):
        out_dir = sandbox / "reports"
        code = main(["verify", "sharp-minima", "--out", str(out_dir)])
        assert code == 0
        assert "sharp-minima: PASS (6 observations)" in capsys.readouterr().out
        report = json.loads((out_dir / "sharp-minima.json").read_text())
        assert report["name"] == "sharp-minima"
        assert report["passed"] is True
        assert {"parameter", "value", "bound", "ok"} <= set(report["observations"][0])

    def test_no_names_runs_every_check(self, sandbox, capsys):
        code = main(["verify", "--out", str(sandbox / "reports")])
        assert code == 0
        written = sorted(p.name for p in (sandbox / "reports").glob("*.json"))
        assert written == ["gd-limit.json", "linear-ironing.json",
                           "open-unreachables.json", "sharp-minima.json",
                           "smoothing.json", "weak-ironing.json"]
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_override_can_fail_a_check(self, sandbox, capsys):
        cfg = sandbox / "overrides.json"
        cfg.write_text(json.dumps(
            {"weak-ironing": {"radii": [10.0, 100.0], "eps": 1e-9}}))
        code = main(["verify", "weak-ironing", "--config", str(cfg),
                     "--out", str(sandbox / "reports")])
        assert code == 1
        captured = capsys.readouterr()
        assert "weak-ironing: FAIL" in captured.out
        assert "exceeds" in captured.err

    def test_run_error_writes_no_report(self, sandbox, capsys):
        # smoothing's default radii need h <= 1e-4, so it fails at run time
        # after sharp-minima has passed; neither report is written
        cfg = sandbox / "overrides.json"
        cfg.write_text(json.dumps({"smoothing": {"h": 0.001}}))
        out_dir = sandbox / "reports"
        assert main(["verify", "sharp-minima", "smoothing", "--config", str(cfg),
                     "--out", str(out_dir)]) == 3
        assert "too coarse" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("check, setting, value", [
        ("sharp-minima", "grid_step", 0), ("open-unreachables", "grid_step", -1),
        ("weak-ironing", "theta_step", 0), ("linear-ironing", "theta_step", 0)])
    def test_non_positive_step_exits_3_naming_it(self, sandbox, capsys, check, setting,
                                                 value):
        path, out_dir = sandbox / "overrides.json", sandbox / "reports"
        path.write_text(json.dumps({check: {setting: value}}))
        assert main(["verify", check, "--config", str(path), "--out", str(out_dir)]) == 3
        assert f"{setting} must be positive and finite, got {value}" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_non_finite_radius_exits_3_naming_it(self, sandbox, capsys):
        # Python's json reads NaN; the check once failed converting it to an integer
        path, out_dir = sandbox / "overrides.json", sandbox / "reports"
        path.write_text('{"sharp-minima": {"rhos": [NaN]}}')
        assert main(["verify", "sharp-minima", "--config", str(path), "--out", str(out_dir)]) == 3
        assert "rho must be positive and finite, got nan" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_unknown_check_name(self, sandbox):
        assert main(["verify", "flat-earth"]) == 2

    @pytest.mark.parametrize("config,named", [
        ({"smoothing": {"rhos": [1.0]}, "smothing": {}}, "'smothing'"),
        ({"smoothing": {"rhos": [1.0], "thetastep": 0.1}}, "['thetastep']"),
        ({"gd-limit": {"cfg": {"max_iters": 5}}}, "['cfg']"),
        ({"sharp-minima": [2.0]}, "'sharp-minima'"),
        ({"gd-limit": {"informational": True}}, "['informational']")])
    def test_config_typos_exit_2_naming_the_key(self, sandbox, capsys, config, named):
        path, out_dir = sandbox / "overrides.json", sandbox / "reports"
        path.write_text(json.dumps(config))
        assert main(["verify", "smoothing", "--config", str(path),
                     "--out", str(out_dir)]) == 2
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config,named", [
        ({"smoothing": {"n_terms": "x"}}, "'n_terms'"),
        ({"smoothing": {"rhos": [0.1, "1"]}}, "'rhos'"),
        ({"smoothing": {"rhos": 1.0}}, "'rhos'"),
        ({"gd-limit": {"steps": 2.5}}, "'steps'"),
        ({"gd-limit": {"eta": "fast"}}, "'eta'"),
        ({"linear-ironing": {"profile": 3}}, "'profile'"),
        ({"smoothing": {"h": "x"}}, "'h'"),
        ({"weak-ironing": {"landscape": {"name": "sinusoid", "params": 3}}}, "'landscape'"),
        ({"gd-limit": {"landscape": {"nam": "sinusoid"}}}, "'landscape'")])
    def test_config_type_errors_exit_2_naming_the_key(self, sandbox, capsys,
                                                      config, named):
        path, out_dir = sandbox / "overrides.json", sandbox / "reports"
        path.write_text(json.dumps(config))
        assert main(["verify", "--config", str(path), "--out", str(out_dir)]) == 2
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    def test_keys_defaulting_to_none_take_their_annotated_type(self):
        assert verify.check_overrides("smoothing", {"h": 0.001}) == {"h": 0.001}
        assert verify.check_overrides("smoothing", {"h": None}) == {"h": None}
        spec = {"landscape": {"name": "sinusoid"}}
        assert verify.check_overrides("gd-limit", spec) == spec


# ---------------------------------------------------------------------------
# train subcommand
# ---------------------------------------------------------------------------

class TestTrain:
    def test_missing_data_exits_3(self, sandbox, capsys):
        assert main(["train", "--epochs", "1"]) == 3
        assert "RLB_DATA_DIR" in capsys.readouterr().err

    def test_tiny_idx_run(self, sandbox, capsys):
        seed_mnist_dir(sandbox / "digits")
        out = sandbox / "curve.csv"
        code = main(["train", "--data-dir", str(sandbox / "digits"),
                     "--split", "1", "--epochs", "1", "--optimizer", "sgd",
                     "--batch-size", "1", "--eta", "0.1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,val_loss,val_accuracy"
        assert len(lines) == 2
        assert "sgd: epoch 1" in capsys.readouterr().out

    def test_config_errors(self, sandbox):
        seed_mnist_dir(sandbox / "data")
        assert main(["train", "--optimizer", "sgd", "--rho", "1.0"]) == 2
        assert main(["train", "--optimizer", "rbo", "--sam-rho", "0.1"]) == 2
        assert main(["train", "--epochs", "-1"]) == 2
        assert main(["train", "--split", "1", "--epochs", "0",
                     "--subset-range", "0:5"]) == 2

    @pytest.mark.parametrize("bad", ["5:2", "a:b"])
    def test_subset_range_is_checked_before_the_data_loads(self, sandbox, capsys, bad):
        assert main(["train", "--subset-range", bad]) == 2  # no data here: 3 if loaded
        assert "range flag" in capsys.readouterr().err

    def test_bad_max_iters_exits_2_before_the_data_search(self, sandbox, capsys):
        # no data here, so a run that got as far as loading it would exit 3
        for flag, message in [("--max-iters", "max_iters must be >= 1"),
                              ("--rho", "rho must be positive"),
                              ("--batch-size", "batch_size must be >= 1"),
                              ("--split", "split must be >= 1")]:
            assert main(["train", flag, "0", "--data-dir", str(sandbox / "absent")]) == 2
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""
        assert list(sandbox.iterdir()) == []

    def test_max_iters_is_rbo_only(self, sandbox, capsys):
        seed_mnist_dir(sandbox / "data")
        for optimizer in ("sgd", "gd", "sam"):
            assert main(["train", "--optimizer", optimizer, "--max-iters", "5"]) == 2
            assert "max_iters applies to the rbo optimizer only" in capsys.readouterr().err
        assert main(["train", "--optimizer", "rbo", "--max-iters", "5", "--split", "1",
                     "--epochs", "0", "--out", str(sandbox / "curve.csv")]) == 0


# ---------------------------------------------------------------------------
# offset subcommand
# ---------------------------------------------------------------------------

class TestOffset:
    def test_profile_csv(self, sandbox, capsys):
        out = sandbox / "offset.csv"
        code = main(["offset", "--landscape", "sinusoid", "--rho", "2.0",
                     "--interval", "0:1", "--grid-step", "0.25",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,rho,value,grid_step"
        assert len(lines) == 6  # 0, 0.25, 0.5, 0.75, 1.0
        assert lines[1].split(",")[1] == "2.0"
        assert "5 samples" in capsys.readouterr().out

    def test_requires_rho(self, sandbox):
        assert main(["offset", "--landscape", "sinusoid"]) == 2

    def test_non_integral_term_count_exits_2_naming_n(self, sandbox, capsys):
        out = sandbox / "offset.csv"
        assert main(["offset", "--rho", "1.0", "--param", "n=2.5", "--out", str(out)]) == 2
        assert "'n'" in capsys.readouterr().err
        assert not out.exists()
        assert main(["offset", "--rho", "1.0", "--param", "n=3.0", "--interval", "0:1",
                     "--out", str(out)]) == 0

    def test_bad_interval(self, sandbox):
        assert main(["offset", "--rho", "1.0", "--interval", "1:0"]) == 2

    @pytest.mark.parametrize("rho", ["inf", "nan", "0", "-1"])
    def test_bad_rho_exits_2_naming_rho(self, sandbox, capsys, rho):
        out = sandbox / "offset.csv"
        assert main(["offset", "--landscape", "sinusoid", "--rho", rho,
                     "--interval", "0:1", "--grid-step", "0.25", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "rho must be positive and finite" in captured.err and captured.out == ""
        assert list(sandbox.iterdir()) == []


# ---------------------------------------------------------------------------
# parser behaviour
# ---------------------------------------------------------------------------

class TestParser:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_missing_subcommand_is_config_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_config_error(self):
        assert main(["trajectory", "--warp-speed", "9"]) == 2

    @pytest.mark.parametrize("argv", [
        ["offset", "--rho", "1.0", "--config", "c.json"],
        ["offset", "--rho", "1.0", "--seed", "3"],
        ["verify", "sharp-minima", "--seed", "3"],
        ["train", "--epochs", "1", "--config", "c.json"],
    ], ids=["offset-config", "offset-seed", "verify-seed", "train-config"])
    def test_flags_a_subcommand_ignores_are_rejected(self, sandbox, argv):
        assert main(argv) == 2

    @pytest.mark.parametrize("argv, named", [
        (["offset", "--rho", "1", "--interval", "0:inf"], "--interval expects A:B with finite"),
        (["offset", "--rho", "1", "--interval", "nan:1"], "--interval expects A:B with finite"),
        (["offset", "--rho", "1", "--grid-step", "nan"], "grid_step must be finite"),
        (["offset", "--rho", "1", "--h", "nan"], "h must be finite"),
        (["offset", "--rho", "1", "--grid-step", "0", "--h", "1e-3"],
         "grid_step must be positive"),
        (["sweep", "--rho-max", "inf"], "rho_max must be finite"),
        (["sweep", "--eta-scale-max", "inf"], "eta_scale_max must be finite"),
        (["trajectory", "--theta0", "nan"], "theta0 must be finite"),
        (["train", "--subset-range", "0:inf"], "range flag")])
    def test_bad_settings_exit_2_naming_them_before_any_work(self, sandbox, capsys,
                                                             argv, named):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""
        assert list(sandbox.iterdir()) == []

    def test_non_finite_config_file_value_exits_2_naming_it(self, sandbox, capsys):
        (sandbox / "cfg.json").write_text(json.dumps({"theta0": [0.5, math.inf]}))
        assert main(["trajectory", "--landscape", "quadratic", "--config", "cfg.json"]) == 2
        assert "theta0 must be finite" in capsys.readouterr().err
        assert [p.name for p in sandbox.iterdir()] == ["cfg.json"]


# ---------------------------------------------------------------------------
# one optimizer table
# ---------------------------------------------------------------------------

def test_every_hyperparameter_has_a_rule_and_a_trajectory_flag():
    """A setting added to OPTIMIZERS needs a RULES entry, which bounds its
    values, and a trajectory flag, which sets it."""
    names = {name for hyper in OPTIMIZERS.values() for name in hyper}
    assert names == set(RULES)
    assert names <= {a.dest for a in _flag_actions("trajectory")}


def test_every_entry_point_reaches_the_module_run_functions(sandbox, monkeypatch):
    """optimizer.run looks run_rbo and run_sgd up by name when it is called,
    so a rebound module attribute (the benchmark's run probe) sees the runs
    of train_mlp, trajectory and sweep; a table holding the function objects
    would hide them."""
    calls = []
    for name in ("run_rbo", "run_sgd"):
        def counted(*args, _run=getattr(optimizer, name), _name=name, **kwargs):
            calls.append(_name)
            return _run(*args, **kwargs)
        monkeypatch.setattr(optimizer, name, counted)
    rows = tiny_dataset(16)
    for name in ("rbo", "sgd"):
        train_mlp(TINY, rows, rows, optimizer=name, epochs=1, batch_size=8, eta=0.5)
    assert main(["trajectory", "--steps", "2"]) == 0
    assert main(["trajectory", "--optimizer", "sgd", "--steps", "2"]) == 0
    assert main(SWEEP_ARGS) == 0
    assert calls == ["run_rbo", "run_sgd", "run_rbo", "run_sgd"] + ["run_rbo"] * 6
