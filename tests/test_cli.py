import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from memctrl import incrt, markov_gap, runner, shield
from memctrl import memory_analysis as ma
from memctrl.cli import main
from memctrl.config import load_config
from memctrl.controller import BaselineController
from memctrl.dynamics import BatchReference, rollout


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def evaluate_files(tmp_path_factory):
    """Six `evaluate --rollouts 2` result files: seeds 42-44 of
    baseline-ct (nominal payload) and baseline-ct-true (true payload)."""
    out = tmp_path_factory.mktemp("evaluate")
    for seed in (42, 43, 44):
        for mode in ("nominal", "true"):
            assert run_cli(["--out-dir", str(out), "--seed", str(seed),
                            "evaluate", "--rollouts", "2",
                            "--payload-mode", mode]) == 0
    return sorted(str(p) for p in out.glob("*.json"))


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("memctrl: error: ")
    assert err.count("\n") == 1
    return err


class TestCLI:
    def test_simulate_writes_csv(self, tmp_path, capsys):
        rc = run_cli(["--out-dir", str(tmp_path), "--seed", "3",
                      "simulate", "--out", "traj.csv"])
        assert rc == 0
        assert (tmp_path / "traj.csv").exists()
        head = json.loads(capsys.readouterr().out.splitlines()[0])
        assert head["diverged"] is False

    def test_simulate_shielded_reports(self, tmp_path, capsys):
        rc = run_cli(["--out-dir", str(tmp_path), "simulate", "--shielded",
                      "--tau-z", "1.0"])
        assert rc == 0
        head = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "activation_fraction" in head
        assert head["decay_passed"] is True

    def test_sigma_scan(self, tmp_path, capsys):
        rc = run_cli(["--out-dir", str(tmp_path), "sigma-scan",
                      "--tau-z-list", "0.5", "--n-traj", "400"])
        assert rc == 0
        lines = (tmp_path / "sigma_scan.csv").read_text().splitlines()
        assert lines[0] == "tau_z,closed_form,monte_carlo"
        assert len(lines) == 2

    def test_sigma_scan_reaches_long_memory(self, tmp_path, capsys):
        # the 25 s burn-in at tau_z = 5 outlasts the 20 s horizon; the
        # run grows to fit it and ten samples per trajectory
        rc = run_cli(["--out-dir", str(tmp_path), "sigma-scan",
                      "--tau-z-list", "5", "--n-traj", "200"])
        assert rc == 0
        with open(tmp_path / "sigma_scan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(rows[0]["tau_z"])] == [5.0] and len(rows) == 1
        assert float(rows[0]["monte_carlo"]) > 0.0

    def test_rank_scan_and_phase1(self, tmp_path):
        rc = run_cli(["--out-dir", str(tmp_path), "rank-scan",
                      "--tau-z-list", "1.0", "--window", "8",
                      "--n-samples", "32"])
        assert rc == 0
        rc = run_cli(["--out-dir", str(tmp_path), "phase1",
                      "--tau-z-list", "1.0", "--window", "8",
                      "--n-samples", "32"])
        assert rc == 0
        recs = json.loads((tmp_path / "phase1.json").read_text())
        assert recs[0]["K_star"] >= 1
        assert "phase2_range" in recs[0]

    def test_phase1_verbose_log(self, tmp_path):
        rc = run_cli(["--out-dir", str(tmp_path), "phase1", "--verbose-log",
                      "--tau-z-list", "1.0,2.0", "--window", "8",
                      "--n-samples", "32"])
        assert rc == 0
        recs = json.loads((tmp_path / "phase1.json").read_text())
        keys = {f.name for f in dataclasses.fields(incrt.IterationRecord)}
        for rec in recs:
            assert len(rec["log"]) == rec["iterations"]
            assert [r["iteration"] for r in rec["log"]] == \
                   list(range(rec["iterations"]))
            assert all(set(r) == keys for r in rec["log"])
            assert rec["log"][-1]["k"] == rec["K_star"]

    def test_markov_gap(self, tmp_path):
        rc = run_cli(["--out-dir", str(tmp_path), "markov-gap",
                      "--tau-z-list", "0.5", "--n-traj", "256"])
        assert rc == 0
        lines = (tmp_path / "markov_gap.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_evaluate_and_compare(self, tmp_path):
        for seed in (42, 43, 44):
            for mode in ("nominal", "true"):
                rc = run_cli(["--out-dir", str(tmp_path), "--seed", str(seed),
                              "evaluate", "--rollouts", "2",
                              "--payload-mode", mode])
                assert rc == 0
        files = sorted(str(p) for p in tmp_path.glob("*.json"))
        assert len(files) == 6
        assert ({runner.RunResult.read_json(f).architecture for f in files}
                == {"baseline-ct", "baseline-ct-true"})
        # the baseline's delta against itself is identically zero, so
        # compare on the absolute RMSE, which varies across seeds
        rc = run_cli(["--out-dir", str(tmp_path), "compare",
                      "--metric", "baseline_rmse", *files])
        assert rc == 0
        assert (tmp_path / "compare.csv").exists()
        assert (tmp_path / "compare.md").exists()

    def test_compare_reads_rmse_mean(self, tmp_path, evaluate_files):
        # rmse_mean, the headline evaluate prints, is derived from the
        # payload points and not stored in the file
        rc = run_cli(["--out-dir", str(tmp_path), "compare",
                      "--metric", "rmse_mean", *evaluate_files])
        assert rc == 0
        with open(tmp_path / "compare.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        for group, column in (("baseline-ct", "mean1"),
                              ("baseline-ct-true", "mean2")):
            vals = [runner.RunResult.read_json(f).rmse_mean
                    for f in evaluate_files if f"{group}__" in Path(f).name]
            assert len(vals) == 3
            assert row[column] == f"{np.mean(vals):.4f}"

    def test_each_payload_mode_has_its_own_label_and_file(self, tmp_path):
        modes = {"nominal": "baseline-ct", "true": "baseline-ct-true",
                 "noisy": "baseline-ct-noisy"}

        def evaluate(seed, mode):
            assert run_cli(["--out-dir", str(tmp_path), "--seed", str(seed),
                            "evaluate", "--tau-z", "2", "--rollouts", "2",
                            "--payload-mode", mode]) == 0

        for mode in modes:
            evaluate(42, mode)
        files = sorted(tmp_path.glob("*.json"))
        assert sorted(runner.RunResult.read_json(f).architecture
                      for f in files) == sorted(modes.values())
        assert sorted(f.name for f in files) == sorted(
            f"{label}__tz2s__seed42.json" for label in modes.values())
        # a second seed gives compare the two runs per label it needs
        for mode in modes:
            evaluate(43, mode)
        rc = run_cli(["--out-dir", str(tmp_path), "compare",
                      "--metric", "rmse_mean",
                      *sorted(str(f) for f in tmp_path.glob("*.json"))])
        assert rc == 0
        with open(tmp_path / "compare.csv", newline="") as fh:
            pairs = {(r["group_a"], r["group_b"]) for r in csv.DictReader(fh)}
        assert pairs == {("baseline-ct", "baseline-ct-noisy"),
                         ("baseline-ct", "baseline-ct-true"),
                         ("baseline-ct-noisy", "baseline-ct-true")}

    def test_evaluate_has_no_architecture_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--out-dir", str(tmp_path), "evaluate",
                     "--architecture", "X"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --architecture X" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_compare_rejects_non_numeric_metric(self, tmp_path, capsys,
                                                evaluate_files):
        rc = run_cli(["--out-dir", str(tmp_path), "compare",
                      "--metric", "payload_rmse", *evaluate_files])
        assert rc == 1
        err = one_error_line(capsys)
        assert f"{evaluate_files[0]}: metric 'payload_rmse' is not a number" in err
        assert not list(tmp_path.iterdir())

    def test_compare_names_metric_without_spread(self, tmp_path, capsys,
                                                 evaluate_files):
        # evaluate makes each run its own baseline, so the default metric,
        # delta_percent, is 0 in every file and neither label varies
        files = [f for f in evaluate_files if "seed44" not in f]
        assert len(files) == 4
        rc = run_cli(["--out-dir", str(tmp_path), "compare", *files])
        assert rc == 1
        assert ("metric 'delta_percent' has zero spread in groups baseline-ct,"
                " baseline-ct-true" in one_error_line(capsys))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("drop", ["seed", "architecture", "payload_rmse"])
    def test_compare_names_file_missing_a_key(self, tmp_path, capsys,
                                              evaluate_files, drop):
        rec = json.loads(Path(evaluate_files[0]).read_text())
        del rec[drop]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(rec))
        rc = run_cli(["--out-dir", str(tmp_path), "compare",
                      *evaluate_files[1:], str(bad)])
        assert rc == 1
        assert f"{bad}: missing '{drop}'" in one_error_line(capsys)

    @pytest.mark.parametrize("text", ["[1, 2]", "not json", '{"seed": "x"}'])
    def test_compare_names_file_that_is_no_result(self, tmp_path, capsys,
                                                  evaluate_files, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = run_cli(["--out-dir", str(tmp_path), "compare",
                      *evaluate_files[1:], str(bad)])
        assert rc == 1
        assert str(bad) in one_error_line(capsys)

    def test_config_file_round_trip(self, tmp_path):
        cfg_file = tmp_path / "plant.cfg"
        cfg_file.write_text("# custom horizon\ntau_z = 2.5\nkd_max = 80\n")
        rc = run_cli(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                      "simulate", "--out", "t.csv"])
        assert rc == 0

    def test_global_flags_either_side_of_subcommand(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("baseline_kd = 25\n")
        phase1 = ["phase1", "--tau-z-list", "1.0", "--window", "8",
                  "--n-samples", "32"]
        flags = {d: ["--config", str(cfg_file), "--seed", "5",
                     "--out-dir", str(tmp_path / d)] for d in ("pre", "post")}
        assert run_cli(flags["pre"] + phase1) == 0
        assert run_cli(phase1 + flags["post"]) == 0
        assert run_cli(["--out-dir", str(tmp_path / "dflt")] + phase1) == 0
        out = {d: (tmp_path / d / "phase1.json").read_text()
               for d in ("pre", "post", "dflt")}
        assert out["pre"] == out["post"]
        assert out["pre"] != out["dflt"]

    def test_zero_memory_operator_same_error(self, tmp_path, capsys):
        # lambda_z = 0 makes every history gradient exactly zero
        cfg_file = tmp_path / "z.cfg"
        cfg_file.write_text("lambda_z = 0\n")
        errors = []
        for cmd in ("rank-scan", "phase1"):
            rc = run_cli(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                          cmd, "--tau-z-list", "1.0", "--window", "8",
                          "--n-samples", "32"])
            assert rc == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("memctrl: error: ")
        assert errors[0].count("\n") == 1

    def test_bad_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("not_a_key = 1\n")
        errors = []
        for cmd in ("simulate", "phase1"):
            assert run_cli(["--config", str(cfg_file), cmd]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("memctrl: error: ")
        assert "not_a_key" in errors[0]
        assert errors[0].count("\n") == 1

    @pytest.mark.parametrize("line", ["period1 = 0", "period2 = 0",
                                      "period1 = -0.0", "period2 = -1"])
    def test_nonpositive_period_rejected(self, tmp_path, capsys, line):
        # omega = 2 pi / period: a zero period must not reach the division
        cfg_file = tmp_path / "period.cfg"
        cfg_file.write_text(line + "\n")
        assert run_cli(["--config", str(cfg_file), "simulate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert line.split()[0] in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["config", "compare"])
    def test_missing_input_file_rejected(self, tmp_path, capsys, command):
        missing = tmp_path / ("nope.cfg" if command == "config"
                              else "missing.json")
        argv = (["--config", str(missing), "simulate"] if command == "config"
                else ["--out-dir", str(tmp_path), "compare", str(missing)])
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert str(missing) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_evaluate_rejects_fewer_than_two_rollouts(self, tmp_path, capsys, n):
        # one rollout per payload has no between-rollout sd (it was NaN in
        # the JSON); none gave rmse_mean = nan classified as healthy
        rc = run_cli(["--out-dir", str(tmp_path), "evaluate",
                      "--rollouts", str(n)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert "rollouts_per_payload" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("*.json"))

    def test_evaluate_rejects_colliding_reset_seeds(self, tmp_path, capsys,
                                                    monkeypatch):
        from memctrl import runner

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the sweep was checked")

        monkeypatch.setattr(runner, "rollout", no_simulation)
        rc = run_cli(["--out-dir", str(tmp_path), "evaluate",
                      "--rollouts", "1010"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert "at most 1009" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("*.json"))

    def test_evaluate_rejects_grid_beyond_payload_max(self, tmp_path, capsys):
        # the grid's 1.125 and 1.5 kg points would run a plant heavier
        # than payload_max, under an estimate clipped to it
        cfg_file = tmp_path / "light.cfg"
        cfg_file.write_text("payload_max = 1.0\n")
        rc = run_cli(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                      "evaluate", "--rollouts", "2", "--payload-mode", "noisy"])
        assert rc == 1
        err = one_error_line(capsys)
        assert "1.0" in err and "1.5" in err
        assert not list(tmp_path.glob("*.json"))
        assert run_cli(["--out-dir", str(tmp_path), "evaluate",
                        "--rollouts", "2", "--payload-mode", "noisy"]) == 0
        assert len(list(tmp_path.glob("*.json"))) == 1

    @pytest.mark.parametrize("command", ["rank-scan", "phase1"])
    @pytest.mark.parametrize("flag,value,name", [
        ("--window", "0", "window"), ("--window", "-3", "window"),
        ("--n-samples", "0", "n_samples")])
    def test_empty_gradient_window_rejected_before_simulating(
            self, tmp_path, capsys, monkeypatch, command, flag, value, name):
        from memctrl.ensemble import BaselineEnsembleSim

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the arguments were checked")

        monkeypatch.setattr(BaselineEnsembleSim, "run", no_simulation)
        rc = run_cli(["--out-dir", str(tmp_path), command,
                      "--tau-z-list", "1", flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert f"{name} must be at least 1, got {value}" in err
        assert err.count("\n") == 1
        assert not [f for f in tmp_path.iterdir()]

    @pytest.mark.parametrize("n", [64, 150])
    def test_markov_gap_names_n_traj_when_too_few(self, tmp_path, capsys, n):
        # at the default sample grid, 64 trajectories once failed in the
        # state binning and 150 in the policy fit, neither naming n_traj
        rc = run_cli(["--out-dir", str(tmp_path), "markov-gap",
                      "--tau-z-list", "0.5", "--n-traj", str(n)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert f"n_traj={n}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kd", ["40000", "4e7"])
    def test_diverged_simulate_writes_every_state(self, tmp_path, capsys, kd):
        # kd = 40000 leaves the bound after two steps, 4e7 at step 0; both
        # runs once ended in an IndexError after a partial CSV
        cfg_file = tmp_path / "div.cfg"
        cfg_file.write_text(f"baseline_kd = {kd}\n")
        rc = run_cli(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                      "simulate", "--out", "traj.csv"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["diverged"]
        cfg = load_config(cfg_file)
        ctrl = BaselineController(cfg.plant, gains=cfg.baseline_gains())
        traj = rollout(ctrl, cfg.reference, cfg.plant, cfg.friction, seed=42,
                       dt=cfg.dt)
        assert traj.diverged
        assert traj.n_steps == traj.t.size - 1
        with open(tmp_path / "traj.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == traj.t.size
        if traj.n_steps == 0:
            assert np.isnan(float(rows[0]["tau1"]))

    @pytest.mark.parametrize("args,cfg_text", [
        (["simulate", "--tau-z", "0"], None),
        (["simulate", "--tau-z", "nan"], None),
        (["simulate"], "tau_z = nan\n"),
        (["simulate", "--tau-z", "-1"], None),
        (["phase1", "--tau-z-list", "-1"], None),
        (["evaluate", "--tau-z", "0"], None),
        (["sigma-scan", "--tau-z-list", "0"], None),
        (["simulate", "--tau-z", "inf"], None),
        (["evaluate", "--tau-z", "inf", "--rollouts", "2"], None),
        (["sigma-scan", "--tau-z-list", "inf", "--n-traj", "50"], None),
        (["rank-scan", "--tau-z-list", "inf", "--window", "4",
          "--n-samples", "16"], None),
        (["phase1", "--tau-z-list", "inf", "--window", "4",
          "--n-samples", "16"], None),
        (["markov-gap", "--tau-z-list", "inf", "--n-traj", "256"], None),
    ], ids=["simulate-0", "simulate-nan", "config-nan", "simulate-neg",
            "phase1-neg", "evaluate-0", "sigma-scan-0", "simulate-inf",
            "evaluate-inf", "sigma-scan-inf", "rank-scan-inf", "phase1-inf",
            "markov-gap-inf"])
    def test_invalid_tau_z_rejected(self, tmp_path, capsys, args, cfg_text):
        # NaN passed every `<= 0` check, and with_tau_z did not validate:
        # these ran to a traceback or printed results.  inf passed every
        # `> 0` check: sigma-scan and markov-gap ended in an OverflowError
        # traceback, the other four ran on
        out = tmp_path / "out"
        cfg = []
        if cfg_text is not None:
            (tmp_path / "bad.cfg").write_text(cfg_text)
            cfg = ["--config", str(tmp_path / "bad.cfg")]
        rc = run_cli([*cfg, "--out-dir", str(out), *args])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert "tau_z" in err
        assert err.count("\n") == 1
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("cmd,key,value", [
        (["simulate"], "dt", "inf"),
        (["simulate", "--shielded"], "alpha", "inf"),
        (["simulate"], "tau_z", "inf"),
        (["evaluate"], "dt", "nan"),
    ], ids=["simulate-dt", "shielded-alpha", "simulate-tau_z", "evaluate-dt-nan"])
    def test_non_finite_config_value_rejected(self, tmp_path, capsys, cmd,
                                              key, value):
        # dt = inf wrote a one-row CSV with t = nan, and alpha = inf
        # printed "max_decay_ratio": NaN; both exited 0
        out = tmp_path / "out"
        (tmp_path / "bad.cfg").write_text(f"{key} = {value}\n")
        rc = run_cli(["--config", str(tmp_path / "bad.cfg"),
                      "--out-dir", str(out), *cmd])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"memctrl: error: line 1: {key} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--gamma-add", "0.01", "--gamma-prune", "0.05"], ["--n-stable", "0"]])
    def test_phase1_config_checked_before_sampling(self, tmp_path, capsys,
                                                   monkeypatch, flags):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(ma, "gradient_samples_closed_loop", no_sampling)
        out = tmp_path / "out"
        rc = run_cli(["--out-dir", str(out), "phase1", "--tau-z-list", "1",
                      *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_sigma_scan_rejects_fewer_than_one_trajectory(self, tmp_path,
                                                          capsys, n):
        rc = run_cli(["--out-dir", str(tmp_path), "sigma-scan",
                      "--tau-z-list", "0.5", "--n-traj", n])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert f"n_traj must be at least 1, got {n}" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("cmd,key,value", [
        ("simulate", "lambda_z", "nan"),
        ("simulate", "lambda_z", "inf"),
        ("evaluate", "baseline_kd", "nan"),
        ("evaluate", "baseline_kd", "0"),
        ("evaluate", "baseline_lam", "inf"),
        ("evaluate", "baseline_lam", "-1"),
    ])
    def test_invalid_memory_gain_and_baseline_gains_rejected(
            self, tmp_path, capsys, cmd, key, value):
        out = tmp_path / "out"
        (tmp_path / "bad.cfg").write_text(f"{key} = {value}\n")
        rc = run_cli(["--config", str(tmp_path / "bad.cfg"),
                      "--out-dir", str(out), cmd])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memctrl: error: ")
        assert key in err
        assert err.count("\n") == 1
        assert not out.exists()


def _config_fields():
    """(owner attribute or None, field name) of every field load_config reads."""
    from memctrl.config import Config
    from memctrl.controller import ParamBox
    from memctrl.dynamics import FrictionParams, PlantParams

    out = [(owner, f.name) for owner, cls in (("plant", PlantParams),
                                               ("friction", FrictionParams),
                                               ("box", ParamBox))
           for f in dataclasses.fields(cls)]
    nested = {"plant", "friction", "reference", "box"}
    return out + [(None, f.name) for f in dataclasses.fields(Config)
                  if f.name not in nested]


class TestConfigFields:
    @pytest.mark.parametrize("owner, key", _config_fields())
    def test_load_config_accepts_every_field(self, tmp_path, owner, key):
        dflt = load_config()
        target = dflt if owner is None else getattr(dflt, owner)
        value = 1.1 * getattr(target, key) + 0.1   # valid for every field
        cfg_file = tmp_path / "one.cfg"
        cfg_file.write_text(f"{key} = {value!r}\n")
        cfg = load_config(cfg_file)
        target = cfg if owner is None else getattr(cfg, owner)
        assert getattr(target, key) == value


class TestConfigBaseline:
    def test_baseline_gains_configurable(self, tmp_path):
        from memctrl.config import load_config
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("baseline_kd = 25\nbaseline_lam = 4\n")
        cfg = load_config(cfg_file)
        g = cfg.baseline_gains()
        assert g.kd[0] == 25.0 and g.lam[1] == 4.0

    def test_rank_scan_saves_operators(self, tmp_path):
        rc = run_cli(["--out-dir", str(tmp_path), "rank-scan",
                      "--tau-z-list", "1.0", "--window", "6",
                      "--n-samples", "16", "--save-operators"])
        assert rc == 0
        lines = (tmp_path / "operator_tz1s.csv").read_text().splitlines()
        # one '# ' comment prefix on the header, then the 6 x 6 matrix
        assert lines[0] == ("# temporal residual operator, tau_z=1, "
                            "n_samples=16, mode=closed-loop-gradient")
        assert len(lines) == 7

    @pytest.mark.parametrize("command", ["rank-scan", "phase1"])
    def test_window_past_horizon_rejected_before_simulating(
            self, tmp_path, capsys, monkeypatch, command):
        # the sampler's 3 s horizon is 300 steps at dt = 0.01
        from memctrl.ensemble import BaselineEnsembleSim

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the window was checked")

        monkeypatch.setattr(BaselineEnsembleSim, "run", no_simulation)
        rc = run_cli(["--out-dir", str(tmp_path), command,
                      "--tau-z-list", "1", "--window", "300"])
        assert rc == 1
        assert "horizon shorter than the gradient window" in one_error_line(capsys)
        assert not list(tmp_path.iterdir())

    def test_ensemble_pipelines_use_config_gains(self, tmp_path):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("baseline_kd = 20\nbaseline_lam = 3\n")
        cfg = load_config(cfg_file)
        gains = cfg.baseline_gains()
        small = ["--tau-z-list", "1.0", "--window", "8", "--n-samples", "32"]
        gap = ["markov-gap", "--tau-z-list", "0.5", "--n-traj", "256"]
        for d, head in (("cfg", ["--config", str(cfg_file)]), ("dflt", [])):
            head = head + ["--out-dir", str(tmp_path / d)]
            assert run_cli(head + ["rank-scan", "--save-operators"] + small) == 0
            assert run_cli(head + ["phase1"] + small) == 0
            assert run_cli(head + gap) == 0

        def read(d):
            op = np.loadtxt(tmp_path / d / "operator_tz1s.csv", delimiter=",")
            rec = json.loads((tmp_path / d / "phase1.json").read_text())[0]
            with open(tmp_path / d / "markov_gap.csv", newline="") as fh:
                row = [float(x) for x in list(csv.reader(fh))[1]]
            return op, rec, row

        op, rec, row = read("cfg")
        op_d, rec_d, row_d = read("dflt")
        g = ma.gradient_samples_closed_loop(1.0, cfg.reference, cfg.plant,
                                            cfg.friction, window=8,
                                            n_samples=32, dt=cfg.dt, seed=42,
                                            gains=gains)
        direct = ma.build_residual_operator(g)
        assert np.array_equal(op, direct)
        assert not np.allclose(op, op_d)
        res = incrt.run_phase1(direct, incrt.Phase1Config())
        assert (rec["K_star"], rec["r_eff"], rec["iterations"]) == \
            (res.k_star, res.effective_rank_final, res.n_iterations)
        assert rec["r_eff"] != rec_d["r_eff"]
        r = markov_gap.markov_gap_experiment(0.5, cfg.reference, cfg.plant,
                                             cfg.friction, n_traj=256,
                                             seed=42, dt=cfg.dt, gains=gains)
        pinned = [r.sigma2_hat, r.excess_markov, r.excess_windowed,
                  r.lower_bound]
        assert [row[1], *row[3:]] == pinned
        assert [row_d[1], *row_d[3:]] != pinned

    def test_sigma_scan_uses_config_dt(self, tmp_path):
        cfg_file = tmp_path / "dt.cfg"
        cfg_file.write_text("dt = 0.005\n")
        rc = run_cli(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                      "sigma-scan", "--tau-z-list", "1", "--n-traj", "400"])
        assert rc == 0
        with open(tmp_path / "sigma_scan.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        # lambda_z^2 dt tau_z / 2 = 16 * 0.005 * 1 / 2
        assert float(row["closed_form"]) == pytest.approx(0.04, rel=1e-12)

    def test_shielded_report_checks_enforced_certificate(self, tmp_path, capsys):
        # with baseline_kd alone both certificates happen to peak at
        # t = 0 on this trajectory; the lam change separates them
        cfg_file = tmp_path / "kd.cfg"
        cfg_file.write_text("baseline_kd = 20\nbaseline_lam = 3\n")
        rc = run_cli(["--config", str(cfg_file), "--out-dir", str(tmp_path),
                      "simulate", "--shielded"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        cfg = load_config(cfg_file)
        base = cfg.baseline_gains()
        q0 = BatchReference(cfg.reference).at(0.0).q
        enforced = shield.design_lyapunov_form(cfg.plant, q0, baseline=base,
                                               alpha=cfg.alpha)
        ctrl = shield.ShieldedController(lambda t, x: base, enforced, cfg.box,
                                         cfg.plant, cfg.friction)
        traj = rollout(ctrl, cfg.reference, cfg.plant, cfg.friction, seed=42,
                       dt=cfg.dt)
        ratio = shield.verify_exponential_decay(traj, enforced).max_ratio
        assert report["max_decay_ratio"] == ratio
        # the default-gain certificate reads this trajectory differently
        other = shield.design_lyapunov_form(
            cfg.plant, q0, load_config().baseline_gains(), alpha=cfg.alpha)
        assert shield.verify_exponential_decay(traj, other).max_ratio != ratio


class TestOperatorCSV:
    def test_round_trip(self, tmp_path, cfg):
        # rank-scan --save-operators writes the operator of the samples it
        # drew: the header names them, the rows are their auto-covariance
        rc = run_cli(["--out-dir", str(tmp_path), "rank-scan",
                      "--tau-z-list", "1.5", "--window", "6",
                      "--n-samples", "15", "--save-operators"])
        assert rc == 0
        g = ma.gradient_samples_closed_loop(1.5, cfg.reference, cfg.plant,
                                            cfg.friction, window=6,
                                            n_samples=15, dt=cfg.dt, seed=42,
                                            gains=cfg.baseline_gains())
        path = tmp_path / "operator_tz1.5s.csv"
        assert path.read_text().splitlines()[0] == (
            f"# temporal residual operator, tau_z=1.5, n_samples={len(g)}, "
            "mode=closed-loop-gradient")
        back = np.loadtxt(path, delimiter=",")
        assert np.allclose(back, ma.build_residual_operator(g), atol=1e-12)


# For each function or dataclass the CLI calls to run a pipeline, the
# parameters whose value the CLI (seed, sizes, payload mode, tau_z) or
# the config (dt, baseline gains) owns.  Their one default lives with
# that owner, so none may have a default here.  The two samplers build
# the ensemble with their seed and gains.
OWNED_PARAMETERS = [
    ("dynamics", "rollout", ("seed", "dt")),
    ("controller", "BaselineController", ("gains",)),
    ("shield", "design_lyapunov_form", ("baseline",)),
    ("runner", "SweepSpec", ("rollouts_per_payload", "dt", "seed")),
    ("runner", "evaluate_baseline", ("payload_mode", "gains")),
    ("memory_analysis", "sigma_z_broadband", ("n_traj", "dt", "seed")),
    ("memory_analysis", "gradient_samples_closed_loop",
     ("window", "n_samples", "dt", "seed", "gains")),
    ("incrt", "run_phase1", ("config",)),
    ("markov_gap", "markov_gap_experiment", ("n_traj", "seed", "dt", "gains")),
    ("ensemble", "BaselineEnsembleSim", ("seed", "gains")),
]


class TestOneDefaultPerSetting:
    @pytest.mark.parametrize("module, name, owned", OWNED_PARAMETERS,
                             ids=[f"{m}.{n}" for m, n, _ in OWNED_PARAMETERS])
    def test_no_pipeline_default_for_an_owned_setting(self, module, name,
                                                      owned):
        import importlib
        import inspect

        obj = getattr(importlib.import_module(f"memctrl.{module}"), name)
        if dataclasses.is_dataclass(obj):
            defaults = {f.name: f.default for f in dataclasses.fields(obj)}
        else:
            defaults = {p.name: p.default
                        for p in inspect.signature(obj).parameters.values()}
        empty = (dataclasses.MISSING, inspect.Parameter.empty)
        assert set(owned) <= set(defaults)
        assert {p: defaults[p] for p in owned
                if defaults[p] not in empty} == {}
