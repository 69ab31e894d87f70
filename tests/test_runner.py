import dataclasses
import json

import numpy as np
import pytest

from memctrl import runner
from memctrl.controller import BaselineController, ControllerParams
from memctrl.dynamics import rollout
from memctrl.runner import (PayloadPoint, RunResult, SweepSpec,
                            evaluate_baseline, failure_mode_flag)


def _toy_result(rmses, diverged=0):
    pts = [PayloadPoint(payload=p, rmse=r, sd=0.001)
           for p, r in zip(runner.PAYLOAD_GRID, rmses)]
    mean = float(np.mean(rmses))
    base = 0.13
    return RunResult(architecture="toy", param_count=7, tau_z=1.0, seed=42,
                     baseline_rmse=base, payload_rmse=pts,
                     delta_percent=100.0 * (mean - base) / base,
                     flags={"diverged_rollouts": diverged})


class TestRunResult:
    def test_json_round_trip(self, tmp_path):
        res = _toy_result([0.10, 0.11, 0.12, 0.13, 0.14])
        path = tmp_path / res.filename()
        res.write_json(path)
        back = RunResult.read_json(path)
        assert back == res

    def test_schema_field_names(self, tmp_path):
        res = _toy_result([0.1] * 5)
        path = tmp_path / "r.json"
        res.write_json(path)
        rec = json.loads(path.read_text())
        assert set(rec) == {"architecture", "param_count", "tau_z", "seed",
                            "baseline_rmse", "payload_rmse", "delta_percent",
                            "flags"}
        assert set(rec["payload_rmse"][0]) == {"payload", "rmse", "sd"}

    def test_delta_consistency_invariant(self):
        res = _toy_result([0.10, 0.11, 0.12, 0.13, 0.14])
        assert res.check_delta_consistency()
        res.delta_percent += 0.5
        assert not res.check_delta_consistency()

    def test_json_bytes_match_field_mapping(self, tmp_path):
        # oracle: the field-by-field mapping write_json dumped before it
        # dumped dataclasses.asdict
        res = _toy_result([0.10, 0.11, 0.12, 0.13, 0.14], diverged=1)
        res.flags["total_rollouts"] = 100
        mapping = {
            "architecture": res.architecture,
            "param_count": res.param_count,
            "tau_z": res.tau_z,
            "seed": res.seed,
            "baseline_rmse": res.baseline_rmse,
            "payload_rmse": [{"payload": p.payload, "rmse": p.rmse, "sd": p.sd}
                             for p in res.payload_rmse],
            "delta_percent": res.delta_percent,
            "flags": res.flags,
        }
        path, expect = tmp_path / "r.json", tmp_path / "expect.json"
        res.write_json(path)
        with open(expect, "w") as fh:
            json.dump(mapping, fh, indent=1, sort_keys=True)
        assert len(res.payload_rmse) == 5
        assert path.read_bytes() == expect.read_bytes()

    def test_filename_encoding(self):
        res = _toy_result([0.1] * 5)
        assert res.filename() == "toy__tz1s__seed42.json"


class TestFailureModeFlag:
    def test_flat_profile_is_collapsed(self):
        # per-payload range 0.010 rad: payload-invariant signature
        res = _toy_result([0.130, 0.132, 0.135, 0.138, 0.140])
        assert failure_mode_flag(res) == "collapsed"

    def test_healthy_range(self):
        res = _toy_result([0.100, 0.110, 0.121, 0.132, 0.145])
        assert failure_mode_flag(res) == "healthy"

    def test_divergence_takes_precedence(self):
        res = _toy_result([0.100, 0.110, 0.121, 0.132, 0.145], diverged=2)
        assert failure_mode_flag(res) == "diverged"

    def test_empty_result_rejected(self):
        res = _toy_result([0.1] * 5)
        res.payload_rmse = []
        with pytest.raises(ValueError):
            failure_mode_flag(res)


@pytest.fixture(scope="module")
def small_sweep(cfg):
    return SweepSpec(rollouts_per_payload=3, dt=cfg.dt, seed=42)


class TestSweepSpec:
    def test_rollouts_above_seed_stride_rejected(self):
        # with 1010 rollouts, rollout 1009 of one payload and rollout 0
        # of the next would share a reset seed
        with pytest.raises(ValueError, match="at most 1009"):
            SweepSpec(rollouts_per_payload=1010, dt=0.01, seed=42)

    def test_reset_seeds_distinct_at_the_limit(self):
        sweep = SweepSpec(rollouts_per_payload=1009, dt=0.01, seed=42)
        seeds = {sweep.rollout_seed(ip, ir)
                 for ip in range(len(runner.PAYLOAD_GRID))
                 for ir in range(sweep.rollouts_per_payload)}
        assert len(seeds) == len(runner.PAYLOAD_GRID) * 1009


class TestEvaluate:
    def test_self_comparison_is_zero(self, cfg, small_sweep):
        res = evaluate_baseline(cfg.reference, cfg.plant, cfg.friction,
                                small_sweep, payload_mode="nominal",
                                gains=cfg.baseline_gains())
        assert res.delta_percent == pytest.approx(0.0, abs=1e-12)
        assert res.check_delta_consistency()

    def test_rmse_monotone_in_payload(self, cfg, small_sweep):
        res = evaluate_baseline(cfg.reference, cfg.plant, cfg.friction,
                                small_sweep, payload_mode="nominal",
                                gains=cfg.baseline_gains())
        rmses = [p.rmse for p in res.payload_rmse]
        assert np.all(np.diff(rmses) >= 0.0)
        assert failure_mode_flag(res) == "healthy"

    def test_byte_identical_reruns(self, cfg, small_sweep, tmp_path):
        r1 = evaluate_baseline(cfg.reference, cfg.plant, cfg.friction,
                               small_sweep, payload_mode="nominal",
                               gains=cfg.baseline_gains())
        r2 = evaluate_baseline(cfg.reference, cfg.plant, cfg.friction,
                               small_sweep, payload_mode="nominal",
                               gains=cfg.baseline_gains())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        r1.write_json(p1)
        r2.write_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("mode,kd", [("nominal", 30.0), ("true", 30.0),
                                         ("noisy", 30.0), ("nominal", 100.0)])
    def test_matches_per_rollout_loop(self, cfg, mode, kd):
        # reference: one scalar rollout per (payload, rollout) pair, as
        # the sweep ran before it became one batched rollout; kd = 100
        # makes some rollouts diverge
        sweep = SweepSpec(rollouts_per_payload=3, dt=cfg.dt, seed=42)
        ref = dataclasses.replace(cfg.reference, horizon=2.0)
        gains = ControllerParams(kd=np.full(2, kd), lam=np.full(2, 5.0),
                                 eta=np.zeros(6))
        res = evaluate_baseline(ref, cfg.plant, cfg.friction, sweep,
                                payload_mode=mode, gains=gains)
        points, n_diverged = [], 0
        for ip, payload in enumerate(runner.PAYLOAD_GRID):
            plant = cfg.plant.with_payload(payload)
            rmses = []
            for ir in range(sweep.rollouts_per_payload):
                ctrl = BaselineController(plant, gains=gains, payload_mode=mode,
                                          noise_seed=sweep.seed)
                traj = rollout(ctrl, ref, plant, cfg.friction,
                               seed=sweep.rollout_seed(ip, ir), dt=sweep.dt)
                rmses.append(traj.rmse())
                n_diverged += int(traj.diverged)
            rmses = np.asarray(rmses)
            points.append((payload, float(rmses.mean()),
                           float(rmses.std(ddof=1))))
        assert [(p.payload, p.rmse, p.sd) for p in res.payload_rmse] == points
        assert res.flags == {"diverged_rollouts": n_diverged,
                             "total_rollouts": 5 * sweep.rollouts_per_payload}
        assert (n_diverged > 0) == (kd == 100.0)

    def test_noisy_estimate_follows_seed(self, cfg, monkeypatch):
        # the 'noisy' payload estimate is drawn from the sweep's seed
        models = []

        class Recording(BaselineController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self.model.payload)

        monkeypatch.setattr(runner, "BaselineController", Recording)
        for seed in (1, 2):
            evaluate_baseline(dataclasses.replace(cfg.reference, horizon=0.1),
                              cfg.plant, cfg.friction,
                              SweepSpec(rollouts_per_payload=2, dt=cfg.dt,
                                        seed=seed),
                              payload_mode="noisy", gains=cfg.baseline_gains())
        assert len(models) == 2
        assert not np.array_equal(models[0], models[1])


class TestPayloadCSV:
    def test_export_for_plotting(self, tmp_path):
        res = _toy_result([0.10, 0.11, 0.12, 0.13, 0.14])
        path = tmp_path / "payload.csv"
        res.write_payload_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "payload,rmse,sd,architecture,tau_z,seed"
        assert len(lines) == 6
