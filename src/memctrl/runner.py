"""Sweep orchestration and the released result-file schema.

A RunResult captures one (architecture, tau_z, seed) evaluation: the
per-payload RMSE list with between-rollout standard deviations, the
fixed-gain baseline RMSE it is compared to, and the relative reduction
delta_percent = 100 (rmse_mean - baseline) / baseline.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .controller import BaselineController, ControllerParams
from .dynamics import FrictionParams, PlantParams, ReferenceSpec, rollout

PAYLOAD_GRID = (0.0, 0.375, 0.75, 1.125, 1.5)
COLLAPSE_THRESHOLD = 0.02   # rad, per-payload RMSE range below which a
                            # run counts as payload-invariant
SEED_STRIDE = 1009          # reset-seed step between payloads, and so the
                            # most rollouts per payload with distinct seeds


@dataclass
class PayloadPoint:
    payload: float
    rmse: float
    sd: float


@dataclass
class RunResult:
    architecture: str
    param_count: int
    tau_z: float
    seed: int
    baseline_rmse: float
    payload_rmse: list        # [PayloadPoint]
    delta_percent: float
    flags: dict = field(default_factory=dict)

    @property
    def rmse_mean(self) -> float:
        return float(np.mean([p.rmse for p in self.payload_rmse]))

    @staticmethod
    def from_dict(d: dict) -> "RunResult":
        pts = [PayloadPoint(payload=float(p["payload"]), rmse=float(p["rmse"]),
                            sd=float(p["sd"])) for p in d["payload_rmse"]]
        return RunResult(architecture=d["architecture"],
                         param_count=int(d["param_count"]),
                         tau_z=float(d["tau_z"]), seed=int(d["seed"]),
                         baseline_rmse=float(d["baseline_rmse"]),
                         payload_rmse=pts,
                         delta_percent=float(d["delta_percent"]),
                         flags=dict(d.get("flags", {})))

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=1, sort_keys=True)

    @staticmethod
    def read_json(path) -> "RunResult":
        with open(path) as fh:
            return RunResult.from_dict(json.load(fh))

    def filename(self) -> str:
        return f"{self.architecture}__tz{self.tau_z:g}s__seed{self.seed}.json"

    def check_delta_consistency(self) -> bool:
        expect = 100.0 * (self.rmse_mean - self.baseline_rmse) / self.baseline_rmse
        return abs(expect - self.delta_percent) <= 1e-9 * max(1.0, abs(expect))

    def write_payload_csv(self, path) -> None:
        """Per-payload rows for plotting."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["payload", "rmse", "sd", "architecture", "tau_z", "seed"])
            for p in self.payload_rmse:
                w.writerow([p.payload, f"{p.rmse:.9g}", f"{p.sd:.9g}",
                            self.architecture, self.tau_z, self.seed])


@dataclass(frozen=True)
class SweepSpec:
    """Rollout count per payload, step and seed of a payload sweep.

    The horizon is the reference's (ReferenceSpec.horizon), as in
    every rollout.
    """

    rollouts_per_payload: int
    dt: float
    seed: int

    def __post_init__(self):
        # a between-rollout sd needs two rollouts per payload
        if self.rollouts_per_payload < 2:
            raise ValueError(f"rollouts_per_payload must be at least 2, "
                             f"got {self.rollouts_per_payload}")
        # beyond the stride, rollout SEED_STRIDE of one payload would reuse
        # rollout 0 of the next payload's reset seed
        if self.rollouts_per_payload > SEED_STRIDE:
            raise ValueError(f"rollouts_per_payload must be at most "
                             f"{SEED_STRIDE}, got {self.rollouts_per_payload}")

    def rollout_seed(self, payload_index: int, rollout_index: int) -> int:
        # deterministic reset seeds, distinct inside one evaluation
        return (self.seed * 100003 + payload_index * SEED_STRIDE
                + rollout_index) % (2 ** 31 - 1)


def evaluate_controller(make_controller, ref: ReferenceSpec,
                        params: PlantParams, fric: FrictionParams,
                        architecture: str, sweep: SweepSpec,
                        baseline_rmse: float | None = None) -> RunResult:
    """Payload sweep of a controller factory, labelled architecture.

    make_controller(plant) -> rollout controller, where plant holds one
    payload per rollout as a (n_payloads * rollouts,) array.
    All rollouts run over ref.horizon as the members of one batched
    rollout, each reset from its own SweepSpec.rollout_seed.  Diverged
    rollouts keep their truncated RMSE and are counted in flags rather
    than dropped.  When baseline_rmse is None the controller is treated
    as its own baseline (delta_percent = 0 against itself uses the mean
    over the sweep).  The result's param_count is 0: no controller
    evaluated here has learned parameters.  A grid that reaches beyond
    params.payload_max raises ValueError: its heaviest points would run
    a plant that PlantParams.validate refuses.
    """
    if PAYLOAD_GRID[-1] > params.payload_max:
        raise ValueError(f"payload grid reaches {PAYLOAD_GRID[-1]} kg, beyond "
                         f"payload_max {params.payload_max} kg")
    n_roll = sweep.rollouts_per_payload
    plant = replace(params, payload=np.repeat(np.asarray(PAYLOAD_GRID,
                                                         dtype=float), n_roll))
    seeds = [sweep.rollout_seed(ip, ir) for ip in range(len(PAYLOAD_GRID))
             for ir in range(n_roll)]
    trajs = rollout(make_controller(plant), ref, plant, fric, seed=seeds,
                    dt=sweep.dt)
    rmses = np.array([tr.rmse() for tr in trajs]).reshape(-1, n_roll)
    n_diverged = sum(tr.diverged for tr in trajs)
    points = [PayloadPoint(payload=payload, rmse=float(r.mean()),
                           sd=float(r.std(ddof=1)))
              for payload, r in zip(PAYLOAD_GRID, rmses)]

    rmse_mean = float(np.mean([p.rmse for p in points]))
    base = rmse_mean if baseline_rmse is None else float(baseline_rmse)
    delta = 100.0 * (rmse_mean - base) / base
    return RunResult(architecture=architecture, param_count=0,
                     tau_z=fric.tau_z, seed=sweep.seed, baseline_rmse=base,
                     payload_rmse=points, delta_percent=delta,
                     flags={"diverged_rollouts": n_diverged,
                            "total_rollouts": len(trajs)})


def evaluate_baseline(ref: ReferenceSpec, params: PlantParams,
                      fric: FrictionParams, sweep: SweepSpec,
                      payload_mode: str, gains: ControllerParams) -> RunResult:
    """evaluate_controller of the BaselineController at gains, the
    baseline's (Config.baseline_gains()); a 'noisy' payload estimate
    draws its noise from the sweep's seed.  The controller gets the
    batched plant and lays out one row of gains per rollout, as the
    ensemble's does.

    The label names the payload mode: 'baseline-ct' for 'nominal' (the
    paper's baseline), 'baseline-ct-true' and 'baseline-ct-noisy' for the
    other two, so runs in different modes never share a result file.
    """
    label = ("baseline-ct" if payload_mode == "nominal"
             else f"baseline-ct-{payload_mode}")

    def make(plant):
        return BaselineController(plant, gains=gains, payload_mode=payload_mode,
                                  noise_seed=sweep.seed)

    return evaluate_controller(make, ref, params, fric, label, sweep)


def failure_mode_flag(result: RunResult) -> str:
    """Classify a run: diverged beats collapsed beats healthy.

    Collapse is a per-payload RMSE range smaller than COLLAPSE_THRESHOLD
    -- the payload-invariant-policy signature.
    """
    if not result.payload_rmse:
        raise ValueError("result carries no payload points")
    if result.flags.get("diverged_rollouts", 0) > 0:
        return "diverged"
    rmses = [p.rmse for p in result.payload_rmse]
    if max(rmses) - min(rmses) < COLLAPSE_THRESHOLD:
        return "collapsed"
    return "healthy"
