"""Batched closed-loop simulation for the analysis pipelines.

An ensemble of B tracking tasks integrates as one rollout of the packed
(6, B) state through memctrl.dynamics (reset_state, rk4_increment,
BatchReference, closed_loop) and a payload-free BaselineController,
with per-member payloads and friction constants as arrays in
PlantParams and FrictionParams; only the task distribution and the
batch's step and run are written here.  The step Jacobian comes from the
derivatives that sit beside their laws: dynamics.rk4_jacobian for the
plant and BaselineController.linearize, which gives the torque and its
derivative from one evaluation, for the torque.
Per-member constants are stored joint-first, the memory order of the
state's rows: friction at (2, B) and the reference as (B, 2) views of
(2, B) memory, like the q and qd views the controller reads;
BaselineController lays out the per-member gains the same way, and
says why.  Used for the temporal-operator sampler and the Markov-gap
experiment (sigma-scan runs memory_analysis's synthetic broadband
sampler, not the ensemble); tests pin each member to a scalar rollout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .controller import BaselineController, ControllerParams
from .dynamics import (BatchReference, FrictionParams, PlantParams,
                       PlantState, ReferenceSpec, closed_loop, reset_state,
                       rk4_increment, rk4_jacobian)


@dataclass(frozen=True)
class TaskDistribution:
    """Per-trajectory randomisation of the tracking task.

    Every member draws its own reference phases and payload, and starts
    from dynamics.reset_state, the reset rule of rollout.  Two switches
    set the rest: friction_log_sd perturbs the friction constants (the
    gradient sampler's ensemble), and slow_reference appends two
    incommensurate slow tones (dynamics.SLOW_PERIODS) so the excitation
    has spectral content at multi-second horizons (the markov-gap
    ensemble).

    Known defect: with slow_reference the reset is still drawn around
    the fast tones alone, so members start up to 0.35 rad (joint 1) and
    0.25 rad (joint 2) from their own reference, not within
    dynamics.RESET_Q_JITTER (512 members, seeds 0 and 42).  Fixing it
    changes every markov-gap output, so it waits for a benchmark
    re-record (ROADMAP item 5).
    """

    friction_log_sd: float = 0.0   # log-normal sd on (f_c, f_smax, v_s, sigma)
    slow_reference: bool = False


@dataclass
class BatchRollout:
    """State record of a batch of rollouts: closed_loop's time-major
    (n_kept, n_rows, B) record of the steps and rows it was asked for
    (all n + 1 states' six packed rows, q1 q2 qd1 qd2 z1 z2, by
    default); alive covers the whole run, kept steps or not."""

    x: np.ndarray       # (n_kept, n_rows, B)
    alive: np.ndarray   # (B,) bool, False once a member blew up


class BaselineEnsembleSim:
    """Batch of plants under the fixed-gain baseline, steppable from any state.

    Per-member payload and (optionally perturbed) friction constants, as
    task draws them; the torque is BaselineController(self.plant, gains),
    built as evaluate builds its own: the model is payload-free, as in
    the evaluation protocol, and the controller lays out the per-member
    gains.  step and step_jacobian take a time and the packed (6, B)
    state of memctrl.dynamics, and call the controller as
    dynamics.rollout does, with the reference at that time.
    """

    def __init__(self, batch: int, ref: ReferenceSpec, params: PlantParams,
                 fric: FrictionParams, seed: int, task: TaskDistribution,
                 gains: ControllerParams):
        rng = np.random.default_rng(seed)
        self.batch = batch

        phase = rng.uniform(0.0, 2.0 * np.pi, (batch, 2))
        self.payload = rng.uniform(0.0, params.payload_max, batch)
        if task.friction_log_sd > 0.0:
            mult = np.exp(rng.normal(0.0, task.friction_log_sd, (batch, 4)))
        else:
            mult = np.ones((batch, 4))
        fr = np.array([fric.f_c, fric.f_smax, fric.v_s, fric.sigma]) * mult
        fr[:, 1] = np.maximum(fr[:, 1], fr[:, 0])  # static peak >= Coulomb
        # friction at (2, B); phase (B, 2) in joint-first memory
        self.fric = replace(fric, **{k: np.full((2, batch), fr[:, i])
                                     for i, k in enumerate(("f_c", "f_smax",
                                                            "v_s", "sigma"))})
        self.plant = replace(params, payload=self.payload)
        # payload-free, with (B, 2) gains
        self.controller = BaselineController(self.plant, gains)
        phase = np.asfortranarray(phase)
        self.reference = BatchReference(ref, phase, task.slow_reference, rng)
        # the reset jitters around the start of the fast tones alone
        self.x0 = reset_state(BatchReference(ref, phase), rng)

    def step(self, t: float, x: np.ndarray, dt: float) -> np.ndarray:
        """One zero-order-hold RK4 step of the packed state x from time t,
        with the controller called as rollout calls it."""
        tau = self.controller(t, PlantState(x=x), self.reference.at(t)).tau
        return rk4_increment(x, tau.T, dt, self.plant, self.fric)

    def step_jacobian(self, t: float, x: np.ndarray, dt: float) -> np.ndarray:
        """d step / d x at the packed (6, B) state x, shape (B, 6, 6): the
        exact derivative of `step`'s RK4 map (dynamics.rk4_jacobian),
        including the torque's dependence on the state it is held from;
        one BaselineController.linearize call gives `step`'s torque and
        that derivative.  d sign/d qd is taken as 0.
        """
        tau, T = self.controller.linearize(PlantState(x=x),
                                           self.reference.at(t))
        return rk4_jacobian(x, tau.T, T, dt, self.plant, self.fric)

    def run(self, n_steps: int, dt: float, keep=np.s_[:, :]) -> BatchRollout:
        """closed_loop of `step` over n_steps steps of dt from the batch's
        reset states, recording the steps and packed rows that keep
        selects (closed_loop's selector; every row of every state by
        default)."""
        x, n_states = closed_loop(
            self.x0, n_steps,
            lambda k, x: self.step(k * dt, x, dt), keep)
        return BatchRollout(x=x, alive=n_states > n_steps)
