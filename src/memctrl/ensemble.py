"""Batched closed-loop simulation for the analysis pipelines.

An ensemble of B tracking tasks integrates as one rollout of the packed
(6, B) state through memctrl.dynamics (reset_state, rk4_increment,
BatchReference, closed_loop) and a payload-free BaselineController,
with per-member payloads and friction constants as arrays in
PlantParams and FrictionParams; only the task distribution and the
hand-derived step Jacobian are written here.  Per-member constants are
stored joint-first, the memory order of the state's rows: friction at
(2, B) and the reference as (B, 2) views of (2, B) memory, like the q
and qd views the controller reads; BaselineController lays out the
per-member gains the same way, and says why.  Used for the
temporal-operator sampler and the Markov-gap experiment (sigma-scan
runs memory_analysis's synthetic broadband sampler, not the ensemble);
tests pin each member to a scalar rollout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .controller import BaselineController, ControllerParams
from .dynamics import (BatchReference, FrictionParams, PlantParams,
                       ReferenceSpec, RefPoint, _arm_terms, _derivatives,
                       closed_loop, reset_state, rk4_increment)


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
    gains.  step and step_jacobian take the packed (6, B) state of
    memctrl.dynamics.
    """

    def __init__(self, batch: int, ref: ReferenceSpec, params: PlantParams,
                 fric: FrictionParams, seed: int, task: TaskDistribution,
                 gains: ControllerParams | None = None):
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

    def _torque_jacobian(self, ref: RefPoint, q: np.ndarray, qd: np.ndarray) -> np.ndarray:
        """d torque / d (q, qd, z) of the baseline law at the (B, 2) views
        q and qd, shape (B, 2, 6)."""
        g = self.controller.gains
        terms = self.controller.model.terms
        _, _, b, _, gw1, gw2 = terms
        M11, M12, M22, h, _, _ = _arm_terms(q[..., 0], q[..., 1], terms)
        dh = b * np.cos(q[..., 1])   # dh/dq2
        e = ref.q - q
        ed = ref.qd - qd
        qd_r = ref.qd + g.lam * e
        qdd_r = ref.qdd + g.lam * ed
        v1, v2 = qd[..., 0], qd[..., 1]
        gs12 = gw2 * np.sin(q[..., 0] + q[..., 1])
        gs1 = gw1 * np.sin(q[..., 0])
        # the gains are (B, 2): the joint is the last axis, not the first
        lam1, lam2, kd1, kd2 = g.lam[..., 0], g.lam[..., 1], g.kd[..., 0], g.kd[..., 1]
        T = np.zeros(q.shape[:-1] + (2, 6))
        T[..., 0, 0] = h * v2 * lam1 - gs1 - gs12 - kd1 * lam1
        T[..., 0, 1] = (-h * (2.0 * qdd_r[..., 0] + qdd_r[..., 1])
                        - dh * (v2 * qd_r[..., 0] + (v1 + v2) * qd_r[..., 1])
                        + h * (v1 + v2) * lam2 - gs12)
        T[..., 0, 2] = -M11 * lam1 - h * qd_r[..., 1] - kd1
        T[..., 0, 3] = -M12 * lam2 - h * (qd_r[..., 0] + qd_r[..., 1])
        T[..., 1, 0] = -h * v1 * lam1 - gs12
        T[..., 1, 1] = -h * qdd_r[..., 0] + dh * v1 * qd_r[..., 0] - gs12 - kd2 * lam2
        T[..., 1, 2] = -M12 * lam1 + h * qd_r[..., 0]
        T[..., 1, 3] = -M22 * lam2 - kd2
        return T

    def _rhs_jacobian(self, x, k, terms):
        """d (qd, qdd, zd) / d (q, qd, z, tau), shape (B, 6, 8), at the
        packed stage x with derivative k; terms = self.plant.terms.

        The derivative of sign(qd) is taken as 0: the Coulomb/Stribeck
        jump at qd = 0 contributes no sensitivity.
        """
        _, _, b, _, gw1, gw2 = terms
        q1, q2, v1, v2 = x[0], x[1], x[2], x[3]
        M11, M12, M22, h, _, _ = _arm_terms(q1, q2, terms)
        dh = b * np.cos(q2)   # dh/dq2
        fric = self.fric
        u = x[2:4] / fric.v_s
        dF1, dF2 = (fric.f_excess * np.exp(-u * u) * (-2.0 * u / fric.v_s)
                    * np.sign(x[2:4]) + fric.sigma)
        gs12 = gw2 * np.sin(q1 + q2)
        gs1 = gw1 * np.sin(q1)
        # d r / d (q1, q2, qd1, qd2), with the dM/dq2 qdd term folded in
        members = x.shape[1:]
        dr = np.empty(members + (2, 4))
        dr[..., 0, 0] = gs1 + gs12
        dr[..., 0, 1] = (dh * (2.0 * v1 * v2 + v2 * v2) + gs12
                         + h * (2.0 * k[2] + k[3]))
        dr[..., 0, 2] = 2.0 * h * v2 - dF1
        dr[..., 0, 3] = 2.0 * h * (v1 + v2)
        dr[..., 1, 0] = gs12
        dr[..., 1, 1] = -dh * v1 * v1 + gs12 + h * k[2]
        dr[..., 1, 2] = -2.0 * h * v1
        dr[..., 1, 3] = -dF2
        det = M11 * M22 - M12 * M12
        Minv = np.empty(members + (2, 2))
        Minv[..., 0, 0] = M22 / det
        Minv[..., 0, 1] = Minv[..., 1, 0] = -M12 / det
        Minv[..., 1, 1] = M11 / det
        eye = np.eye(2)
        J = np.zeros(members + (6, 8))
        J[..., 0:2, 2:4] = eye
        J[..., 2:4, 0:4] = Minv @ dr
        J[..., 2:4, 4:6] = -Minv
        J[..., 2:4, 6:8] = Minv
        J[..., 4:6, 2:4] = fric.lambda_z * eye
        J[..., 4:6, 4:6] = -eye / fric.tau_z
        return J

    def step_jacobian(self, t: float, x: np.ndarray, dt: float) -> np.ndarray:
        """d step / d x at the packed (6, B) state x, shape (B, 6, 6).

        The exact derivative of the RK4 map of `step`, at the packed
        stages x + c dt k, including the torque's dependence on the
        state it is held from; d sign/d qd is taken as 0.
        """
        ref = self.reference.at(t)
        q, qd = x[0:2].T, x[2:4].T
        tau1, tau2 = self.controller.torque(q, qd, ref).T
        T = self._torque_jacobian(ref, q, qd)
        terms = self.plant.terms
        eye = np.eye(6)
        k, K, acc = 0.0, 0.0, 0.0   # previous stage slope, its Jacobian
        for c, w in ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            stage = x + c * dt * k
            k = _derivatives(stage, tau1, tau2, terms, self.fric)
            Jf = self._rhs_jacobian(stage, k, terms)
            K = Jf[..., :6] @ (eye + c * dt * K) + Jf[..., 6:] @ T
            acc = acc + w * K
        return eye + dt / 6.0 * acc

    def step(self, ref: RefPoint, x: np.ndarray, dt: float) -> np.ndarray:
        """One zero-order-hold RK4 step of the packed state x from ref."""
        tau = self.controller.torque(x[0:2].T, x[2:4].T, ref)
        return rk4_increment(x, tau.T, dt, self.plant, self.fric)

    def run(self, n_steps: int, dt: float, keep=np.s_[:, :]) -> BatchRollout:
        """closed_loop of `step` over n_steps steps of dt from the batch's
        reset states, recording the steps and packed rows that keep
        selects (closed_loop's selector; every row of every state by
        default)."""
        x, n_states = closed_loop(
            self.x0, n_steps,
            lambda k, x: self.step(self.reference.at(k * dt), x, dt), keep)
        return BatchRollout(x=x, alive=n_states > n_steps)
