"""Batched closed-loop simulation for the analysis pipelines.

The dynamics routines broadcast over leading axes, so an ensemble of B
tracking tasks integrates as one (B, 2)-shaped rollout under the
batched fixed-gain controller.  Used wherever thousands of rollouts
are needed: the sigma_z scans, the temporal-operator sampler and the
Markov-gap experiment.  The scalar rollout in memctrl.dynamics stays
the reference implementation; a regression test pins the two paths to
each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import ControllerParams, fixed_gain_baseline
from .dynamics import BLOWUP_BOUND, FrictionParams, PlantParams, ReferenceSpec


@dataclass(frozen=True)
class TaskDistribution:
    """Per-trajectory randomisation of the tracking task.

    Phase randomisation and friction-constant perturbation are
    switchable: probe ensembles need them, evaluation sweeps must not
    have them.  slow_reference appends two incommensurate slow tones
    so the excitation has spectral content at multi-second horizons.
    """

    randomize_phase: bool = True
    randomize_payload: bool = True
    friction_log_sd: float = 0.0   # log-normal sd on (f_c, f_smax, v_s, sigma)
    q_jitter: float = 0.1          # rad
    slow_reference: bool = False


# slow excitation tones for TaskDistribution.slow_reference
SLOW_PERIODS = (7.0, 9.5)       # s
SLOW_AMPLITUDE = (0.25, 0.15)   # rad


class BatchReference:
    """Reference evaluated for a whole batch, with optional slow tones."""

    def __init__(self, ref: ReferenceSpec, phase: np.ndarray, slow: bool,
                 rng: np.random.Generator | None = None):
        self.ref = ref
        self.phase = phase
        self.slow = slow
        if slow:
            if rng is None:
                raise ValueError("slow tones need an rng for their phases")
            B = phase.shape[0]
            self.slow_phase = rng.uniform(0.0, 2.0 * np.pi, (B, 2))
            self.slow_omega = 2.0 * np.pi / np.array(SLOW_PERIODS)
            self.slow_amp = np.array(SLOW_AMPLITUDE)

    def position(self, t):
        q = self.ref.position(t, self.phase)
        if self.slow:
            q = q + self.slow_amp * np.sin(self.slow_omega * t + self.slow_phase)
        return q

    def velocity(self, t):
        v = self.ref.velocity(t, self.phase)
        if self.slow:
            v = v + self.slow_amp * self.slow_omega * np.cos(
                self.slow_omega * t + self.slow_phase)
        return v

    def acceleration(self, t):
        a = self.ref.acceleration(t, self.phase)
        if self.slow:
            a = a - self.slow_amp * self.slow_omega ** 2 * np.sin(
                self.slow_omega * t + self.slow_phase)
        return a


@dataclass
class BatchRollout:
    """Dense state history of a batch of rollouts."""

    t: np.ndarray       # (n+1,)
    q: np.ndarray       # (n+1, B, 2)
    qd: np.ndarray      # (n+1, B, 2)
    z: np.ndarray       # (n+1, B, 2)
    q_ref: np.ndarray   # (n+1, B, 2)
    qd_ref: np.ndarray  # (n+1, B, 2)
    payload: np.ndarray  # (B,)
    alive: np.ndarray   # (B,) bool, False once a member blew up
    dt: float

    @property
    def n_steps(self) -> int:
        return self.t.shape[0] - 1


class BaselineEnsembleSim:
    """Batch of plants under the fixed-gain baseline, steppable from any state.

    Per-member payload and (optionally perturbed) friction constants;
    the controller model is payload-free as in the evaluation protocol.
    """

    def __init__(self, batch: int, ref: ReferenceSpec, params: PlantParams,
                 fric: FrictionParams, seed: int,
                 task: TaskDistribution | None = None,
                 gains: ControllerParams | None = None):
        task = task or TaskDistribution()
        self.task = task
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.batch = batch
        self.params = params
        self.fric = fric
        self.gains = gains if gains is not None else fixed_gain_baseline()

        phase = (rng.uniform(0.0, 2.0 * np.pi, (batch, 2))
                 if task.randomize_phase else np.zeros((batch, 2)))
        self.payload = (rng.uniform(0.0, params.payload_max, batch)
                        if task.randomize_payload
                        else np.full(batch, params.payload))
        if task.friction_log_sd > 0.0:
            mult = np.exp(rng.normal(0.0, task.friction_log_sd, (batch, 4)))
        else:
            mult = np.ones((batch, 4))
        fr = np.array([fric.f_c, fric.f_smax, fric.v_s, fric.sigma]) * mult
        fr[:, 1] = np.maximum(fr[:, 1], fr[:, 0])  # static peak >= Coulomb
        self.fric_arr = fr
        self.reference = BatchReference(ref, phase, task.slow_reference, rng)
        self.q0 = ref.position(0.0, phase) + rng.uniform(
            -task.q_jitter, task.q_jitter, (batch, 2))

        pl = self.payload
        p = params
        self._a = (p.i1 + p.i2 + p.m1 * p.lc1 ** 2
                   + p.m2 * (p.l1 ** 2 + p.lc2 ** 2)
                   + pl * (p.l1 ** 2 + p.l2 ** 2))
        self._b = p.m2 * p.l1 * p.lc2 + pl * p.l1 * p.l2
        self._d = p.i2 + p.m2 * p.lc2 ** 2 + pl * p.l2 ** 2
        self._w1 = p.m1 * p.lc1 + (p.m2 + pl) * p.l1
        self._w2 = p.m2 * p.lc2 + pl * p.l2
        # payload-free controller model
        self._an = p.i1 + p.i2 + p.m1 * p.lc1 ** 2 + p.m2 * (p.l1 ** 2 + p.lc2 ** 2)
        self._bn = p.m2 * p.l1 * p.lc2
        self._dn = p.i2 + p.m2 * p.lc2 ** 2
        self._w1n = p.m1 * p.lc1 + p.m2 * p.l1
        self._w2n = p.m2 * p.lc2

    def torque(self, t: float, q: np.ndarray, qd: np.ndarray) -> np.ndarray:
        g = self.gains
        q_d = self.reference.position(t)
        qd_d = self.reference.velocity(t)
        qdd_d = self.reference.acceleration(t)
        e = q_d - q
        ed = qd_d - qd
        s = ed + g.lam * e
        qd_r = qd_d + g.lam * e
        qdd_r = qdd_d + g.lam * ed
        c2 = np.cos(q[..., 1]); s2 = np.sin(q[..., 1])
        M11 = self._an + 2.0 * self._bn * c2
        M12 = self._dn + self._bn * c2
        h = self._bn * s2
        tau1 = (M11 * qdd_r[..., 0] + M12 * qdd_r[..., 1]
                - h * qd[..., 1] * qd_r[..., 0]
                - h * (qd[..., 0] + qd[..., 1]) * qd_r[..., 1])
        tau2 = (M12 * qdd_r[..., 0] + self._dn * qdd_r[..., 1]
                + h * qd[..., 0] * qd_r[..., 0])
        gacc = self.params.gravity
        c1 = np.cos(q[..., 0]); c12 = np.cos(q[..., 0] + q[..., 1])
        tau1 = tau1 + gacc * (self._w1n * c1 + self._w2n * c12) + g.kd[0] * s[..., 0]
        tau2 = tau2 + gacc * self._w2n * c12 + g.kd[1] * s[..., 1]
        return np.stack([tau1, tau2], axis=-1)

    def _torque_jacobian(self, t: float, q: np.ndarray, qd: np.ndarray) -> np.ndarray:
        """d torque / d (q, qd, z) of the baseline law, shape (B, 2, 6)."""
        g = self.gains
        e = self.reference.position(t) - q
        ed = self.reference.velocity(t) - qd
        qd_r = self.reference.velocity(t) + g.lam * e
        qdd_r = self.reference.acceleration(t) + g.lam * ed
        c2 = np.cos(q[..., 1]); s2 = np.sin(q[..., 1])
        M11 = self._an + 2.0 * self._bn * c2
        M12 = self._dn + self._bn * c2
        h = self._bn * s2
        dh = self._bn * c2   # dh/dq2
        v1, v2 = qd[..., 0], qd[..., 1]
        gs12 = self.params.gravity * self._w2n * np.sin(q[..., 0] + q[..., 1])
        gs1 = self.params.gravity * self._w1n * np.sin(q[..., 0])
        (lam1, lam2), (kd1, kd2) = g.lam, g.kd
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
        T[..., 1, 3] = -self._dn * lam2 - kd2
        return T

    def _rhs(self, q, qd, z, tau):
        f_c, f_smax, v_s, sigma = (self.fric_arr[:, i] for i in range(4))
        c2 = np.cos(q[..., 1]); s2 = np.sin(q[..., 1])
        M11 = self._a + 2.0 * self._b * c2
        M12 = self._d + self._b * c2
        M22 = self._d
        h = self._b * s2
        env = f_c[:, None] + (f_smax - f_c)[:, None] * np.exp(
            -((qd / v_s[:, None]) ** 2))
        F = env * np.sign(qd) + sigma[:, None] * qd + z
        gacc = self.params.gravity
        c1 = np.cos(q[..., 0]); c12 = np.cos(q[..., 0] + q[..., 1])
        G1 = gacc * (self._w1 * c1 + self._w2 * c12)
        G2 = gacc * self._w2 * c12
        r1 = (tau[..., 0] + h * qd[..., 1] * qd[..., 0]
              + h * (qd[..., 0] + qd[..., 1]) * qd[..., 1] - G1 - F[..., 0])
        r2 = tau[..., 1] - h * qd[..., 0] * qd[..., 0] - G2 - F[..., 1]
        det = M11 * M22 - M12 * M12
        qdd1 = (M22 * r1 - M12 * r2) / det
        qdd2 = (-M12 * r1 + M11 * r2) / det
        zd = -z / self.fric.tau_z + self.fric.lambda_z * qd
        return qd, np.stack([qdd1, qdd2], axis=-1), zd

    def _rhs_jacobian(self, q, qd, qdd):
        """d _rhs / d (q, qd, z, tau), shape (B, 6, 8), where _rhs gave qdd.

        The derivative of sign(qd) is taken as 0: the Coulomb/Stribeck
        jump at qd = 0 contributes no sensitivity.
        """
        f_c, f_smax, v_s, sigma = (self.fric_arr[:, i, None] for i in range(4))
        c2 = np.cos(q[..., 1]); s2 = np.sin(q[..., 1])
        M11 = self._a + 2.0 * self._b * c2
        M12 = self._d + self._b * c2
        M22 = self._d
        h = self._b * s2
        dh = self._b * c2   # dh/dq2
        v1, v2 = qd[..., 0], qd[..., 1]
        u = qd / v_s
        dF = (f_smax - f_c) * np.exp(-u * u) * (-2.0 * u / v_s) * np.sign(qd) + sigma
        gs12 = self.params.gravity * self._w2 * np.sin(q[..., 0] + q[..., 1])
        gs1 = self.params.gravity * self._w1 * np.sin(q[..., 0])
        # d r / d (q1, q2, qd1, qd2), with the dM/dq2 qdd term folded in
        dr = np.empty(q.shape[:-1] + (2, 4))
        dr[..., 0, 0] = gs1 + gs12
        dr[..., 0, 1] = (dh * (2.0 * v1 * v2 + v2 * v2) + gs12
                         + h * (2.0 * qdd[..., 0] + qdd[..., 1]))
        dr[..., 0, 2] = 2.0 * h * v2 - dF[..., 0]
        dr[..., 0, 3] = 2.0 * h * (v1 + v2)
        dr[..., 1, 0] = gs12
        dr[..., 1, 1] = -dh * v1 * v1 + gs12 + h * qdd[..., 0]
        dr[..., 1, 2] = -2.0 * h * v1
        dr[..., 1, 3] = -dF[..., 1]
        det = M11 * M22 - M12 * M12
        Minv = np.empty(q.shape[:-1] + (2, 2))
        Minv[..., 0, 0] = M22 / det
        Minv[..., 0, 1] = Minv[..., 1, 0] = -M12 / det
        Minv[..., 1, 1] = M11 / det
        eye = np.eye(2)
        J = np.zeros(q.shape[:-1] + (6, 8))
        J[..., 0:2, 2:4] = eye
        J[..., 2:4, 0:4] = Minv @ dr
        J[..., 2:4, 4:6] = -Minv
        J[..., 2:4, 6:8] = Minv
        J[..., 4:6, 2:4] = self.fric.lambda_z * eye
        J[..., 4:6, 4:6] = -eye / self.fric.tau_z
        return J

    def step_jacobian(self, t: float, q, qd, z, dt: float) -> np.ndarray:
        """d step / d (q, qd, z) at one state, shape (B, 6, 6).

        The exact derivative of the RK4 map of `step`, including the
        torque's dependence on the state it is held from; d sign/d qd
        is taken as 0.
        """
        tau = self.torque(t, q, qd)
        T = self._torque_jacobian(t, q, qd)
        eye = np.eye(6)
        k, K, acc = (0.0, 0.0, 0.0), 0.0, 0.0   # previous stage slope, its Jacobian
        for c, w in ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            stage = (q + c * dt * k[0], qd + c * dt * k[1], z + c * dt * k[2])
            k = self._rhs(*stage, tau)
            Jf = self._rhs_jacobian(stage[0], stage[1], k[1])
            K = Jf[..., :6] @ (eye + c * dt * K) + Jf[..., 6:] @ T
            acc = acc + w * K
        return eye + dt / 6.0 * acc

    def step(self, t: float, q, qd, z, dt: float):
        """One zero-order-hold RK4 step of the whole batch."""
        tau = self.torque(t, q, qd)
        k1 = self._rhs(q, qd, z, tau)
        k2 = self._rhs(q + 0.5 * dt * k1[0], qd + 0.5 * dt * k1[1],
                       z + 0.5 * dt * k1[2], tau)
        k3 = self._rhs(q + 0.5 * dt * k2[0], qd + 0.5 * dt * k2[1],
                       z + 0.5 * dt * k2[2], tau)
        k4 = self._rhs(q + dt * k3[0], qd + dt * k3[1], z + dt * k3[2], tau)
        qn = q + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        qdn = qd + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        zn = z + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        return qn, qdn, zn

    def run(self, horizon: float, dt: float) -> BatchRollout:
        n = round(horizon / dt)
        B = self.batch
        q = self.q0.copy(); qd = np.zeros((B, 2)); z = np.zeros((B, 2))
        alive = np.ones(B, dtype=bool)
        out_t = np.arange(n + 1) * dt
        out = {k: np.empty((n + 1, B, 2)) for k in ("q", "qd", "z", "qr", "qdr")}
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n + 1):
                out["q"][k], out["qd"][k], out["z"][k] = q, qd, z
                out["qr"][k] = self.reference.position(k * dt)
                out["qdr"][k] = self.reference.velocity(k * dt)
                if k == n:
                    break
                qn, qdn, zn = self.step(k * dt, q, qd, z, dt)
                bad = ~(np.all(np.isfinite(qn), axis=-1)
                        & np.all(np.isfinite(qdn), axis=-1)
                        & np.all(np.isfinite(zn), axis=-1)
                        & (np.max(np.abs(qn), axis=-1) < BLOWUP_BOUND)
                        & (np.max(np.abs(qdn), axis=-1) < BLOWUP_BOUND)
                        & (np.max(np.abs(zn), axis=-1) < BLOWUP_BOUND))
                alive = alive & ~bad
                q = np.where(alive[:, None], qn, q)
                qd = np.where(alive[:, None], qdn, qd)
                z = np.where(alive[:, None], zn, z)
        return BatchRollout(t=out_t, q=out["q"], qd=out["qd"], z=out["z"],
                            q_ref=out["qr"], qd_ref=out["qdr"],
                            payload=self.payload, alive=alive, dt=dt)
