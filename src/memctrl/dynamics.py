"""Two-link arm with Stribeck friction and an internal memory state.

The plant is the planar elbow manipulator

    M(q, p) qdd + C(q, qd) qd + G(q) + F(qd, z) = tau

with a payload point mass p at the end effector and per-joint friction

    F_j = [f_c + (f_smax - f_c) exp(-(qd_j/v_s)^2)] sign(qd_j)
          + sigma qd_j + z_j,
    zd_j = -z_j / tau_z + lambda_z qd_j.

All algebra routines broadcast over leading axes: q of shape (..., 2)
gives M of shape (..., 2, 2), so the same code drives single rollouts
and batched ensembles.  Both loops share one step path: BatchReference
is the one evaluator of the reference, and closed_loop is the one place
that checks the blow-up bound.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class PlantParams:
    """Link and payload constants of the two-link arm.

    `payload` may hold a (B,) array, one value per member of an
    ensemble or a batched rollout; the plant algebra below broadcasts
    it over the batch.

    Defaults are sized so that the fixed-gain baseline (K_d = 30) is
    comfortably inside the RK4 stability region at dt = 10 ms: the
    worst-case closed-loop rate max_q eig(M^-1 K_d) * dt is ~1.3
    against the explicit-RK4 limit of ~2.8.  Lighter textbook links
    (1 kg, 0.5 m) put that product near 18 and blow up in one step.
    """

    m1: float = 3.5      # kg
    m2: float = 3.5      # kg
    l1: float = 1.0      # m
    l2: float = 1.0      # m
    lc1: float = 0.5     # m, centre of mass offset
    lc2: float = 0.5     # m
    i1: float = 3.5 / 12.0   # kg m^2, rod about its COM
    i2: float = 3.5 / 12.0   # kg m^2
    gravity: float = 9.81    # m/s^2
    payload: float = 0.0     # kg, point mass at the end effector
    payload_max: float = 1.5  # kg

    def validate(self) -> None:
        for name in ("m1", "m2", "l1", "l2", "lc1", "lc2", "i1", "i2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 <= self.payload <= self.payload_max:
            raise ValueError(
                f"payload {self.payload} outside [0, {self.payload_max}] kg")

    def with_payload(self, payload: float) -> "PlantParams":
        return replace(self, payload=float(payload))


@dataclass(frozen=True)
class FrictionParams:
    """Stribeck friction constants plus the memory-state dynamics.

    f_c, f_smax, v_s and sigma may hold per-member arrays, one row per
    ensemble member.  BaselineEnsembleSim stores them at (B, 2), each
    member's value repeated for both joints, so the friction law runs on
    operands of the velocities' own shape; (B, 1) arrays still broadcast
    against (B, 2) velocities and give the same values.
    """

    f_c: float = 2.0        # N m, Coulomb level
    f_smax: float = 3.5     # N m, static peak
    v_s: float = 0.15       # rad/s, Stribeck velocity
    sigma: float = 1.0      # N m s/rad, viscous coefficient
    lambda_z: float = 4.0   # N m/rad, memory drive gain
    tau_z: float = 1.0      # s, memory horizon

    def validate(self) -> None:
        if not (self.f_smax >= self.f_c >= 0.0):
            raise ValueError("need f_smax >= f_c >= 0")
        if not self.v_s > 0.0:
            raise ValueError("v_s must be positive")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be non-negative")
        if not self.tau_z > 0.0:
            raise ValueError(f"tau_z must be positive, got {self.tau_z}")
        if not np.isfinite(self.lambda_z):
            raise ValueError(f"lambda_z must be finite, got {self.lambda_z}")

    def with_tau_z(self, tau_z: float) -> "FrictionParams":
        out = replace(self, tau_z=float(tau_z))
        out.validate()
        return out


@dataclass(frozen=True)
class ReferenceSpec:
    """Per-joint sinusoidal reference q_d(t) = A sin(w t + phase).

    The data only; BatchReference evaluates it.
    """

    amplitude: tuple[float, float] = (0.5, 0.3)     # rad
    omega: tuple[float, float] = (2.0 * np.pi / 1.7, 2.0 * np.pi / 2.3)
    phase: tuple[float, float] = (0.0, 0.0)         # rad
    horizon: float = 5.0                            # s

    def validate(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if not min(self.omega) > 0.0:
            raise ValueError("omega must be positive")
        if self.common_period() <= self.horizon:
            raise ValueError(
                "joint periods share a common period inside the horizon")

    def common_period(self, tol: float = 1e-9) -> float:
        """Smallest common multiple of the two periods (inf if none)."""
        t1, t2 = 2.0 * np.pi / self.omega[0], 2.0 * np.pi / self.omega[1]
        # search small integer multiples; irrational ratios never match
        for k in range(1, 1000):
            m = k * t1 / t2
            if abs(m - round(m)) < tol * k:
                return k * t1
        return np.inf


@dataclass
class RefPoint:
    """Reference sample handed to the controller at one control step."""

    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray


# slow excitation tones of BatchReference (TaskDistribution.slow_reference)
SLOW_PERIODS = (7.0, 9.5)       # s
SLOW_AMPLITUDE = (0.25, 0.15)   # rad


class BatchReference:
    """The one evaluator of a ReferenceSpec, with optional slow tones.

    q_d(t) = A sin(w t + spec phase + phase) per joint, plus, when slow,
    two tones of SLOW_PERIODS and SLOW_AMPLITUDE at random phases drawn
    from rng.  phase sets the shape: (2,) by default for a rollout, or
    (B, 2) for a batch.  Every constant is held at that shape, the
    state's, so no operation of `at` broadcasts a batch against a
    per-joint pair.
    """

    def __init__(self, ref: ReferenceSpec, phase: np.ndarray | None = None,
                 slow: bool = False, rng: np.random.Generator | None = None):
        phase = np.zeros(2) if phase is None else phase
        shape = phase.shape
        self.amp = amp = np.full(shape, ref.amplitude)
        self.omega = omega = np.full(shape, ref.omega)
        self.spec_phase = np.full(shape, ref.phase)
        self.phase = phase
        self.amp_omega = amp * omega
        self.neg_amp_omega2 = -amp * omega * omega
        self.slow = slow
        if slow:
            if rng is None:
                raise ValueError("slow tones need an rng for their phases")
            self.slow_phase = rng.uniform(0.0, 2.0 * np.pi, shape)
            self.slow_omega = np.full(shape, 2.0 * np.pi / np.array(SLOW_PERIODS))
            self.slow_amp = slow_amp = np.full(shape, SLOW_AMPLITUDE)
            self.slow_amp_omega = slow_amp * self.slow_omega
            self.slow_amp_omega2 = slow_amp * self.slow_omega ** 2

    def at(self, t: float) -> RefPoint:
        """Position, velocity and acceleration at time t: one sin, one cos."""
        th = self.omega * t + self.spec_phase + self.phase
        sin = np.sin(th)
        q = self.amp * sin
        qd = self.amp_omega * np.cos(th)
        qdd = self.neg_amp_omega2 * sin
        if self.slow:
            th = self.slow_omega * t + self.slow_phase
            sin = np.sin(th)
            q += self.slow_amp * sin
            qd += self.slow_amp_omega * np.cos(th)
            qdd -= self.slow_amp_omega2 * sin
        return RefPoint(q=q, qd=qd, qdd=qdd)


@dataclass
class PlantState:
    """Full Markov state of the simulated system.

    The arrays have shape (2,), or (B, 2) for a batch of B members.
    """

    q: np.ndarray        # rad
    qd: np.ndarray       # rad/s
    z: np.ndarray        # N m, friction memory


BLOWUP_BOUND = 1.0e3


def _payload_terms(params: PlantParams):
    """Payload-dependent constants (a, b, d, g w1, g w2) of M, C and G.

    M = [[a + 2b cos q2, d + b cos q2], [d + b cos q2, d]], C scales with
    b sin q2, and G = (g w1 cos q1 + g w2 cos(q1 + q2), g w2 cos(q1 + q2)).
    """
    p = params.payload
    a = (params.i1 + params.i2 + params.m1 * params.lc1 ** 2
         + params.m2 * (params.l1 ** 2 + params.lc2 ** 2)
         + p * (params.l1 ** 2 + params.l2 ** 2))
    b = params.m2 * params.l1 * params.lc2 + p * params.l1 * params.l2
    d = params.i2 + params.m2 * params.lc2 ** 2 + p * params.l2 ** 2
    gw1 = (params.m1 * params.lc1 + (params.m2 + p) * params.l1) * params.gravity
    gw2 = (params.m2 * params.lc2 + p * params.l2) * params.gravity
    return a, b, d, gw1, gw2


def _arm_terms(q, terms):
    """Per-entry M11, M12, M22, the Coriolis scale h = b sin q2, G1 and G2."""
    a, b, d, gw1, gw2 = terms
    c2 = np.cos(q[..., 1])
    G2 = gw2 * np.cos(q[..., 0] + q[..., 1])
    return (a + 2.0 * b * c2, d + b * c2, d, b * np.sin(q[..., 1]),
            gw1 * np.cos(q[..., 0]) + G2, G2)


def mass_matrix(q: np.ndarray, params: PlantParams) -> np.ndarray:
    """Symmetric positive-definite inertia matrix M(q, payload)."""
    q = np.asarray(q, dtype=float)
    M11, M12, M22, _, _, _ = _arm_terms(q, _payload_terms(params))
    M = np.empty(q.shape[:-1] + (2, 2))
    M[..., 0, 0] = M11
    M[..., 0, 1] = M[..., 1, 0] = M12
    M[..., 1, 1] = M22
    return M


def coriolis_matrix(q: np.ndarray, qd: np.ndarray, params: PlantParams) -> np.ndarray:
    """Christoffel-form C(q, qd); Mdot - 2C is skew along trajectories."""
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    h = _arm_terms(q, _payload_terms(params))[3]
    C = np.empty(q.shape[:-1] + (2, 2))
    C[..., 0, 0] = -h * qd[..., 1]
    C[..., 0, 1] = -h * (qd[..., 0] + qd[..., 1])
    C[..., 1, 0] = h * qd[..., 0]
    C[..., 1, 1] = 0.0
    return C


def gravity_vector(q: np.ndarray, params: PlantParams) -> np.ndarray:
    """Gradient of potential energy wrt q; angles measured from horizontal."""
    q = np.asarray(q, dtype=float)
    return np.stack(_arm_terms(q, _payload_terms(params))[4:], axis=-1)


def potential_energy(q: np.ndarray, params: PlantParams) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    _, _, _, gw1, gw2 = _payload_terms(params)
    return gw1 * np.sin(q[..., 0]) + gw2 * np.sin(q[..., 0] + q[..., 1])


def kinetic_energy(q: np.ndarray, qd: np.ndarray, params: PlantParams) -> np.ndarray:
    qd = np.asarray(qd, dtype=float)
    M = mass_matrix(q, params)
    return 0.5 * np.einsum("...i,...ij,...j->...", qd, M, qd)


def total_energy(q, qd, params: PlantParams):
    return kinetic_energy(q, qd, params) + potential_energy(q, params)


def stribeck_force(qd: np.ndarray, z: np.ndarray, fric: FrictionParams) -> np.ndarray:
    """Per-joint friction torque; sign(0) = 0 so the force is single-valued at rest.

    Complex-safe: the sign reads the real part, so a complex step sees
    d sign/d qd = 0.
    """
    env = fric.f_c + (fric.f_smax - fric.f_c) * np.exp(-((qd / fric.v_s) ** 2))
    return env * np.sign(np.real(qd)) + fric.sigma * qd + z


def memory_derivative(qd: np.ndarray, z: np.ndarray, fric: FrictionParams) -> np.ndarray:
    return -z / fric.tau_z + fric.lambda_z * qd


def inverse_dynamics(q, qd, qd_r, qdd_r, params: PlantParams) -> np.ndarray:
    """M(q) qdd_r + C(q, qd) qd_r + G(q), written out per entry."""
    M11, M12, M22, h, G1, G2 = _arm_terms(q, _payload_terms(params))
    v1, v2 = qd[..., 0], qd[..., 1]
    tau1 = (M11 * qdd_r[..., 0] + M12 * qdd_r[..., 1]
            - h * v2 * qd_r[..., 0] - h * (v1 + v2) * qd_r[..., 1] + G1)
    # both entries broadcast to tau1's shape
    tau = np.empty(np.shape(tau1) + (2,), dtype=tau1.dtype)
    tau[..., 0] = tau1
    tau[..., 1] = M12 * qdd_r[..., 0] + M22 * qdd_r[..., 1] + h * v1 * qd_r[..., 0] + G2
    return tau


def _derivatives(q, qd, z, tau, terms, fric: FrictionParams):
    """(qd, qdd, zd) with qdd = M^-1 (tau - C qd - G - F); terms = _payload_terms."""
    M11, M12, M22, h, G1, G2 = _arm_terms(q, terms)
    F = stribeck_force(qd, z, fric)
    v1, v2 = qd[..., 0], qd[..., 1]
    r1 = tau[..., 0] + h * v2 * v1 + h * (v1 + v2) * v2 - G1 - F[..., 0]
    r2 = tau[..., 1] - h * v1 * v1 - G2 - F[..., 1]
    det = M11 * M22 - M12 * M12
    qdd1 = (M22 * r1 - M12 * r2) / det
    qdd = np.empty(np.shape(qdd1) + (2,), dtype=qdd1.dtype)
    qdd[..., 0] = qdd1
    qdd[..., 1] = (-M12 * r1 + M11 * r2) / det
    return qd, qdd, memory_derivative(qd, z, fric)


def rk4_increment(q, qd, z, tau, dt: float, params: PlantParams, fric: FrictionParams):
    """One classical RK4 step of the coupled (q, qd, z) system, torque held.

    Broadcasts over leading axes, including per-member params and fric.
    """
    terms = _payload_terms(params)   # once per step, not per stage
    k1 = _derivatives(q, qd, z, tau, terms, fric)
    k2 = _derivatives(q + 0.5 * dt * k1[0], qd + 0.5 * dt * k1[1],
                      z + 0.5 * dt * k1[2], tau, terms, fric)
    k3 = _derivatives(q + 0.5 * dt * k2[0], qd + 0.5 * dt * k2[1],
                      z + 0.5 * dt * k2[2], tau, terms, fric)
    k4 = _derivatives(q + dt * k3[0], qd + dt * k3[1], z + dt * k3[2],
                      tau, terms, fric)
    qn = q + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    qdn = qd + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    zn = z + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return qn, qdn, zn


def within_bound(q, qd, z) -> np.ndarray:
    """Per member: every entry finite and of magnitude below BLOWUP_BOUND."""
    return np.all((np.abs(q) < BLOWUP_BOUND) & (np.abs(qd) < BLOWUP_BOUND)
                  & (np.abs(z) < BLOWUP_BOUND), axis=-1)


def step_rk4(state: PlantState, torque: np.ndarray, dt: float,
             params: PlantParams, fric: FrictionParams) -> PlantState:
    """Advance the full state by one zero-order-hold RK4 step.

    Broadcasts over a leading member axis of the state.  The step does
    not check the blow-up bound: closed_loop does, once per step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return PlantState(*rk4_increment(state.q, state.qd, state.z,
                                     np.asarray(torque, dtype=float), dt,
                                     params, fric))


def closed_loop(state: PlantState, n: int, step):
    """Record q, qd, z over n steps of step(k, state) -> PlantState.

    The one divergence check of the simulator: a member whose next state
    fails within_bound is held at its last state from then on.  The
    loop stops when no member is left, and the rows after the stop
    repeat the held states.  Returns the (n + 1, *members, 2) records of
    q, qd and z and each member's count of recorded states up to its
    divergence (n + 1 if it never left).
    """
    members = state.q.shape[:-1]   # () for a single state
    q, qd, z = (np.empty((n + 1, *members, 2)) for _ in range(3))
    alive = np.ones(members, dtype=bool)
    n_states = np.full(members, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            q[k], qd[k], z[k] = state.q, state.qd, state.z
            new = step(k, state)
            ok = alive & within_bound(new.q, new.qd, new.z)
            if not ok.all():
                n_states[alive & ~ok] = k + 1
                alive = ok
                if not alive.any():
                    break
                keep = alive[..., None]
                new = PlantState(q=np.where(keep, new.q, state.q),
                                 qd=np.where(keep, new.qd, state.qd),
                                 z=np.where(keep, new.z, state.z))
            state = new
        else:
            k = n
    q[k:], qd[k:], z[k:] = state.q, state.qd, state.z
    return q, qd, z, n_states


@dataclass(frozen=True)
class Trajectory:
    """Record of one rollout on the control grid; immutable after creation."""

    t: np.ndarray            # (n+1,)
    q: np.ndarray            # (n+1, 2)
    qd: np.ndarray           # (n+1, 2)
    z: np.ndarray            # (n+1, 2)
    q_ref: np.ndarray        # (n+1, 2)
    qd_ref: np.ndarray       # (n+1, 2)
    tau: np.ndarray          # (n, 2), torque applied over [t_k, t_k+1)
    shield_altered: np.ndarray      # (n,) bool
    projection_distance: np.ndarray  # (n,)
    diverged: bool = False
    seed: int | None = None
    dt: float = 0.01

    @property
    def n_steps(self) -> int:
        return self.tau.shape[0]

    def tracking_error(self) -> np.ndarray:
        return self.q_ref - self.q

    def rmse(self) -> float:
        """Root mean square of the per-step joint error norm."""
        e = self.tracking_error()
        return float(np.sqrt(np.mean(np.sum(e * e, axis=-1))))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "q1", "q2", "qd1", "qd2", "z1", "z2",
                        "qd1_ref", "qd2_ref", "tau1", "tau2"])
            n = self.n_steps
            # the last row repeats the last torque; a record with no
            # steps has none to repeat
            last = self.tau[-1] if n else np.full(2, np.nan)
            for k in range(n + 1):
                tau = self.tau[k] if k < n else last
                w.writerow([f"{self.t[k]:.6f}",
                            *(f"{v:.9g}" for v in self.q[k]),
                            *(f"{v:.9g}" for v in self.qd[k]),
                            *(f"{v:.9g}" for v in self.z[k]),
                            *(f"{v:.9g}" for v in self.qd_ref[k]),
                            *(f"{v:.9g}" for v in tau)])


@dataclass(frozen=True)
class ResetSpec:
    """Reset distribution: q near the reference start, arm at rest."""

    q_jitter: float = 0.1    # rad, uniform half-width around q_d(0)

    def sample(self, reference: BatchReference,
               rng: np.random.Generator) -> PlantState:
        q0 = reference.at(0.0).q + rng.uniform(
            -self.q_jitter, self.q_jitter, 2)
        return PlantState(q=q0, qd=np.zeros(2), z=np.zeros(2))


def rollout(controller, ref: ReferenceSpec, params: PlantParams,
            fric: FrictionParams, seed, dt: float = 0.01,
            horizon: float | None = None, reset: ResetSpec | None = None
            ) -> Trajectory | list[Trajectory]:
    """Run the closed loop for horizon/dt steps with a seeded reset.

    controller is any callable (t, state, ref_point) -> ControlDecision
    (see memctrl.controller).  Deterministic for a fixed seed.  Each
    step evaluates the reference once, through one BatchReference, and
    closed_loop checks the blow-up bound.  On divergence the record is
    truncated and flagged rather than raised: it keeps the states up to
    the last one within bound and the torques applied between them.

    seed may also be a sequence of B seeds.  The B members, each reset
    from its own seed, then advance together: the state carries a
    leading member axis, params and fric may hold per-member arrays,
    and the controller is called once per step for the whole batch.
    closed_loop holds a member that leaves within_bound.  The call then
    returns one Trajectory per member, each cut at that member's own
    divergence step exactly as the record of an int seed is.
    """
    horizon = ref.horizon if horizon is None else horizon
    n = round(horizon / dt)
    if abs(n * dt - horizon) > 1e-9:
        raise ValueError("horizon must be an integral number of steps")
    reset = reset or ResetSpec()
    reference = BatchReference(ref)
    batched = not isinstance(seed, (int, np.integer))
    seeds = list(seed) if batched else [seed]
    starts = [reset.sample(reference, np.random.default_rng(s)) for s in seeds]
    if batched:
        state = PlantState(q=np.stack([s.q for s in starts]),
                           qd=np.stack([s.qd for s in starts]),
                           z=np.stack([s.z for s in starts]))
    else:
        state = starts[0]
    members = state.q.shape[:-1]   # () for an int seed

    t = np.arange(n + 1) * dt
    q_r = np.empty((n + 1, 2)); qd_r = np.empty((n + 1, 2))
    tau = np.zeros((n, *members, 2))
    altered = np.zeros((n, *members), dtype=bool)
    pdist = np.zeros((n, *members))

    def step(k, state):
        ref_point = reference.at(t[k])
        q_r[k], qd_r[k] = ref_point.q, ref_point.qd
        dec = controller(t[k], state, ref_point)
        tau[k] = dec.tau
        altered[k] = dec.shield_altered
        pdist[k] = dec.projection_distance
        return step_rk4(state, dec.tau, dt, params, fric)

    q, qd, z, n_states = closed_loop(state, n, step)
    end = reference.at(t[n])
    q_r[n], qd_r[n] = end.q, end.qd

    trajs = []
    for i, s in zip(np.ndindex(members), seeds):
        cut = int(n_states[i])
        xs, us = (slice(0, cut), *i), (slice(0, cut - 1), *i)
        trajs.append(Trajectory(
            t=t[:cut], q=q[xs], qd=qd[xs], z=z[xs], q_ref=q_r[:cut],
            qd_ref=qd_r[:cut], tau=tau[us], shield_altered=altered[us],
            projection_distance=pdist[us], diverged=cut <= n, seed=s, dt=dt))
    return trajs if batched else trajs[0]
