"""Two-link arm with Stribeck friction and an internal memory state.

The plant is the planar elbow manipulator

    M(q, p) qdd + C(q, qd) qd + G(q) + F(qd, z) = tau

with a payload point mass p at the end effector and per-joint friction

    F_j = [f_c + (f_smax - f_c) exp(-(qd_j/v_s)^2)] sign(qd_j)
          + sigma qd_j + z_j,
    zd_j = -z_j / tau_z + lambda_z qd_j.

The step path holds the state packed in one array x of shape (6,) or
(6, B), rows q1, q2, qd1, qd2, z1, z2: the plant reads joint rows x[j]
(numpy scalars, or contiguous (B,) rows) and RK4 combines its stages on
x whole.  PlantState's q, qd and z are (2,) or (B, 2) views of x, the
layout of the controllers, a Trajectory's records and the algebra
routines, which broadcast over leading axes.  Rollouts and ensembles
share the one reference evaluator BatchReference, the one reset rule
reset_state, the one integrator rk4_increment and the one blow-up
check in closed_loop, which records the selected steps and rows of x
time-major.  Each law's derivative sits beside it: arm_partials
differentiates arm_terms, _rhs_jacobian differentiates _derivatives,
and rk4_jacobian, the exact derivative of rk4_increment by the state
with the held torque's derivative passed in, chains it through the four
stages (the gradient sampler's step Jacobian).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

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

    @cached_property
    def terms(self):
        """Payload constants (a, 2b, b, d, g w1, g w2), computed once: M11 =
        a + 2b cos q2, M12 = d + b cos q2, M22 = d, C scales with b sin q2,
        G2 = g w2 cos(q1 + q2) and G1 = g w1 cos q1 + G2."""
        p = self.payload
        a = (self.i1 + self.i2 + self.m1 * self.lc1 ** 2
             + self.m2 * (self.l1 ** 2 + self.lc2 ** 2)
             + p * (self.l1 ** 2 + self.l2 ** 2))
        b = self.m2 * self.l1 * self.lc2 + p * self.l1 * self.l2
        d = self.i2 + self.m2 * self.lc2 ** 2 + p * self.l2 ** 2
        gw1 = (self.m1 * self.lc1 + (self.m2 + p) * self.l1) * self.gravity
        gw2 = (self.m2 * self.lc2 + p * self.l2) * self.gravity
        return a, 2.0 * b, b, d, gw1, gw2


@dataclass(frozen=True)
class FrictionParams:
    """Stribeck friction constants plus the memory-state dynamics.

    f_c, f_smax, v_s and sigma may hold per-member arrays shaped like
    the packed state's velocity rows: BaselineEnsembleSim stores them at
    (2, B), each member's value in both joint rows.
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
        if not 0.0 < self.tau_z < np.inf:
            raise ValueError(
                f"tau_z must be finite and positive, got {self.tau_z}")
        if not np.isfinite(self.lambda_z):
            raise ValueError(f"lambda_z must be finite, got {self.lambda_z}")

    def with_tau_z(self, tau_z: float) -> "FrictionParams":
        out = replace(self, tau_z=float(tau_z))
        out.validate()
        return out

    @cached_property
    def f_excess(self):
        """Static peak above the Coulomb level, f_smax - f_c; computed once."""
        return self.f_smax - self.f_c


@dataclass(frozen=True)
class ReferenceSpec:
    """Per-joint reference q_j(t) = amp_j sin(2 pi t / period_j + phase_j),
    held as the config file writes it; BatchReference evaluates it.
    """

    amp1: float = 0.5       # rad
    amp2: float = 0.3       # rad
    period1: float = 1.7    # s
    period2: float = 2.3    # s
    phase1: float = 0.0     # rad
    phase2: float = 0.0     # rad
    horizon: float = 5.0    # s

    def validate(self) -> None:
        for key in ("period1", "period2"):
            period = getattr(self, key)
            if not period > 0.0:
                raise ValueError(f"{key} must be positive, got {period}")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.common_period() <= self.horizon:
            raise ValueError(
                "joint periods share a common period inside the horizon")

    def common_period(self) -> float:
        """Smallest common multiple of the two periods (inf if none)."""
        t1, t2 = self.period1, self.period2
        # search small integer multiples; irrational ratios never match
        for k in range(1, 1000):
            m = k * t1 / t2
            if abs(m - round(m)) < 1e-9 * k:
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
    from rng; each w = 2 pi / period is formed here alone.  phase sets
    the shape: (2,) by default for a rollout, or (B, 2) for a batch.
    Every constant is held at that shape and in phase's memory order
    (the ensemble's is joint-first, as PlantState's views are), so no
    operation of `at` mixes shapes or orders.
    """

    def __init__(self, ref: ReferenceSpec, phase: np.ndarray | None = None,
                 slow: bool = False, rng: np.random.Generator | None = None):
        phase = np.zeros(2) if phase is None else phase
        self.amp = amp = np.full_like(phase, (ref.amp1, ref.amp2))
        self.omega = omega = np.full_like(
            phase, 2.0 * np.pi / np.array((ref.period1, ref.period2)))
        self.spec_phase = np.full_like(phase, (ref.phase1, ref.phase2))
        self.phase = phase
        self.amp_omega = amp * omega
        self.neg_amp_omega2 = -amp * omega * omega
        self.slow = slow
        if slow:
            if rng is None:
                raise ValueError("slow tones need an rng for their phases")
            self.slow_phase = np.full_like(
                phase, rng.uniform(0.0, 2.0 * np.pi, phase.shape))
            self.slow_omega = np.full_like(phase,
                                           2.0 * np.pi / np.array(SLOW_PERIODS))
            self.slow_amp = slow_amp = np.full_like(phase, SLOW_AMPLITUDE)
            self.slow_amp_omega = slow_amp * self.slow_omega
            self.slow_amp_omega2 = slow_amp * self.slow_omega ** 2

    def at(self, t) -> RefPoint:
        """Position, velocity and acceleration at time t: one sin, one cos.

        t may also be an array of times that broadcasts in front of the
        phase's shape, such as a column (T, 1) for a (2,) phase: each
        value then gains that leading axis, (T, 2), and row k equals
        at(t[k]) bit for bit (rollout's reference table).
        """
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


class PlantState:
    """Full Markov state of the simulated system, packed in one array.

    x is (6,), or (6, B) for B members, rows q1, q2, qd1, qd2, z1, z2;
    q, qd and z are (2,) or (B, 2) views of it.  PlantState(q=, qd=, z=)
    packs three such arrays; PlantState(x=x) wraps x without a copy.
    """

    __slots__ = ("x",)

    def __init__(self, q=None, qd=None, z=None, *, x=None):
        self.x = np.concatenate([q, qd, z], axis=-1).T.copy() if x is None else x

    q = property(lambda self: self.x[0:2].T)     # rad
    qd = property(lambda self: self.x[2:4].T)    # rad/s
    z = property(lambda self: self.x[4:6].T)     # N m, friction memory


BLOWUP_BOUND = 1.0e3


def _arm_terms(q1, q2, terms):
    """M11, M12, M22, the Coriolis scale h = b sin q2, G1 and G2 at joint
    angles q1, q2 (scalars or arrays); terms = PlantParams.terms."""
    a, b2, b, d, gw1, gw2 = terms
    c2 = np.cos(q2)
    G2 = gw2 * np.cos(q1 + q2)
    return (a + b2 * c2, d + b * c2, d, b * np.sin(q2),
            gw1 * np.cos(q1) + G2, G2)


def arm_terms(q, params: PlantParams):
    """The arm terms of _arm_terms at joint angles q (..., 2): one
    evaluation, which arm_matrices and inverse_dynamics read as arm."""
    q = np.asarray(q)
    return _arm_terms(q[..., 0], q[..., 1], params.terms)


def arm_partials(q, params: PlantParams):
    """The partials of arm_terms' h, G1 and G2 at joint angles q (..., 2):
    dh = dh/dq2 = b cos q2, gs1 = gw1 sin q1 and gs12 = gw2 sin(q1 + q2),
    so dG1/dq1 = -(gs1 + gs12) and dG1/dq2 = dG2/dq1 = dG2/dq2 = -gs12.
    The plant's and the baseline torque's Jacobians read them."""
    q = np.asarray(q)
    _, _, b, _, gw1, gw2 = params.terms
    q1, q2 = q[..., 0], q[..., 1]
    return b * np.cos(q2), gw1 * np.sin(q1), gw2 * np.sin(q1 + q2)


def arm_matrices(qd: np.ndarray, arm
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M(q), C(q, qd) and G(q) from arm = arm_terms(q, params).

    The one builder of the three matrices: mass_matrix, coriolis_matrix
    and gravity_vector return its entries, and the shield's certificate
    takes all three from one call on the arm terms its step evaluated.
    """
    qd = np.asarray(qd, dtype=float)
    M11, M12, M22, h, G1, G2 = arm
    shape = np.shape(M11)   # q's leading axes
    M = np.empty(shape + (2, 2))
    M[..., 0, 0] = M11
    M[..., 0, 1] = M[..., 1, 0] = M12
    M[..., 1, 1] = M22
    C = np.empty(shape + (2, 2))
    C[..., 0, 0] = -h * qd[..., 1]
    C[..., 0, 1] = -h * (qd[..., 0] + qd[..., 1])
    C[..., 1, 0] = h * qd[..., 0]
    C[..., 1, 1] = 0.0
    G = np.empty(shape + (2,))
    G[..., 0] = G1
    G[..., 1] = G2
    return M, C, G


def mass_matrix(q: np.ndarray, params: PlantParams) -> np.ndarray:
    """Symmetric positive-definite inertia matrix M(q, payload)."""
    return arm_matrices(np.zeros(np.shape(q)), arm_terms(q, params))[0]


def coriolis_matrix(q: np.ndarray, qd: np.ndarray, params: PlantParams) -> np.ndarray:
    """Christoffel-form C(q, qd); Mdot - 2C is skew along trajectories."""
    return arm_matrices(qd, arm_terms(q, params))[1]


def gravity_vector(q: np.ndarray, params: PlantParams) -> np.ndarray:
    """Gradient of potential energy wrt q; angles measured from horizontal."""
    return arm_matrices(np.zeros(np.shape(q)), arm_terms(q, params))[2]


def potential_energy(q: np.ndarray, params: PlantParams) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    gw1, gw2 = params.terms[4:]
    return gw1 * np.sin(q[..., 0]) + gw2 * np.sin(q[..., 0] + q[..., 1])


def total_energy(q, qd, params: PlantParams):
    qd = np.asarray(qd, dtype=float)
    M = mass_matrix(q, params)
    kinetic = 0.5 * np.einsum("...i,...ij,...j->...", qd, M, qd)
    return kinetic + potential_energy(q, params)


def stribeck_force(qd: np.ndarray, z: np.ndarray, fric: FrictionParams) -> np.ndarray:
    """Per-joint friction torque; sign(0) = 0 so the force is single-valued at rest.

    Complex-safe: the sign reads the real part, so a complex step sees
    d sign/d qd = 0.
    """
    env = fric.f_c + fric.f_excess * np.exp(-((qd / fric.v_s) ** 2))
    return env * np.sign(qd.real) + fric.sigma * qd + z


def memory_derivative(qd: np.ndarray, z: np.ndarray, fric: FrictionParams) -> np.ndarray:
    return fric.lambda_z * qd - z / fric.tau_z


def inverse_dynamics(qd, qd_r, qdd_r, arm) -> np.ndarray:
    """M(q) qdd_r + C(q, qd) qd_r + G(q), written out per entry, from
    arm = arm_terms(q, params), evaluated once by the caller: q enters
    only through arm.

    The torque is laid out joint-first (Fortran order), as PlantState's
    views are, so a batch's torque and its later terms share one order.
    """
    M11, M12, M22, h, G1, G2 = arm
    v1, v2 = qd[..., 0], qd[..., 1]
    tau1 = (M11 * qdd_r[..., 0] + M12 * qdd_r[..., 1]
            - h * v2 * qd_r[..., 0] - h * (v1 + v2) * qd_r[..., 1] + G1)
    # both entries broadcast to tau1's shape
    tau = np.empty(tau1.shape + (2,), dtype=tau1.dtype, order="F")
    tau[..., 0] = tau1
    tau[..., 1] = M12 * qdd_r[..., 0] + M22 * qdd_r[..., 1] + h * v1 * qd_r[..., 0] + G2
    return tau


def _derivatives(x, tau1, tau2, terms, fric: FrictionParams):
    """Packed (qd, qdd, zd) at x, qdd = M^-1 (tau - C qd - G - F)."""
    v1, v2 = x[2], x[3]
    M11, M12, M22, h, G1, G2 = _arm_terms(x[0], x[1], terms)
    F1, F2 = stribeck_force(x[2:4], x[4:6], fric)
    r1 = tau1 + h * v2 * v1 + h * (v1 + v2) * v2 - G1 - F1
    r2 = tau2 - h * v1 * v1 - G2 - F2
    det = M11 * M22 - M12 * M12
    qdd1 = (M22 * r1 - M12 * r2) / det
    k = np.empty(x.shape, dtype=qdd1.dtype)
    k[0:2] = x[2:4]
    k[2] = qdd1
    k[3] = (M11 * r2 - M12 * r1) / det
    k[4:6] = memory_derivative(x[2:4], x[4:6], fric)
    return k


def _rhs_jacobian(x, k, params: PlantParams, fric: FrictionParams):
    """d (qd, qdd, zd) / d (q, qd, z, tau) of _derivatives, shape
    (*members, 6, 8), at the packed stage x with derivative k.

    The derivative of sign(qd) is taken as 0: the Coulomb/Stribeck
    jump at qd = 0 contributes no sensitivity.
    """
    v1, v2 = x[2], x[3]
    M11, M12, M22, h, _, _ = _arm_terms(x[0], x[1], params.terms)
    dh, gs1, gs12 = arm_partials(x[0:2].T, params)
    u = x[2:4] / fric.v_s
    dF1, dF2 = (fric.f_excess * np.exp(-u * u) * (-2.0 * u / fric.v_s)
                * np.sign(x[2:4]) + fric.sigma)
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


def rk4_increment(x, tau, dt: float, params: PlantParams, fric: FrictionParams):
    """One classical RK4 step of the packed state x, with the joint-first
    torque tau of shape (2, *members) held; stages combine on x whole."""
    tau1, tau2 = tau
    terms = params.terms
    half = 0.5 * dt
    k1 = _derivatives(x, tau1, tau2, terms, fric)
    k2 = _derivatives(x + half * k1, tau1, tau2, terms, fric)
    k3 = _derivatives(x + half * k2, tau1, tau2, terms, fric)
    k4 = _derivatives(x + dt * k3, tau1, tau2, terms, fric)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_jacobian(x, tau, dtau_dx, dt: float, params: PlantParams,
                 fric: FrictionParams):
    """d rk4_increment / d x at the packed state x, shape (*members, 6, 6).

    tau is rk4_increment's held joint-first torque and dtau_dx, shape
    (*members, 2, 6), its derivative by the state it is held from; the
    chain rule runs through the four stages x + c dt k with
    _rhs_jacobian, so d sign/d qd is taken as 0.
    """
    tau1, tau2 = tau
    terms = params.terms
    eye = np.eye(6)
    k, K, acc = 0.0, 0.0, 0.0   # previous stage slope, its Jacobian
    for c, w in ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        stage = x + c * dt * k
        k = _derivatives(stage, tau1, tau2, terms, fric)
        Jf = _rhs_jacobian(stage, k, params, fric)
        K = Jf[..., :6] @ (eye + c * dt * K) + Jf[..., 6:] @ dtau_dx
        acc = acc + w * K
    return eye + dt / 6.0 * acc


def within_bound(x) -> np.ndarray:
    """Per member of x: every entry finite and below BLOWUP_BOUND in size."""
    return np.abs(x).max(axis=0) < BLOWUP_BOUND


def step_rk4(state: PlantState, torque: np.ndarray, dt: float,
             params: PlantParams, fric: FrictionParams) -> PlantState:
    """Advance the full state by one zero-order-hold RK4 step.

    torque has the shape of state.q.  The step does not check the
    blow-up bound: closed_loop does, once per step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return PlantState(x=rk4_increment(state.x, np.asarray(torque, dtype=float).T,
                                      dt, params, fric))


def closed_loop(x: np.ndarray, n: int, step, keep=np.s_[:, :]):
    """Record the states x_0 .. x_n of n steps of step(k, x) -> next
    packed state, as selected by keep.

    keep indexes the record's first two axes, the step number and the
    packed row: np.s_[a:b] keeps the states of steps a .. b - 1 with
    every row, np.s_[:, rows] every state's rows.  Its steps are one
    contiguous run, a slice of unit stride.  The one divergence check of
    the simulator: a member whose next state fails within_bound is held
    at its last state from then on.  The loop stops when no member is
    left, and the kept states after the stop repeat the held states.
    Returns the time-major (n_kept, n_rows, *members) record, one copy
    of x[rows] per kept step (the default keeps every state's whole
    packed state), and each member's count of states up to its
    divergence (n + 1 if it never left).
    """
    steps, rows = (*np.index_exp[keep], slice(None))[:2]
    kept = range(n + 1)[steps]
    if kept.step != 1:
        raise ValueError("keep's steps must be one slice of unit stride")
    members = x.shape[1:]   # () for a single state
    record = np.empty((len(kept), *x[rows].shape))
    alive = np.ones(members, dtype=bool)
    n_states = np.full(members, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            if k in kept:
                record[k - kept.start] = x[rows]
            new = step(k, x)
            ok = alive & within_bound(new)
            if not ok.all():
                n_states[alive & ~ok] = k + 1
                alive = ok
                if not alive.any():
                    break
                new = np.where(alive, new, x)
            x = new
        else:
            k = n
    record[max(k - kept.start, 0):] = x[rows]
    return record, n_states


@dataclass(frozen=True)
class Trajectory:
    """Record of one rollout on the control grid (its step is t[1] - t[0]);
    immutable after creation.  The seed that reset it is the caller's:
    rollout returns a batch's records in the order of its seeds."""

    t: np.ndarray            # (n+1,)
    q: np.ndarray            # (n+1, 2)
    qd: np.ndarray           # (n+1, 2)
    z: np.ndarray            # (n+1, 2)
    q_ref: np.ndarray        # (n+1, 2)
    qd_ref: np.ndarray       # (n+1, 2)
    tau: np.ndarray          # (n, 2), torque applied over [t_k, t_k+1)
    projection_distance: np.ndarray  # (n,)
    diverged: bool = False

    @property
    def n_steps(self) -> int:
        return self.tau.shape[0]

    def rmse(self) -> float:
        """Root mean square of the per-step joint error norm."""
        e = self.q_ref - self.q
        return float(np.sqrt(np.mean(np.sum(e * e, axis=-1))))

    def write_csv(self, path) -> None:
        """All rows in one np.savetxt: t to 6 decimals, the rest to 9
        significant digits, CRLF line ends (the csv module's dialect)."""
        n = self.n_steps
        # the last row repeats the last torque; a record with no steps
        # has none to repeat
        last = self.tau[-1:] if n else np.full((1, 2), np.nan)
        rows = np.column_stack([self.t, self.q, self.qd, self.z, self.qd_ref,
                                np.concatenate([self.tau, last])])
        with open(path, "w", newline="") as fh:
            np.savetxt(fh, rows, fmt=["%.6f"] + ["%.9g"] * 10, delimiter=",",
                       newline="\r\n", comments="",
                       header="t,q1,q2,qd1,qd2,z1,z2,qd1_ref,qd2_ref,tau1,tau2")


RESET_Q_JITTER = 0.1   # rad, uniform half-width of the reset around q_d(0)


def reset_state(reference: BatchReference, rng: np.random.Generator
                ) -> np.ndarray:
    """Packed start state at rest: q = reference.at(0).q + U(+-RESET_Q_JITTER).

    The one reset rule of rollout (one call per seed) and the ensemble
    (one call per batch).  The state is (6,) for a (2,)-phase reference
    and (6, B) for a (B, 2) one, with one jitter draw per joint and
    member; RESET_Q_JITTER is read at each call.
    """
    q0 = reference.at(0.0).q
    x = np.zeros((6, *q0.shape[:-1]))
    x[0:2] = (q0 + rng.uniform(-RESET_Q_JITTER, RESET_Q_JITTER, q0.shape)).T
    return x


def rollout(controller, ref: ReferenceSpec, params: PlantParams,
            fric: FrictionParams, seed, dt: float
            ) -> Trajectory | list[Trajectory]:
    """Run the closed loop for ref.horizon/dt steps from a seeded reset.

    controller is any callable (t, state, ref_point) -> ControlDecision
    (see memctrl.controller).  Deterministic for a fixed seed: the start
    state is reset_state's draw from np.random.default_rng(seed).  The
    reference is evaluated once, by one BatchReference call over all
    n + 1 times: step k hands the controller row k of that table, and
    the record's q_ref and qd_ref are its rows.  closed_loop checks the
    blow-up bound.  On divergence the record is truncated and flagged
    rather than raised: it keeps the states up to the last one within
    bound and the torques applied between them.

    seed may also be a sequence of B seeds: the members, each reset
    from its own seed, advance together as a (6, B) packed state, with
    per-member arrays allowed in params and fric and one controller
    call per step.  One Trajectory per member is returned, in the order
    of the seeds, each cut at that member's own divergence step as the
    record of an int seed is.
    """
    n = round(ref.horizon / dt)
    if abs(n * dt - ref.horizon) > 1e-9:
        raise ValueError("horizon must be an integral number of steps")
    reference = BatchReference(ref)
    batched = not isinstance(seed, (int, np.integer))
    seeds = list(seed) if batched else [seed]
    starts = [reset_state(reference, np.random.default_rng(s)) for s in seeds]
    x0 = np.stack(starts, axis=-1) if batched else starts[0]
    members = x0.shape[1:]   # () for an int seed

    t = np.arange(n + 1) * dt
    table = reference.at(t[:, None])   # (n + 1, 2) values, row k at t[k]
    points = [RefPoint(*row) for row in zip(table.q, table.qd, table.qdd)]
    tau = np.zeros((n, *members, 2))
    pdist = np.zeros((n, *members))

    def step(k, x):
        state = PlantState(x=x)
        dec = controller(t[k], state, points[k])
        tau[k] = dec.tau
        pdist[k] = dec.projection_distance
        return step_rk4(state, dec.tau, dt, params, fric).x

    record, n_states = closed_loop(x0, n, step)
    # (n + 1, *members, 2) views of the record
    q, qd, z = (np.moveaxis(record[:, r], 1, -1)
                for r in (slice(0, 2), slice(2, 4), slice(4, 6)))

    trajs = []
    for i in np.ndindex(members):
        cut = int(n_states[i])
        xs, us = (slice(0, cut), *i), (slice(0, cut - 1), *i)
        trajs.append(Trajectory(
            t=t[:cut], q=q[xs], qd=qd[xs], z=z[xs], q_ref=table.q[:cut],
            qd_ref=table.qd[:cut], tau=tau[us], projection_distance=pdist[us],
            diverged=cut <= n))
    return trajs if batched else trajs[0]
