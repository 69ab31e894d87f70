"""Parameterised computed-torque control with affine feed-forward.

The torque law is the Slotine-Li form

    tau = M(q) qdd_r + C(q, qd) qd_r + G(q) + K_d s + Phi(q, qd) eta,
    qd_r = qd_d + Lam e,   qdd_r = qdd_d + Lam ed,

where s is the sliding surface carried in the extended state.  s is
built with a fixed nominal Lam (the baseline value), which keeps the
torque exactly jointly affine in (K_d, Lam, eta) at a frozen state --
the structure the admissibility half-space in memctrl.shield relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import (FrictionParams, PlantParams, PlantState, RefPoint,
                       arm_terms, inverse_dynamics)

DIM_ETA = 6
SIGN_SMOOTHING = 0.02  # rad/s, tanh width of the smoothed sign feature
PAYLOAD_NOISE_REL = 0.05  # relative sd of the 'noisy' payload estimate


@dataclass(frozen=True)
class ParamBox:
    """Compact box of admissible controller parameters."""

    kd_min: float = 0.0
    kd_max: float = 60.0
    lam_min: float = 0.0
    lam_max: float = 12.0
    eta_max: float = 2.0

    def validate(self) -> None:
        if not (self.kd_min < self.kd_max and self.lam_min < self.lam_max):
            raise ValueError("box bounds must satisfy lower < upper")
        if not self.eta_max > 0.0:
            raise ValueError("eta_max must be positive")

    @cached_property
    def lower_vector(self) -> np.ndarray:
        """Lower bounds of ControllerParams.as_vector(); read-only, built once."""
        return _read_only([self.kd_min] * 2 + [self.lam_min] * 2
                          + [-self.eta_max] * DIM_ETA)

    @cached_property
    def upper_vector(self) -> np.ndarray:
        """Upper bounds of ControllerParams.as_vector(); read-only, built once."""
        return _read_only([self.kd_max] * 2 + [self.lam_max] * 2
                          + [self.eta_max] * DIM_ETA)


def _read_only(values) -> np.ndarray:
    v = np.array(values, dtype=float)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ControllerParams:
    """The tuple (K_d, Lam, eta) acting as the meta-controller's action."""

    kd: np.ndarray    # (2,), diagonal damping gain
    lam: np.ndarray   # (2,), diagonal sliding-surface gain
    eta: np.ndarray   # (DIM_ETA,), feed-forward weights

    def __post_init__(self):
        object.__setattr__(self, "kd", np.asarray(self.kd, dtype=float))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))

    def as_vector(self) -> np.ndarray:
        """(K_d, Lam, eta) as one read-only vector, built once."""
        return self._vector

    @cached_property
    def _vector(self) -> np.ndarray:
        return _read_only(np.concatenate([self.kd, self.lam, self.eta]))

    @staticmethod
    def from_vector(v: np.ndarray) -> "ControllerParams":
        v = np.asarray(v, dtype=float)
        params = ControllerParams(kd=v[0:2], lam=v[2:4], eta=v[4:])
        # v already is the vector: keep a read-only view as as_vector's
        vec = v.view()
        vec.flags.writeable = False
        params.__dict__["_vector"] = vec
        return params


@dataclass(frozen=True)
class ExtendedState:
    """Tracking state (q, qd, e, ed, s) at one control instant.

    s = ed + Lam_nominal e with a fixed nominal gain, so it is a pure
    function of the kinematic state and the reference.
    """

    q: np.ndarray
    qd: np.ndarray
    e: np.ndarray
    ed: np.ndarray
    s: np.ndarray
    qd_ref: np.ndarray
    qdd_ref: np.ndarray

    @staticmethod
    def from_tracking(q, qd, ref_point: RefPoint,
                      lam_nominal: np.ndarray) -> "ExtendedState":
        e = ref_point.q - q
        ed = ref_point.qd - qd
        s = ed + np.asarray(lam_nominal, dtype=float) * e
        return ExtendedState(q=q, qd=qd, e=e, ed=ed, s=s,
                             qd_ref=np.asarray(ref_point.qd, dtype=float),
                             qdd_ref=np.asarray(ref_point.qdd, dtype=float))


def feature_matrix(q, qd, v_s: float) -> np.ndarray:
    """Stribeck regressor Phi, shape (..., 2, DIM_ETA), block per joint.

    Columns per joint: smoothed sign, raw velocity, and the Stribeck
    envelope times the smoothed sign -- so eta = (f_c, sigma,
    f_smax - f_c) per joint reproduces the velocity-dependent part of
    the true friction up to the sign smoothing.
    """
    qd = np.asarray(qd, dtype=float)
    ss = np.tanh(qd / SIGN_SMOOTHING)   # smoothed sign
    env = np.exp(-((qd / v_s) ** 2)) * ss
    Phi = np.zeros(qd.shape[:-1] + (2, DIM_ETA))
    for j in range(2):
        Phi[..., j, 3 * j + 0] = ss[..., j]
        Phi[..., j, 3 * j + 1] = qd[..., j]
        Phi[..., j, 3 * j + 2] = env[..., j]
    return Phi


def feedforward(Phi: np.ndarray, eta) -> np.ndarray:
    """Affine feed-forward torque Phi eta, Phi = feature_matrix(q, qd, v_s)."""
    return np.einsum("...ij,...j->...i", Phi, np.asarray(eta, dtype=float))


class ModelTerms(NamedTuple):
    """The model's terms at one frozen state: the arm terms
    (dynamics.arm_terms) at the model's payload and the Stribeck
    regressor Phi.  A shielded step evaluates them once; its certificate
    (shield.halfspace_coeffs) and its torque (computed_torque) read them.
    """

    arm: tuple
    Phi: np.ndarray

    @staticmethod
    def at(x: ExtendedState, params: PlantParams,
           fric: FrictionParams) -> "ModelTerms":
        return ModelTerms(arm_terms(x.q, params),
                          feature_matrix(x.q, x.qd, fric.v_s))


def computed_torque(x: ExtendedState, gains: ControllerParams, arm,
                    Phi: np.ndarray | None = None) -> np.ndarray:
    """Slotine-Li computed torque from the model's arm terms
    arm = dynamics.arm_terms(x.q, model) at the model's payload estimate.

    The K_d feedback acts on the sliding surface stored in x, so the
    output is affine in (kd, lam, eta) jointly for a frozen x.  Broadcasts
    over leading axes of x.  Phi, when given, is the Stribeck regressor
    at x (feature_matrix), and the torque gains the feed-forward
    Phi eta; without it the torque has no feed-forward.
    """
    qd_r = x.qd_ref + gains.lam * x.e
    qdd_r = x.qdd_ref + gains.lam * x.ed
    tau = inverse_dynamics(x.qd, qd_r, qdd_r, arm) + gains.kd * x.s
    return tau if Phi is None else tau + feedforward(Phi, gains.eta)


@dataclass
class ControlDecision:
    """What the controller hands the simulator for one control period."""

    tau: np.ndarray
    params: ControllerParams
    projection_distance: float = 0.0


class BaselineController:
    """Fixed-gain computed torque, optionally with a payload estimate mode.

    No feed-forward: the baseline's eta is 0.  gains are the baseline's,
    Config.baseline_gains().  payload_mode: 'nominal' ignores the payload
    (estimate 0), 'true' uses the plant's value, 'noisy' scales it by
    1 + PAYLOAD_NOISE_REL n, with n one standard normal draw from
    noise_seed (runner.evaluate_baseline passes the sweep's seed), and
    clips it to [0, payload_max]; 'noisy' draws one noise factor for all
    members of a batch.

    A plant whose payload is (B,), one value per member of a batch (the
    ensemble's, or evaluate's batched rollout), gets its gains widened
    to (B, 2) rows in joint-first (Fortran) memory, the order of the
    (B, 2) views of the packed state that the torque combines them with.
    Another shape or order makes numpy run short or strided inner loops,
    several times slower per operation at B = 512.
    """

    def __init__(self, params: PlantParams, gains: ControllerParams,
                 payload_mode: str = "nominal", noise_seed: int = 0):
        if np.ndim(params.payload) == 1:
            rows = (np.size(params.payload), 2)
            gains = replace(gains,
                            kd=np.asfortranarray(np.full(rows, gains.kd)),
                            lam=np.asfortranarray(np.full(rows, gains.lam)))
        self.gains = gains
        if payload_mode not in ("nominal", "true", "noisy"):
            raise ValueError(f"unknown payload_mode {payload_mode!r}")
        if payload_mode == "nominal":
            self.model = params.with_payload(0.0)
        elif payload_mode == "true":
            self.model = params
        else:
            rng = np.random.default_rng(noise_seed)
            p_hat = params.payload * (1.0 + PAYLOAD_NOISE_REL
                                      * rng.standard_normal())
            self.model = replace(params, payload=np.clip(p_hat, 0.0,
                                                         params.payload_max))

    def __call__(self, t: float, state: PlantState, ref_point: RefPoint) -> ControlDecision:
        x = ExtendedState.from_tracking(state.q, state.qd, ref_point,
                                        self.gains.lam)
        tau = computed_torque(x, self.gains, arm_terms(x.q, self.model))
        return ControlDecision(tau=tau, params=self.gains)

    def linearize(self, state: PlantState, ref_point: RefPoint
                  ) -> tuple[np.ndarray, np.ndarray]:
        """__call__'s torque at state and its derivative by (q, qd, z),
        shape (..., 2, 6), from one tracking state and one arm_terms
        evaluation; the z columns are 0."""
        g = self.gains
        x = ExtendedState.from_tracking(state.q, state.qd, ref_point, g.lam)
        q, qd = x.q, x.qd
        arm = arm_terms(q, self.model)
        tau = computed_torque(x, g, arm)
        _, _, b, _, gw1, gw2 = self.model.terms
        M11, M12, M22, h, _, _ = arm
        dh = b * np.cos(q[..., 1])   # dh/dq2
        qd_r = x.qd_ref + g.lam * x.e
        qdd_r = x.qdd_ref + g.lam * x.ed
        v1, v2 = qd[..., 0], qd[..., 1]
        gs12 = gw2 * np.sin(q[..., 0] + q[..., 1])
        gs1 = gw1 * np.sin(q[..., 0])
        # the gains are (2,) or (B, 2): the joint is the last axis
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
        return tau, T
