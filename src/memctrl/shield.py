"""Lyapunov-certified admissibility of controller parameters.

At a frozen extended state the decrease condition Vdot + alpha V <= 0
is a single affine inequality in (K_d, Lam, eta), because the torque
law is jointly affine there (see memctrl.controller).  The admissible
set is therefore box-intersect-half-space, and the runtime projection
onto it is a one-multiplier KKT problem solved exactly at the
breakpoints of its piecewise-linear constraint value.  Where the
half-space misses the box, the projection returns the box point of
steepest decrease with a flag, and the shield counts the event.

The certificate is evaluated along the true closed loop: the rate uses
the plant's actual payload and memory state z.  The simulator knows
both; a deployed system would substitute estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import (ControlDecision, ControllerParams, ExtendedState,
                         ModelTerms, ParamBox, computed_torque)
from .dynamics import (FrictionParams, PlantParams, PlantState, RefPoint,
                       Trajectory, arm_matrices, mass_matrix,
                       stribeck_force)


# roundoff margin of the projection's feasibility and emptiness tests: a
# projected point, whose a.v equals rhs up to roundoff, projects to itself.
# The shield fired on a step whose projection moved the proposal further.
ROUNDOFF = 1e-12
HIST_BINS = 10   # bins of shield_report's projection-distance histogram


@dataclass(frozen=True)
class LyapunovForm:
    """Structured quadratic V(x) = 0.5 (e, ed)^T P (e, ed).

    P is assembled from a block-diagonal form in (e, s) coordinates,
    s = ed + lam_nominal e, so the gradient wrt ed is proportional to
    the sliding surface and raising K_d always steepens the decrease.
    """

    P: np.ndarray               # (4, 4) symmetric positive definite
    alpha: float                # 1/s, demanded decay rate
    lam_nominal: np.ndarray     # (2,), the Lam used in s

    def __post_init__(self):
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        object.__setattr__(self, "lam_nominal",
                           np.asarray(self.lam_nominal, dtype=float))

    def validate(self) -> None:
        if not np.allclose(self.P, self.P.T, atol=1e-12):
            raise ValueError("P must be symmetric")
        if not np.linalg.eigvalsh(self.P)[0] > 0.0:
            raise ValueError("P must be positive definite")
        if not self.alpha >= 0.0:
            raise ValueError("alpha must be non-negative")


def design_lyapunov_form(params: PlantParams, ref_q0: np.ndarray,
                         baseline: ControllerParams, *,
                         alpha: float) -> LyapunovForm:
    """Quadratic certificate from the nominal error dynamics at baseline gains.

    Mbar is the payload-free M at the reference's start ref_q0; baseline
    is the baseline's gains (Config.baseline_gains()); alpha is the
    demanded decay rate (Config.alpha).

    e-block: Lam^T P_e + P_e Lam = I  =>  P_e = Lam^-1 / 2.
    s-block: the scalar Lyapunov solution of the slowest sliding mode,
    c_s = 1 / (2 min eig(Mbar^-1 K_d)).  An isotropic s-block keeps
    s^T M(q)^-1 P_s s > 0 for every configuration, which is what makes
    "more K_d always helps" hold globally.
    """
    Mbar = mass_matrix(np.asarray(ref_q0, dtype=float),
                       params.with_payload(0.0))
    # Mbar^-1 diag(kd) is similar to a symmetric PD matrix, so its
    # eigenvalues are real and positive
    rates = np.linalg.eigvals(np.linalg.solve(Mbar, np.diag(baseline.kd)))
    rate_min = float(np.min(rates.real))
    if rate_min <= 0.0:
        raise ValueError("baseline damping must give a contracting sliding mode")
    c_s = 1.0 / (2.0 * rate_min)
    lam = baseline.lam
    P_e = np.diag(1.0 / (2.0 * lam))
    L = np.diag(lam)
    P = np.zeros((4, 4))
    P[:2, :2] = P_e + c_s * L @ L
    P[:2, 2:] = c_s * L
    P[2:, :2] = c_s * L
    P[2:, 2:] = c_s * np.eye(2)
    form = LyapunovForm(P=P, alpha=alpha, lam_nominal=lam.copy())
    form.validate()
    return form


def _quadratic_value(y: np.ndarray, form: LyapunovForm) -> float:
    """V at the stacked error y = (e, ed)."""
    return float(0.5 * y @ form.P @ y)


def halfspace_coeffs(x: ExtendedState, form: LyapunovForm, model: ModelTerms,
                     fric: FrictionParams, z: np.ndarray
                     ) -> tuple[np.ndarray, float]:
    """Exact (a, rhs) with a . theta <= rhs  iff  Vdot(x; theta) + alpha V(x) <= 0.

    theta is ControllerParams.as_vector() = (K_d, Lam, eta).  Along the
    closed loop with the CT torque tau(theta) at the true plant params,
    Vdot = drift - b . tau with b = M^-1 dV/ded and a theta-free drift;
    tau is affine in theta, which gives a.  z is the memory state the
    friction carries at x (the shield passes the plant's).  model is
    ModelTerms.at(x, params, fric) at the true plant params: M, C, G
    come from its arm terms and the regressor Phi is its own.  V comes
    from the y built here.
    """
    z = np.asarray(z, dtype=float)
    arm, Phi = model
    y = np.concatenate([x.e, x.ed])
    Py = form.P @ y
    g1, w = Py[:2], Py[2:]
    M, C, G = arm_matrices(x.qd, arm)
    b_vec = np.linalg.solve(M, w)     # M symmetric
    F = stribeck_force(x.qd, z, fric)
    drift = float(g1 @ x.ed + w @ x.qdd_ref + b_vec @ (C @ x.qd + G + F))
    tau0 = M @ x.qdd_ref + C @ x.qd_ref + G
    a = np.concatenate([-x.s * b_vec,
                        -(x.ed * (M @ b_vec) + x.e * (C.T @ b_vec)),
                        -Phi.T @ b_vec])
    a0 = -float(b_vec @ tau0)
    c = -form.alpha * _quadratic_value(y, form) - drift
    return a, c - a0


def project_halfspace_box(theta_raw: np.ndarray, a: np.ndarray, rhs: float,
                          lower: np.ndarray, upper: np.ndarray
                          ) -> tuple[np.ndarray, bool]:
    """Euclidean projection onto {l <= v <= u} intersect {a.v <= rhs}.

    Single-constraint KKT: v(mu) = clip(theta_raw - mu a) for the least
    mu >= 0 with a.v(mu) <= rhs.  a.v(mu) is continuous, piecewise linear
    and non-increasing in mu, with kinks where a component reaches a
    bound, so mu is exact: evaluate a.v at the sorted kinks and solve
    the linear piece that reaches rhs (the breakpoint solve of the
    continuous quadratic knapsack; Kiwiel 2008, Math. Programming 112).

    Returns (v, empty).  empty is True when the half-space misses the
    box; v is then the box point that minimises a.v, lower where a > 0
    and upper elsewhere.
    """
    # np.minimum(np.maximum(.)) is np.clip without its Python wrapping
    v0 = np.minimum(np.maximum(theta_raw, lower), upper)
    if a @ v0 <= rhs + ROUNDOFF:
        return v0, False
    if float(np.minimum(a * lower, a * upper).sum()) > rhs + ROUNDOFF:
        return np.where(a > 0.0, lower, upper), True
    nz = a != 0.0
    kinks = np.concatenate([[0.0], (theta_raw[nz] - lower[nz]) / a[nz],
                            (theta_raw[nz] - upper[nz]) / a[nz]])
    mu = np.sort(kinks[kinks >= 0.0])
    val = np.minimum(np.maximum(theta_raw - mu[:, None] * a, lower),
                     upper) @ a
    # the last kink attains the box minimum; rhs may sit just below it
    target = max(rhs, val[-1])
    j = int(np.argmax(val <= target))
    if j == 0:   # val[0] matches a @ v0 only up to roundoff
        return v0, False
    frac = (val[j - 1] - target) / (val[j - 1] - val[j])
    v = theta_raw - (mu[j - 1] + frac * (mu[j] - mu[j - 1])) * a
    return np.minimum(np.maximum(v, lower), upper), False


def project_admissible(x: ExtendedState, theta_raw: ControllerParams,
                       form: LyapunovForm, box: ParamBox, model: ModelTerms,
                       fric: FrictionParams, z: np.ndarray
                       ) -> tuple[ControllerParams, bool]:
    """Project a proposal onto box intersect decrease-half-space.

    Returns (theta, empty).  theta is theta_raw unchanged when already
    feasible.  empty is True when the state admits no feasible gain
    choice; theta is then the box point of steepest decrease.  model, fric
    and z (the memory state at x) are halfspace_coeffs'.
    """
    a, rhs = halfspace_coeffs(x, form, model, fric, z)
    v, empty = project_halfspace_box(theta_raw.as_vector(), a, rhs,
                                     box.lower_vector, box.upper_vector)
    return ControllerParams.from_vector(v), empty


@dataclass
class DecayReport:
    max_ratio: float
    passed: bool


def verify_exponential_decay(traj: Trajectory, form: LyapunovForm,
                             alpha: float | None = None,
                             tolerance: float = 0.05) -> DecayReport:
    """Check V(t) <= (1 + tolerance) V(0) exp(-alpha t) along a rollout.

    With alpha = 0 this reduces to monotone non-increase of V.
    """
    alpha = form.alpha if alpha is None else alpha
    e = traj.q_ref - traj.q
    ed = traj.qd_ref - traj.qd
    y = np.concatenate([e, ed], axis=1)
    V = 0.5 * np.einsum("ni,ij,nj->n", y, form.P, y)
    v0 = float(V[0])
    if v0 <= 0.0:
        ratio = np.where(V > 0.0, np.inf, 1.0)
    else:
        ratio = V / (v0 * np.exp(-alpha * traj.t))
    max_ratio = float(np.max(ratio))
    return DecayReport(max_ratio=max_ratio, passed=max_ratio <= 1.0 + tolerance)


def shield_activation_fraction(traj: Trajectory) -> float:
    """Fraction of control steps where the projection altered the
    proposal: moved it by more than ROUNDOFF."""
    if traj.projection_distance.size == 0:
        return 0.0
    return float(np.mean(traj.projection_distance > ROUNDOFF))


class ShieldedController:
    """Wraps a parameter source with the runtime admissibility projection.

    source: callable (t, x) -> ControllerParams proposal.  The true
    payload and memory state come from the simulator; the decision
    record carries how far the projection moved the proposal (it fired
    where that exceeds ROUNDOFF).

    The non-emptiness assumption can fail on isolated states where the
    uncancellable memory disturbance outweighs the feedback authority
    at small sliding error.  The projection then flags the state and
    returns the box point with the steepest available decrease; the
    controller applies it and counts the violation.  One half-space is
    built per step, and each quantity is evaluated once per step: the
    arm terms at the plant's payload and the Stribeck regressor Phi come
    from one ModelTerms.at, which the certificate and the torque share.
    """

    def __init__(self, source, form: LyapunovForm, box: ParamBox,
                 params: PlantParams, fric: FrictionParams):
        self.source = source
        self.form = form
        self.box = box
        self.params = params
        self.fric = fric
        self.assumption_violations = 0

    def __call__(self, t: float, state: PlantState, ref_point: RefPoint) -> ControlDecision:
        x = ExtendedState.from_tracking(state.q, state.qd, ref_point,
                                        self.form.lam_nominal)
        proposal = self.source(t, x)
        model = ModelTerms.at(x, self.params, self.fric)
        theta, empty = project_admissible(x, proposal, self.form, self.box,
                                          model, self.fric, state.z)
        self.assumption_violations += empty
        d = theta.as_vector() - proposal.as_vector()
        dist = math.sqrt(d.dot(d))    # np.linalg.norm of a 1-D vector
        tau = computed_torque(x, theta, model.arm, model.Phi)
        return ControlDecision(tau=tau, params=theta, projection_distance=dist)


def shield_report(traj: Trajectory, form: LyapunovForm,
                  controller: ShieldedController) -> dict:
    """Activation fraction, decay ratio, projection-distance histogram
    and the count of steps where controller, the shield that ran traj,
    found the admissible set empty."""
    decay = verify_exponential_decay(traj, form)
    dist = traj.projection_distance
    top = float(dist.max()) if dist.size else 1.0
    edges = np.linspace(0.0, top, HIST_BINS + 1)
    if top == 0.0:
        # the shield never fired: every edge is 0 and the first bin
        # holds every step
        hist = np.zeros(HIST_BINS, dtype=int)
        hist[0] = dist.size
    else:
        hist, _ = np.histogram(dist, bins=edges)
    return {
        "activation_fraction": shield_activation_fraction(traj),
        "max_decay_ratio": decay.max_ratio,
        "decay_passed": decay.passed,
        "projection_distance_histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in hist],
        },
        "assumption_violations": controller.assumption_violations,
    }
