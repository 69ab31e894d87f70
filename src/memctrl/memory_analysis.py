"""Temporal structure of the friction memory.

Three groups of tools:

* history gradients of z with respect to the lagged velocity window
  (analytic for the linear memory, the exact derivative of the RK4
  closed loop by one adjoint sweep otherwise) and the W x W
  auto-covariance operator built from them, a plain symmetric array
  that rank-scan and incrt.run_phase1 read;
* the effective (stable) rank of that operator and the closed-form
  norm of the exponential-decay gradient vector;
* the conditional-variance scale sigma_z^2: closed-form law and a
  binned Monte-Carlo estimator.

The Monte-Carlo cross-check of the closed form runs on a broadband
(per-step white, zero-order-held) velocity excitation.  That is the
process for which the law is exact: the instantaneous state carries no
information about the driving history, so E[Var(z | state)] equals the
stationary variance lambda_z^2 sigma_qd^2 tau_z / 2 with sigma_qd^2
read as variance per unit correlation time (= held-step variance times
dt).  Narrowband excitation (a pure sinusoid) does not satisfy the
law: the state then pins the phase and the true conditional variance
collapses, so no consistent estimator can reproduce the formula there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FrictionParams, PlantParams, ReferenceSpec
from .controller import ControllerParams
from .ensemble import BaselineEnsembleSim, TaskDistribution

# sigma_z_broadband's sampling design
BROADBAND_HORIZON = 20.0   # s, shortest run
BROADBAND_BINS = 12        # state bins per axis
BROADBAND_STRIDE = 50      # steps between samples of one trajectory
MIN_TRAJ_SAMPLES = 10      # fewest samples per trajectory after the burn-in
BURN_IN_FACTOR = 5.0       # stationarity burn-in, in units of tau_z
Q_SPAN = 10.0              # rad, width of the uniform initial positions
MIN_CELL_COUNT = 5         # fewest samples a populated state cell may hold
CLOSED_LOOP_HORIZON = 3.0  # s, gradient_samples_closed_loop's rollout


class InsufficientHistory(ValueError):
    pass


class InsufficientSamples(RuntimeError):
    pass


class ZeroMatrix(ValueError):
    pass


def history_gradient_analytic(tau_z: float, window: int, dt: float,
                              lambda_z: float) -> np.ndarray:
    """Gradient of z(t) wrt the velocity at lags k*dt, k = 1..W.

    For the linear memory the sensitivity is the exponential-decay
    vector lambda_z * exp(-lag / tau_z), independent of the trajectory.
    """
    if tau_z <= 0.0 or dt <= 0.0:
        raise ValueError("tau_z and dt must be positive")
    lags = dt * np.arange(1, window + 1)
    return lambda_z * np.exp(-lags / tau_z)


def build_residual_operator(samples: np.ndarray) -> np.ndarray:
    """W x W auto-covariance (1/N) sum g g^T of the N gradient samples;
    symmetric PSD by construction."""
    g = np.atleast_2d(np.asarray(samples, dtype=float))
    if g.shape[0] < 1:
        raise ValueError("need at least one sample")
    M = g.T @ g / g.shape[0]
    return 0.5 * (M + M.T)


def effective_rank(M: np.ndarray) -> float:
    """Stable rank tr(M)^2 / ||M||_F^2 of a nonzero symmetric PSD matrix.

    Undefined for the zero matrix, which raises ZeroMatrix: an operator
    built from identically zero gradients (lambda_z = 0) carries no
    memory signal, so rank-scan and phase1 both stop with this error
    rather than print a rank.
    """
    M = np.asarray(M, dtype=float)
    fro2 = float(np.sum(M * M))
    if fro2 == 0.0:
        raise ZeroMatrix("effective rank undefined for the zero matrix")
    tr = float(np.trace(M))
    return tr * tr / fro2


def v_norm_sq(tau_z: float, window: int, dt: float, lambda_z: float) -> float:
    """Closed-form squared norm of the exponential-decay gradient vector.

    Equals lambda_z^2 sum_{k=1..W} exp(-2 k dt / tau_z); interpolates
    between lambda_z^2 tau_z / (2 dt) for short memory and
    lambda_z^2 W once the window no longer resolves the decay.
    """
    if tau_z <= 0.0 or dt <= 0.0 or window < 1:
        raise ValueError("arguments must be positive")
    r = np.exp(-2.0 * dt / tau_z)
    if r >= 1.0 - 1e-15:
        return lambda_z ** 2 * window
    return float(lambda_z ** 2 * r * (1.0 - r ** window) / (1.0 - r))


def sigma_z_closed_form(tau_z: float, lambda_z: float, qd_variance: float,
                        rho) -> float:
    """Conditional-variance law lambda^2 sigma^2 (tau/2) (1 - rho(tau)).

    rho is the velocity autocorrelation function (callable, lag in
    seconds, values in [-1, 1]).
    """
    if qd_variance < 0.0:
        raise ValueError("variance must be non-negative")
    r = float(rho(tau_z))
    if not -1.0 - 1e-9 <= r <= 1.0 + 1e-9:
        raise ValueError("autocorrelation must lie in [-1, 1]")
    return lambda_z ** 2 * qd_variance * 0.5 * tau_z * (1.0 - r)


def quantile_bins(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-count bin edges; uniform-width bins would strand sparse
    tail bins below any minimum-count contract almost surely."""
    qs = np.quantile(x, np.linspace(0.0, 1.0, n_bins + 1))
    qs[0] -= 1e-12
    qs[-1] += 1e-12
    return qs


def group_means(ids: np.ndarray, values: np.ndarray, n_groups: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-group counts and means of values over integer ids in [0, n_groups).

    Both come from np.bincount, which adds each group's values in sample
    order (the order np.add.at adds them in); an empty group's mean is NaN.
    """
    counts = np.bincount(ids, minlength=n_groups)
    with np.errstate(invalid="ignore"):
        means = np.bincount(ids, weights=values, minlength=n_groups) / counts
    return counts, means


@dataclass
class StateBinning:
    """Nested equal-count partition of the (position, velocity) plane.

    Position is split at its quantiles; velocity is split at its
    conditional quantiles within each position stratum.  Tracking data
    concentrate on phase ellipses in (q, qd), so a plain product of
    marginal quantile bins leaves near-empty cells; the nested scheme
    keeps every cell at ~N/(n_bins^2) samples by construction.
    """

    pos_edges: np.ndarray    # (n_bins + 1,)
    vel_edges: np.ndarray    # (n_bins, n_bins + 1)

    @property
    def n_bins(self) -> int:
        return self.vel_edges.shape[0]

    @staticmethod
    def fit(pos: np.ndarray, vel: np.ndarray, n_bins: int
            ) -> tuple["StateBinning", np.ndarray]:
        """The n_bins x n_bins binning fitted to the samples, and their
        cell ids; each caller names its n_bins.

        One float sort of the positions serves both axes.  The position
        edges are the quantiles of the sorted positions, the same bits as
        of the unsorted ones; each stratum is then one run of that order,
        its start the count of positions below its lower edge (the rule
        of cell_index), and its velocity quantiles come from its slice
        of the velocities taken in the same order.  The cells come from
        cell_index, which alone computes the samples' strata.
        """
        order = np.argsort(pos)
        pos_sorted = pos[order]
        pe = quantile_bins(pos_sorted, n_bins)
        bounds = np.empty(n_bins + 1, dtype=np.intp)
        bounds[0], bounds[-1] = 0, pos.size
        bounds[1:-1] = np.searchsorted(pos_sorted, pe[1:-1], side="left")
        vel_sorted = vel[order]
        ve = np.empty((n_bins, n_bins + 1))
        for b in range(n_bins):
            sel = vel_sorted[bounds[b]:bounds[b + 1]]
            if sel.size == 0:
                ve[b] = np.linspace(-1.0, 1.0, n_bins + 1)
            else:
                ve[b] = quantile_bins(sel, n_bins)
        binning = StateBinning(pos_edges=pe, vel_edges=ve)
        return binning, binning.cell_index(pos, vel)

    def cell_index(self, pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
        """Cell ids of the points (pos, vel), with no sort.

        A point's stratum is the last position edge at or below pos;
        points outside the edges go to the nearest end stratum.  Its cell
        is stratum * n_bins plus the count of its stratum's interior
        velocity edges at or below vel, the same id as
        clip(searchsorted(edges, vel, 'right') - 1, 0, n_bins - 1).
        One pass per interior edge keeps every temporary (N,).
        """
        stratum = np.clip(np.searchsorted(self.pos_edges, pos, side="right")
                          - 1, 0, self.n_bins - 1)
        cell = stratum * self.n_bins
        for edge in self.vel_edges.T[1:-1]:
            cell += edge[stratum] <= vel
        return cell


def binned_conditional_variance(fit: tuple[StateBinning, np.ndarray],
                                target: np.ndarray) -> float:
    """E[Var(target | state cell)] over the nested equal-count partition.

    fit is StateBinning.fit's (binning, cells) of the samples that
    target belongs to.  The estimate is sum_c n_c/(n_c - 1) SS_c / N,
    the count-weighted unbiased cell variances, with each cell's sum of
    squared deviations SS_c from a second bincount.  Raises
    InsufficientSamples, naming the first such cell's count, when a
    populated cell has < MIN_CELL_COUNT samples.
    """
    binning, cell = fit
    counts, means = group_means(cell, target, binning.n_bins ** 2)
    thin = counts[(counts > 0) & (counts < MIN_CELL_COUNT)]
    if thin.size:
        raise InsufficientSamples(
            f"populated bin with {thin[0]} < {MIN_CELL_COUNT} samples")
    dev = target - means[cell]
    ss = np.bincount(cell, weights=dev * dev, minlength=counts.size)
    # an empty cell adds 0 / -1 * 0
    return float(np.sum(counts / (counts - 1) * ss)) / cell.size


@dataclass
class SigmaZEstimate:
    monte_carlo: float
    closed_form: float
    n_samples: int


def sigma_z_broadband(tau_z: float, lambda_z: float, n_traj: int,
                      dt: float, seed: int) -> SigmaZEstimate:
    """Monte-Carlo sigma_z^2 under broadband excitation vs the closed form.

    The velocity is per-step standard normal white noise (held over dt),
    integrated to a position channel; z follows the exact per-step
    propagation.  The closed form is evaluated with rho = 0 and
    qd_variance equal to the held-step variance (1) times dt.

    The run lasts BROADBAND_HORIZON, or longer where the burn-in of
    BURN_IN_FACTOR * tau_z would leave fewer than MIN_TRAJ_SAMPLES
    samples per trajectory: then it lasts the burn-in plus their span.

    Initial positions are drawn uniform over Q_SPAN: without the wide
    reset the position random walk shares its increments with z and the
    position bins drain genuine conditional variance from the estimate.

    The held steps are drawn a block at a time, one
    rng.standard_normal(out=...) call filling up to BROADBAND_STRIDE
    rows; the generator fills in C order, so the velocities are the
    stream and values of one draw per step.  The burn-in takes whole
    strides and one block for its remainder; each sample then draws its
    own stride, whose row 0 is its velocity, and the last sample draws
    that row alone: later draws would never be read.  An m-row block
    moves the state as m single steps do, up to roundoff:
    z <- a^m z + sum_j drive a^(m-1-j) qd_j and q <- q + dt sum_j qd_j.
    The weighted sum is np.einsum's own loop, not BLAS, so the result
    does not depend on the BLAS thread count.
    """
    if not 0.0 < tau_z < np.inf:
        raise ValueError(f"tau_z must be finite and positive, got {tau_z}")
    if not n_traj >= 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")
    rng = np.random.default_rng(seed)
    burn = int(np.ceil(BURN_IN_FACTOR * tau_z / dt))
    n = max(round(BROADBAND_HORIZON / dt),
            burn + MIN_TRAJ_SAMPLES * BROADBAND_STRIDE)
    decay = np.exp(-dt / tau_z)
    z = np.zeros(n_traj)
    q = rng.uniform(-0.5 * Q_SPAN, 0.5 * Q_SPAN, n_traj)
    drive = lambda_z * tau_z * (1.0 - decay)   # exact weight for held input
    n_samples = (n - 1 - burn) // BROADBAND_STRIDE + 1
    pos, vel, mem = (np.empty((n_samples, n_traj)) for _ in range(3))
    n_full, rest = divmod(burn, BROADBAND_STRIDE)
    blocks = ([BROADBAND_STRIDE] * n_full + [rest] * (rest > 0)
              + [BROADBAND_STRIDE] * (n_samples - 1) + [1])
    first_sample = len(blocks) - n_samples
    # per block length: z's decay over the block and its weight on each row
    update = {m: (decay ** m, drive * decay ** np.arange(m - 1, -1, -1.0))
              for m in set(blocks[:-1])}
    buf = np.empty((BROADBAND_STRIDE, n_traj))
    for b, m in enumerate(blocks):
        qd = rng.standard_normal(out=buf[:m])
        i = b - first_sample
        if i >= 0:
            # z here excludes the sample step's drive: independent of qd
            pos[i], vel[i], mem[i] = q, qd[0], z
        if i == n_samples - 1:
            break
        decay_m, weights = update[m]
        z *= decay_m
        z += np.einsum("i,ij->j", weights, qd)
        q += dt * qd.sum(axis=0)
    mc = binned_conditional_variance(
        StateBinning.fit(pos.ravel(), vel.ravel(), BROADBAND_BINS), mem.ravel())
    cf = sigma_z_closed_form(tau_z, lambda_z, dt, lambda u: 0.0)
    return SigmaZEstimate(monte_carlo=mc, closed_form=cf,
                          n_samples=mem.size)


def gradient_samples_linear(tau_z: float, window: int, dt: float,
                            lambda_z: float, n_samples: int,
                            jitter: float = 0.0, seed: int = 0) -> np.ndarray:
    """Analytic-mode gradient samples for the linear memory.

    Every sample is the same exponential-decay vector; optional
    multiplicative jitter models per-trajectory gain spread.
    """
    v = history_gradient_analytic(tau_z, window, dt, lambda_z)
    g = np.tile(v, (n_samples, 1))
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        g = g * np.exp(rng.normal(0.0, jitter, (n_samples, 1)))
    return g


def gradient_samples_closed_loop(tau_z: float, ref: ReferenceSpec,
                                 params: PlantParams, fric: FrictionParams,
                                 window: int, n_samples: int, dt: float,
                                 seed: int, gains: ControllerParams
                                 ) -> np.ndarray:
    """Exact history gradients through the closed-loop plant.

    What is differentiated is the discrete closed loop: the RK4 map of
    BaselineEnsembleSim.step (plant plus baseline torque, held over the
    step, friction constants drawn per member with a log-normal sd of
    0.2).  For each trajectory endpoint and each joint j, sample entry k
    is the derivative of z_j at the endpoint with respect to qd_j k
    steps earlier, divided by dt, for k = 1..window.  The derivative of
    sign(qd) in the Coulomb/Stribeck term is taken as 0, so a velocity
    sign change inside the window adds no spurious jump.

    One reverse (adjoint) sweep per joint over the last `window` steps
    gives every lag: the cotangent of z_j is pulled back through the
    transposed step Jacobians along the stored trajectory; the two
    joints' sweeps run side by side.  BaselineEnsembleSim.step_jacobian
    assembles each from the derivatives kept beside their laws,
    dynamics.rk4_jacobian and BaselineController.linearize.  The
    rollout records only the `window` states that the sweep reads, those
    of steps n_end - window .. n_end - 1, not all n_end + 1.
    Both joints contribute, so n_samples/2 trajectories are simulated;
    samples of members that blew up, or that are not finite, are
    dropped.  gains are the baseline's, Config.baseline_gains().
    tau_z replaces fric.tau_z; it stays the leading argument because
    bench/worker.py keys the samples it captures by that position.
    Each trajectory runs CLOSED_LOOP_HORIZON from its reset, and the
    samples are taken at its end.  A window of
    round(CLOSED_LOOP_HORIZON / dt) steps or more, the rollout's length,
    raises InsufficientHistory before anything is simulated.
    """
    for name, value in (("window", window), ("n_samples", n_samples)):
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    n_end = round(CLOSED_LOOP_HORIZON / dt)
    if window >= n_end:
        raise InsufficientHistory("horizon shorter than the gradient window")
    fric = fric.with_tau_z(tau_z)
    batch = max(1, int(np.ceil(n_samples / 2)))
    sim = BaselineEnsembleSim(batch, ref, params, fric, seed,
                              TaskDistribution(friction_log_sd=0.2), gains)
    roll = sim.run(n_end, dt, keep=np.s_[n_end - window:n_end])
    grads = np.zeros((batch, 2, window))
    # adjoint[:, :, j]: cotangent of z_j at the endpoint over (q, qd, z)
    adjoint = np.zeros((batch, 6, 2))
    adjoint[:, 4, 0] = adjoint[:, 5, 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, window + 1):
            m = n_end - k
            J = sim.step_jacobian(m * dt, roll.x[window - k], dt)
            adjoint = np.swapaxes(J, 1, 2) @ adjoint
            grads[:, :, k - 1] = np.diagonal(adjoint[:, 2:4, :], axis1=1,
                                             axis2=2) / dt
    g = grads.reshape(2 * batch, window)[:n_samples]
    ok = np.all(np.isfinite(g), axis=1) & np.repeat(roll.alive, 2)[:g.shape[0]]
    return g[ok]
