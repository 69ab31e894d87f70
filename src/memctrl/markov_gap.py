"""Quantifying the cost of ignoring the memory state.

The cost is measured on the strongly convex loss l(theta, z) =
(mu/2) ||theta - theta*(z)||^2, theta*(z) = theta0 + kappa z d with a
unit vector d.  A policy that acts as theta*(z_hat) for a prediction
z_hat of the memory pays exactly

    l(theta*(z_hat), z) = (mu kappa^2 / 2) (z_hat - z)^2,

so its excess over the oracle theta*(z) (excess 0) is the constant
c1 = mu kappa^2 / 2 times the z-reconstruction mean-square error, and
theta never has to be formed.  With unit curvature and sensitivity
(mu = kappa = 1) c1 = 1/2, the module constant C1.

The best policy that reads only the instantaneous (q, qd) predicts
the bin-conditional mean of z; its excess is C1 E[Var(z | state)],
the lower bound reported beside it.  A windowed policy reconstructs z
from the lagged velocity window by ridge regression; its excess is C1
times that reconstruction's mean-square error, which decays like
exp(-2 W dt / tau_z) in the window length.

The (q, qd, z) samples come from the simulated closed-loop tracking
ensemble, not from a synthetic process.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import FrictionParams, PlantParams, ReferenceSpec
from .controller import ControllerParams
from .ensemble import BaselineEnsembleSim, TaskDistribution
from .memory_analysis import (InsufficientSamples, StateBinning,
                              binned_conditional_variance, group_means)

C1 = 0.5                 # gap constant mu kappa^2 / 2 at mu = kappa = 1
MIN_FIT_SAMPLES = 1000   # markovian_policy_fit's floor
HORIZON = 5.0            # s, shortest rollout of markov_gap_experiment
JOINT = 0                # the joint whose memory is measured


class SingularDesign(ValueError):
    """Regression design without enough excitation to identify weights."""


def window_lower_bound(h_z: float, dt: float) -> int:
    """Smallest window covering one memory horizon: ceil(H_z / dt)."""
    if h_z <= 0.0 or dt <= 0.0:
        raise ValueError("arguments must be positive")
    # guard against 5/0.01 = 500.0000...06 style float junk
    return int(math.ceil(h_z / dt - 1e-9))


@dataclass
class MarkovianPolicy:
    """Cell-conditional mean of z: the best prediction from the
    instantaneous (q, qd) alone.  Shares the nested state binning with
    the sigma_z estimator; a cell with no fit samples predicts the
    global mean."""

    binning: StateBinning
    z_mean: np.ndarray          # (n_bins^2,)
    z_mean_global: float

    def predict_z(self, pos, vel) -> np.ndarray:
        cell = self.binning.cell_index(np.asarray(pos, dtype=float),
                                       np.asarray(vel, dtype=float))
        z = self.z_mean[cell]
        return np.where(np.isnan(z), self.z_mean_global, z)


def markovian_policy_fit(fit: tuple[StateBinning, np.ndarray], z: np.ndarray
                         ) -> MarkovianPolicy:
    """Conditional-mean estimator of z on a state grid; fit is
    StateBinning.fit's (binning, cells) of the samples z belongs to.
    The cell means are group_means', NaN for a cell with no samples."""
    if z.size < MIN_FIT_SAMPLES:
        raise InsufficientSamples(f"need at least {MIN_FIT_SAMPLES} samples")
    binning, cell = fit
    _, mean = group_means(cell, z, binning.n_bins ** 2)
    return MarkovianPolicy(binning=binning, z_mean=mean,
                           z_mean_global=float(np.mean(z)))


@dataclass
class WindowedReconstructor:
    """Ridge regression of z(t) on the W lagged velocity samples."""

    weights: np.ndarray      # (W,), lag 1*dt first
    intercept: float

    def predict(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Predictions for the rows of the (n_i, W) window blocks, in
        block order."""
        return np.concatenate([H @ self.weights for H in blocks]) + self.intercept


def windowed_reconstructor_fit(blocks: Sequence[np.ndarray], z: np.ndarray
                               ) -> WindowedReconstructor:
    """Fit the windowed linear reconstructor of the memory state.

    blocks is a sequence of (n_i, W) window matrices, typically one per
    sample time, each row holding lags 1..W (most recent first); z
    holds the targets of their rows in block order.  Nothing
    window-sized is built: one pass over the blocks sums the column
    means, a second adds each centred block's H^T H and H^T z_c to the
    W x W Gram and the right-hand side, so only one block is centred at
    a time and the blocks themselves are left untouched.

    H^T H is added to the Gram's upper triangle in column panels as wide
    as the tallest block, gram[:j1, j0:j1] += H[:, :j1]^T H[:, j0:j1],
    and the strictly lower panels are mirrored once at the end, so no
    product is larger than one block; a W x W product per block would
    add a second Gram-sized array.  One width serves every block, since
    the mirror copies the same panels for all of them.  The function
    drops its reference to the blocks before the solve, so windows that
    the caller holds only through the argument are freed first.  The
    ridge is 1e-6 tr(H^T H)/W, numerical conditioning only.
    """
    z = np.asarray(z, dtype=float)
    if (any(np.ndim(H) != 2 for H in blocks)
            or len({H.shape[1] for H in blocks}) > 1):
        raise ValueError("blocks must be 2-D with one common window length")
    W = blocks[0].shape[1] if len(blocks) else 0
    n = sum(H.shape[0] for H in blocks)
    if n != z.size:
        raise ValueError(f"{n} window rows for {z.size} targets")
    if n <= W // 4:
        raise ValueError("need substantially more rows than window lags")
    mean = sum(H.sum(axis=0) for H in blocks) / n
    zc = z - z.mean()
    width = max(H.shape[0] for H in blocks)
    gram = np.zeros((W, W))
    rhs = np.zeros(W)
    start = 0
    for H in blocks:
        Hc = H - mean
        for j0 in range(0, W, width):
            j1 = j0 + width
            gram[:j1, j0:j1] += Hc[:, :j1].T @ Hc[:, j0:j1]
        rhs += Hc.T @ zc[start:start + H.shape[0]]
        start += H.shape[0]
    del blocks, H, Hc
    for j0 in range(0, W, width):
        j1 = j0 + width
        gram[j1:, j0:j1] = gram[j0:j1, j1:].T
    # a column's Gram diagonal is its sum of centred squares
    if np.any(np.diagonal(gram) <= 0.0):
        raise SingularDesign("a lag column carries no excitation")
    gram.flat[::W + 1] += 1e-6 * float(np.trace(gram)) / W
    w = np.linalg.solve(gram, rhs)
    return WindowedReconstructor(weights=w, intercept=float(z.mean() - mean @ w))


@dataclass
class MarkovGapResult:
    tau_z: float
    sigma2_hat: float            # binned conditional variance on the fit set
    excess_markov: float
    excess_markov_se: float
    excess_windowed: float
    excess_windowed_se: float
    lower_bound: float           # c1 * sigma2_hat
    window: int
    n_eval: int


def _traj_se(values: np.ndarray) -> float:
    """Standard error by trajectory-level batch means (samples within a
    trajectory are serially correlated).  values is (n_times, n_traj),
    one column per trajectory, and each column is summed in time order.
    Reducing over the columns needs no sort: a grouping by trajectory id
    through np.unique(return_inverse=True) would sort, and its sort
    code alone raises the process's peak RSS by about 0.25 MiB."""
    means = values.mean(axis=0)
    if means.size < 2:
        return float("inf")
    return float(means.std(ddof=1) / np.sqrt(means.size))


def markov_gap_experiment(tau_z: float, ref: ReferenceSpec, params: PlantParams,
                          fric: FrictionParams, n_traj: int, seed: int,
                          dt: float, gains: ControllerParams,
                          window: int | None = None, n_bins: int = 12,
                          sample_times: np.ndarray | None = None
                          ) -> MarkovGapResult:
    """Measure Markovian vs windowed excess on simulated tracking.

    Trajectories are split in half: the predictors fit on the first
    half, and the excess C1 (z_hat - z)^2 is averaged on the second.
    gains are the baseline's, Config.baseline_gains().  Each
    sample time's index must lie in [window, n_steps], so its lag
    window starts at t >= 0 inside the rollout of n_steps steps.  The
    fit half is binned once, for both the conditional variance and the
    Markovian policy.

    The rollout records only the measured joint's q, qd and z, three of
    the six packed rows.  Only their sample-time values and two
    member-major copies of the joint's velocity, one per half, outlive
    it; the record is freed before the ridge fit, which reads each
    sample time's lag windows as reversed-slice views of a half's copy
    and holds one centred (n, W) block, the W x W Gram and one panel
    product of at most W x n at a time.  The fit half's copy is passed
    without a name, so it is freed before the solve, whose W x W copy
    of the Gram meets only the evaluation half's history.

    Memory, at tau_z = 2 s and the CLI's 512 trajectories (W = 1000,
    1250 steps): the peak of traced memory now sits where the record
    hands over to the histories, 19.7 MiB, not in the fit (22.4 MiB
    when each block added a W x W product).  The process's peak RSS
    follows glibc's reuse of freed pages rather than the array sizes,
    so each variant was measured with the benchmark (memory-stats
    peak_rss_mb, one run each): 68.4 MiB with a W x W product per block
    and one history array; 68.45 with the panel Gram alone, and 68.45
    with the fit history freed alone; 64.6 with both.  Recording only
    the velocity row, with q and z captured at the sample steps, read
    67.8, because the solve's W x W copy then lands on fresh pages.
    """
    fric = fric.with_tau_z(tau_z)
    if window is None:
        window = window_lower_bound(5.0 * tau_z, dt)
    # the lag window must fit before the first sample time
    horizon = max(HORIZON, window * dt + 2.5)
    t_min = max(window * dt + dt, 1.5)
    if sample_times is None:
        sample_times = np.arange(t_min, horizon + 1e-9, 0.25)
    if len(sample_times) == 0:
        raise ValueError("no sample times fit the window inside the horizon")
    sample_times = np.asarray(sample_times, dtype=float)
    idx = np.round(sample_times / dt).astype(int)
    n_steps = round(horizon / dt)         # the rollout's step count
    bad = np.flatnonzero((idx < window) | (idx > n_steps))
    if bad.size:
        raise ValueError(
            f"sample time {sample_times[bad[0]]:g} s (step {idx[bad[0]]}) is outside"
            f" [{window * dt:g}, {n_steps * dt:g}] s: its {window}-lag window"
            f" must start at t >= 0 and its step lie in the {n_steps}-step rollout")
    task = TaskDistribution(slow_reference=True)
    # joint JOINT's q, qd and z: rows JOINT, 2 + JOINT and 4 + JOINT
    roll = BaselineEnsembleSim(n_traj, ref, params, fric, seed, task,
                               gains).run(n_steps, dt, keep=np.s_[:, JOINT::2])
    ok = np.flatnonzero(roll.alive)
    if ok.size < 8:
        raise InsufficientSamples("too few surviving trajectories")

    half = ok.size // 2
    n_fit = half * idx.size
    if n_fit < MIN_FIT_SAMPLES:
        raise InsufficientSamples(
            f"n_traj={n_traj} gives {n_fit} fit samples ({half} surviving trajectories"
            f" x {idx.size} sample times); the fit needs {MIN_FIT_SAMPLES}")

    # (T, n_ok) values at the sample times, and the fit and evaluation
    # halves' (n_half, n + 1) velocity histories, so that the record can
    # go before the fit
    pos, vel, mem = (roll.x[idx[:, None], r, ok[None, :]] for r in range(3))
    hist = [roll.x[:, 1].T[ok[:half]], roll.x[:, 1].T[ok[half:]]]
    del roll

    pos_f, vel_f, mem_f = (a[:, :half].ravel() for a in (pos, vel, mem))
    pos_e, vel_e, mem_e = (a[:, half:].ravel() for a in (pos, vel, mem))

    fit = StateBinning.fit(pos_f, vel_f, n_bins)
    sigma2_hat = binned_conditional_variance(fit, mem_f)
    policy = markovian_policy_fit(fit, mem_f)
    ex_mk = C1 * (policy.predict_z(pos_e, vel_e) - mem_e) ** 2
    # each sample time's (n, W) lag windows, lags 1..W: reversed-slice
    # views of the histories, time-major like mem_f and mem_e
    def lag_windows(h):
        return [h[:, i - window:i][:, ::-1] for i in idx]

    # the fit half's windows are held by the argument alone, so the fit
    # frees that history before its solve
    recon = windowed_reconstructor_fit(lag_windows(hist.pop(0)), mem_f)
    ex_w = C1 * (recon.predict(lag_windows(hist.pop())) - mem_e) ** 2

    return MarkovGapResult(
        tau_z=tau_z, sigma2_hat=float(sigma2_hat),
        excess_markov=float(ex_mk.mean()),
        excess_markov_se=_traj_se(ex_mk.reshape(idx.size, -1)),
        excess_windowed=float(ex_w.mean()),
        excess_windowed_se=_traj_se(ex_w.reshape(idx.size, -1)),
        lower_bound=C1 * float(sigma2_hat),
        window=window, n_eval=int(mem_e.size))
