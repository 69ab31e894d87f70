"""Incremental rank tracking: the head-count search loop.

Directions are admitted from the leading eigenvector of the residual
when deflating them would reduce its effective rank by more than
gamma_add, and dropped when their share of the operator's spectral
mass falls below gamma_prune.  A smoothed bidirectional gate (EMA plus
a two-iteration confirmation) suppresses grow/prune oscillation; the
loop converges when the head count holds still for n_stable
iterations.

Pruning scores are evaluated against the retained directions' mass
share of the full operator, not against the deflated residual: a
retained direction has, by construction, no mass left in the residual,
so the literal deflated-residual score is identically zero and would
fire the prune branch forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .memory_analysis import TemporalResidualOperator, effective_rank


def leading_eigvec(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Dominant eigenpair (unit vector, eigenvalue) of a symmetric matrix.

    A dense eigendecomposition of the symmetrised W x W operator; the
    sign of the vector is arbitrary, and nothing downstream depends on it.
    """
    M = np.asarray(M, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (M + M.T))
    return evecs[:, -1], float(evals[-1])


def growth_signal(R: np.ndarray, candidate: np.ndarray) -> float:
    """Effective-rank reduction from deflating the candidate's Rayleigh mass.

    A deflation that exhausts the residual to roundoff removes all of
    its effective rank, so rank-one exhaustion yields a full-unit signal.
    R itself must be nonzero (effective_rank raises ZeroMatrix).
    """
    u = np.asarray(candidate, dtype=float)
    nrm = np.linalg.norm(u)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError("candidate must be a unit vector")
    mass = float(u @ R @ u)
    deflated = R - mass * np.outer(u, u)
    before = float(np.linalg.norm(R, "fro"))
    if float(np.linalg.norm(deflated, "fro")) <= 1e-12 * before:
        return effective_rank(R)
    return effective_rank(R) - effective_rank(deflated)


@dataclass
class DirectionSet:
    """Retained unit directions with their admitted Rayleigh masses."""

    directions: list = field(default_factory=list)
    masses: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.directions)

    def add(self, u: np.ndarray, mass: float) -> None:
        self.directions.append(np.asarray(u, dtype=float))
        self.masses.append(float(mass))

    def drop(self, idx: int) -> None:
        self.directions.pop(idx)
        self.masses.pop(idx)

    def reconstruct(self, R: np.ndarray) -> np.ndarray:
        """Residual plus the retained directions' mass: ~ the original operator."""
        A = R.copy()
        for u, m in zip(self.directions, self.masses):
            A += m * np.outer(u, u)
        return A

    def deflate_from(self, A: np.ndarray) -> np.ndarray:
        R = A.copy()
        for u, m in zip(self.directions, self.masses):
            R -= m * np.outer(u, u)
        return R


class ZeroResidual(RuntimeError):
    pass


def prune_scores(R: np.ndarray, directions) -> np.ndarray:
    """p_k = u_k^T R u_k / ||R||_F for each retained direction.

    Scale invariant; zero for a direction with no mass in R.  The loop
    passes the mass-restored operator here (see module docstring).
    """
    fro = float(np.linalg.norm(R, "fro"))
    if fro == 0.0:
        raise ZeroResidual("all mass explained; prune scores undefined")
    return np.array([float(u @ R @ u) / fro for u in directions])


@dataclass
class GateState:
    """EMA of the signed decision stream plus a confirmation streak."""

    ema: float = 0.0
    streak: int = 0   # signed count of consecutive supra-threshold EMAs
    beta: float = 0.5
    threshold: float = 0.5


_RAW_VALUE = {"grow": 1.0, "hold": 0.0, "prune": -1.0}


def gate_update(raw: str, state: GateState) -> tuple[str, GateState]:
    """Smooth a raw grow/prune/hold decision through the bidirectional gate.

    A decision is enacted only when the smoothed signal sits beyond its
    threshold in the same direction for two consecutive iterations;
    alternating streams therefore never enact.
    """
    if raw not in _RAW_VALUE:
        raise ValueError(f"unknown decision {raw!r}")
    ema = (1.0 - state.beta) * state.ema + state.beta * _RAW_VALUE[raw]
    if ema >= state.threshold:
        streak = state.streak + 1 if state.streak >= 0 else 1
    elif ema <= -state.threshold:
        streak = state.streak - 1 if state.streak <= 0 else -1
    else:
        streak = 0
    enacted = "hold"
    if streak >= 2:
        enacted = "grow"
    elif streak <= -2:
        enacted = "prune"
    return enacted, GateState(ema=ema, streak=streak, beta=state.beta,
                              threshold=state.threshold)


@dataclass(frozen=True)
class Phase1Config:
    window: int = 20
    n_samples: int = 2048
    gamma_add: float = 0.05
    gamma_prune: float = 0.01
    n_stable: int = 20
    max_iterations: int = 200
    gate_beta: float = 0.5

    def validate(self) -> None:
        if not (self.gamma_add > 0.0 and self.gamma_prune > 0.0):
            raise ValueError("thresholds must be positive")
        if self.gamma_prune >= self.gamma_add:
            raise ValueError("need gamma_prune < gamma_add")
        if self.n_stable < 1:
            raise ValueError("n_stable must be at least 1")


@dataclass
class IterationRecord:
    iteration: int
    k: int
    growth_signal: float
    min_prune_score: float
    raw: str
    ema: float
    enacted: str


@dataclass
class Phase1Result:
    k_star: int
    effective_rank_final: float
    iterations: list
    converged: bool
    tau_z: float = float("nan")

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


def run_phase1(operator: TemporalResidualOperator | np.ndarray,
               config: Phase1Config | None = None) -> Phase1Result:
    """Grow/prune/gate loop until the head count is homeostatically stable.

    Deterministic for a fixed operator.  Hits of the iteration cap
    return converged=False rather than raising.  The zero operator (no
    memory signal) raises ZeroMatrix, as effective_rank does.
    """
    config = config or Phase1Config()
    config.validate()
    if isinstance(operator, TemporalResidualOperator):
        A = operator.matrix
        tau_z = operator.tau_z
    else:
        A = np.asarray(operator, dtype=float)
        tau_z = float("nan")
    A = 0.5 * (A + A.T)
    W = A.shape[0]
    r_eff = effective_rank(A)

    u1, _ = leading_eigvec(A)
    dirs = DirectionSet()
    dirs.add(u1, max(float(u1 @ A @ u1), 0.0))
    R = dirs.deflate_from(A)
    gate = GateState(beta=config.gate_beta)
    stable = 0
    log: list[IterationRecord] = []
    converged = False

    a_scale = float(np.linalg.norm(A, "fro"))
    for it in range(config.max_iterations):
        k_before = len(dirs)
        # deflation residue accumulates eigenvector error (~1e-9 scale);
        # anything below this floor is exhausted, not signal
        if float(np.linalg.norm(R, "fro")) <= 1e-7 * max(a_scale, 1e-300):
            cand = np.zeros(W)
            cand[0] = 1.0
            g = 0.0
        else:
            cand, _ = leading_eigvec(R)
            g = growth_signal(R, cand)
        try:
            scores = prune_scores(dirs.reconstruct(R), dirs.directions)
            min_score = float(scores.min())
        except ZeroResidual:
            scores = np.zeros(len(dirs))
            min_score = 0.0
        grow_raw = g > config.gamma_add and len(dirs) < W
        prune_raw = len(dirs) > 1 and min_score < config.gamma_prune
        # conservative capacity: pruning outranks growth in a tie
        raw = "prune" if prune_raw else ("grow" if grow_raw else "hold")
        enacted, gate = gate_update(raw, gate)
        if enacted == "grow" and len(dirs) < W:
            mass = max(float(cand @ R @ cand), 0.0)
            dirs.add(cand, mass)
            R = R - mass * np.outer(cand, cand)
        elif enacted == "prune" and len(dirs) > 1:
            idx = int(np.argmin(scores))
            dirs.drop(idx)
            R = dirs.deflate_from(A)
        log.append(IterationRecord(iteration=it, k=len(dirs), growth_signal=g,
                                   min_prune_score=min_score, raw=raw,
                                   ema=gate.ema, enacted=enacted))
        stable = stable + 1 if len(dirs) == k_before else 0
        if stable >= config.n_stable:
            converged = True
            break

    return Phase1Result(k_star=len(dirs),
                        effective_rank_final=r_eff,
                        iterations=log, converged=converged, tau_z=tau_z)


def phase2_range(k_star: int) -> tuple[int, int]:
    """Closed head-count search interval [ceil(K*/2), K*] for stage 2."""
    if k_star < 1:
        raise ValueError("k_star must be at least 1")
    return (int(np.ceil(k_star / 2.0)), int(k_star))
