"""Incremental rank tracking: the head-count search loop.

Directions are admitted from the leading eigenvector of the residual
when deflating them would reduce its effective rank by more than
gamma_add, and dropped when their share of the operator's spectral
mass falls below gamma_prune.  A smoothed bidirectional gate (EMA plus
a two-iteration confirmation) suppresses grow/prune oscillation; the
loop converges when the head count holds still for n_stable
iterations.

The loop's state is the residual R = A - sum_k m_k u_k u_k^T of the
retained directions and their admitted masses.  The candidate (R's
leading eigenvector) and its growth signal are recomputed only when the
head count, and with it R, changes.  A direction's prune score is its
mass share of the full operator, u^T A u / ||A||_F, fixed when it is
admitted: its mass in the residual is zero by construction, so a
residual score would fire the prune branch forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memory_analysis import effective_rank

GATE_THRESHOLD = 0.5   # |EMA| a decision stream must reach to count
GATE_BETA = 0.5        # EMA weight of the newest raw decision


def leading_eigvec(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Dominant eigenpair (unit vector, eigenvalue) of a symmetric matrix.

    A dense eigendecomposition of the symmetrised W x W operator; the
    sign of the vector is arbitrary, and nothing downstream depends on it.
    """
    M = np.asarray(M, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (M + M.T))
    return evecs[:, -1], float(evals[-1])


def growth_signal(R: np.ndarray, candidate: np.ndarray, floor: float) -> float:
    """Effective-rank reduction from deflating the candidate's Rayleigh mass.

    A deflation that leaves a residual of Frobenius norm at most floor
    exhausts it, and removes all of its effective rank, so rank-one
    exhaustion yields a full-unit signal.  floor is the scale on which
    the caller calls a residual exhausted (run_phase1's 1e-7 ||A||_F):
    the deflation roundoff stays far below it, so it does not decide.
    R itself must be nonzero (effective_rank raises ZeroMatrix).
    """
    u = np.asarray(candidate, dtype=float)
    nrm = np.linalg.norm(u)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError("candidate must be a unit vector")
    mass = float(u @ R @ u)
    deflated = R - mass * np.outer(u, u)
    if float(np.linalg.norm(deflated, "fro")) <= floor:
        return effective_rank(R)
    return effective_rank(R) - effective_rank(deflated)


@dataclass
class GateState:
    """EMA (weight GATE_BETA) of the signed decision stream plus a
    confirmation streak."""

    ema: float = 0.0
    streak: int = 0   # signed count of consecutive supra-threshold EMAs


_RAW_VALUE = {"grow": 1.0, "hold": 0.0, "prune": -1.0}


def gate_update(raw: str, state: GateState) -> tuple[str, GateState]:
    """Smooth a raw grow/prune/hold decision through the bidirectional gate.

    A decision is enacted only when the smoothed signal sits beyond
    +-GATE_THRESHOLD in the same direction for two consecutive iterations;
    alternating streams therefore never enact.
    """
    if raw not in _RAW_VALUE:
        raise ValueError(f"unknown decision {raw!r}")
    ema = (1.0 - GATE_BETA) * state.ema + GATE_BETA * _RAW_VALUE[raw]
    if ema >= GATE_THRESHOLD:
        streak = state.streak + 1 if state.streak >= 0 else 1
    elif ema <= -GATE_THRESHOLD:
        streak = state.streak - 1 if state.streak <= 0 else -1
    else:
        streak = 0
    enacted = "hold"
    if streak >= 2:
        enacted = "grow"
    elif streak <= -2:
        enacted = "prune"
    return enacted, GateState(ema=ema, streak=streak)


@dataclass(frozen=True)
class Phase1Config:
    gamma_add: float = 0.05
    gamma_prune: float = 0.01
    n_stable: int = 20
    max_iterations: int = 200

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

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


def run_phase1(A: np.ndarray, config: Phase1Config) -> Phase1Result:
    """Grow/prune/gate loop until the head count is homeostatically stable.

    Deterministic for a fixed operator.  Hits of the iteration cap
    return converged=False rather than raising.  The zero operator (no
    memory signal) raises ZeroMatrix, as effective_rank does.
    """
    config.validate()
    A = np.asarray(A, dtype=float)
    A = 0.5 * (A + A.T)
    W = A.shape[0]
    r_eff = effective_rank(A)
    a_scale = float(np.linalg.norm(A, "fro"))
    # deflation residue accumulates eigenvector error (~1e-9 scale);
    # a residual below this floor is exhausted, not signal
    floor = 1e-7 * a_scale

    def candidate(R):
        """Leading direction of R and the growth signal of deflating it."""
        if float(np.linalg.norm(R, "fro")) <= floor:
            return np.eye(W)[0], 0.0
        cand, _ = leading_eigvec(R)
        return cand, growth_signal(R, cand, floor)

    # retained (direction, admitted mass, prune score u^T A u / ||A||_F)
    kept: list[tuple[np.ndarray, float, float]] = []

    def admit(u, R):
        mass = max(float(u @ R @ u), 0.0)
        kept.append((u, mass, float(u @ A @ u) / a_scale))
        return R - mass * np.outer(u, u)

    R = admit(leading_eigvec(A)[0], A)
    cand, g = candidate(R)
    gate = GateState()
    stable = 0
    log: list[IterationRecord] = []
    converged = False

    for it in range(config.max_iterations):
        k_before = len(kept)
        scores = [score for _, _, score in kept]
        min_score = min(scores)
        grow_raw = g > config.gamma_add and k_before < W
        prune_raw = k_before > 1 and min_score < config.gamma_prune
        # conservative capacity: pruning outranks growth in a tie
        raw = "prune" if prune_raw else ("grow" if grow_raw else "hold")
        enacted, gate = gate_update(raw, gate)
        if enacted == "grow" and k_before < W:
            R = admit(cand, R)
        elif enacted == "prune" and k_before > 1:
            kept.pop(int(np.argmin(scores)))
            R = A.copy()
            for u, m, _ in kept:
                R -= m * np.outer(u, u)
        log.append(IterationRecord(iteration=it, k=len(kept), growth_signal=g,
                                   min_prune_score=min_score, raw=raw,
                                   ema=gate.ema, enacted=enacted))
        if len(kept) == k_before:
            stable += 1
        else:
            stable = 0
            cand, g = candidate(R)
        if stable >= config.n_stable:
            converged = True
            break

    return Phase1Result(k_star=len(kept), effective_rank_final=r_eff,
                        iterations=log, converged=converged)


def phase2_range(k_star: int) -> tuple[int, int]:
    """Closed head-count search interval [ceil(K*/2), K*] for stage 2."""
    if k_star < 1:
        raise ValueError("k_star must be at least 1")
    return (int(np.ceil(k_star / 2.0)), int(k_star))
