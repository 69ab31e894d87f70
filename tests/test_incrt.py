import json
from pathlib import Path

import numpy as np
import pytest

from memctrl.incrt import (GateState, Phase1Config, gate_update, growth_signal,
                           leading_eigvec, phase2_range, run_phase1)
from memctrl.memory_analysis import ZeroMatrix, build_residual_operator


def planted_operator(eigs, seed=0):
    """diag(eigs) in a seeded random orthonormal basis."""
    W = len(eigs)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(W, W)))
    return (Q * np.asarray(eigs, dtype=float)) @ Q.T


def _planted(rank, floor=0.0):
    return [1.0] * rank + [floor] * (20 - rank)


# ROADMAP item 1's table, 20-dimensional
PLANTED = {
    "rank2": _planted(2),
    "rank3": _planted(3),
    "rank3_floor1e-3": _planted(3, 1e-3),
    "rank2_floor1e-2": _planted(2, 1e-2),
    "rank1_floor1e-2": _planted(1, 1e-2),
    "geometric": [0.5 ** k for k in range(20)],
}


def random_psd_operator(seed):
    """Sample second moment of n Gaussian rows with scaled columns:
    W in 4..20 and n in W..4W, both drawn from the seed."""
    rng = np.random.default_rng(seed)
    W = int(rng.integers(4, 21))
    n = int(rng.integers(W, 4 * W + 1))
    g = rng.normal(size=(n, W)) * rng.uniform(0.05, 2.0, W)
    return g.T @ g / n


def pinned_operators():
    """name -> operator of every case in PHASE1_PIN."""
    ops = {"eye20": np.eye(20)}
    ops.update({f"planted_{k}": planted_operator(v) for k, v in PLANTED.items()})
    ops.update({f"random_psd_s{s}": random_psd_operator(s) for s in range(20)})
    return ops


def decision_record(res):
    """What PHASE1_PIN holds for one run_phase1 result."""
    its = res.iterations
    return {"k_star": res.k_star, "converged": res.converged,
            "n_iterations": res.n_iterations,
            "k": [r.k for r in its], "raw": [r.raw for r in its],
            "enacted": [r.enacted for r in its],
            "growth_signal": [r.growth_signal for r in its],
            "min_prune_score": [r.min_prune_score for r in its]}


# decision_record(run_phase1(A)) at the default Phase1Config for every
# pinned_operators() case, recorded at commit 40463b5, the loop that
# rebuilt the operator from the residual to score pruning on every
# iteration.  The records cover growth, the window cap, pruning and the
# 200-iteration cap.  The growth signals logged at k = W - 1 of
# random_psd_s11 and random_psd_s16 were re-recorded (0.9109 and 0.9243
# to 1.0, the exact spectrum's value) when growth_signal took run_phase1's
# exhaustion floor in place of its own 1e-12 test.
PHASE1_PIN = Path(__file__).parent / "data" / "phase1_decisions.json"


class TestLeadingEigvec:
    def test_diagonal(self):
        v, lam = leading_eigvec(np.diag([3.0, 1.0]))
        assert lam == pytest.approx(3.0, abs=1e-9)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-6)

    def test_outer_product(self, rng):
        w = rng.normal(size=7)
        v, lam = leading_eigvec(np.outer(w, w))
        assert lam == pytest.approx(float(w @ w), rel=1e-8)
        unit = w / np.linalg.norm(w)
        assert min(np.linalg.norm(v - unit), np.linalg.norm(v + unit)) < 1e-6

    def test_zero_matrix(self):
        v, lam = leading_eigvec(np.zeros((5, 5)))
        assert lam == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestGrowthSignal:
    def test_rank_one_exhaustion(self, rng):
        w = rng.normal(size=6)
        R = np.outer(w, w)
        sig = growth_signal(R, w / np.linalg.norm(w), 1e-7 * np.linalg.norm(R))
        # deflating the only direction exhausts the residual: the signal
        # is its full effective rank, 1
        assert sig == pytest.approx(1.0, abs=1e-9)

    def test_identity_unit_drop(self):
        R = np.eye(4)
        e1 = np.eye(4)[0]
        assert growth_signal(R, e1, 1e-7 * np.linalg.norm(R)) == pytest.approx(
            1.0, abs=1e-12)

    def test_orthogonal_candidate_is_null(self, rng):
        w = rng.normal(size=5)
        R = np.outer(w, w)
        u = np.zeros(5)
        u[np.argmin(np.abs(w))] = 1.0
        u = u - (u @ w) * w / float(w @ w)
        u /= np.linalg.norm(u)
        assert growth_signal(R, u, 1e-7 * np.linalg.norm(R)) == pytest.approx(
            0.0, abs=1e-9)

    def test_requires_unit_candidate(self):
        with pytest.raises(ValueError):
            growth_signal(np.eye(3), np.array([2.0, 0.0, 0.0]), 1e-7)


class TestPruneScores:
    """The logged min_prune_score: u^T A u / ||A||_F of the retained
    directions, fixed when each is admitted."""

    def test_deflated_direction_scores_zero(self):
        # a retained direction has no mass left in the deflated residual,
        # so the loop scores it against A: the scores of rank2's two
        # directions stay at 1 / sqrt(2), not 0
        A = planted_operator(PLANTED["rank2"])
        u, _ = leading_eigvec(A)
        R = A - float(u @ A @ u) * np.outer(u, u)
        assert abs(float(u @ R @ u)) < 1e-12
        res = run_phase1(A, Phase1Config())
        assert res.k_star == 2
        for rec in res.iterations:
            assert rec.min_prune_score == pytest.approx(1 / np.sqrt(2),
                                                        rel=1e-12)

    def test_identity_score(self):
        res = run_phase1(np.eye(16), Phase1Config())
        assert res.iterations[0].min_prune_score == pytest.approx(0.25,
                                                                  rel=1e-9)

    def test_scale_invariance(self, rng):
        A = np.diag(rng.uniform(0.5, 2.0, 8))
        config = Phase1Config()
        s1 = [r.min_prune_score for r in run_phase1(A, config).iterations]
        s2 = [r.min_prune_score
              for r in run_phase1(7.3 * A, config).iterations]
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_zero_operator_raises(self):
        with pytest.raises(ZeroMatrix):
            run_phase1(np.zeros((4, 4)), Phase1Config())


class TestGate:
    def run_stream(self, raws):
        st = GateState()
        out = []
        for r in raws:
            enacted, st = gate_update(r, st)
            out.append(enacted)
        return out

    def test_alternation_is_suppressed(self):
        out = self.run_stream(["grow", "prune"] * 10)
        assert all(e == "hold" for e in out)

    def test_constant_grow_enacts_from_second(self):
        out = self.run_stream(["grow"] * 6)
        assert out[0] == "hold"
        assert all(e == "grow" for e in out[1:])


class TestRunPhase1:
    def test_rank_one_operator(self, rng):
        g = np.tile(rng.normal(size=12), (64, 1))
        op = build_residual_operator(g)
        res = run_phase1(op, Phase1Config())
        assert res.k_star == 1
        assert res.converged

    def test_identity_regression_anchor(self):
        # brute-force trace: every deflation of I_20 drops r_eff by
        # exactly one, so growth fires until the window cap, then the
        # loop holds: K* = W = 20, grown once per iteration from the
        # second, stable for n_stable = 20 after that.
        res = run_phase1(np.eye(20), Phase1Config())
        assert res.k_star == 20
        assert res.converged
        grows = [r.iteration for r in res.iterations if r.enacted == "grow"]
        assert grows[0] == 1 and len(grows) == 19
        assert res.n_iterations == pytest.approx(40, abs=2)

    def test_determinism(self, rng):
        g = rng.normal(size=(200, 10))
        op = build_residual_operator(g)
        r1 = run_phase1(op, Phase1Config())
        r2 = run_phase1(op, Phase1Config())
        assert r1.k_star == r2.k_star
        assert [i.enacted for i in r1.iterations] == \
               [i.enacted for i in r2.iterations]
        assert np.allclose([i.growth_signal for i in r1.iterations],
                           [i.growth_signal for i in r2.iterations])

    def test_k_changes_at_most_one_per_iteration(self, rng):
        g = rng.normal(size=(100, 8)) * rng.uniform(0.2, 2.0, 8)
        res = run_phase1(build_residual_operator(g),
                         Phase1Config())
        ks = [1] + [r.k for r in res.iterations]
        assert np.max(np.abs(np.diff(ks))) <= 1
        assert 1 <= res.k_star <= 8

    def test_residual_psd_and_mass_monotone(self, rng):
        # the loop's grow update, R - m u u^T, replayed on a random PSD
        # operator
        g = rng.normal(size=(300, 12))
        R = g.T @ g / 300.0
        norms = [np.linalg.norm(R, "fro")]
        for _ in range(7):
            cand, _ = leading_eigvec(R)
            mass = max(float(cand @ R @ cand), 0.0)
            R = R - mass * np.outer(cand, cand)
            assert np.linalg.eigvalsh(R)[0] >= -1e-8
            norms.append(np.linalg.norm(R, "fro"))
        assert np.all(np.diff(norms) <= 1e-12)

    def test_cap_returns_unconverged(self):
        res = run_phase1(np.eye(20), Phase1Config(max_iterations=3))
        assert not res.converged
        assert res.n_iterations == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Phase1Config(gamma_add=0.01, gamma_prune=0.05).validate()

    @pytest.mark.parametrize("name", sorted(pinned_operators()))
    def test_decisions_match_pin(self, name):
        pin = json.loads(PHASE1_PIN.read_text())[name]
        got = decision_record(run_phase1(pinned_operators()[name],
                                         Phase1Config()))
        scores = (got.pop("min_prune_score"), pin.pop("min_prune_score"))
        # growth signals bit for bit; the scores are the same quotient
        # of an operator that was rebuilt from the residual, to roundoff
        assert got == pin
        assert scores[0] == pytest.approx(scores[1], rel=1e-12)


_ITEM1 = ("ROADMAP item 1: the stable-rank growth signal follows the noise "
          "floor, not the planted rank")


class TestPlantedSpectra:
    """ROADMAP item 1's contract: rank k, with or without a floor up to
    1e-2, gives K* = k, converged."""

    @pytest.mark.parametrize("name, rank", [
        ("rank2", 2),
        ("rank3", 3),
        pytest.param("rank3_floor1e-3", 3,
                     marks=pytest.mark.xfail(strict=True, reason=_ITEM1)),
        pytest.param("rank2_floor1e-2", 2,
                     marks=pytest.mark.xfail(strict=True, reason=_ITEM1)),
        # today: K* = 2 and the 200-iteration cap
        pytest.param("rank1_floor1e-2", 1,
                     marks=pytest.mark.xfail(strict=True, reason=_ITEM1)),
    ])
    def test_planted_rank_recovered(self, name, rank):
        res = run_phase1(planted_operator(PLANTED[name]), Phase1Config())
        assert (res.k_star, res.converged) == (rank, True)


def exact_growth_signal(eigs, k):
    """growth_signal with the k leading eigenvectors of an operator with
    eigenvalues eigs (descending) deflated and the next one the
    candidate, from the spectrum alone: r_eff(eigs[k:]) minus
    r_eff(eigs[k + 1:]), or the whole r_eff(eigs[k:]) when deflating
    exhausts the residual (eigs[k + 1:] empty or zero)."""
    def r_eff(lam):
        return float(lam.sum() ** 2 / np.sum(lam * lam))

    rest = eigs[k + 1:]
    if rest.size == 0 or not np.any(rest):
        return r_eff(eigs[k:])
    return r_eff(eigs[k:]) - r_eff(rest)


class TestExactGrowthSignal:
    def test_grow_decisions_match_the_spectrum(self):
        # each logged signal was computed with the previous record's k
        # heads kept (1 before the first); pruning drops the head of
        # least mass, so the kept heads stay the leading eigenvectors
        gamma = Phase1Config().gamma_add
        disagree = []
        for seed in range(1000, 1300):
            A = random_psd_operator(seed)
            eigs = np.linalg.eigvalsh(A)[::-1]
            k = 1
            for rec in run_phase1(A, Phase1Config()).iterations:
                exact = exact_growth_signal(eigs, k) if k < eigs.size else 0.0
                if (rec.growth_signal > gamma) != (exact > gamma):
                    disagree.append(seed)
                    break
                k = rec.k
        assert disagree == []


class TestPhase2Range:
    def test_published_rows(self):
        assert phase2_range(14) == (7, 14)
        assert phase2_range(8) == (4, 8)

    def test_floor(self):
        assert phase2_range(1) == (1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            phase2_range(0)


class TestPhase1ReportedRank:
    def test_effective_rank_in_bounds(self, rng):
        for w in (6, 12):
            g = rng.normal(size=(120, w)) * rng.uniform(0.3, 2.0, w)
            res = run_phase1(build_residual_operator(g),
                             Phase1Config())
            assert 1.0 - 1e-9 <= res.effective_rank_final <= w + 1e-9
