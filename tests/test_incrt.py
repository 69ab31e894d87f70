import numpy as np
import pytest

from memctrl import incrt
from memctrl.incrt import (DirectionSet, GateState, Phase1Config, gate_update,
                           growth_signal, leading_eigvec, phase2_range,
                           prune_scores, run_phase1)
from memctrl.memory_analysis import build_residual_operator


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
        sig = growth_signal(R, w / np.linalg.norm(w))
        # deflating the only direction exhausts the residual: the signal
        # is its full effective rank, 1
        assert sig == pytest.approx(1.0, abs=1e-9)

    def test_identity_unit_drop(self):
        R = np.eye(4)
        e1 = np.eye(4)[0]
        assert growth_signal(R, e1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_candidate_is_null(self, rng):
        w = rng.normal(size=5)
        R = np.outer(w, w)
        u = np.zeros(5)
        u[np.argmin(np.abs(w))] = 1.0
        u = u - (u @ w) * w / float(w @ w)
        u /= np.linalg.norm(u)
        assert growth_signal(R, u) == pytest.approx(0.0, abs=1e-9)

    def test_requires_unit_candidate(self):
        with pytest.raises(ValueError):
            growth_signal(np.eye(3), np.array([2.0, 0.0, 0.0]))


class TestPruneScores:
    def test_deflated_direction_scores_zero(self, rng):
        w = rng.normal(size=6)
        u = w / np.linalg.norm(w)
        R = np.outer(w, w)
        R_deflated = R - (u @ R @ u) * np.outer(u, u)
        # make the residual nonzero elsewhere
        other = np.zeros(6); other[0] = 1.0
        other = other - (other @ u) * u
        other /= np.linalg.norm(other)
        R_deflated += 0.5 * np.outer(other, other)
        scores = prune_scores(R_deflated, [u])
        assert abs(scores[0]) < 1e-9

    def test_identity_score(self, rng):
        W = 16
        u = rng.normal(size=W)
        u /= np.linalg.norm(u)
        scores = prune_scores(np.eye(W), [u])
        assert scores[0] == pytest.approx(1.0 / np.sqrt(W), rel=1e-9)

    def test_scale_invariance(self, rng):
        R = np.diag(rng.uniform(0.5, 2.0, 8))
        u = rng.normal(size=8); u /= np.linalg.norm(u)
        s1 = prune_scores(R, [u])
        s2 = prune_scores(7.3 * R, [u])
        assert s1[0] == pytest.approx(s2[0], rel=1e-12)

    def test_zero_residual_raises(self):
        with pytest.raises(incrt.ZeroResidual):
            prune_scores(np.zeros((4, 4)), [np.eye(4)[0]])


class TestGate:
    def run_stream(self, raws, beta=0.5):
        st = GateState(beta=beta)
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

    def test_degenerate_beta_passes_after_confirmation(self):
        out = self.run_stream(["grow", "grow", "prune", "prune", "prune"],
                              beta=1.0)
        assert out == ["hold", "grow", "hold", "prune", "prune"]


class TestRunPhase1:
    def test_rank_one_operator(self, rng):
        g = np.tile(rng.normal(size=12), (64, 1))
        op = build_residual_operator(g)
        res = run_phase1(op, Phase1Config(window=12))
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
        r1 = run_phase1(op, Phase1Config(window=10))
        r2 = run_phase1(op, Phase1Config(window=10))
        assert r1.k_star == r2.k_star
        assert [i.enacted for i in r1.iterations] == \
               [i.enacted for i in r2.iterations]
        assert np.allclose([i.growth_signal for i in r1.iterations],
                           [i.growth_signal for i in r2.iterations])

    def test_k_changes_at_most_one_per_iteration(self, rng):
        g = rng.normal(size=(100, 8)) * rng.uniform(0.2, 2.0, 8)
        res = run_phase1(build_residual_operator(g), Phase1Config(window=8))
        ks = [1] + [r.k for r in res.iterations]
        assert np.max(np.abs(np.diff(ks))) <= 1
        assert 1 <= res.k_star <= 8

    def test_residual_psd_and_mass_monotone(self, rng):
        # instrumented rerun of the loop pieces on a random PSD operator
        g = rng.normal(size=(300, 12))
        A = g.T @ g / 300.0
        u, lam = leading_eigvec(A)
        dirs = DirectionSet()
        dirs.add(u, float(u @ A @ u))
        R = dirs.deflate_from(A)
        norms = [np.linalg.norm(R, "fro")]
        for _ in range(6):
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
                             Phase1Config(window=w))
            assert 1.0 - 1e-9 <= res.effective_rank_final <= w + 1e-9
