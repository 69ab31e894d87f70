from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memctrl import memory_analysis as ma
from memctrl.ensemble import BaselineEnsembleSim, TaskDistribution


def assert_symmetric_psd(op):
    """The operator is symmetric and positive semidefinite up to roundoff."""
    M = op.matrix
    assert np.allclose(M, M.T, atol=1e-12 * max(1.0, float(np.abs(M).max())))
    assert np.linalg.eigvalsh(M)[0] >= -1e-10 * max(1.0, float(np.trace(M)))


class TestAnalyticGradient:
    def test_no_decay_limit(self):
        v = ma.history_gradient_analytic(1e12, 10, 0.01, lambda_z=4.0)
        assert np.allclose(v, 4.0, rtol=1e-9)

    def test_one_horizon_lag(self):
        # lag k dt = tau_z gives lambda_z / e
        v = ma.history_gradient_analytic(0.05, 10, 0.01, lambda_z=2.0)
        assert v[4] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)

    def test_direct_value(self):
        v = ma.history_gradient_analytic(0.1, 8, 0.01, lambda_z=1.0)
        assert v[4] == pytest.approx(np.exp(-0.5), rel=1e-12)


class TestResidualOperator:
    def test_identical_samples_give_rank_one(self, rng):
        v = rng.uniform(-1.0, 1.0, 9)
        op = ma.build_residual_operator(np.tile(v, (25, 1)), tau_z=np.nan)
        assert np.allclose(op.matrix, np.outer(v, v), atol=1e-12)
        assert ma.effective_rank(op.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_orthonormal_samples_give_identity(self):
        eye = np.eye(6)
        op = ma.build_residual_operator(eye, tau_z=np.nan)
        assert np.allclose(op.matrix, eye / 6.0)
        assert ma.effective_rank(op.matrix) == pytest.approx(6.0, rel=1e-12)

    def test_linear_memory_alignment(self, rng):
        # jittered linear-memory samples: leading eigenvector stays on the
        # decay direction, effective rank collapses to one
        tau_z, W, dt, lam = 0.07, 16, 0.01, 2.0
        g = ma.gradient_samples_linear(tau_z, W, dt, lam, n_samples=512,
                                       jitter=0.05, seed=3)
        op = ma.build_residual_operator(g, tau_z=tau_z)
        assert_symmetric_psd(op)
        w, V = np.linalg.eigh(op.matrix)
        lead = V[:, -1]
        v = ma.history_gradient_analytic(tau_z, W, dt, lam)
        v = v / np.linalg.norm(v)
        angle = np.arccos(min(1.0, abs(float(lead @ v))))
        assert angle < 1e-3
        assert ma.effective_rank(op.matrix) == pytest.approx(1.0, abs=5e-3)

    def test_symmetry_and_psd_on_all_paths(self, rng):
        for _ in range(10):
            g = rng.normal(size=(40, 8))
            op = ma.build_residual_operator(g, tau_z=np.nan)
            assert_symmetric_psd(op)


class TestEffectiveRank:
    def test_identity(self):
        assert ma.effective_rank(np.eye(20)) == pytest.approx(20.0)

    def test_rank_one(self, rng):
        v = rng.normal(size=12)
        assert ma.effective_rank(np.outer(v, v)) == pytest.approx(1.0)

    def test_small_diagonal_case(self):
        assert ma.effective_rank(np.diag([2.0, 1.0, 1.0])) == pytest.approx(16.0 / 6.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ma.ZeroMatrix):
            ma.effective_rank(np.zeros((4, 4)))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_scale_invariance(self, c):
        M = np.diag([3.0, 2.0, 0.5, 0.1])
        assert ma.effective_rank(c * M) == pytest.approx(
            ma.effective_rank(M), rel=1e-9)

    def test_bounds(self, rng):
        for _ in range(30):
            g = rng.normal(size=(50, 10))
            r = ma.effective_rank(g.T @ g)
            assert 1.0 - 1e-12 <= r <= 10.0 + 1e-12


class TestVNormSq:
    def test_matches_direct_summation(self):
        tau_z, W, dt, lam = 2.0, 20, 0.01, 4.0
        direct = lam ** 2 * sum(np.exp(-2 * k * dt / tau_z)
                                for k in range(1, W + 1))
        assert ma.v_norm_sq(tau_z, W, dt, lam) == pytest.approx(
            direct, abs=1e-12 * direct)

    def test_short_memory_regime(self):
        # the tau_z/(2 dt) regime needs the lag grid to resolve the decay
        # (dt << tau_z) while the window does not bound it (tau_z << W dt)
        dt, W, lam = 0.001, 500, 1.0
        tau_z = 25.0 * dt
        expect = lam ** 2 * tau_z / (2.0 * dt)
        assert ma.v_norm_sq(tau_z, W, dt, lam) == pytest.approx(expect, rel=0.05)

    def test_long_memory_regime(self):
        dt, W, lam = 0.01, 20, 1.0
        tau_z = 100.0 * W * dt
        assert ma.v_norm_sq(tau_z, W, dt, lam) == pytest.approx(
            lam ** 2 * W, rel=0.05)


class TestSigmaZClosedForm:
    def test_vanishes_with_short_memory(self):
        rho = lambda u: np.exp(-u * u)   # smooth, rho(0) = 1
        vals = [ma.sigma_z_closed_form(tz, 2.0, 1.5, rho)
                for tz in (1e-4, 1e-3, 1e-2)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[0] < 1e-6

    def test_uncorrelated_limit_is_linear(self):
        rho0 = lambda u: 0.0
        v1 = ma.sigma_z_closed_form(1.0, 2.0, 3.0, rho0)
        v2 = ma.sigma_z_closed_form(2.0, 2.0, 3.0, rho0)
        assert v1 == pytest.approx(2.0 ** 2 * 3.0 * 0.5)
        assert v2 == pytest.approx(2.0 * v1)

    def test_sinusoidal_autocorrelation_value(self):
        # narrowband excitation: formula evaluated at the tone's lag-1
        # autocorrelation (the broadband process backs the MC cross-check)
        rho = lambda u: np.cos(2 * np.pi * u / 1.7)
        got = ma.sigma_z_closed_form(1.0, 1.0, 1.0, rho)
        assert got == pytest.approx(0.5 * (1.0 - np.cos(2 * np.pi / 1.7)),
                                    rel=1e-12)


class TestSigmaZMonteCarlo:
    def test_matches_closed_form_broadband(self):
        est = ma.sigma_z_broadband(0.5, lambda_z=2.0, n_traj=1500, seed=9,
                                   dt=0.01)
        assert est.monte_carlo == pytest.approx(est.closed_form, rel=0.05)

    def test_short_memory_is_tiny(self):
        lo = ma.sigma_z_broadband(0.01, lambda_z=2.0, n_traj=800, seed=2,
                                  dt=0.01)
        hi = ma.sigma_z_broadband(2.0, lambda_z=2.0, n_traj=800, seed=2,
                                  dt=0.01)
        assert lo.monte_carlo < 0.01 * hi.monte_carlo

    def test_deterministic_target_gives_bin_noise_only(self, rng):
        # spread measured by the estimator on a deterministic functional
        # relation is pure bin-width effect
        pos = rng.uniform(-1, 1, 5000)
        vel = rng.uniform(-1, 1, 5000)
        target = 0.3 * pos + 0.1 * vel
        spread = ma.binned_conditional_variance(
            ma.StateBinning.fit(pos, vel, 12), target)
        assert spread < 0.05 * np.var(target)

    def test_insufficient_samples_raises(self, rng):
        pos = rng.uniform(-1, 1, 30)
        vel = rng.uniform(-1, 1, 30)
        with pytest.raises(ma.InsufficientSamples):
            ma.binned_conditional_variance(ma.StateBinning.fit(pos, vel, 12),
                                           pos + vel)


class TestSigmaZPinned:
    # exact values of the bincount reducer; recorded before it came in
    # (the masked binning's per-cell np.var) as the last column, which
    # the bincount sums match up to a relative 1e-13
    @pytest.mark.parametrize("tau_z,n_samples,expected,masked", [
        (0.5, 14000, 0.0406281017058112, 0.0406281017058112),
        (1.0, 12000, 0.08084061229459745, 0.08084061229459744),
        (2.0, 8000, 0.16488035982038968, 0.16488035982038957),
    ])
    def test_monte_carlo_bitwise(self, tau_z, n_samples, expected, masked):
        est = ma.sigma_z_broadband(tau_z, lambda_z=4.0, n_traj=400, seed=42,
                                   dt=0.01)
        assert est.monte_carlo == expected
        assert est.monte_carlo == pytest.approx(masked, rel=1e-13, abs=0)
        assert est.n_samples == n_samples

    def test_one_stratification_per_call(self, argsort_sizes):
        # fit sorts its sample positions once, as floats, and takes the
        # samples' cells from the sort-free cell_index
        est = ma.sigma_z_broadband(1.0, lambda_z=4.0, n_traj=400, seed=42,
                                   dt=0.01)
        assert argsort_sizes == [est.n_samples]

    @pytest.mark.parametrize("tau_z,per_traj", [
        (2.0, 20), (3.0, 10),   # the 20 s BROADBAND_HORIZON, as before
        (3.5, 10),              # 5 samples fit in 20 s; the run grows
        (5.0, 10),              # the 25 s burn-in alone overran 20 s
    ])
    def test_at_least_ten_samples_per_trajectory(self, tau_z, per_traj):
        est = ma.sigma_z_broadband(tau_z, lambda_z=4.0, n_traj=200, seed=42,
                                   dt=0.01)
        assert est.n_samples == per_traj * 200
        assert np.isfinite(est.monte_carlo) and est.monte_carlo > 0.0

    @pytest.mark.parametrize("n_traj", [0, -5])
    def test_rejects_fewer_than_one_trajectory(self, n_traj):
        with pytest.raises(ValueError, match=f"n_traj must be at least 1, got {n_traj}"):
            ma.sigma_z_broadband(1.0, lambda_z=4.0, n_traj=n_traj, dt=0.01,
                                 seed=0)


# The per-step sampler that sigma_z_broadband's stride blocks replaced:
# one draw and one state update per held step.  Kept as the oracle for
# what the sampler hands to the binning.
def per_step_samples(tau_z, lambda_z, n_traj, dt=0.01, seed=0):
    rng = np.random.default_rng(seed)
    burn = int(np.ceil(ma.BURN_IN_FACTOR * tau_z / dt))
    n = max(round(ma.BROADBAND_HORIZON / dt),
            burn + ma.MIN_TRAJ_SAMPLES * ma.BROADBAND_STRIDE)
    decay = np.exp(-dt / tau_z)
    z = np.zeros(n_traj)
    q = rng.uniform(-0.5 * ma.Q_SPAN, 0.5 * ma.Q_SPAN, n_traj)
    drive = lambda_z * tau_z * (1.0 - decay)
    n_samples = (n - 1 - burn) // ma.BROADBAND_STRIDE + 1
    pos, vel, mem = (np.empty((n_samples, n_traj)) for _ in range(3))
    qd, tmp = np.empty(n_traj), np.empty(n_traj)
    for k in range(burn + (n_samples - 1) * ma.BROADBAND_STRIDE + 1):
        rng.standard_normal(out=qd)
        i, r = divmod(k - burn, ma.BROADBAND_STRIDE)
        if k >= burn and r == 0:
            pos[i], vel[i], mem[i] = q, qd, z
        z *= decay
        z += np.multiply(drive, qd, out=tmp)
        q += np.multiply(dt, qd, out=tmp)
    return pos.ravel(), vel.ravel(), mem.ravel()


class TestStrideBlocksMatchPerStepOracle:
    # 0.37 s: a 186-step burn-in, not a whole number of strides; 3.5 s
    # and 5 s: runs that grow past BROADBAND_HORIZON
    @pytest.mark.parametrize("tau_z", [0.37, 1.0, 3.5, 5.0])
    def test_samples_and_estimate(self, tau_z, monkeypatch):
        lam, n_traj, seed = 4.0, 400, 42
        pos, vel, mem = per_step_samples(tau_z, lam, n_traj, seed=seed)
        want = ma.binned_conditional_variance(
            ma.StateBinning.fit(pos, vel, ma.BROADBAND_BINS), mem)
        seen = {}
        fit, variance = ma.StateBinning.fit, ma.binned_conditional_variance

        def fit_spy(p, v, n_bins):
            seen["pos"], seen["vel"] = p, v
            return fit(p, v, n_bins)

        def variance_spy(fitted, target):
            seen["mem"] = target
            return variance(fitted, target)

        monkeypatch.setattr(ma.StateBinning, "fit", staticmethod(fit_spy))
        monkeypatch.setattr(ma, "binned_conditional_variance", variance_spy)
        est = ma.sigma_z_broadband(tau_z, lambda_z=lam, n_traj=n_traj,
                                   seed=seed, dt=0.01)
        assert est.n_samples == mem.size
        assert np.array_equal(seen["vel"], vel)
        assert np.max(np.abs(seen["pos"] - pos)) <= 1e-12
        assert np.max(np.abs(seen["mem"] - mem)) <= 1e-12 * np.std(mem)
        assert est.monte_carlo == pytest.approx(want, rel=1e-13, abs=0)

    def test_one_draw_per_block(self, monkeypatch):
        # at tau_z = 1 the 500-step burn-in is 10 strides and the 30
        # samples draw one block each: 40 draw calls, not one per step
        draws = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def standard_normal(self, *args, **kwargs):
                draws.append(1)
                return self._rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        est = ma.sigma_z_broadband(1.0, lambda_z=4.0, n_traj=400, seed=42,
                                   dt=0.01)
        assert est.n_samples == 30 * 400
        assert len(draws) == 10 + 30


# The masked binning that StateBinning and binned_conditional_variance
# replaced, one boolean mask over all samples per position stratum.
# Kept as the oracle: the sorted code must return the same bits.
def masked_fit(pos, vel, n_bins):
    pe = ma.quantile_bins(pos, n_bins)
    ve = np.empty((n_bins, n_bins + 1))
    pi = np.clip(np.searchsorted(pe, pos, side="right") - 1, 0, n_bins - 1)
    for b in range(n_bins):
        sel = vel[pi == b]
        if sel.size == 0:
            ve[b] = np.linspace(-1.0, 1.0, n_bins + 1)
        else:
            ve[b] = ma.quantile_bins(sel, n_bins)
    return pe, ve


def masked_cell_index(pe, ve, pos, vel):
    nb = ve.shape[0]
    pi = np.clip(np.searchsorted(pe, pos, side="right") - 1, 0, nb - 1)
    vi = np.empty_like(pi)
    for b in range(nb):
        mask = pi == b
        if np.any(mask):
            vi[mask] = np.clip(np.searchsorted(ve[b], vel[mask], side="right")
                               - 1, 0, nb - 1)
    return pi * nb + vi


def masked_conditional_variance(cell, target, min_count=ma.MIN_CELL_COUNT):
    order = np.argsort(cell, kind="stable")
    t_sorted = target[order]
    cell_sorted = cell[order]
    bounds = np.flatnonzero(np.diff(cell_sorted)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [cell.size]])
    total_w = 0
    acc = 0.0
    for s, e in zip(starts, ends):
        n = e - s
        if n < min_count:
            raise ma.InsufficientSamples(
                f"populated bin with {n} < {min_count} samples")
        acc += n * float(np.var(t_sorted[s:e], ddof=1))
        total_w += n
    return acc / total_w


class TestBinningMatchesMaskedOracle:
    @pytest.fixture(params=[12, 17])
    def data(self, request, rng):
        # 30 % of the positions tie at 0.3, so several position quantiles
        # coincide and the strata between them are empty.  At 17 bins the
        # 289 cell ids no longer fit in 8 bits.
        n_bins, n = request.param, 30000
        pos = rng.normal(size=n)
        pos[rng.permutation(n)[:3 * n // 10]] = 0.3
        vel = rng.standard_t(3, size=n)
        target = 0.5 * pos + np.sin(vel) + rng.normal(size=n)
        return n_bins, pos, vel, target

    def test_fit_and_cell_index(self, data, rng):
        n_bins, pos, vel, _ = data
        binning, _ = ma.StateBinning.fit(pos, vel, n_bins)
        pe, ve = masked_fit(pos, vel, n_bins)
        pi = np.clip(np.searchsorted(pe, pos, side="right") - 1, 0, n_bins - 1)
        assert np.bincount(pi, minlength=n_bins).min() == 0
        assert np.array_equal(binning.pos_edges, pe)
        assert np.array_equal(binning.vel_edges, ve)
        # fresh points, some outside every edge
        pos2 = 1.5 * rng.normal(size=5000)
        vel2 = 1.5 * rng.standard_t(3, size=5000)
        for p, v in ((pos, vel), (pos2, vel2)):
            cell = binning.cell_index(p, v)
            assert np.array_equal(cell, masked_cell_index(pe, ve, p, v))
            assert cell.dtype == np.intp

    def test_fit_returns_the_samples_cells(self, data):
        n_bins, pos, vel, _ = data
        _, cell = ma.StateBinning.fit(pos, vel, n_bins)
        pe, ve = masked_fit(pos, vel, n_bins)
        assert np.array_equal(cell, masked_cell_index(pe, ve, pos, vel))
        assert cell.dtype == np.intp

    def test_conditional_variance(self, data):
        n_bins, pos, vel, target = data
        pe, ve = masked_fit(pos, vel, n_bins)
        expect = masked_conditional_variance(
            masked_cell_index(pe, ve, pos, vel), target)
        fit = ma.StateBinning.fit(pos, vel, n_bins)
        # bincount sums against the oracle's per-cell np.var: roundoff only
        assert ma.binned_conditional_variance(fit, target) == pytest.approx(
            expect, rel=1e-13, abs=0)

    def test_cell_index_outside_and_on_the_edges(self, data, rng):
        n_bins, pos, vel, _ = data
        binning, _ = ma.StateBinning.fit(pos, vel, n_bins)
        pe, ve = binning.pos_edges, binning.vel_edges
        # every (position edge, velocity edge of each stratum) pair,
        # points just off the outer edges and far outside them
        p_on = np.repeat(pe, ve.size)
        v_on = np.tile(ve.ravel(), pe.size)
        p_out = np.concatenate([pe[[0, -1]] + [-1e-9, 1e-9], [-1e9, 1e9]])
        v_out = np.concatenate([ve[:, 0] - 1e-9, ve[:, -1] + 1e-9,
                                [-1e9, 1e9]])
        p_all = np.concatenate([p_on, np.repeat(p_out, v_out.size),
                                rng.choice(pe, v_out.size)])
        v_all = np.concatenate([v_on, np.tile(v_out, p_out.size), v_out])
        cell = binning.cell_index(p_all, v_all)
        assert np.array_equal(cell, masked_cell_index(pe, ve, p_all, v_all))
        assert cell.min() >= 0 and cell.max() < n_bins ** 2

    def test_thin_cell_error_names_the_oracles_count(self, rng):
        # 300 samples in 144 cells: some populated cells hold < 5
        pos, vel = rng.normal(size=300), rng.normal(size=300)
        fit = ma.StateBinning.fit(pos, vel, 12)
        with pytest.raises(ma.InsufficientSamples) as oracle:
            masked_conditional_variance(fit[1], pos)
        with pytest.raises(ma.InsufficientSamples) as got:
            ma.binned_conditional_variance(fit, pos)
        assert str(got.value) == str(oracle.value)


class TestGroupMeans:
    def test_matches_add_at_bitwise(self, rng):
        # tie-heavy ids: 20 groups, 6 of them empty, 50000 samples
        n_groups = 20
        ids = rng.choice([0, 1, 2, 3, 5, 8, 9, 11, 12, 13, 14, 16, 17, 19],
                         size=50000)
        values = rng.normal(size=ids.size) * 10.0 ** rng.integers(-8, 8, ids.size)
        sums, counts = np.zeros(n_groups), np.zeros(n_groups)
        np.add.at(sums, ids, values)
        np.add.at(counts, ids, 1.0)
        with np.errstate(invalid="ignore"):
            expect = sums / counts
        got_counts, got = ma.group_means(ids, values, n_groups)
        assert np.array_equal(got_counts, counts)
        assert np.array_equal(got, expect, equal_nan=True)
        assert np.isnan(got[[4, 6, 7, 10, 15, 18]]).all()
        assert not np.isnan(np.delete(got, [4, 6, 7, 10, 15, 18])).any()


class TestClosedLoopSampler:
    def test_shapes_and_determinism(self, cfg):
        g1 = ma.gradient_samples_closed_loop(1.0, cfg.reference, cfg.plant,
                                             cfg.friction, window=10,
                                             n_samples=32, seed=5, dt=cfg.dt,
                                             gains=cfg.baseline_gains())
        g2 = ma.gradient_samples_closed_loop(1.0, cfg.reference, cfg.plant,
                                             cfg.friction, window=10,
                                             n_samples=32, seed=5, dt=cfg.dt,
                                             gains=cfg.baseline_gains())
        assert g1.shape[1] == 10
        assert 0 < g1.shape[0] <= 32
        assert np.array_equal(g1, g2)
        assert np.all(np.isfinite(g1))

    def test_operator_from_sampler_is_psd(self, cfg):
        g = ma.gradient_samples_closed_loop(2.0, cfg.reference, cfg.plant,
                                            cfg.friction, window=8,
                                            n_samples=24, seed=1, dt=cfg.dt,
                                            gains=cfg.baseline_gains())
        op = ma.build_residual_operator(g, tau_z=2.0)
        assert_symmetric_psd(op)
        assert 1.0 <= ma.effective_rank(op.matrix) <= 8.0

    def test_insufficient_history(self, cfg, monkeypatch):
        # a window of round(CLOSED_LOOP_HORIZON / dt) = 300 steps or more
        # is rejected from the step count alone, before the ensemble runs
        def no_rollout(sim, n_steps, dt):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr(BaselineEnsembleSim, "run", no_rollout)
        for window in (300, 1000):
            with pytest.raises(ma.InsufficientHistory):
                ma.gradient_samples_closed_loop(1.0, cfg.reference, cfg.plant,
                                                cfg.friction, window=window,
                                                n_samples=4, dt=cfg.dt, seed=0,
                                                gains=cfg.baseline_gains())

    def test_longest_window_that_fits(self, cfg):
        g = ma.gradient_samples_closed_loop(1.0, cfg.reference, cfg.plant,
                                            cfg.friction, window=299,
                                            n_samples=4, dt=cfg.dt, seed=0,
                                            gains=cfg.baseline_gains())
        assert g.shape == (4, 299)

    def test_matches_full_record_sweep(self, cfg):
        # the sampler records only the window it sweeps; the same adjoint
        # sweep along the full record gives the same samples bit for bit
        W, n, seed, dt = 12, 32, 6, 0.01
        g = ma.gradient_samples_closed_loop(1.0, cfg.reference, cfg.plant,
                                            cfg.friction, window=W,
                                            n_samples=n, dt=dt, seed=seed,
                                            gains=cfg.baseline_gains())
        sim = BaselineEnsembleSim(n // 2, cfg.reference, cfg.plant,
                                  cfg.friction.with_tau_z(1.0), seed,
                                  TaskDistribution(friction_log_sd=0.2),
                                  gains=cfg.baseline_gains())
        n_end = round(ma.CLOSED_LOOP_HORIZON / dt)
        roll = sim.run(n_end, dt)
        adjoint = np.zeros((n // 2, 6, 2))
        adjoint[:, 4, 0] = adjoint[:, 5, 1] = 1.0
        want = np.empty((n // 2, 2, W))
        for k in range(1, W + 1):
            J = sim.step_jacobian((n_end - k) * dt, roll.x[n_end - k], dt)
            adjoint = np.swapaxes(J, 1, 2) @ adjoint
            want[:, :, k - 1] = np.diagonal(adjoint[:, 2:4, :], axis1=1,
                                            axis2=2) / dt
        assert roll.alive.all()
        assert np.array_equal(g, want.reshape(n, W))

    def test_matches_central_differences_without_sign_term(self, cfg):
        # with f_c = f_smax = 0 the friction law is smooth, so central
        # differences of the re-simulated closed loop converge to the
        # exact derivative; eps = 1e-6 leaves truncation and roundoff
        # far below the stated bound
        fric = replace(cfg.friction, f_c=0.0, f_smax=0.0).with_tau_z(2.0)
        W, n, seed, dt, eps = 8, 32, 4, 0.01, 1e-6
        g = ma.gradient_samples_closed_loop(2.0, cfg.reference, cfg.plant,
                                            fric, window=W, n_samples=n,
                                            dt=dt, seed=seed,
                                            gains=cfg.baseline_gains())
        assert g.shape == (n, W)
        sim = BaselineEnsembleSim(n // 2, cfg.reference, cfg.plant, fric,
                                  seed, TaskDistribution(friction_log_sd=0.2),
                                  gains=cfg.baseline_gains())
        n_end = round(ma.CLOSED_LOOP_HORIZON / dt)
        roll = sim.run(n_end, dt)
        fd = np.empty((n // 2, 2, W))
        for k in range(1, W + 1):
            for j in range(2):
                zf = []
                for sign in (1.0, -1.0):
                    x = roll.x[n_end - k].copy()
                    x[2 + j] += sign * eps
                    for m in range(n_end - k, n_end):
                        x = sim.step(m * dt, x, dt)
                    zf.append(x[4 + j])
                fd[:, j, k - 1] = (zf[0] - zf[1]) / (2.0 * eps * dt)
        fd = fd.reshape(n, W)
        rel = np.linalg.norm(g - fd, axis=1) / np.linalg.norm(fd, axis=1)
        assert np.all(rel < 1e-6)

    def test_samples_bounded_on_default_law(self, cfg):
        # the sign(qd) jump contributes no derivative: no sample is an
        # outlier from a velocity sign change inside the window.  Exact
        # samples spread to ~1.8x the median norm (payload and friction
        # draws); finite differences at eps = 1e-4 reached 6.5x here
        g = ma.gradient_samples_closed_loop(2.0, cfg.reference, cfg.plant,
                                            cfg.friction, window=20,
                                            n_samples=256, seed=5, dt=cfg.dt,
                                            gains=cfg.baseline_gains())
        assert g.shape == (256, 20)
        assert np.all(np.isfinite(g))
        norms = np.linalg.norm(g, axis=1)
        assert norms.max() <= 2.5 * np.median(norms)


class TestSigmaZGrid:
    def test_monotone_over_full_grid(self):
        # spec invariant grid {0.1, 0.5, 1, 2, 5} s, default excitation
        vals = []
        for tz in (0.1, 0.5, 1.0, 2.0, 5.0):
            est = ma.sigma_z_broadband(tz, lambda_z=2.0, n_traj=400, seed=4,
                                       dt=0.01)
            vals.append(est.monte_carlo)
        assert np.all(np.diff(vals) > 0.0)


class TestOperatorCSV:
    def test_round_trip(self, tmp_path, rng):
        g = rng.normal(size=(40, 6))
        op = ma.build_residual_operator(g, tau_z=1.5)
        path = tmp_path / "op.csv"
        op.write_csv(path)
        back = np.loadtxt(path, delimiter=",")
        assert np.allclose(back, op.matrix, atol=1e-12)

