import dataclasses
import weakref

import numpy as np
import pytest

from memctrl import markov_gap as mg
from memctrl.memory_analysis import InsufficientSamples, StateBinning


class TestWindowLowerBound:
    def test_published_values(self):
        assert mg.window_lower_bound(1.0, 0.01) == 100
        assert mg.window_lower_bound(2.0, 0.01) == 200
        assert mg.window_lower_bound(5.0, 0.01) == 500

    def test_ceiling(self):
        assert mg.window_lower_bound(0.015, 0.01) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mg.window_lower_bound(0.0, 0.01)


class TestMarkovianPolicy:
    def test_independent_memory_gives_constant_policy(self, rng):
        pos = rng.uniform(-1, 1, 5000)
        vel = rng.uniform(-1, 1, 5000)
        z = rng.normal(0.3, 1.0, 5000)   # independent of the state
        pol = mg.markovian_policy_fit(StateBinning.fit(pos, vel, 12), z)
        preds = pol.predict_z(rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50))
        assert np.std(preds) < 0.15          # bin noise only
        assert np.mean(preds) == pytest.approx(0.3, abs=0.1)

    def test_deterministic_memory_kills_excess(self, rng):
        pos = rng.uniform(-1, 1, 8000)
        vel = rng.uniform(-1, 1, 8000)
        z = 0.8 * vel                        # measurable from the state
        pol = mg.markovian_policy_fit(StateBinning.fit(pos, vel, 12), z)
        excess = np.mean(0.5 * (pol.predict_z(pos, vel) - z) ** 2)
        var_z = float(np.var(z))
        assert excess < 0.02 * var_z

    def test_empty_cell_predicts_global_mean(self, rng):
        # a 2 x 2 grid whose qd >= 0 cells the fit samples never visit
        edges = np.array([-1.0, 0.0, 1.0])
        binning = StateBinning(pos_edges=edges, vel_edges=np.stack([edges] * 2))
        pos = rng.uniform(-1, 1, 2000)
        vel = rng.uniform(-1, 0, 2000)
        z = 2.0 + pos
        pol = mg.markovian_policy_fit((binning, binning.cell_index(pos, vel)), z)
        assert np.isnan(pol.z_mean[[1, 3]]).all()
        pred = pol.predict_z(np.array([0.5, 0.5]), np.array([0.5, -0.5]))
        assert pred[0] == pol.z_mean_global == float(np.mean(z))
        assert pred[1] == pol.z_mean[2] == pytest.approx(2.5, abs=0.05)

    def test_needs_enough_samples(self, rng):
        with pytest.raises(InsufficientSamples):
            mg.markovian_policy_fit(
                StateBinning.fit(rng.normal(size=10), rng.normal(size=10), 12),
                rng.normal(size=10))


def _linear_memory_samples(rng, tau_z, window, dt, lambda_z, n, spread=1.0):
    """Broadband velocity histories and the exact z they induce."""
    steps = window + 200
    qd = rng.normal(0.0, spread, (n, steps))
    decay = np.exp(-dt / tau_z)
    drive = lambda_z * tau_z * (1.0 - decay)
    z = np.zeros(n)
    for k in range(steps):
        z = decay * z + drive * qd[:, k]
    # lag-ordered windows, most recent first (lag 1*dt first)
    wins = qd[:, -1:-window - 1:-1]
    return wins, z


class TestWindowedReconstructor:
    def test_long_window_reconstructs(self, rng):
        tau_z, dt = 0.2, 0.01
        W = round(5 * tau_z / dt)
        wins, z = _linear_memory_samples(rng, tau_z, W, dt, 2.0, 4000)
        rec = mg.windowed_reconstructor_fit([wins], z)
        pred = rec.predict([wins])
        rel = np.sqrt(np.mean((pred - z) ** 2)) / np.sqrt(np.mean(z ** 2))
        assert rel < 0.01

    def test_single_lag_leaves_memory_scale_error(self, rng):
        tau_z, dt = 0.5, 0.01
        wins, z = _linear_memory_samples(rng, tau_z, 1, dt, 2.0, 4000)
        rec = mg.windowed_reconstructor_fit([wins], z)
        resid = rec.predict([wins]) - z
        # one lag barely explains a long memory: residual stays within a
        # factor of two of the full conditional spread
        assert np.sqrt(np.mean(resid ** 2)) > 0.5 * np.std(z)

    def test_error_decays_exponentially_in_window(self, rng):
        tau_z, dt = 0.5, 0.01
        Ws = [10, 25, 50, 100, 200]
        errs = []
        for W in Ws:
            wins, z = _linear_memory_samples(rng, tau_z, W, dt, 2.0, 3000)
            rec = mg.windowed_reconstructor_fit([wins], z)
            errs.append(np.sqrt(np.mean((rec.predict([wins]) - z) ** 2)))
        slope = np.polyfit(Ws, np.log(errs), 1)[0]
        assert slope == pytest.approx(-dt / tau_z, rel=0.15)

    def test_fitted_weights_match_convolution_kernel(self, rng):
        tau_z, dt, lam = 0.1, 0.01, 3.0
        W = 60
        wins, z = _linear_memory_samples(rng, tau_z, W, dt, lam, 6000)
        rec = mg.windowed_reconstructor_fit([wins], z)
        lags = dt * np.arange(1, W + 1)
        kernel = lam * tau_z * (1 - np.exp(-dt / tau_z)) * np.exp(
            -(lags - dt) / tau_z)
        assert np.allclose(rec.weights[:20], kernel[:20], atol=0.05 * kernel[0])

    def test_degenerate_excitation_raises(self):
        X = np.zeros((100, 5))
        X[:, :4] = np.random.default_rng(0).normal(size=(100, 4))
        with pytest.raises(mg.SingularDesign):
            mg.windowed_reconstructor_fit([X], np.zeros(100))


    def test_blocks_left_untouched(self, rng):
        # the fit centres one block at a time into its own array; the
        # blocks, here reversed-slice views of one history, keep their
        # values
        hist = rng.normal(size=(300, 80))
        blocks = [hist[:, i - 40:i][:, ::-1] for i in (40, 55, 80)]
        before = hist.copy()
        z = rng.normal(size=900)
        rec = mg.windowed_reconstructor_fit(blocks, z)
        assert np.array_equal(hist, before)
        one = mg.windowed_reconstructor_fit([np.concatenate(blocks)], z)
        assert np.allclose(rec.weights, one.weights, rtol=1e-9, atol=0)

    @staticmethod
    def _copy_fit(X, z):
        # oracle: the fit that centred a copy of the whole window matrix,
        # tested excitation with X.var and added the ridge as ridge * eye
        Xc = X - X.mean(axis=0)
        zc = z - z.mean()
        gram = Xc.T @ Xc
        ridge = 1e-6 * float(np.trace(gram)) / X.shape[1]
        w = np.linalg.solve(gram + ridge * np.eye(X.shape[1]), Xc.T @ zc)
        return w, float(z.mean() - X.mean(axis=0) @ w)

    @staticmethod
    def _narrow_splits(X):
        """Splits of the window matrix X into blocks shorter than the
        window: equal blocks of 0.4 W rows, so that the Gram is summed
        in several panels and the last one is ragged, and blocks
        alternating 0.4 W and about 0.13 W rows, of unequal heights."""
        n, W = X.shape
        tall = max(1, 2 * W // 5)
        ends = np.cumsum(np.resize([tall, tall // 3 + 1], n))
        return [np.array_split(X, -(-n // tall)), np.split(X, ends[ends < n])]

    def test_matches_centred_copy_fit(self, rng):
        # summing the Gram block by block and panel by panel reorders its
        # sums: held to the relative 1e-9 of test_outputs_pinned's ridge
        # fields, which move by ~7e-12 with the BLAS thread count alone
        for W, n in ((1, 500), (30, 1500), (120, 4000)):
            wins, z = _linear_memory_samples(rng, 0.3, W, 0.01, 2.0, n)
            X = np.ascontiguousarray(wins)
            w, b = self._copy_fit(X, z)
            for n_blocks in (1, 5):
                rec = mg.windowed_reconstructor_fit(
                    np.array_split(X, n_blocks), z)
                assert np.allclose(rec.weights, w, rtol=1e-9, atol=0)
                assert rec.intercept == pytest.approx(b, rel=1e-9, abs=0)
                pred = rec.predict(np.array_split(X, n_blocks))
                assert np.array_equal(pred, X @ rec.weights + rec.intercept)
            for blocks in self._narrow_splits(X):
                rec = mg.windowed_reconstructor_fit(blocks, z)
                assert np.allclose(rec.weights, w, rtol=1e-9, atol=0)
                assert rec.intercept == pytest.approx(b, rel=1e-9, abs=0)

    def test_no_window_square_product_per_block(self, rng, traced_peak):
        # the fit holds the W x W Gram, one centred block, one panel
        # product of at most W x (block height) and the 128 KiB of ufunc
        # buffers that adding it into a strided panel of the Gram takes;
        # a per-block H^T H would add a second W x W array
        W, height = 400, 100
        blocks = list(rng.normal(size=(8, height, W)))
        _, peak = traced_peak(mg.windowed_reconstructor_fit, blocks,
                              rng.normal(size=8 * height))
        assert peak <= (W * W + 2 * height * W) * 8 + 2 ** 18

    def test_windows_freed_before_the_solve(self, rng, monkeypatch):
        # a history that the caller holds only through the windows it
        # passes is freed before the solve, as markov_gap_experiment's
        # fit half is; one that the caller keeps a name for stays
        refs, alive_at_solve = [], []
        solve = np.linalg.solve

        def traced_solve(a, b):
            alive_at_solve.append(refs[-1]() is not None)
            return solve(a, b)

        def windows(hist):
            refs.append(weakref.ref(hist))
            return [hist[:, i - 40:i][:, ::-1] for i in (40, 55, 80)]

        monkeypatch.setattr(np.linalg, "solve", traced_solve)
        z = rng.normal(size=900)
        kept = rng.normal(size=(300, 80))
        mg.windowed_reconstructor_fit(windows(kept), z)
        mg.windowed_reconstructor_fit(windows(rng.normal(size=(300, 80))), z)
        assert alive_at_solve == [True, False]

    @pytest.mark.parametrize("value", [0.0, 0.5, 0.1, 1e-300])
    def test_constant_column_test_matches_variance(self, value):
        # the Gram diagonal and X.var sum the same centred squares: a
        # constant 0.1 column centres to roundoff, not to zero, in both
        X = np.random.default_rng(1).normal(size=(100, 5))
        X[:, 2] = value
        singular = bool(np.any(X.var(axis=0) <= 0.0))
        try:
            mg.windowed_reconstructor_fit([X], np.zeros(100))
        except mg.SingularDesign:
            assert singular
        else:
            assert not singular

    @pytest.mark.parametrize("blocks, z, message", [
        ([], np.zeros(0), "more rows than window lags"),
        ([np.ones((10, 4)), np.ones((10, 3))], np.zeros(20), "one common window"),
        ([np.ones(10)], np.zeros(10), "one common window"),
        ([np.ones((10, 4))], np.zeros(12), "10 window rows for 12 targets"),
    ])
    def test_malformed_blocks_rejected(self, blocks, z, message):
        with pytest.raises(ValueError, match=message):
            mg.windowed_reconstructor_fit(blocks, z)


@pytest.fixture(scope="module")
def result(cfg):
    return mg.markov_gap_experiment(0.5, cfg.reference, cfg.plant,
                                    cfg.friction, n_traj=256, seed=11,
                                    dt=cfg.dt, gains=cfg.baseline_gains())


class TestExperiment:
    def test_markovian_excess_meets_lower_bound(self, result):
        assert result.excess_markov >= 0.9 * result.lower_bound

    def test_windowed_excess_is_small(self, result):
        assert result.excess_windowed <= 0.05 * result.excess_markov

    def test_ordering_with_separation(self, result):
        gap = result.excess_markov - result.excess_windowed
        assert gap >= 3.0 * np.hypot(result.excess_markov_se,
                                     result.excess_windowed_se)

    def test_markov_excess_grows_with_memory_horizon(self, cfg):
        # rising regime of the gap: more memory, more hidden state.  At
        # long horizons relative to the excitation band the memory
        # phase-locks to the position and becomes partially recoverable
        # from the instantaneous state, so the far grid points are held
        # to the gross memoryless-vs-memoryful ordering only.
        res = {tz: mg.markov_gap_experiment(tz, cfg.reference, cfg.plant,
                                            cfg.friction, n_traj=256, seed=5,
                                            dt=cfg.dt,
                                            gains=cfg.baseline_gains())
               for tz in (0.1, 0.5, 1.0, 5.0)}
        ex = {tz: r.excess_markov for tz, r in res.items()}
        assert ex[0.1] < ex[0.5] < ex[1.0]
        se = np.hypot(res[0.1].excess_markov_se, res[5.0].excess_markov_se)
        assert ex[5.0] - ex[0.1] >= 3.0 * se

    def test_outputs_pinned(self, cfg):
        # recorded before the ensemble step was widened to (B, 2)
        # operands and the lag windows were gathered per half.  Seven
        # fields must come out bit for bit; excess_markov_se was
        # re-recorded when each trajectory's mean came to be summed in
        # time order, and stays within 1e-13 of its value from the
        # pairwise-summed per-trajectory np.mean (old_se).  The two
        # ridge-fit fields depend on the summation order of Xc.T @ Xc
        # and of the solve, which changes with the BLAS thread count
        # (relative 6.5e-12 and 7.9e-12 between 1 and 2 OpenBLAS
        # threads), so they are held to a relative roundoff bound of
        # 1e-9.  n_bins and the dense sample times keep enough samples
        # per cell at 64 trajectories.
        res = mg.markov_gap_experiment(0.5, cfg.reference, cfg.plant,
                                       cfg.friction, n_traj=64, n_bins=6,
                                       sample_times=np.arange(2.5, 5.0, 0.05),
                                       seed=0, dt=cfg.dt,
                                       gains=cfg.baseline_gains())
        ridge = {"excess_windowed": 4.237074992006868e-06,
                 "excess_windowed_se": 5.419759964511063e-07}
        for name, value in ridge.items():
            assert getattr(res, name) == pytest.approx(value, rel=1e-9, abs=0)
        old_se = 0.005185260303242043
        assert res.excess_markov_se == pytest.approx(old_se, rel=1e-13, abs=0)
        assert dataclasses.replace(res, **ridge) == mg.MarkovGapResult(
            tau_z=0.5, sigma2_hat=0.11387589637645046,
            excess_markov=0.06793442632445963,
            excess_markov_se=0.005185260303242044,
            lower_bound=0.05693794818822523, window=250, n_eval=1600, **ridge)

    @pytest.mark.parametrize("times, message", [
        # step 30 < window 250: the lag window would wrap round to the
        # end of the rollout
        (np.arange(0.3, 5, 0.05), r"sample time 0\.3 s \(step 30\)"),
        (np.array([3.0, 5.05, 6.0]), r"sample time 5\.05 s \(step 505\)"),
    ])
    def test_sample_time_outside_rollout_rejected(self, cfg, times, message):
        with pytest.raises(ValueError, match=message + r" is outside \[2\.5, 5\] s"):
            mg.markov_gap_experiment(0.5, cfg.reference, cfg.plant,
                                     cfg.friction, n_traj=256, seed=11,
                                     sample_times=times, dt=cfg.dt,
                                     gains=cfg.baseline_gains())

    def test_window_start_and_last_step_accepted(self, cfg):
        # step 250 = window (lags start at t = 0) and step 500 = n
        times = np.arange(2.5, 5.0 + 1e-9, 0.05)
        res = mg.markov_gap_experiment(0.5, cfg.reference, cfg.plant,
                                       cfg.friction, n_traj=64, n_bins=6,
                                       sample_times=times, seed=0, dt=cfg.dt,
                                       gains=cfg.baseline_gains())
        assert res.n_eval == 32 * times.size
        assert 0.0 < res.excess_windowed < res.excess_markov

    def test_traced_peak_within_records_plus_one_fit(self, cfg, traced_peak):
        # the bound adds the rollout's record of the measured joint's
        # three rows, its (n + 1) x B velocity history (member-major, in
        # two halves) and two W x W matrices (the Gram, and room for its
        # panel products) as if all were alive at once, plus 1 MiB for
        # the small arrays of either phase, one centred (n, W) block
        # among them.  Recording all six packed rows as three
        # (n + 1, B, 2) arrays and fitting on one window matrix of all
        # sample times peaked at 7.6 MiB here, over the 5.9 MiB bound;
        # one joint's rows and per-block sums peak at 4.7 MiB.
        res, peak = traced_peak(mg.markov_gap_experiment, 0.5, cfg.reference,
                                cfg.plant, cfg.friction, n_traj=256, seed=11,
                                dt=cfg.dt, gains=cfg.baseline_gains())
        W, dt = res.window, 0.01
        n_steps = round(max(mg.HORIZON, W * dt + 2.5) / dt)
        record = 3 * (n_steps + 1) * 256 * 8
        history = (n_steps + 1) * 256 * 8
        gram = W * W * 8
        assert peak <= record + history + 2 * gram + 2 ** 20

    def test_partial_window_sits_between(self, cfg):
        full = mg.markov_gap_experiment(0.5, cfg.reference, cfg.plant,
                                        cfg.friction, n_traj=256, seed=11,
                                        dt=cfg.dt, gains=cfg.baseline_gains())
        part = mg.markov_gap_experiment(0.5, cfg.reference, cfg.plant,
                                        cfg.friction, n_traj=256, seed=11,
                                        window=5, dt=cfg.dt,
                                        gains=cfg.baseline_gains())
        assert full.excess_windowed < part.excess_windowed < full.excess_markov
        gap_hi = full.excess_markov - part.excess_windowed
        gap_lo = part.excess_windowed - full.excess_windowed
        assert gap_hi >= 3.0 * np.hypot(full.excess_markov_se,
                                        part.excess_windowed_se)
        assert gap_lo >= 3.0 * np.hypot(part.excess_windowed_se,
                                        full.excess_windowed_se)


class TestOneBinningPass:
    def test_one_stratification_per_sample_set(self, cfg, argsort_sizes):
        # the fit samples are sorted once, by StateBinning.fit, for the
        # binning, the conditional variance and the policy fit together;
        # the policy's prediction looks its cells up with no sort
        mg.markov_gap_experiment(0.5, cfg.reference, cfg.plant,
                                 cfg.friction, n_traj=64, n_bins=6,
                                 sample_times=np.arange(2.5, 5.0, 0.05),
                                 seed=0, dt=cfg.dt, gains=cfg.baseline_gains())
        n_times = np.arange(2.5, 5.0, 0.05).size
        assert argsort_sizes == [32 * n_times]
