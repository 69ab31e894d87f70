import csv
import dataclasses
import io

import numpy as np
import pytest

from memctrl import dynamics, runner
from memctrl.controller import BaselineController, ControllerParams
from memctrl.dynamics import (BatchReference, FrictionParams, PlantParams,
                              PlantState, ReferenceSpec, coriolis_matrix,
                              gravity_vector, mass_matrix, memory_derivative,
                              potential_energy, rollout, step_rk4,
                              stribeck_force, total_energy, within_bound)

# hand-evaluated inertia terms for the default links (m = 3.5, l = 1,
# lc = 0.5, rod inertia m l^2 / 12):
# a = 2I + m lc^2 + m (l^2 + lc^2), b = m l lc, d = I + m lc^2
A_HAND = 2 * (3.5 / 12.0) + 3.5 * 0.25 + 3.5 * 1.25   # = 5.833333...
B_HAND = 1.75
D_HAND = 3.5 / 12.0 + 3.5 * 0.25                      # = 1.166666...


class TestMassMatrix:
    def test_hand_values_at_origin(self):
        M = mass_matrix(np.zeros(2), PlantParams())
        assert M[0, 0] == pytest.approx(A_HAND + 2 * B_HAND, rel=1e-12)
        assert M[0, 1] == pytest.approx(D_HAND + B_HAND, rel=1e-12)
        assert M[1, 1] == pytest.approx(D_HAND, rel=1e-12)
        assert M[0, 0] > M[1, 1] > 0.0

    def test_symmetry_exact(self, rng):
        q = rng.uniform(-np.pi, np.pi, (64, 2))
        M = mass_matrix(q, PlantParams())
        assert np.array_equal(M, np.swapaxes(M, -1, -2))

    def test_positive_definite_sampled(self, rng):
        # spec invariant: 1e3 sampled (q, payload)
        q = rng.uniform(-np.pi, np.pi, (1000, 2))
        p = rng.uniform(0.0, 1.5, 1000)
        for i in range(1000):
            M = mass_matrix(q[i], PlantParams(payload=p[i]))
            assert np.linalg.eigvalsh(M)[0] > 0.0

    def test_payload_raises_eigenvalues(self, rng):
        q = rng.uniform(-np.pi, np.pi, (50, 2))
        for qi in q:
            lo = np.linalg.eigvalsh(mass_matrix(qi, PlantParams(payload=0.3)))
            hi = np.linalg.eigvalsh(mass_matrix(qi, PlantParams(payload=1.2)))
            assert np.all(hi >= lo - 1e-12)


class TestCoriolis:
    def test_zero_velocity(self):
        C = coriolis_matrix(np.array([0.3, -0.7]), np.zeros(2), PlantParams())
        assert np.allclose(C @ np.zeros(2), 0.0)

    def test_skew_symmetry_fd(self, rng):
        # qd^T (Mdot - 2C) qd = 0 with Mdot by central difference
        params = PlantParams(payload=0.8)
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.uniform(-1.0, 1.0, 2)
            h = 1e-5   # balances roundoff vs truncation at these scales
            Mdot = (mass_matrix(q + h * qd, params)
                    - mass_matrix(q - h * qd, params)) / (2 * h)
            C = coriolis_matrix(q, qd, params)
            val = qd @ (Mdot - 2.0 * C) @ qd
            assert abs(val) < 1e-9

    def test_centripetal_closed_form(self):
        # joint-1 spin at a bent elbow loads joint 2 with b sin(q2) qd1^2
        q = np.array([0.0, np.pi / 2])
        qd = np.array([1.0, 0.0])
        C = coriolis_matrix(q, qd, PlantParams())
        torque = C @ qd
        assert torque[1] == pytest.approx(B_HAND, rel=1e-12)
        assert torque[1] != 0.0


class TestGravity:
    def test_hanging_equilibrium(self):
        g = gravity_vector(np.array([-np.pi / 2, 0.0]), PlantParams(payload=0.7))
        assert np.all(np.abs(g) < 1e-12)

    def test_matches_potential_gradient(self, rng):
        params = PlantParams(payload=0.4)
        h = 1e-6
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, 2)
            g = gravity_vector(q, params)
            for j in range(2):
                dq = np.zeros(2)
                dq[j] = h
                fd = (potential_energy(q + dq, params)
                      - potential_energy(q - dq, params)) / (2 * h)
                assert g[j] == pytest.approx(fd, abs=1e-6)

    def test_zero_gravity(self):
        params = PlantParams(gravity=0.0)
        assert np.allclose(gravity_vector(np.array([0.4, 1.1]), params), 0.0)


class TestStribeck:
    def test_rest_is_force_free(self):
        f = stribeck_force(np.zeros(2), np.zeros(2), FrictionParams())
        assert np.array_equal(f, np.zeros(2))

    def test_high_speed_asymptote(self):
        fric = FrictionParams()
        qd = np.array([50.0, -50.0])
        f = stribeck_force(qd, np.zeros(2), fric)
        expect = fric.sigma * qd + fric.f_c * np.sign(qd)
        assert np.allclose(f, expect, rtol=1e-12)

    def test_value_at_stribeck_velocity(self):
        fric = FrictionParams(f_c=1.0, f_smax=2.0, v_s=0.1, sigma=0.0)
        f = stribeck_force(np.array([0.1, 0.0]), np.zeros(2), fric)
        assert f[0] == pytest.approx(1.0 + np.exp(-1.0), rel=1e-12)

    def test_memory_enters_additively(self, rng):
        fric = FrictionParams()
        qd = rng.uniform(-1, 1, 2)
        z = rng.uniform(-2, 2, 2)
        assert np.allclose(stribeck_force(qd, z, fric),
                           stribeck_force(qd, np.zeros(2), fric) + z)


class TestMemoryState:
    def test_rest_fixed_point(self):
        assert np.allclose(memory_derivative(np.zeros(2), np.zeros(2),
                                             FrictionParams()), 0.0)

    def test_held_velocity_fixed_point(self):
        fric = FrictionParams(tau_z=0.5)
        qd = np.array([0.7, -0.3])
        z_star = fric.lambda_z * fric.tau_z * qd
        assert np.allclose(memory_derivative(qd, z_star, fric), 0.0)

    def test_impulse_decay_ratio(self):
        # decay over one horizon under RK4 at 10 ms: ratio e^-1 +- 1e-3
        fric = FrictionParams(tau_z=0.8)
        z = np.array([1.0, -2.0])
        dt, n = 0.01, 80
        for _ in range(n):
            k1 = memory_derivative(np.zeros(2), z, fric)
            k2 = memory_derivative(np.zeros(2), z + dt / 2 * k1, fric)
            k3 = memory_derivative(np.zeros(2), z + dt / 2 * k2, fric)
            k4 = memory_derivative(np.zeros(2), z + dt * k3, fric)
            z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert z[0] == pytest.approx(np.exp(-1.0), abs=1e-3)


def _quiet_friction():
    return FrictionParams(f_c=0.0, f_smax=0.0, v_s=0.1, sigma=0.0,
                          lambda_z=0.0, tau_z=1.0)


class TestStepRK4:
    def test_equilibrium_fixed(self):
        params = PlantParams(gravity=0.0)
        state = PlantState(q=np.array([0.3, -0.4]), qd=np.zeros(2),
                           z=np.zeros(2))
        new = step_rk4(state, np.zeros(2), 0.01, params, _quiet_friction())
        assert np.allclose(new.q, state.q, atol=1e-15)
        assert np.allclose(new.qd, 0.0, atol=1e-15)

    def _energy_drift(self, dt, horizon=1.0):
        params = PlantParams()  # gravity on: lively pendulum swing
        fric = _quiet_friction()
        state = PlantState(q=np.array([1.2, 0.5]), qd=np.zeros(2),
                           z=np.zeros(2))
        e0 = total_energy(state.q, state.qd, params)
        for _ in range(round(horizon / dt)):
            state = step_rk4(state, np.zeros(2), dt, params, fric)
        return abs(total_energy(state.q, state.qd, params) - e0)

    def test_rk4_order_on_energy(self):
        d1 = self._energy_drift(0.01)
        d2 = self._energy_drift(0.005)
        # fixed-horizon drift is O(dt^4): halving dt gains >= 2^4 (20% slack)
        assert d1 / d2 >= 16.0 * 0.8

    def test_energy_conservation_planar(self):
        # g = 0, no friction, no torque: 5 s relative drift < 1e-6
        params = PlantParams(gravity=0.0)
        fric = _quiet_friction()
        state = PlantState(q=np.array([0.9, -0.6]),
                           qd=np.array([1.0, -0.5]), z=np.zeros(2))
        e0 = total_energy(state.q, state.qd, params)
        for _ in range(500):
            state = step_rk4(state, np.zeros(2), 0.01, params, fric)
        drift = abs(total_energy(state.q, state.qd, params) - e0)
        assert drift / abs(e0) < 1e-6

    def test_memory_subsystem_analytic(self):
        # coupled integrator vs exact exponential decay, 500 steps
        params = PlantParams(gravity=0.0)
        fric = FrictionParams(f_c=0.0, f_smax=0.0, sigma=0.0,
                              lambda_z=0.0, tau_z=1.0)
        state = PlantState(q=np.zeros(2), qd=np.zeros(2),
                           z=np.array([1.0, -0.5]))
        z0 = state.z.copy()
        for k in range(500):
            state = step_rk4(state, np.zeros(2), 0.01, params, fric)
        exact = z0 * np.exp(-5.0)
        assert np.max(np.abs(state.z - exact)) < 1e-8

    def test_blowup_fails_within_bound(self):
        # the step itself does not check the bound; closed_loop does
        params = PlantParams()
        state = PlantState(q=np.zeros(2), qd=np.zeros(2), z=np.zeros(2))
        new = step_rk4(state, np.array([1e9, 1e9]), 0.01, params,
                       FrictionParams())
        assert not within_bound(new.x)

    def test_rk4_jacobian_matches_complex_step(self, cfg, rng):
        # rk4_jacobian against a complex step of rk4_increment itself,
        # with the torque held and its state derivative a seeded random
        # (B, 2, 6) array; per-member payload and friction, and members
        # at and near qd = 0, where the Stribeck slope is steepest
        from memctrl import ensemble

        task = ensemble.TaskDistribution(friction_log_sd=0.2)
        sim = ensemble.BaselineEnsembleSim(6, cfg.reference, cfg.plant,
                                           cfg.friction, seed=5, task=task,
                                           gains=cfg.baseline_gains())
        B, dt, h = sim.batch, 0.01, 1e-30
        x = np.empty((6, B))
        x[0:2] = rng.uniform(-1.0, 1.0, (2, B))
        x[2:4] = rng.uniform(-1.5, 1.5, (2, B))
        x[2:4, :3] = [[0.0, 1e-3, -0.05], [-2e-4, 0.0, 0.08]]
        x[4:6] = rng.uniform(-1.0, 1.0, (2, B))
        tau = rng.uniform(-20.0, 20.0, (2, B))
        dtau_dx = rng.normal(0.0, 30.0, (B, 2, 6))
        J_cs = np.empty((B, 6, 6))
        for j in range(6):
            xc = x + 1j * h * np.eye(6)[j][:, None]
            tc = tau + 1j * h * dtau_dx[..., j].T
            out = dynamics.rk4_increment(xc, tc, dt, sim.plant, sim.fric)
            J_cs[:, :, j] = out.imag.T / h
        J = dynamics.rk4_jacobian(x, tau, dtau_dx, dt, sim.plant, sim.fric)
        assert J.shape == (B, 6, 6)
        assert np.max(np.abs(J_cs - J)) <= 1e-12 * np.max(np.abs(J))


def _fields(record):
    """q, qd and z as (n + 1, *members, 2) views of a full closed_loop
    record (n + 1, 6, *members)."""
    return {name: np.moveaxis(record[:, r], 1, -1) for name, r in
            (("q", slice(0, 2)), ("qd", slice(2, 4)), ("z", slice(4, 6)))}


def _three_array_check(q, qd, z):
    # the check closed_loop made on separate q, qd and z arrays
    bound = dynamics.BLOWUP_BOUND
    return np.all((np.abs(q) < bound) & (np.abs(qd) < bound)
                  & (np.abs(z) < bound), axis=-1)


class TestPackedDivergenceCheck:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e3, -1e3])
    @pytest.mark.parametrize("row", range(6))
    @pytest.mark.parametrize("members", [(), (3,)])
    def test_flags_what_three_arrays_flagged(self, members, row, value):
        # a drifting state; at step k_bad one row of the flagged members
        # takes the value.  closed_loop's one reduction over the packed
        # state must flag exactly the members the three-array check
        # flags, and hold each at its last in-bound state.
        n, k_bad = 8, 3
        bad = np.array([True, False, True]) if members else np.array(True)
        x0 = np.linspace(-0.5, 0.5, 6 * int(np.prod(members))).reshape(
            (6, *members))

        def step(k, x):
            new = x + 0.01
            if k == k_bad:
                new[row] = np.where(bad, value, new[row])
            return new

        xs = [x0]   # the unheld trajectory
        for k in range(n):
            xs.append(step(k, xs[-1]) if k != k_bad else xs[-1] + 0.01)
        with np.errstate(invalid="ignore"):
            flagged = ~_three_array_check(*(
                getattr(PlantState(x=step(k_bad, xs[k_bad])), a)
                for a in ("q", "qd", "z")))
        assert np.array_equal(flagged, bad)

        record, n_states = dynamics.closed_loop(x0, n, step)
        assert np.array_equal(n_states, np.where(bad, k_bad + 1, n + 1))
        want = np.stack([np.where(bad, xs[min(k, k_bad)], xs[k])
                         for k in range(n + 1)])
        assert np.array_equal(record, want)

    @pytest.mark.parametrize("rows", [slice(0, 6, 2), slice(3, 4), 4])
    @pytest.mark.parametrize("bad", [[False, False, False], [False, True, False],
                                     [True, True, True]])
    def test_row_selector_records_the_full_records_rows(self, rows, bad):
        # member 1, or every member, leaves the bound at step k_bad; with
        # all three gone the loop stops and the tail repeats the held
        # states.  A selected record must be the full record's rows.
        n, k_bad, bad = 8, 3, np.array(bad)
        x0 = np.linspace(-0.5, 0.5, 18).reshape(6, 3)
        calls = []

        def step(k, x):
            calls.append(k)
            new = x + 0.01 * (k + 1)
            if k == k_bad:
                new[2] = np.where(bad, np.nan, new[2])
            return new

        full, n_full = dynamics.closed_loop(x0, n, step)
        assert len(calls) == (k_bad + 1 if bad.all() else n)
        if bad.all():
            assert np.array_equal(full[k_bad:], np.broadcast_to(
                full[k_bad], full[k_bad:].shape))
        calls.clear()
        part, n_part = dynamics.closed_loop(x0, n, step, keep=np.s_[:, rows])
        assert len(calls) == (k_bad + 1 if bad.all() else n)
        assert np.array_equal(n_part, n_full)
        assert part.shape == full[:, rows].shape
        assert np.array_equal(part, full[:, rows])

    @pytest.mark.parametrize("keep", [np.s_[2:], np.s_[5:], np.s_[8:],
                                      np.s_[2:6], np.s_[5:7, 2], np.s_[0:0]])
    @pytest.mark.parametrize("bad", [[False, True, False], [True, True, True]])
    def test_step_selector_records_the_full_records_steps(self, keep, bad):
        # member 1 leaves the bound at step k_bad = 3, after the first
        # kept step (2) or before it (5, 8); with all three gone the loop
        # stops, and the kept states after the stop repeat the held
        # ones.  A step-selected record must be the full record's steps.
        n, k_bad, bad = 8, 3, np.array(bad)
        x0 = np.linspace(-0.5, 0.5, 18).reshape(6, 3)

        def step(k, x):
            new = x + 0.01 * (k + 1)
            if k == k_bad:
                new[2] = np.where(bad, np.nan, new[2])
            return new

        full, n_full = dynamics.closed_loop(x0, n, step)
        part, n_part = dynamics.closed_loop(x0, n, step, keep=keep)
        assert np.array_equal(n_part, n_full)
        assert part.shape == full[keep].shape
        assert np.array_equal(part, full[keep])

    def test_step_selector_needs_unit_stride(self):
        with pytest.raises(ValueError, match="unit stride"):
            dynamics.closed_loop(np.zeros(6), 4, lambda k, x: x, keep=np.s_[::2])


class TestStepPinned:
    # one RK4 step, recorded when the step path kept q, qd and z as
    # three (..., 2) arrays, before the state was packed into one array
    def test_scalar_step_rk4(self, cfg):
        state = PlantState(q=np.array([0.4, -0.7]), qd=np.array([0.8, -1.3]),
                           z=np.array([0.3, -0.2]))
        new = step_rk4(state, np.array([2.5, -1.5]), 0.01,
                       cfg.plant.with_payload(0.7), cfg.friction)
        for got, want in zip((new.q, new.qd, new.z), SCALAR_STEP_PIN):
            assert np.array_equal(got, want)

    def test_ensemble_step(self, cfg):
        from memctrl import ensemble

        task = ensemble.TaskDistribution(friction_log_sd=0.2,
                                         slow_reference=True)
        sim = ensemble.BaselineEnsembleSim(3, cfg.reference, cfg.plant,
                                           cfg.friction, seed=7, task=task,
                                           gains=cfg.baseline_gains())
        assert np.unique(sim.payload).size == 3
        q, qd, z = (np.array(a) for a in ENSEMBLE_STEP_IN)
        assert np.any(qd > 0) and np.any(qd < 0) and np.all(z != 0)
        x = sim.step(0.3, PlantState(q=q, qd=qd, z=z).x, 0.01)
        new = PlantState(x=x)
        for got, want in zip((new.q, new.qd, new.z), ENSEMBLE_STEP_OUT):
            assert np.array_equal(got, np.array(want))


class TestReferenceSpec:
    def test_default_is_incommensurate(self):
        ReferenceSpec().validate()

    def test_default_frequencies_are_the_published_ones(self):
        # BatchReference forms 2 pi / period, the one conversion
        omega = BatchReference(ReferenceSpec()).omega
        assert omega[0] == 2.0 * np.pi / 1.7
        assert omega[1] == 2.0 * np.pi / 2.3

    @pytest.mark.parametrize("key", ["period1", "period2"])
    def test_nonpositive_period_named(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be positive, "
                                             "got 0.0$"):
            ReferenceSpec(**{key: 0.0}).validate()

    def test_commensurate_rejected(self):
        bad = ReferenceSpec(period1=1.0, period2=2.0, horizon=5.0)
        with pytest.raises(ValueError):
            bad.validate()

    def test_velocity_is_position_derivative(self):
        ref = BatchReference(ReferenceSpec())
        h = 1e-7
        for t in (0.0, 0.4, 2.3):
            fd = (ref.at(t + h).q - ref.at(t - h).q) / (2 * h)
            assert np.allclose(ref.at(t).qd, fd, atol=1e-5)


def _csv_row_writer(traj) -> str:
    """Trajectory.write_csv as first written: one csv.writer row per state."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(["t", "q1", "q2", "qd1", "qd2", "z1", "z2",
                "qd1_ref", "qd2_ref", "tau1", "tau2"])
    n = traj.n_steps
    last = traj.tau[-1] if n else np.full(2, np.nan)
    for k in range(n + 1):
        tau = traj.tau[k] if k < n else last
        w.writerow([f"{traj.t[k]:.6f}",
                    *(f"{v:.9g}" for v in traj.q[k]),
                    *(f"{v:.9g}" for v in traj.qd[k]),
                    *(f"{v:.9g}" for v in traj.z[k]),
                    *(f"{v:.9g}" for v in traj.qd_ref[k]),
                    *(f"{v:.9g}" for v in tau)])
    return fh.getvalue()


class TestRollout:
    def test_bitwise_determinism(self, cfg):
        ctrl = BaselineController(cfg.plant, gains=cfg.baseline_gains())
        a = rollout(ctrl, cfg.reference, cfg.plant, cfg.friction, seed=7,
                    dt=cfg.dt)
        b = rollout(ctrl, cfg.reference, cfg.plant, cfg.friction, seed=7,
                    dt=cfg.dt)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.z, b.z)

    def test_baseline_tracks_finitely(self, cfg):
        ctrl = BaselineController(cfg.plant, gains=cfg.baseline_gains())
        traj = rollout(ctrl, cfg.reference, cfg.plant,
                       cfg.friction.with_tau_z(1.0), seed=42, dt=cfg.dt)
        assert not traj.diverged
        assert traj.n_steps == 500
        # regression anchor from the recorded implementation run
        assert traj.rmse() == pytest.approx(0.05225, rel=0.02)

    def test_absurd_gains_diverge(self, cfg):
        gains = ControllerParams(kd=np.full(2, 4.0e4), lam=np.full(2, 5.0),
                                 eta=np.zeros(6))
        ctrl = BaselineController(cfg.plant, gains=gains)
        traj = rollout(ctrl, cfg.reference, cfg.plant, cfg.friction, seed=3,
                       dt=cfg.dt)
        assert traj.diverged
        assert traj.n_steps < 500

    def test_csv_export_schema(self, cfg, tmp_path):
        ctrl = BaselineController(cfg.plant, gains=cfg.baseline_gains())
        ref = dataclasses.replace(cfg.reference, horizon=0.5)
        traj = rollout(ctrl, ref, cfg.plant, cfg.friction, seed=1, dt=cfg.dt)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,q1,q2,qd1,qd2,z1,z2,qd1_ref,qd2_ref,tau1,tau2"
        assert len(path.read_text().splitlines()) == traj.t.size + 1

    @pytest.mark.parametrize("kd", [None, 4.0e4, 4.0e7],
                             ids=["normal", "diverged", "zero-step"])
    def test_csv_bytes_match_row_writer(self, cfg, tmp_path, kd):
        # kd = 4e4 cuts the record at divergence, 4e7 before its first
        # step, leaving one row whose torque is NaN
        gains = cfg.baseline_gains() if kd is None else ControllerParams(
            kd=np.full(2, kd), lam=np.full(2, 5.0), eta=np.zeros(6))
        traj = rollout(BaselineController(cfg.plant, gains=gains),
                       dataclasses.replace(cfg.reference, horizon=0.5),
                       cfg.plant, cfg.friction, seed=42, dt=cfg.dt)
        assert traj.diverged == (kd is not None)
        assert (traj.n_steps == 0) == (kd == 4.0e7)
        if kd is None:
            # negative zero and values printed with an exponent
            q, z = traj.q.copy(), traj.z.copy()
            q[0] = -0.0, 1.25e-20
            z[1] = -3.5e17, 1e-05
            traj = dataclasses.replace(traj, q=q, z=z)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_bytes() == _csv_row_writer(traj).encode()

    @staticmethod
    def _batch_and_scalar(cfg, payloads, seeds, gains, horizon=None):
        ref = (cfg.reference if horizon is None
               else dataclasses.replace(cfg.reference, horizon=horizon))
        plant = dataclasses.replace(cfg.plant, payload=np.asarray(payloads))
        batch = rollout(BaselineController(plant, gains=gains),
                        ref, plant, cfg.friction, seed=seeds, dt=cfg.dt)
        scalar = []
        for p, s in zip(payloads, seeds):
            member = cfg.plant.with_payload(p)
            ctrl = BaselineController(member, gains=gains)
            scalar.append(rollout(ctrl, ref, member, cfg.friction, seed=s,
                                  dt=cfg.dt))
        return batch, scalar

    def test_batched_equals_scalar_bitwise(self, cfg):
        payloads = np.repeat(runner.PAYLOAD_GRID, 2)
        seeds = [7, 8] * len(runner.PAYLOAD_GRID)
        batch, scalar = self._batch_and_scalar(cfg, payloads, seeds,
                                               cfg.baseline_gains())
        assert len(batch) == len(seeds)
        for b, s in zip(batch, scalar):
            assert not b.diverged
            for field in ("t", "q", "qd", "z", "q_ref", "qd_ref", "tau"):
                assert np.array_equal(getattr(b, field), getattr(s, field))

    def test_batched_cuts_each_member_at_its_divergence(self, cfg):
        # at kd = 100 the light payloads leave the bound at different
        # steps while the heavy ones track to the end
        gains = ControllerParams(kd=np.full(2, 100.0), lam=np.full(2, 5.0),
                                 eta=np.zeros(6))
        payloads = np.repeat(runner.PAYLOAD_GRID, 2)
        batch, scalar = self._batch_and_scalar(cfg, payloads, range(10),
                                               gains=gains, horizon=2.0)
        for b, s in zip(batch, scalar):
            assert b.n_steps == s.n_steps
            assert b.diverged == s.diverged
            assert b.rmse() == s.rmse()
        assert len({b.n_steps for b in batch if b.diverged}) > 1
        assert not all(b.diverged for b in batch)


class TestReferenceTable:
    """rollout evaluates its reference once for the whole horizon; what a
    controller receives at step k, and the record's q_ref and qd_ref, are
    the values BatchReference.at gives at t_k."""

    CASES = {
        "int-seed": ((0.75,), 3, None),
        "seed-list": ((0.0, 0.75, 1.5), [3, 4, 5], None),
        # at kd = 100 the light member leaves the bound at step 31 while
        # the heavy ones track to the end
        "seed-list-cut": ((0.0, 1.5, 1.5), [0, 2, 3], 100.0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_controller_and_record_read_at_t_k(self, cfg, case):
        payloads, seed, kd = self.CASES[case]
        gains = cfg.baseline_gains() if kd is None else ControllerParams(
            kd=np.full(2, kd), lam=np.full(2, 5.0), eta=np.zeros(6))
        batched = isinstance(seed, list)
        plant = (dataclasses.replace(cfg.plant, payload=np.asarray(payloads))
                 if batched else cfg.plant.with_payload(payloads[0]))
        inner = BaselineController(plant, gains=gains)
        seen = []

        def recording(t, state, ref_point):
            seen.append((t, ref_point))
            return inner(t, state, ref_point)

        ref = dataclasses.replace(cfg.reference, horizon=2.0)
        out = rollout(recording, ref, plant, cfg.friction, seed=seed,
                      dt=cfg.dt)
        trajs = out if batched else [out]
        reference = BatchReference(ref)
        assert len(seen) == 200
        for k, (t, ref_point) in enumerate(seen):
            want = reference.at(k * 0.01)
            assert t == k * 0.01
            for field in ("q", "qd", "qdd"):
                assert np.array_equal(getattr(ref_point, field),
                                      getattr(want, field)), (k, field)
        for tr in trajs:
            for k, tk in enumerate(tr.t):
                want = reference.at(tk)
                assert np.array_equal(tr.q_ref[k], want.q), k
                assert np.array_equal(tr.qd_ref[k], want.qd), k
        cut = [tr.n_steps for tr in trajs if tr.diverged]
        assert cut == ([31] if kd is not None else [])


class TestPlantLawHasOneHome:
    def test_no_module_binds_a_private_dynamics_helper(self):
        # the plant's private helpers (_arm_terms, _derivatives,
        # _rhs_jacobian) are read in dynamics alone, so an edit of the
        # plant law and its derivative stays in one module
        import importlib
        import pkgutil

        import memctrl

        bound = []
        for info in pkgutil.iter_modules(memctrl.__path__):
            if info.name in ("dynamics", "__main__"):   # __main__ runs the CLI
                continue
            module = importlib.import_module(f"memctrl.{info.name}")
            for name, value in vars(module).items():
                if (callable(value)
                        and getattr(value, "__module__", None) == dynamics.__name__
                        and value.__name__.startswith("_")):
                    bound.append(f"{info.name}.{name}")
        assert bound == []


class TestEnsembleConsistency:
    @staticmethod
    def _check_members(cfg, batch, seed, task, monkeypatch):
        """Roll each member of an ensemble out alone, with its phases as
        the spec's and its own payload and friction, and require the
        ensemble's record bit for bit.  The two draw their reset jitter
        from different streams, so both start at zero jitter.  Returns
        the members' friction constants."""
        from memctrl import ensemble

        monkeypatch.setattr(dynamics, "RESET_Q_JITTER", 0.0)
        sim = ensemble.BaselineEnsembleSim(batch, cfg.reference, cfg.plant,
                                           cfg.friction, seed=seed, task=task,
                                           gains=cfg.baseline_gains())
        assert np.all(sim.reference.phase != 0.0)
        assert np.unique(sim.payload).size == batch
        roll = sim.run(150, 0.01)
        frics = []
        for i in range(batch):
            phase1, phase2 = sim.reference.phase[i]
            ref = dataclasses.replace(cfg.reference, horizon=1.5,
                                      phase1=phase1, phase2=phase2)
            plant = cfg.plant.with_payload(sim.payload[i])
            fric = dataclasses.replace(
                cfg.friction, **{k: float(getattr(sim.fric, k)[0, i])
                                 for k in ("f_c", "f_smax", "v_s", "sigma")})
            tr = rollout(BaselineController(plant, cfg.baseline_gains()), ref,
                         plant, fric, seed=0, dt=cfg.dt)
            assert not tr.diverged and roll.alive[i]
            for field, rec in _fields(roll.x).items():
                assert np.array_equal(rec[:, i, :], getattr(tr, field))
            frics.append(fric)
        return frics

    def test_batched_matches_scalar(self, cfg, monkeypatch):
        from memctrl import ensemble

        frics = self._check_members(cfg, 2, 1, ensemble.TaskDistribution(),
                                    monkeypatch)
        assert all(fric == cfg.friction for fric in frics)

    def test_per_member_params_match_scalar(self, cfg, monkeypatch):
        # perturbed friction constants per member go through the same
        # plant and torque code as a scalar rollout
        from memctrl import ensemble

        task = ensemble.TaskDistribution(friction_log_sd=0.2)
        frics = self._check_members(cfg, 3, 4, task, monkeypatch)
        assert all(fric.f_c != cfg.friction.f_c for fric in frics)

    @staticmethod
    def _reference_term_by_term(ref, t, phase, slow_phase=None):
        # q_d = A sin(w t + spec phase + phase), plus the slow tones
        amp = np.array((ref.amp1, ref.amp2))
        om = 2.0 * np.pi / np.array((ref.period1, ref.period2))
        th = om * t + np.array((ref.phase1, ref.phase2)) + phase
        q = amp * np.sin(th)
        qd = amp * om * np.cos(th)
        qdd = -amp * om * om * np.sin(th)
        if slow_phase is not None:
            amp = np.array(dynamics.SLOW_AMPLITUDE)
            om = 2.0 * np.pi / np.array(dynamics.SLOW_PERIODS)
            th = om * t + slow_phase
            q = q + amp * np.sin(th)
            qd = qd + amp * om * np.cos(th)
            qdd = qdd - amp * om ** 2 * np.sin(th)
        return q, qd, qdd

    @pytest.mark.parametrize("slow", [False, True])
    def test_reference_equals_reference_spec_bitwise(self, cfg, slow):
        # the batch reference holds its constants at (B, 2) and shares one
        # sin between position and acceleration; the values must stay
        # those of the formula written term by term
        from memctrl import ensemble

        ref = dataclasses.replace(cfg.reference, phase1=0.3, phase2=-1.1)
        sim = ensemble.BaselineEnsembleSim(
            5, ref, cfg.plant, cfg.friction, seed=2,
            task=ensemble.TaskDistribution(slow_reference=slow),
            gains=cfg.baseline_gains())
        slow_phase = sim.reference.slow_phase if slow else None
        for t in (0.0, 0.01, 0.37, 2.5, 12.49):
            want = self._reference_term_by_term(ref, t, sim.reference.phase,
                                                slow_phase)
            got = sim.reference.at(t)
            assert got.q.shape == (5, 2)
            assert np.array_equal(got.q, want[0])
            assert np.array_equal(got.qd, want[1])
            assert np.array_equal(got.qdd, want[2])

    def test_rollout_reference_bitwise_on_its_grid(self, cfg):
        # rollout's evaluator: shape (2,), zero phase, t = k * dt
        reference = BatchReference(cfg.reference)
        t = np.arange(2001) * 0.01
        for tk in t:
            want = self._reference_term_by_term(cfg.reference, tk, np.zeros(2))
            got = reference.at(tk)
            assert got.q.shape == (2,)
            assert np.array_equal(got.q, want[0])
            assert np.array_equal(got.qd, want[1])
            assert np.array_equal(got.qdd, want[2])

    @staticmethod
    def _diverging_sim(cfg, case):
        """Two members under kd = 200, which drives the RK4 step out of
        its stability region within a few steps: member 1 alone
        ("some") or both ("all")."""
        from memctrl import ensemble

        kd = {"some": [[30.0, 30.0], [200.0, 200.0]], "all": [200.0, 200.0]}[case]
        gains = ControllerParams(kd=np.array(kd), lam=np.full(2, 5.0),
                                 eta=np.zeros(6))
        return ensemble.BaselineEnsembleSim(2, cfg.reference, cfg.plant,
                                            cfg.friction, seed=0,
                                            task=ensemble.TaskDistribution(),
                                            gains=gains)

    @pytest.mark.parametrize("case", ["some", "all"])
    def test_run_holds_diverged_members_pinned(self, cfg, case):
        # kd = 200 drives the RK4 step out of its stability region within
        # a few steps.  "some": member 1 diverges and is held while member
        # 0 runs on; "all": both diverge, the loop stops, and the rows
        # after the stop repeat the held states.
        sim = self._diverging_sim(cfg, case)
        roll = sim.run(10, 0.01)
        pin = HOLD_PINS[case]
        assert np.array_equal(roll.alive, pin["alive"])
        for name, rec in _fields(roll.x).items():
            assert np.array_equal(rec, pin[name]), name

    @pytest.mark.parametrize("case", ["some", "all"])
    @pytest.mark.parametrize("rows", [slice(0, 6, 2), slice(2, 3)])
    def test_run_row_selector_matches_full_record(self, cfg, case, rows):
        # the diverging batches of the pinned test: a selected record is
        # the full record's rows bit for bit, with the same survivors
        sim = self._diverging_sim(cfg, case)
        full = sim.run(10, 0.01)
        part = sim.run(10, 0.01, keep=np.s_[:, rows])
        assert np.array_equal(part.alive, full.alive)
        assert np.array_equal(part.x, full.x[:, rows])

    @pytest.mark.parametrize("case", ["some", "all"])
    @pytest.mark.parametrize("keep", [np.s_[1:], np.s_[6:10], np.s_[9:, 4::2]])
    def test_run_step_selector_matches_full_record(self, cfg, case, keep):
        # the diverging batches of the pinned test: a step-selected record
        # is the full record's steps bit for bit, with the same survivors
        sim = self._diverging_sim(cfg, case)
        full = sim.run(10, 0.01)
        part = sim.run(10, 0.01, keep=keep)
        assert np.array_equal(part.alive, full.alive)
        assert np.array_equal(part.x, full.x[keep])

    def test_step_jacobian_pinned_with_per_joint_gains(self, cfg):
        # the gains are widened to (B, 2); at B = 2 unpacking them by the
        # first axis would take members for joints without an error.
        # Distinct per-joint gains make such a mix-up change the values.
        from memctrl import ensemble

        gains = ControllerParams(kd=np.array([30.0, 24.0]),
                                 lam=np.array([5.0, 7.0]), eta=np.zeros(6))
        task = ensemble.TaskDistribution(friction_log_sd=0.2,
                                         slow_reference=True)
        sim = ensemble.BaselineEnsembleSim(2, cfg.reference, cfg.plant,
                                           cfg.friction, seed=3, task=task,
                                           gains=gains)
        roll = sim.run(50, 0.01)
        J = sim.step_jacobian(0.3, roll.x[30], 0.01)
        assert np.array_equal(J, STEP_JACOBIAN_PIN)

    def test_step_jacobian_matches_complex_step(self, cfg):
        # the complex step differentiates the forward step itself, exact
        # to roundoff (Squire & Trapp 1998).  The friction law's sign reads
        # the real part, so it gives d sign/d qd = 0 as the hand Jacobian
        # does, and the default law with its Stribeck jump can be checked;
        # the central-difference test needs f_c = f_smax = 0.
        from memctrl import ensemble

        task = ensemble.TaskDistribution(friction_log_sd=0.2,
                                         slow_reference=True)
        sim = ensemble.BaselineEnsembleSim(4, cfg.reference, cfg.plant,
                                           cfg.friction, seed=3, task=task,
                                           gains=cfg.baseline_gains())
        dt, h = 0.01, 1e-30
        roll = sim.run(100, dt)
        for k in (10, 50, 90):
            x = roll.x[k].T
            # (6, B, 6): the leading axis perturbs one state entry each
            xc = x + 1j * h * np.eye(6)[:, None, :]
            out = np.stack([sim.step(k * dt, xi.T, dt).T
                            for xi in xc])
            J_cs = np.moveaxis(out.imag / h, 0, -1)
            J = sim.step_jacobian(k * dt, x.T, dt)
            assert np.max(np.abs(J_cs - J)) <= 1e-12 * np.max(np.abs(J))


# BaselineEnsembleSim.step_jacobian of
# test_step_jacobian_pinned_with_per_joint_gains, recorded before the
# gains and friction constants were widened to (B, 2)
STEP_JACOBIAN_PIN = np.array([
    [
        [0.9965777815650326, 0.008966735167939981, 0.009009479057867394, 0.0013737586286169995, -2.2278038829973453e-05, 5.354327782370507e-05],
        [0.008268011195248426, 0.9721031229624201, 0.001839919660932157, 0.005404618113454518, 5.3485456760464934e-05, -0.00016646264475653398],
        [-0.6781334428287785, 1.7735297205235385, 0.8033358818814612, 0.27144865274567415, -0.004407149219036348, 0.010570391012260361],
        [1.6339852832566872, -5.517671217356017, 0.36371084685911503, 0.09124224901108458, 0.010552930039745485, -0.03286230941364506],
        [-0.013643158775425183, 0.035747056058200735, 0.03585180067243271, 0.005476658920363057, 0.9899610194265669, 0.00021345661284886714],
        [0.032961459752475025, -0.11121452779464665, 0.007335072814736333, 0.021480582734366663, 0.0002132259136704411, 0.9893862107282813],
    ],
    [
        [0.9971072332877838, 0.006439803256096302, 0.009124309181971452, 0.0009404909010405144, -1.7912564079216005e-05, 3.919875194897023e-05],
        [0.006403105691387185, 0.9812950422860282, 0.0015745096049035357, 0.007044549667272466, 3.895723858036468e-05, -0.00011264127054820964],
        [-0.5756019779285269, 1.2828242521528688, 0.8255747854736609, 0.1874650812419057, -0.0035609764923581182, 0.0077954536514346015],
        [1.2709587790796382, -3.72092048503767, 0.31228112412537984, 0.4113786243208105, 0.0077229060370847475, -0.02237045243193449],
        [-0.011532491105081201, 0.025673378877415963, 0.036309573066022706, 0.0037494321263701123, 0.9899784224676756, 0.00015627211517672685],
        [0.025526930648826225, -0.07457034976823254, 0.006277007976336087, 0.02801825845989703, 0.00015530849303762933, 0.9896007722427712],
    ],
])


# BaselineEnsembleSim.run of test_run_holds_diverged_members_pinned,
# recorded when the ensemble kept its own step loop and stepped on
# after every member had diverged
HOLD_SOME_Q = np.array([
    [[-0.3577753349536201, 0.34358384367030803], [0.13602992708249179, 0.11811237991806733]],
    [[-0.3580804936707262, 0.343670848257808], [0.14043752861722575, 0.11009916568512525]],
    [[-0.3587599828185387, 0.34339293439362206], [0.13350401565702527, 0.1372648361334122]],
    [[-0.35995079913946465, 0.34325114703228765], [0.19482973212284307, -0.004829354525651031]],
    [[-0.36150790736236443, 0.34298671524324], [-0.03982483777344892, 0.6172558927715867]],
    [[-0.36332624241788486, 0.3424513712144715], [0.5706432201478482, -0.8810177678102927]],
    [[-0.36527370216681326, 0.3414146351937503], [0.5706432201478482, -0.8810177678102927]],
    [[-0.36727775311180505, 0.3397962867051468], [0.5706432201478482, -0.8810177678102927]],
    [[-0.36929958720242695, 0.33760113209422266], [0.5706432201478482, -0.8810177678102927]],
    [[-0.37131975066837136, 0.3348826046932539], [0.5706432201478482, -0.8810177678102927]],
    [[-0.37331935002830635, 0.3316936235199807], [0.5706432201478482, -0.8810177678102927]],
])
HOLD_SOME_QD = np.array([
    [[0.0, 0.0], [0.0, 0.0]],
    [[-0.054597807787656674, 0.0012080270043949323], [0.874232450553395, -1.5844302600799964]],
    [[-0.09032760199965666, -0.03263951195019637], [-2.219909395840897, 6.9150179929152795]],
    [[-0.13840813611013483, -0.021066368442264526], [14.482812526677748, -35.32878332649635]],
    [[-0.1730691251937721, -0.031722544911102865], [-48.75359136662439, 128.68069362147696]],
    [[-0.19027758970211953, -0.07620403293103119], [269.1526783267554, -672.5491960815734]],
    [[-0.19859798143366497, -0.13277125188281103], [269.1526783267554, -672.5491960815734]],
    [[-0.20169210984544292, -0.1922576718175422], [269.1526783267554, -672.5491960815734]],
    [[-0.20242938687653703, -0.24739311634220923], [269.1526783267554, -672.5491960815734]],
    [[-0.20152203763314958, -0.29649174910623216], [269.1526783267554, -672.5491960815734]],
    [[-0.1983770310653459, -0.3413204087432423], [269.1526783267554, -672.5491960815734]],
])
HOLD_SOME_Z = np.array([
    [[0.0, 0.0], [0.0, 0.0]],
    [[-0.0012173883119449456, 0.0003491092443647285], [0.017571400702967695, -0.03194532246748196]],
    [[-0.003909952814151873, -0.0007640707913619453], [-0.01030145279396133, 0.07677446828687592]],
    [[-0.008612495374689767, -0.0013195397695737296], [0.23444487449676066, -0.49095893566026383]],
    [[-0.014725344009348659, -0.002359218452788284], [-0.7035931679845531, 1.9944657416879363]],
    [[-0.021816491186532474, -0.004467919721551859], [1.7428199618656808, -4.013470945182316]],
    [[-0.029350707479598486, -0.008551620979919967], [1.7428199618656808, -4.013470945182316]],
    [[-0.037035018436471306, -0.014909647240191103], [1.7428199618656808, -4.013470945182316]],
    [[-0.044713570417630244, -0.023499989151970914], [1.7428199618656808, -4.013470945182316]],
    [[-0.05230901704508695, -0.03408771067645771], [1.7428199618656808, -4.013470945182316]],
    [[-0.0597469675186583, -0.0464423768870721], [1.7428199618656808, -4.013470945182316]],
])
HOLD_ALL_Q = np.array([
    [[-0.3577753349536201, 0.34358384367030803], [0.13602992708249179, 0.11811237991806733]],
    [[-0.3599579349176242, 0.346535279902226], [0.14043752861722575, 0.11009916568512525]],
    [[-0.35967471146369007, 0.3380855538362725], [0.13350401565702527, 0.1372648361334122]],
    [[-0.3773136248324539, 0.3719903734574923], [0.19482973212284307, -0.004829354525651031]],
    [[-0.3277255521705842, 0.22821026010013645], [-0.03982483777344892, 0.6172558927715867]],
    [[-0.5483467008031899, 0.7890996580443553], [0.5706432201478482, -0.8810177678102927]],
    [[-0.08682563195726517, -0.39208006632511594], [0.5706432201478482, -0.8810177678102927]],
    [[-0.08682563195726517, -0.39208006632511594], [0.5706432201478482, -0.8810177678102927]],
    [[-0.08682563195726517, -0.39208006632511594], [0.5706432201478482, -0.8810177678102927]],
    [[-0.08682563195726517, -0.39208006632511594], [0.5706432201478482, -0.8810177678102927]],
    [[-0.08682563195726517, -0.39208006632511594], [0.5706432201478482, -0.8810177678102927]],
])
HOLD_ALL_QD = np.array([
    [[0.0, 0.0], [0.0, 0.0]],
    [[-0.4310976404552889, 0.5764999049460459], [0.874232450553395, -1.5844302600799964]],
    [[0.4786387200550349, -2.2424479950327116], [-2.219909395840897, 6.9150179929152795]],
    [[-3.928277282519297, 8.82155739352573], [14.482812526677748, -35.32878332649635]],
    [[14.57144638550453, -39.385874560077404], [-48.75359136662439, 128.68069362147696]],
    [[-47.887059802975465, 124.43734462982567], [269.1526783267554, -672.5491960815734]],
    [[294.8364076221291, -727.0836313434141], [269.1526783267554, -672.5491960815734]],
    [[294.8364076221291, -727.0836313434141], [269.1526783267554, -672.5491960815734]],
    [[294.8364076221291, -727.0836313434141], [269.1526783267554, -672.5491960815734]],
    [[294.8364076221291, -727.0836313434141], [269.1526783267554, -672.5491960815734]],
    [[294.8364076221291, -727.0836313434141], [269.1526783267554, -672.5491960815734]],
])
HOLD_ALL_Z = np.array([
    [[0.0, 0.0], [0.0, 0.0]],
    [[-0.008701041836258215, 0.011765659873695223], [0.017571400702967695, -0.03194532246748196]],
    [[-0.0074573249397730185, -0.0220747029573424], [-0.01030145279396133, 0.07677446828687592]],
    [[-0.07773225679276656, 0.11345251113254676], [0.23444487449676066, -0.49095893566026383]],
    [[0.12103112627494801, -0.46156323083823103], [-0.7035931679845531, 1.9944657416879363]],
    [[-0.7595901230951335, 1.7789598048450816], [1.7428199618656808, -4.013470945182316]],
    [[1.094237228859424, -2.964253979192467], [1.7428199618656808, -4.013470945182316]],
    [[1.094237228859424, -2.964253979192467], [1.7428199618656808, -4.013470945182316]],
    [[1.094237228859424, -2.964253979192467], [1.7428199618656808, -4.013470945182316]],
    [[1.094237228859424, -2.964253979192467], [1.7428199618656808, -4.013470945182316]],
    [[1.094237228859424, -2.964253979192467], [1.7428199618656808, -4.013470945182316]],
])
HOLD_PINS = {
    "some": {"alive": [True, False], "q": HOLD_SOME_Q, "qd": HOLD_SOME_QD,
             "z": HOLD_SOME_Z},
    "all": {"alive": [False, False], "q": HOLD_ALL_Q, "qd": HOLD_ALL_QD,
            "z": HOLD_ALL_Z},
}


# step_rk4 of TestStepPinned.test_scalar_step_rk4: q, qd and z after the step
SCALAR_STEP_PIN = [
    [0.40747678602423537, -0.7124901610378606],
    [0.6957103655557567, -1.1991481898793368],
    [0.3267695963677453, -0.24771829245577118],
]
# BaselineEnsembleSim.step of TestStepPinned.test_ensemble_step: q, qd and
# z of the state at step 30 of the sim's run(0.5, 0.01), and after the step
ENSEMBLE_STEP_IN = [
    [[-0.21715350983175793, -0.035459564958997644], [-0.21395264546455578, 0.20692247133130878], [0.02181853086674386, -0.027669570605119004]],
    [[0.7402354698610198, 0.5831825167374892], [1.6459974341732957, -0.4749756654496068], [-1.9970544839524207, 0.7672691946220866]],
    [[0.20505958361068227, 0.4269383093340504], [0.9991368777440797, -0.3177735801562435], [-1.4346458858856164, 0.974759589322]],
]
ENSEMBLE_STEP_OUT = [
    [[-0.20949910718818002, -0.02961796970737069], [-0.1973405058335652, 0.20212823120785448], [0.0017442737824088748, -0.020069658351514124]],
    [[0.7906346705156546, 0.5850477444399543], [1.6762168381348295, -0.48340503047990574], [-2.0176321850612164, 0.7522802945982348]],
    [[0.23348590972648794, 0.445940201794706], [1.055313722410838, -0.33369335423857693], [-1.5002684817739809, 0.995308229141918]],
]
