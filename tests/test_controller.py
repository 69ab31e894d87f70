import dataclasses

import numpy as np
import pytest

from memctrl.controller import (DIM_ETA, BaselineController, ControllerParams,
                                ExtendedState, ModelTerms, ParamBox,
                                computed_torque, feature_matrix, feedforward)
from memctrl.dynamics import (BatchReference, PlantState, RefPoint,
                              arm_terms, coriolis_matrix, gravity_vector, mass_matrix,
                              rollout, stribeck_force)


def _state(q, qd, ref_point, lam):
    return ExtendedState.from_tracking(q, qd, ref_point, lam)


class TestComputedTorque:
    def test_perfect_tracking_is_pure_feedforward(self, cfg):
        gains = cfg.baseline_gains()
        q = np.array([0.2, -0.5])
        qd = np.array([0.9, 0.4])
        ref = RefPoint(q=q.copy(), qd=qd.copy(), qdd=np.array([1.5, -2.0]))
        x = _state(q, qd, ref, gains.lam)
        tau = computed_torque(x, gains, arm_terms(x.q, cfg.plant))
        expect = (mass_matrix(q, cfg.plant) @ ref.qdd
                  + coriolis_matrix(q, qd, cfg.plant) @ ref.qd
                  + gravity_vector(q, cfg.plant))
        assert np.allclose(tau, expect, atol=1e-12)

    def test_static_regulation_is_gravity_compensation(self, cfg):
        gains = cfg.baseline_gains()
        q = np.array([0.7, -0.2])
        ref = RefPoint(q=q.copy(), qd=np.zeros(2), qdd=np.zeros(2))
        x = _state(q, np.zeros(2), ref, gains.lam)
        tau = computed_torque(x, gains, arm_terms(x.q, cfg.plant))
        assert np.allclose(tau, gravity_vector(q, cfg.plant), atol=1e-12)

    def test_feedback_linear_in_kd(self, cfg, rng):
        q = rng.uniform(-1, 1, 2)
        qd = rng.uniform(-1, 1, 2)
        ref = RefPoint(q=rng.uniform(-1, 1, 2), qd=rng.uniform(-1, 1, 2),
                       qdd=rng.uniform(-1, 1, 2))
        lam = np.full(2, 5.0)
        x = _state(q, qd, ref, lam)

        def tau_at(kd_scale):
            g = ControllerParams(kd=np.full(2, kd_scale), lam=lam,
                                 eta=np.zeros(DIM_ETA))
            return computed_torque(x, g, arm_terms(x.q, cfg.plant))

        fb1 = tau_at(10.0) - tau_at(0.0)
        fb2 = tau_at(20.0) - tau_at(0.0)
        assert np.allclose(fb2, 2.0 * fb1, rtol=1e-12, atol=1e-12)

    def test_jointly_affine_at_frozen_state(self, cfg, rng):
        # underpins the single-half-space structure of the shield
        q = rng.uniform(-1, 1, 2)
        qd = rng.uniform(-1, 1, 2)
        ref = RefPoint(q=rng.uniform(-1, 1, 2), qd=rng.uniform(-1, 1, 2),
                       qdd=rng.uniform(-1, 1, 2))
        x = _state(q, qd, ref, np.full(2, 5.0))
        v1 = rng.uniform(0, 1, 4 + DIM_ETA)
        v2 = rng.uniform(0, 1, 4 + DIM_ETA)
        a = 0.37

        def tau(v):
            return computed_torque(x, ControllerParams.from_vector(v),
                                   *ModelTerms.at(x, cfg.plant, cfg.friction))

        mix = tau(a * v1 + (1 - a) * v2)
        assert np.allclose(mix, a * tau(v1) + (1 - a) * tau(v2), atol=1e-10)


def _feedforward(q, qd, eta, fric):
    return feedforward(feature_matrix(q, qd, fric.v_s), eta)


class TestFeedforward:
    def test_zero_weights(self, cfg, rng):
        qd = rng.uniform(-2, 2, 2)
        out = _feedforward(np.zeros(2), qd, np.zeros(DIM_ETA), cfg.friction)
        assert np.array_equal(out, np.zeros(2))

    def test_affinity_identity(self, cfg, rng):
        qd = rng.uniform(-2, 2, 2)
        e1 = rng.uniform(-1, 1, DIM_ETA)
        e2 = rng.uniform(-1, 1, DIM_ETA)
        a = 0.3
        lhs = _feedforward(np.zeros(2), qd, a * e1 + (1 - a) * e2, cfg.friction)
        rhs = (a * _feedforward(np.zeros(2), qd, e1, cfg.friction)
               + (1 - a) * _feedforward(np.zeros(2), qd, e2, cfg.friction))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_stribeck_basis_reproduces_friction(self, cfg):
        # eta = (f_c, sigma, f_smax - f_c) per joint cancels the
        # velocity-dependent friction away from the sign smoothing zone
        fric = cfg.friction
        eta = np.array([fric.f_c, fric.sigma, fric.f_smax - fric.f_c] * 2)
        qd_grid = np.linspace(-2.0, 2.0, 81)
        worst = 0.0
        for v in qd_grid:
            if abs(v) < 0.25:  # smoothing zone excluded: truncation error lives there
                continue
            qd = np.array([v, -v])
            ff = _feedforward(np.zeros(2), qd, eta, fric)
            truth = stribeck_force(qd, np.zeros(2), fric)
            worst = max(worst, float(np.max(np.abs(ff - truth))))
        assert worst < 1e-6


class TestBaseline:
    def test_published_gain_values(self, cfg):
        p = cfg.baseline_gains()
        assert np.array_equal(p.kd, [30.0, 30.0])
        assert np.array_equal(p.lam, [5.0, 5.0])
        assert np.array_equal(p.eta, np.zeros(DIM_ETA))

    def test_strictly_inside_default_box(self, cfg):
        box = ParamBox()
        p = cfg.baseline_gains()
        v = p.as_vector()
        assert np.all(v > box.lower_vector)
        assert np.all(v < box.upper_vector)

    def test_rmse_insensitive_to_memory_horizon(self, cfg):
        # light version of the acceptance sweep: single seeded rollout
        rmses = []
        for tz in (1.0, 5.0):
            fric = cfg.friction.with_tau_z(tz)
            ctrl = BaselineController(cfg.plant, cfg.baseline_gains())
            rmses.append(rollout(ctrl, cfg.reference, cfg.plant, fric,
                                 seed=42, dt=cfg.dt).rmse())
        assert abs(rmses[0] - rmses[1]) / rmses[0] < 0.02

    def test_payload_modes(self, cfg):
        plant = cfg.plant.with_payload(1.0)
        gains = cfg.baseline_gains()
        nom = BaselineController(plant, gains, payload_mode="nominal")
        tru = BaselineController(plant, gains, payload_mode="true")
        noisy = BaselineController(plant, gains, payload_mode="noisy",
                                   noise_seed=5)
        assert nom.model.payload == 0.0
        assert tru.model.payload == 1.0
        assert noisy.model.payload != 1.0
        assert abs(noisy.model.payload - 1.0) < 0.3

    def test_feature_matrix_block_structure(self, cfg, rng):
        qd = rng.uniform(-1, 1, 2)
        Phi = feature_matrix(np.zeros(2), qd, cfg.friction.v_s)
        assert Phi.shape == (2, DIM_ETA)
        assert np.all(Phi[0, 3:] == 0.0)
        assert np.all(Phi[1, :3] == 0.0)


class TestBatchGains:
    """BaselineController is the one place the baseline's per-member
    gains are laid out: (B, 2) rows in joint-first memory for a plant
    with one payload per member."""

    def test_per_member_plant_widens_gains(self, cfg):
        plant = dataclasses.replace(cfg.plant,
                                    payload=np.linspace(0.0, 1.5, 5))
        gains = ControllerParams(kd=[30.0, 20.0], lam=[5.0, 4.0],
                                 eta=np.zeros(DIM_ETA))
        ctrl = BaselineController(plant, gains)
        for name in ("kd", "lam"):
            g = getattr(ctrl.gains, name)
            assert g.shape == (5, 2) and g.flags.f_contiguous, name
            assert np.array_equal(g, np.tile(getattr(gains, name), (5, 1)))

    def test_scalar_plant_keeps_gains(self, cfg):
        ctrl = BaselineController(cfg.plant, cfg.baseline_gains())
        assert ctrl.gains.kd.shape == ctrl.gains.lam.shape == (2,)

    @pytest.mark.parametrize("members", [(5,), ()], ids=["per_member", "scalar"])
    def test_torque_jacobian_matches_complex_step(self, cfg, members):
        # a per-member plant ((B, 2) gains) and a scalar one ((2,) gains):
        # linearize's Jacobian against a complex step of __call__ over each
        # packed state entry; the torque does not read z
        rng = np.random.default_rng(11)
        payload = rng.uniform(0.0, 1.5, members) if members else 0.7
        plant = dataclasses.replace(cfg.plant, payload=payload)
        gains = ControllerParams(kd=[30.0, 24.0], lam=[5.0, 7.0],
                                 eta=np.zeros(DIM_ETA))
        ctrl = BaselineController(plant, gains, payload_mode="true")
        phase = rng.uniform(0.0, 2.0 * np.pi, members + (2,))
        ref = BatchReference(cfg.reference, phase).at(0.4)
        x = rng.uniform(-1.0, 1.0, (6,) + members)
        h = 1e-30
        T_cs = np.empty(members + (2, 6))
        for j in range(6):
            xc = x + 1j * h * np.eye(6)[j].reshape((6,) + (1,) * len(members))
            T_cs[..., j] = ctrl(0.4, PlantState(x=xc), ref).tau.imag / h
        T = ctrl.linearize(PlantState(x=x), ref)[1]
        assert T.shape == members + (2, 6)
        assert np.all(T[..., 4:6] == 0.0)
        assert np.max(np.abs(T_cs - T)) <= 1e-12 * np.max(np.abs(T))

    @pytest.mark.parametrize("mode", ["nominal", "true", "noisy"])
    @pytest.mark.parametrize("members", [(5,), ()], ids=["per_member", "scalar"])
    def test_linearize_torque_is_the_call_torque(self, cfg, members, mode):
        # the torque linearize hands the step Jacobian is the one __call__
        # applies, bit for bit, at (B, 2) and (2,) gains in each payload mode
        rng = np.random.default_rng(12)
        payload = rng.uniform(0.0, 1.5, members) if members else 0.7
        plant = dataclasses.replace(cfg.plant, payload=payload)
        gains = ControllerParams(kd=[30.0, 24.0], lam=[5.0, 7.0],
                                 eta=np.zeros(DIM_ETA))
        ctrl = BaselineController(plant, gains, payload_mode=mode,
                                  noise_seed=3)
        phase = rng.uniform(0.0, 2.0 * np.pi, members + (2,))
        ref = BatchReference(cfg.reference, phase).at(0.4)
        state = PlantState(x=rng.uniform(-1.0, 1.0, (6,) + members))
        tau, _ = ctrl.linearize(state, ref)
        want = ctrl(0.4, state, ref).tau
        assert tau.shape == want.shape == members + (2,)
        assert np.array_equal(tau, want)

    def test_ensemble_gains_are_the_controllers(self, cfg):
        from memctrl.ensemble import BaselineEnsembleSim, TaskDistribution

        gains = ControllerParams(kd=np.full(2, 25.0), lam=np.full(2, 4.0),
                                 eta=np.zeros(DIM_ETA))
        for given in (cfg.baseline_gains(), gains):
            sim = BaselineEnsembleSim(4, cfg.reference, cfg.plant,
                                      cfg.friction, 0, TaskDistribution(),
                                      given)
            want = BaselineController(sim.plant, given).gains
            for name in ("kd", "lam", "eta"):
                got = getattr(sim.controller.gains, name)
                assert got.shape == getattr(want, name).shape, name
                assert got.flags.f_contiguous == getattr(
                    want, name).flags.f_contiguous, name
                assert np.array_equal(got, getattr(want, name)), name
