import dataclasses
from pathlib import Path

import numpy as np
import pytest

from memctrl import controller, dynamics, shield
from memctrl.controller import (DIM_ETA, ControllerParams, ExtendedState,
                                ModelTerms, ParamBox, computed_torque,
                                feature_matrix)
from memctrl.dynamics import (BatchReference, PlantState, RefPoint, Trajectory,
                              coriolis_matrix, gravity_vector, mass_matrix,
                              rollout, step_rk4, stribeck_force)
from memctrl.shield import (design_lyapunov_form, halfspace_coeffs,
                            project_admissible, project_halfspace_box,
                            shield_activation_fraction, shield_report,
                            verify_exponential_decay)


@pytest.fixture(scope="module")
def form(cfg):
    return design_lyapunov_form(
        cfg.plant, BatchReference(cfg.reference).at(0.0).q,
        cfg.baseline_gains(), alpha=0.5)


def _halfspace(x, form, params, fric, z):
    return halfspace_coeffs(x, form, ModelTerms.at(x, params, fric), fric, z)


def lyapunov_value(x, form):
    """V(x) = 0.5 (e, ed)^T P (e, ed), the certificate's quadratic form."""
    y = np.concatenate([x.e, x.ed])
    return float(0.5 * y @ form.P @ y)


def lyapunov_rate(x, theta, form, params, fric, z=None):
    """Vdot along the closed loop with torque from the CT law at theta.

    The path independent of halfspace_coeffs: the plant's acceleration
    under the torque, qdd = M^-1 (tau - C qd - G - F), gives
    ed' = qdd_ref - qdd, and Vdot = (P y) . (ed, ed').  params is the
    true plant, also the controller's model.  z defaults to zero memory.
    """
    z = np.zeros(2) if z is None else np.asarray(z, dtype=float)
    tau = computed_torque(x, theta, params, ModelTerms.at(x, params, fric))
    rhs = (tau - coriolis_matrix(x.q, x.qd, params) @ x.qd
           - gravity_vector(x.q, params) - stribeck_force(x.qd, z, fric))
    qdd = np.linalg.solve(mass_matrix(x.q, params), rhs)
    y = np.concatenate([x.e, x.ed])
    return float(form.P @ y @ np.concatenate([x.ed, x.qdd_ref - qdd]))


def random_extended_state(rng, form, e_scale=1.0, qd_scale=2.0):
    q = rng.uniform(-1.0, 1.0, 2)
    qd = rng.uniform(-qd_scale, qd_scale, 2)
    ref = RefPoint(q=q + rng.uniform(-e_scale, e_scale, 2),
                   qd=qd + rng.uniform(-qd_scale, qd_scale, 2),
                   qdd=rng.uniform(-3.0, 3.0, 2))
    return ExtendedState.from_tracking(q, qd, ref, form.lam_nominal)


def random_theta(rng, box):
    lo, hi = box.lower_vector, box.upper_vector
    return ControllerParams.from_vector(rng.uniform(lo, hi))


class TestLyapunovValue:
    def test_zero_at_target(self, form):
        x = ExtendedState(q=np.zeros(2), qd=np.zeros(2), e=np.zeros(2),
                          ed=np.zeros(2), s=np.zeros(2), qd_ref=np.zeros(2),
                          qdd_ref=np.zeros(2))
        assert lyapunov_value(x, form) == 0.0

    def test_quadratic_lower_bound(self, form, rng):
        lam_min = np.linalg.eigvalsh(form.P)[0]
        for _ in range(50):
            x = random_extended_state(rng, form)
            y2 = float(np.sum(x.e ** 2) + np.sum(x.ed ** 2))
            assert lyapunov_value(x, form) >= 0.5 * lam_min * y2 - 1e-12

    def test_homogeneity(self, form, rng):
        x = random_extended_state(rng, form)
        x2 = ExtendedState(q=x.q, qd=x.qd, e=2 * x.e, ed=2 * x.ed, s=2 * x.s,
                           qd_ref=x.qd_ref, qdd_ref=x.qdd_ref)
        assert lyapunov_value(x2, form) == pytest.approx(
            4.0 * lyapunov_value(x, form), rel=1e-12)


class TestLyapunovRate:
    def test_matches_finite_difference(self, cfg, form, rng):
        # rate vs one short step of the true closed loop, 100 states
        box = ParamBox()
        dt = 1e-5
        for _ in range(100):
            x = random_extended_state(rng, form, e_scale=0.5, qd_scale=1.5)
            theta = random_theta(rng, box)
            z = rng.uniform(-1.0, 1.0, 2)
            tau = computed_torque(x, theta, cfg.plant,
                                  ModelTerms.at(x, cfg.plant, cfg.friction))
            state = PlantState(q=x.q, qd=x.qd, z=z.copy())
            v0 = lyapunov_value(x, form)
            new = step_rk4(state, tau, dt, cfg.plant, cfg.friction)
            # advance the reference consistently with the frozen qdd_ref
            q_ref1 = x.e + x.q + x.qd_ref * dt + 0.5 * x.qdd_ref * dt ** 2
            qd_ref1 = x.qd_ref + x.qdd_ref * dt
            ref1 = RefPoint(q=q_ref1, qd=qd_ref1, qdd=x.qdd_ref)
            x1 = ExtendedState.from_tracking(new.q, new.qd, ref1,
                                             form.lam_nominal)
            fd = (lyapunov_value(x1, form) - v0) / dt
            rate = lyapunov_rate(x, theta, form, cfg.plant, cfg.friction, z)
            scale = max(1.0, abs(rate))
            assert fd == pytest.approx(rate, abs=5e-3 * scale)

    def test_zero_at_target_with_exact_model(self, cfg, form):
        q = np.array([0.3, -0.4])
        qd = np.array([0.5, 0.2])
        ref = RefPoint(q=q.copy(), qd=qd.copy(), qdd=np.array([1.0, -1.0]))
        x = ExtendedState.from_tracking(q, qd, ref, form.lam_nominal)
        theta = cfg.baseline_gains()
        # zero disturbance: no friction at all
        from memctrl.dynamics import FrictionParams
        quiet = FrictionParams(f_c=0.0, f_smax=0.0, sigma=0.0,
                               lambda_z=0.0, tau_z=1.0)
        rate = lyapunov_rate(x, theta, form, cfg.plant, quiet, np.zeros(2))
        assert rate == pytest.approx(0.0, abs=1e-10)

    def test_more_damping_decreases_rate(self, cfg, form, rng):
        for _ in range(20):
            x = random_extended_state(rng, form)
            if np.linalg.norm(x.s) < 1e-2:
                continue
            z = rng.uniform(-1.0, 1.0, 2)
            r = []
            for kd in (10.0, 40.0):
                theta = ControllerParams(kd=np.full(2, kd), lam=np.full(2, 5.0),
                                         eta=np.zeros(DIM_ETA))
                r.append(lyapunov_rate(x, theta, form, cfg.plant,
                                       cfg.friction, z))
            assert r[1] < r[0]


class TestHalfspace:
    def test_two_path_consistency(self, cfg, form, rng):
        # spec invariant: 1e3 random (x, theta) pairs, agreement to 1e-9
        box = ParamBox()
        worst = 0.0
        for _ in range(1000):
            x = random_extended_state(rng, form)
            theta = random_theta(rng, box)
            z = rng.uniform(-2.0, 2.0, 2)
            plant = cfg.plant.with_payload(rng.uniform(0.0, 1.5))
            a, rhs = _halfspace(x, form, plant, cfg.friction, z)
            direct = (lyapunov_rate(x, theta, form, plant, cfg.friction, z)
                      + form.alpha * lyapunov_value(x, form))
            worst = max(worst, abs(direct - (a @ theta.as_vector() - rhs)))
        assert worst < 1e-9

    def test_huge_damping_admissible_when_sliding(self, cfg, form, rng):
        for _ in range(50):
            x = random_extended_state(rng, form)
            if np.linalg.norm(x.s) < 1e-2:
                continue
            z = rng.uniform(-1.0, 1.0, 2)
            a, rhs = _halfspace(x, form, cfg.plant, cfg.friction, z)
            theta = ControllerParams(kd=np.full(2, 1e6), lam=np.full(2, 5.0),
                                     eta=np.zeros(DIM_ETA))
            assert a @ theta.as_vector() - rhs < 0.0

    def test_damping_coefficients_vanish_on_surface(self, cfg, form, rng):
        # s = 0: the K_d feedback enters Vdot only through s
        e = rng.uniform(-0.5, 0.5, 2)
        q = rng.uniform(-1.0, 1.0, 2)
        qd = rng.uniform(-1.0, 1.0, 2)
        ref = RefPoint(q=q + e, qd=qd - form.lam_nominal * e,
                       qdd=rng.uniform(-1, 1, 2))
        x = ExtendedState.from_tracking(q, qd, ref, form.lam_nominal)
        assert np.allclose(x.s, 0.0, atol=1e-14)
        a, _ = _halfspace(x, form, cfg.plant, cfg.friction, np.zeros(2))
        assert np.allclose(a[:2], 0.0, atol=1e-14)


class TestIsAdmissible:
    def test_definition(self, cfg, form, rng):
        box = ParamBox()
        hits = 0
        for _ in range(200):
            x = random_extended_state(rng, form)
            theta = random_theta(rng, box)
            z = rng.uniform(-1.0, 1.0, 2)
            rate = lyapunov_rate(x, theta, form, cfg.plant, cfg.friction, z)
            ok = rate + form.alpha * lyapunov_value(x, form) <= 1e-9
            a, rhs = _halfspace(x, form, cfg.plant, cfg.friction, z)
            slack = a @ theta.as_vector() - rhs
            assert (slack <= 1e-9) == ok
            hits += ok
        assert 0 < hits < 200   # both branches exercised

    def test_alpha_zero_accepts_decreasing(self, cfg, rng):
        form0 = design_lyapunov_form(
            cfg.plant, BatchReference(cfg.reference).at(0.0).q,
            cfg.baseline_gains(), alpha=0.0)
        for _ in range(50):
            x = random_extended_state(rng, form0)
            theta = cfg.baseline_gains()
            rate = lyapunov_rate(x, theta, form0, cfg.plant, cfg.friction,
                                 np.zeros(2))
            if rate < -1e-9:
                a, rhs = _halfspace(x, form0, cfg.plant, cfg.friction,
                                    np.zeros(2))
                assert a @ theta.as_vector() - rhs <= 1e-9

    def test_huge_alpha_empties_box(self, cfg, rng):
        form_hard = design_lyapunov_form(
            cfg.plant, BatchReference(cfg.reference).at(0.0).q,
            cfg.baseline_gains(), alpha=1e9)
        box = ParamBox()
        x = random_extended_state(np.random.default_rng(3), form_hard)
        assert lyapunov_value(x, form_hard) > 1e-4
        lo, hi = box.lower_vector, box.upper_vector
        a, rhs = _halfspace(x, form_hard, cfg.plant, cfg.friction,
                            np.zeros(2))
        corners_rng = np.random.default_rng(11)
        for _ in range(64):
            mask = corners_rng.integers(0, 2, lo.size).astype(bool)
            assert a @ np.where(mask, hi, lo) - rhs > 1e-9
        theta, empty = project_admissible(
            x, cfg.baseline_gains(), form_hard, box,
            ModelTerms.at(x, cfg.plant, cfg.friction), cfg.friction,
            np.zeros(2))
        # the flagged fallback is the vertex of steepest decrease
        assert empty
        assert np.array_equal(theta.as_vector(), np.where(a > 0.0, lo, hi))


class TestProjection:
    def test_feasible_point_unchanged(self, cfg, form, rng):
        box = ParamBox()
        done = 0
        for trial in range(200):
            x = random_extended_state(rng, form)
            theta = random_theta(rng, box)
            z = rng.uniform(-1.0, 1.0, 2)
            a, rhs = _halfspace(x, form, cfg.plant, cfg.friction, z)
            if a @ theta.as_vector() - rhs > 1e-9:
                continue
            out, empty = project_admissible(
                x, theta, form, box, ModelTerms.at(x, cfg.plant, cfg.friction),
                cfg.friction, z)
            assert not empty
            assert np.array_equal(out.as_vector(), theta.as_vector())
            done += 1
        assert done > 10

    def test_box_only_violation_clips(self, rng):
        # half-space slack: projection reduces to componentwise clipping
        lo = np.zeros(4)
        hi = np.ones(4)
        a = np.array([1.0, 0.0, 0.0, 0.0])
        raw = np.array([1.7, -0.3, 0.5, 2.0])
        out, _ = project_halfspace_box(raw, a, rhs=10.0, lower=lo, upper=hi)
        assert np.allclose(out, np.clip(raw, lo, hi))

    def test_matches_brute_force_grid(self, rng):
        # 20^4 grid oracle in a reduced 4-dim instance
        grid_axes = [np.linspace(0.0, 1.0, 20)] * 4
        mesh = np.stack(np.meshgrid(*grid_axes, indexing="ij"),
                        axis=-1).reshape(-1, 4)
        for _ in range(10):
            a = rng.normal(size=4)
            rhs = float(rng.uniform(-0.5, 0.5))
            feas = mesh[mesh @ a <= rhs]
            if feas.size == 0:
                continue
            raw = rng.uniform(-0.5, 1.5, 4)
            out, _ = project_halfspace_box(raw, a, rhs, np.zeros(4), np.ones(4))
            assert out @ a <= rhs + 1e-9
            best = feas[np.argmin(np.sum((feas - raw) ** 2, axis=1))]
            resolution = np.sqrt(4) * (1.0 / 19.0)
            # value-form: never worse than the grid, grid at most one
            # cell diagonal worse (distance-form is ill-posed on slivers)
            assert np.linalg.norm(out - raw) <= np.linalg.norm(best - raw) + 1e-12
            assert np.linalg.norm(best - raw) - np.linalg.norm(out - raw) <= resolution

    def test_feasibility_idempotence_nonexpansiveness(self, rng):
        # spec invariant: 1e3 random instances
        lo = -np.ones(6)
        hi = np.ones(6)
        for _ in range(1000):
            a = rng.normal(size=6)
            rhs = float(rng.uniform(-1.0, 1.0))
            if float(np.minimum(a * lo, a * hi).sum()) > rhs:
                continue
            r1 = rng.uniform(-2.0, 2.0, 6)
            r2 = rng.uniform(-2.0, 2.0, 6)
            p1, _ = project_halfspace_box(r1, a, rhs, lo, hi)
            p2, _ = project_halfspace_box(r2, a, rhs, lo, hi)
            for p in (p1, p2):
                assert np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)
                assert p @ a <= rhs + 1e-9
            again, _ = project_halfspace_box(p1, a, rhs, lo, hi)
            assert np.allclose(again, p1, atol=1e-9)
            assert (np.linalg.norm(p1 - p2)
                    <= np.linalg.norm(r1 - r2) + 1e-9)


def _assert_kkt(theta, a, rhs, lo, hi, v):
    """v = clip(theta - mu a) for some mu >= 0, and a.v = rhs when mu > 0."""
    assert np.all(v >= lo) and np.all(v <= hi)
    if a @ np.clip(theta, lo, hi) <= rhs + shield.ROUNDOFF:
        assert np.array_equal(v, np.clip(theta, lo, hi))
        return
    nz = a != 0.0
    free = nz & (v > lo) & (v < hi)
    if free.any():
        mu = float(np.median((theta - v)[free] / a[free]))
    else:   # a vertex: any mu past the last kink
        mu = float(np.max(np.maximum((theta - lo)[nz] / a[nz],
                                     (theta - hi)[nz] / a[nz])))
    assert mu >= 0.0
    assert np.allclose(np.clip(theta - mu * a, lo, hi), v, rtol=0.0, atol=1e-12)
    box_min = float(np.minimum(a * lo, a * hi).sum())
    assert abs(a @ v - max(rhs, box_min)) <= 1e-12 * max(1.0, abs(rhs))


class TestProjectionExact:
    def test_kkt_on_random_instances(self, rng):
        lo, hi = -np.ones(6), np.ones(6)
        active = 0
        for _ in range(1000):
            a = rng.normal(size=6)
            rhs = float(rng.uniform(-1.0, 1.0))
            if float(np.minimum(a * lo, a * hi).sum()) > rhs:
                continue
            theta = rng.uniform(-2.0, 2.0, 6)
            v, _ = project_halfspace_box(theta, a, rhs, lo, hi)
            _assert_kkt(theta, a, rhs, lo, hi, v)
            active += bool(a @ np.clip(theta, lo, hi) > rhs)
        assert active > 100

    def test_zero_coefficients(self, rng):
        lo, hi = -np.ones(6), np.ones(6)
        a = np.array([1.0, 0.0, -2.0, 0.0, 0.5, 0.0])
        for _ in range(200):
            theta = rng.uniform(-2.0, 2.0, 6)
            rhs = float(rng.uniform(-3.0, 0.0))
            v, _ = project_halfspace_box(theta, a, rhs, lo, hi)
            _assert_kkt(theta, a, rhs, lo, hi, v)
            assert np.array_equal(v[a == 0.0], np.clip(theta, lo, hi)[a == 0.0])

    def test_rhs_at_box_minimum_gives_vertex(self, rng):
        lo, hi = np.zeros(5), np.array([1.0, 2.0, 0.5, 1.0, 3.0])
        a = np.array([0.7, -1.3, 0.0, 2.1, -0.4])
        rhs = float(np.minimum(a * lo, a * hi).sum())
        for _ in range(50):
            theta = rng.uniform(-1.0, 4.0, 5)
            v, _ = project_halfspace_box(theta, a, rhs, lo, hi)
            vertex = np.where(a > 0.0, lo, np.where(a < 0.0, hi,
                                                    np.clip(theta, lo, hi)))
            assert np.allclose(v, vertex, rtol=0.0, atol=1e-12)

    def test_point_within_roundoff_of_face_unchanged(self, rng):
        lo, hi = -np.ones(6), np.ones(6)
        for _ in range(100):
            a = rng.normal(size=6)
            p = rng.uniform(-0.9, 0.9, 6)
            rhs = float(a @ p) - 1e-13
            assert np.array_equal(project_halfspace_box(p, a, rhs, lo, hi)[0], p)


def _shielded_rollout(cfg, form, seed=42, source=None):
    box = ParamBox()
    base = cfg.baseline_gains()
    src = source if source is not None else (lambda t, x: base)
    ctrl = shield.ShieldedController(src, form, box, cfg.plant, cfg.friction)
    traj = rollout(ctrl, cfg.reference, cfg.plant, cfg.friction, seed=seed,
                   dt=cfg.dt)
    return traj, ctrl


class TestDecayAndActivation:
    def test_shielded_rollout_decays(self, cfg, form):
        traj, ctrl = _shielded_rollout(cfg, form)
        rep = verify_exponential_decay(traj, form, alpha=0.5, tolerance=0.05)
        assert rep.passed
        assert not traj.diverged

    def test_per_step_contraction(self, cfg, form):
        # discrete-time decay with an O(dt^2) allowance.  The certificate
        # is instantaneous while the torque is held over the step, so the
        # multiplicative form only holds above the floor where the
        # zero-order-hold error is small relative to V; run without the
        # uncancellable memory disturbance and floor at 1% of V(0).
        fric = dataclasses.replace(cfg.friction, lambda_z=0.0)
        box = ParamBox()
        base = cfg.baseline_gains()
        ctrl = shield.ShieldedController(lambda t, x: base, form, box,
                                         cfg.plant, fric)
        traj = rollout(ctrl, cfg.reference, cfg.plant, fric, seed=42,
                       dt=cfg.dt)
        e = traj.q_ref - traj.q
        ed = traj.qd_ref - traj.qd
        y = np.concatenate([e, ed], axis=1)
        V = 0.5 * np.einsum("ni,ij,nj->n", y, form.P, y)
        dt = cfg.dt
        floor = 0.01 * V[0]
        bound = np.exp(-form.alpha * dt) * (1.0 + 50.0 * dt ** 2)
        mask = V[:-1] > floor
        assert mask.sum() > 50   # the stiff loop leaves the region quickly
        ratios = V[1:][mask] / V[:-1][mask]
        assert np.max(ratios) <= bound

    def test_alpha_zero_reduces_to_monotonicity(self, form):
        t = np.linspace(0.0, 1.0, 11)
        e = 0.1 * np.exp(-t)[:, None] * np.ones(2)
        traj = Trajectory(t=t, q=-e, qd=np.zeros((11, 2)), z=np.zeros((11, 2)),
                          q_ref=np.zeros((11, 2)), qd_ref=np.zeros((11, 2)),
                          tau=np.zeros((10, 2)),
                          projection_distance=np.zeros(10))
        assert verify_exponential_decay(traj, form, alpha=0.0).passed
        e_bad = 0.1 * np.exp(+0.5 * t)[:, None] * np.ones(2)
        traj_bad = Trajectory(t=t, q=-e_bad, qd=np.zeros((11, 2)),
                              z=np.zeros((11, 2)), q_ref=np.zeros((11, 2)),
                              qd_ref=np.zeros((11, 2)), tau=np.zeros((10, 2)),
                              projection_distance=np.zeros(10))
        assert not verify_exponential_decay(traj_bad, form, alpha=0.0).passed

    def test_unshielded_weak_gains_fail_decay(self, cfg, form):
        from memctrl.controller import BaselineController
        weak = ControllerParams(kd=np.full(2, 0.5), lam=np.full(2, 0.3),
                                eta=np.zeros(DIM_ETA))
        ctrl = BaselineController(cfg.plant, gains=weak)
        traj = rollout(ctrl, cfg.reference, cfg.plant, cfg.friction, seed=42,
                       dt=cfg.dt)
        rep = verify_exponential_decay(traj, form, alpha=0.5, tolerance=0.05)
        assert not rep.passed

    def test_feasible_source_never_fires(self, cfg, form):
        box = ParamBox()
        base = cfg.baseline_gains()

        def feasible_source(t, x, _cache={}):
            # pre-projected proposals are feasible by construction
            return base

        # first projection layer makes the proposal feasible; wrapping it
        # in a second shield must change nothing (Prop-2 optimum case)
        inner = shield.ShieldedController(feasible_source, form, box,
                                          cfg.plant, cfg.friction)

        def pre_projected(t, x):
            raise NotImplementedError

        class TwoStage:
            def __init__(self):
                self.outer_altered = []

            def __call__(self, t, state, ref_point):
                dec = inner(t, state, ref_point)
                x = ExtendedState.from_tracking(state.q, state.qd, ref_point,
                                                form.lam_nominal)
                theta2, empty = project_admissible(
                    x, dec.params, form, box,
                    ModelTerms.at(x, cfg.plant, cfg.friction), cfg.friction,
                    z=state.z)
                # an empty set: inner already applied best effort
                moved = not empty and not np.array_equal(
                    theta2.as_vector(), dec.params.as_vector())
                self.outer_altered.append(moved)
                return dec

        two = TwoStage()
        traj = rollout(two, cfg.reference, cfg.plant, cfg.friction, seed=42,
                       dt=cfg.dt)
        assert not traj.diverged
        assert sum(two.outer_altered) == 0
        assert np.mean(two.outer_altered) == 0.0

    def test_histogram_of_a_shield_that_never_fires(self, cfg, form):
        # every distance 0: the edges are all 0, so every step belongs in
        # the first bin, not in the middle bin of a made-up (-0.5, 0.5)
        n = 5
        traj = Trajectory(t=np.linspace(0.0, 0.05, n + 1),
                          q=np.zeros((n + 1, 2)), qd=np.zeros((n + 1, 2)),
                          z=np.zeros((n + 1, 2)), q_ref=np.zeros((n + 1, 2)),
                          qd_ref=np.zeros((n + 1, 2)), tau=np.zeros((n, 2)),
                          projection_distance=np.zeros(n))
        ctrl = shield.ShieldedController(lambda t, x: cfg.baseline_gains(),
                                         form, ParamBox(), cfg.plant,
                                         cfg.friction)
        report = shield_report(traj, form, ctrl)
        assert report["assumption_violations"] == 0
        hist = report["projection_distance_histogram"]
        assert hist["edges"] == [0.0] * 11
        assert hist["counts"] == [n] + [0] * 9

    def test_histogram_spans_the_distances_when_it_fires(self, cfg, form):
        traj, ctrl = _shielded_rollout(cfg, form)
        dist = traj.projection_distance
        assert dist.max() > 0.0
        hist = shield_report(traj, form, ctrl)["projection_distance_histogram"]
        assert hist["edges"][0] == 0.0 and hist["edges"][-1] == dist.max()
        assert sum(hist["counts"]) == traj.n_steps
        assert hist["counts"][-1] >= 1

    def test_activation_fraction_arithmetic(self, form):
        t = np.linspace(0, 0.1, 11)
        base = dict(t=t, q=np.zeros((11, 2)), qd=np.zeros((11, 2)),
                    z=np.zeros((11, 2)), q_ref=np.zeros((11, 2)),
                    qd_ref=np.zeros((11, 2)), tau=np.zeros((10, 2)))
        all_on = Trajectory(projection_distance=np.full(10, 0.1), **base)
        all_off = Trajectory(projection_distance=np.zeros(10), **base)
        assert shield_activation_fraction(all_on) == 1.0
        assert shield_activation_fraction(all_off) == 0.0
        # a move of up to ROUNDOFF is roundoff, not a firing
        half = Trajectory(projection_distance=np.repeat(
            [shield.ROUNDOFF, 2 * shield.ROUNDOFF], 5), **base)
        assert shield_activation_fraction(half) == 0.5

    def test_activation_tracks_projection_distance(self, cfg, form):
        # perturbed proposal family: activation and mean distance move
        # together.  Each proposal moves from the box centre towards a
        # lower damping and sliding gain; frac < 1 keeps it inside the box
        box = ParamBox()
        centre = 0.5 * (box.lower_vector + box.upper_vector)
        half_width = 0.5 * (box.upper_vector - box.lower_vector)
        direction = np.array([-1.0, -1.0, -0.5, -0.5, 1, -1, 1, -1, 1, -1])
        fracs, dists = [], []
        for frac in (0.0, 0.4, 0.8):
            theta = ControllerParams.from_vector(
                centre + frac * direction * half_width)
            traj, _ = _shielded_rollout(cfg, form,
                                        source=lambda t, x, p=theta: p)
            fracs.append(shield_activation_fraction(traj))
            dists.append(float(np.mean(traj.projection_distance)))
        order = np.argsort(dists)
        assert np.all(np.diff(np.array(fracs)[order]) >= -1e-9)
        assert fracs[order[-1]] >= fracs[order[0]]


# tau, q and projection_distance of TestFallback's rollout, recorded
# when the controller caught the empty set and rebuilt the half-space
FALLBACK_PIN = Path(__file__).parent / "data" / "shield_fallback_seed5.npz"


class TestFallback:
    def test_fallback_rollout_pinned_one_halfspace_per_step(self, cfg, form,
                                                            monkeypatch):
        # seed 5 over 2 s meets one state whose half-space misses the box
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return halfspace_coeffs(*args, **kwargs)

        monkeypatch.setattr(shield, "halfspace_coeffs", counted)
        # the other layers the benchmark traces on a shielded run, each
        # called through the shield module once per step
        layer_calls = {}
        for name in ("project_admissible", "project_halfspace_box",
                     "computed_torque"):
            layer_calls[name] = []

            def layer(*args, _fn=getattr(shield, name),
                      _calls=layer_calls[name], **kwargs):
                _calls.append(1)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(shield, name, layer)
        ref = dataclasses.replace(cfg.reference, horizon=2.0)
        box = ParamBox()
        base = cfg.baseline_gains()
        ctrl = shield.ShieldedController(lambda t, x: base, form, box,
                                         cfg.plant, cfg.friction)
        traj = rollout(ctrl, ref, cfg.plant, cfg.friction, seed=5, dt=cfg.dt)
        assert ctrl.assumption_violations == 1
        assert len(calls) == traj.n_steps
        for name, made in layer_calls.items():
            assert len(made) == traj.n_steps, name
        pin = np.load(FALLBACK_PIN)
        for name in ("tau", "q", "projection_distance"):
            assert np.array_equal(getattr(traj, name), pin[name]), name


class TestOneEvaluationPerStep:
    """A shielded step evaluates the Stribeck regressor and the arm terms
    once; its certificate and its torque read the same values."""

    @pytest.fixture()
    def step(self, cfg, form):
        ctrl = shield.ShieldedController(lambda t, x: cfg.baseline_gains(),
                                         form, ParamBox(), cfg.plant,
                                         cfg.friction)
        state = PlantState(q=np.array([0.3, -0.2]), qd=np.array([0.4, -1.1]),
                           z=np.array([0.5, -0.7]))
        ref_point = BatchReference(cfg.reference).at(0.37)
        return lambda: ctrl(0.37, state, ref_point)

    def test_one_regressor_per_call(self, step, call_counts):
        calls = call_counts(controller, "feature_matrix")
        step()
        step()
        assert len(calls) == 2

    def test_one_arm_terms_evaluation_per_call(self, step, call_counts):
        calls = call_counts(dynamics, "_arm_terms")
        step()
        step()
        assert len(calls) == 2


def halfspace_coeffs_reference(x, form, params, fric, z=None):
    """halfspace_coeffs as first written: M, C, G and V each from its own
    helper, so the arm terms are evaluated three times per state."""
    z = np.zeros(2) if z is None else np.asarray(z, dtype=float)
    y = np.concatenate([x.e, x.ed])
    Py = form.P @ y
    g1, w = Py[:2], Py[2:]
    M = mass_matrix(x.q, params)
    b_vec = np.linalg.solve(M, w)     # M symmetric
    C = coriolis_matrix(x.q, x.qd, params)
    G = gravity_vector(x.q, params)
    F = stribeck_force(x.qd, z, fric)
    drift = float(g1 @ x.ed + w @ x.qdd_ref + b_vec @ (C @ x.qd + G + F))
    Phi = feature_matrix(x.q, x.qd, fric.v_s)
    tau0 = M @ x.qdd_ref + C @ x.qd_ref + G
    a = np.concatenate([-x.s * b_vec,
                        -(x.ed * (M @ b_vec) + x.e * (C.T @ b_vec)),
                        -Phi.T @ b_vec])
    a0 = -float(b_vec @ tau0)
    c = -form.alpha * lyapunov_value(x, form) - drift
    return a, c - a0


class TestCertificateOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_along_simulate_shielded(self, cfg, monkeypatch,
                                                   seed):
        # the controller, form and horizon of `simulate --shielded` with
        # `horizon = 2.0`; every state the shield meets is compared
        base = cfg.baseline_gains()
        form = design_lyapunov_form(
            cfg.plant, BatchReference(cfg.reference).at(0.0).q, baseline=base,
            alpha=cfg.alpha)
        mismatches, states = [], []

        def compared(x, form, model, fric, z):
            a, rhs = halfspace_coeffs(x, form, model, fric, z)
            a_ref, rhs_ref = halfspace_coeffs_reference(x, form, cfg.plant,
                                                        fric, z)
            states.append(1)
            if not (np.array_equal(a, a_ref) and rhs == rhs_ref):
                mismatches.append(len(states) - 1)
            return a, rhs

        monkeypatch.setattr(shield, "halfspace_coeffs", compared)
        ctrl = shield.ShieldedController(lambda t, x: base, form, cfg.box,
                                         cfg.plant, cfg.friction)
        ref = dataclasses.replace(cfg.reference, horizon=2.0)
        traj = rollout(ctrl, ref, cfg.plant, cfg.friction, seed=seed,
                       dt=cfg.dt)
        assert len(states) == traj.n_steps == 200
        assert mismatches == []
