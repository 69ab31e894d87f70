import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memctrl.stats import (DegenerateVariance, EmptyGroup, SampleSet,
                           SchemaMismatch, _midranks, cohens_d_pooled,
                           compare_result_files, mann_whitney_u,
                           regularized_incomplete_beta, student_t_cdf,
                           welch_t)


class TestMannWhitney:
    def test_fully_separated_exact_tail(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6], alternative="less")
        assert u == 0.0
        assert p == pytest.approx(1.0 / 20.0, abs=1e-12)

    def test_identical_samples_no_evidence(self):
        vals = [2.0, 3.0, 5.0, 7.0]
        _, p = mann_whitney_u(vals, vals, alternative="less")
        assert p >= 0.5

    def test_exact_vs_normal_agreement(self, rng):
        # spec invariant: all n1, n2 <= 8 random fixtures within 0.03
        for _ in range(40):
            n1 = int(rng.integers(3, 9))
            n2 = int(rng.integers(3, 9))
            a = rng.normal(0.0, 1.0, n1)
            b = rng.normal(0.4, 1.0, n2)
            _, p_exact = mann_whitney_u(a, b, "less", method="exact")
            _, p_norm = mann_whitney_u(a, b, "less", method="normal")
            assert abs(p_exact - p_norm) < 0.03

    def test_ties_use_midranks(self):
        u, _ = mann_whitney_u([1.0, 2.0], [2.0, 3.0], alternative="less")
        # pair (2, 2) contributes half a win
        assert u == pytest.approx(0.5)

    def test_greater_is_mirror(self, rng):
        a = rng.normal(size=6)
        b = rng.normal(size=7)
        _, p_less = mann_whitney_u(a, b, "less")
        _, p_greater = mann_whitney_u(b, a, "greater")
        assert p_less == pytest.approx(p_greater, abs=1e-12)


def _midranks_loop(pooled):
    # oracle: the tie-run loop _midranks replaced
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size)
    sorted_vals = pooled[order]
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestMidranks:
    def test_matches_tie_run_loop(self, rng):
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            kind = rng.integers(3)
            if kind == 0:     # continuous: no ties
                x = rng.normal(size=n)
            elif kind == 1:   # tie-heavy: a few distinct values
                x = rng.integers(-2, 3, size=n).astype(float)
            else:             # signed zeros among ties
                x = rng.choice([-0.0, 0.0, 1.0, -1.5], size=n)
            assert np.array_equal(_midranks(x)[0], _midranks_loop(x))


def _t_cdf_quadrature(t, dof, n=200000):
    # independent oracle: Simpson quadrature of the t density
    def pdf(x):
        return (math.gamma((dof + 1) / 2)
                / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
                * (1 + x * x / dof) ** (-(dof + 1) / 2))
    lo = -60.0
    xs = np.linspace(lo, t, n + 1)
    ys = np.array([pdf(x) for x in xs])
    h = (t - lo) / n
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum()
                          + 2 * ys[2:-1:2].sum()))


class TestStudentT:
    def test_cdf_against_quadrature(self):
        # continued-fraction tail vs an independent quadrature oracle
        got = student_t_cdf(2.0, 10.0)
        want = _t_cdf_quadrature(2.0, 10.0)
        assert got == pytest.approx(want, abs=1e-8)

    def test_symmetry(self):
        assert student_t_cdf(-1.3, 7.0) == pytest.approx(
            1.0 - student_t_cdf(1.3, 7.0), abs=1e-14)

    def test_beta_function_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_beta_symmetry_identity(self, rng):
        for _ in range(20):
            a, b = rng.uniform(0.5, 8.0, 2)
            x = float(rng.uniform(0.0, 1.0))
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestWelch:
    def test_identical_samples(self):
        t, p, _ = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_large_effect_is_significant(self):
        gen = np.random.default_rng(202)
        a = gen.normal(0.0, 1.0, 30)
        b = gen.normal(1.0, 1.0, 30)
        _, p, dof = welch_t(a, b)
        assert p < 0.01
        assert 20.0 < dof <= 58.0 + 1e-9

    def test_degenerate_variance_raises(self):
        with pytest.raises(DegenerateVariance):
            welch_t([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-100, 100), st.floats(0.01, 100))
    def test_shift_scale_invariance(self, shift, scale):
        a = np.array([0.1, 0.5, -0.3, 0.8, 0.2])
        b = np.array([0.9, 1.5, 0.7, 1.1])
        _, p0, _ = welch_t(a, b)
        _, p1, _ = welch_t(scale * a + shift, scale * b + shift)
        assert p0 == pytest.approx(p1, rel=1e-9)


class TestCohensD:
    def test_table_row_short_horizon(self):
        d = cohens_d_pooled(-51.34, 8.11, 10, -39.27, 13.29, 10)
        assert d == pytest.approx(-1.10, abs=0.02)

    def test_table_row_matched_horizon(self):
        d = cohens_d_pooled(-54.82, 7.94, 5, -36.29, 9.93, 5)
        assert d == pytest.approx(-2.06, abs=0.02)

    def test_table_row_long_horizon(self):
        d = cohens_d_pooled(-32.19, 31.83, 10, -29.30, 20.47, 10)
        assert d == pytest.approx(-0.11, abs=0.02)

    def test_antisymmetry(self, rng):
        m1, m2 = rng.normal(size=2)
        s1, s2 = rng.uniform(0.5, 2.0, 2)
        assert cohens_d_pooled(m1, s1, 8, m2, s2, 9) == pytest.approx(
            -cohens_d_pooled(m2, s2, 9, m1, s1, 8), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 100))
    def test_scale_equivariance(self, c):
        d0 = cohens_d_pooled(1.0, 0.5, 10, 0.3, 0.8, 12)
        d1 = cohens_d_pooled(c * 1.0, c * 0.5, 10, c * 0.3, c * 0.8, 12)
        assert d0 == pytest.approx(d1, rel=1e-9)

    def test_zero_pooled_sd_raises(self):
        with pytest.raises(DegenerateVariance):
            cohens_d_pooled(1.0, 0.0, 5, 2.0, 0.0, 5)


def _write_result(path, architecture, seed, delta):
    rec = {"architecture": architecture, "param_count": 1000, "tau_z": 1.0,
           "seed": seed, "baseline_rmse": 0.13,
           "payload_rmse": [{"payload": 0.0, "rmse": 0.1, "sd": 0.01}],
           "delta_percent": delta, "flags": {}}
    path.write_text(json.dumps(rec))


def _write_groups(tmp_path, groups):
    """One result file per value of each {label: [delta_percent, ...]}."""
    paths = []
    for label, values in groups.items():
        for seed, v in enumerate(values):
            paths.append(tmp_path / f"{label}__{seed}.json")
            _write_result(paths[-1], label, seed, v)
    return paths


class TestCompareResultFiles:
    def test_two_group_comparison(self, tmp_path, rng):
        a_vals = list(rng.normal(-50.0, 5.0, 10))
        b_vals = list(rng.normal(-40.0, 5.0, 10))
        paths = []
        for i, v in enumerate(a_vals):
            p = tmp_path / f"arch_a__{i}.json"
            _write_result(p, "arch-a", i, v)
            paths.append(p)
        for i, v in enumerate(b_vals):
            p = tmp_path / f"arch_b__{i}.json"
            _write_result(p, "arch-b", i, v)
            paths.append(p)
        out = compare_result_files(paths)
        assert [g["label"] for g in out["groups"]] == ["arch-a", "arch-b"]
        rep = out["pairs"][0]
        assert rep.n1 == rep.n2 == 10
        assert rep.mean1 == pytest.approx(np.mean(a_vals))
        d_direct = cohens_d_pooled(float(np.mean(a_vals)),
                                   float(np.std(a_vals, ddof=1)), 10,
                                   float(np.mean(b_vals)),
                                   float(np.std(b_vals, ddof=1)), 10)
        assert rep.cohens_d == pytest.approx(d_direct, rel=1e-12)

    def test_single_member_group_surfaces_degeneracy(self, tmp_path):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        p3 = tmp_path / "three.json"
        _write_result(p1, "solo", 0, -10.0)
        _write_result(p2, "duo", 0, -20.0)
        _write_result(p3, "duo", 1, -21.0)
        with pytest.raises(DegenerateVariance):
            compare_result_files([p1, p2, p3])

    @pytest.mark.parametrize("deltas, flat", [
        ({"a": [-5.0, -5.0], "b": [-7.0, -7.0], "c": [1.0, 2.0]}, "a, b"),
        ({"a": [0.0, 0.0], "b": [0.0, 0.0]}, "a, b"),
    ])
    def test_groups_without_spread_named(self, tmp_path, deltas, flat):
        with pytest.raises(DegenerateVariance, match=(
                f"metric 'delta_percent' has zero spread in groups {flat}:")):
            compare_result_files(_write_groups(tmp_path, deltas))

    def test_one_group_without_spread_is_tested(self, tmp_path):
        # a pair with spread on one side has a nonzero pooled sd:
        # sqrt((0 + 2) / 2) = 1 between means -5 and 2
        paths = _write_groups(tmp_path, {"flat": [-5.0, -5.0],
                                         "wide": [1.0, 3.0]})
        (rep,) = compare_result_files(paths)["pairs"]
        assert rep.sd1 == 0.0
        assert rep.cohens_d == pytest.approx(-7.0, rel=1e-12)

    def test_schema_mismatch(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"arch": "x"}))
        with pytest.raises(SchemaMismatch):
            compare_result_files([bad])

    def test_empty_input(self):
        with pytest.raises(EmptyGroup):
            compare_result_files([])

    def test_sample_set_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet(label="x", values=np.array([]))


class TestSummaryRowRoundTrip:
    def _samples_with_moments(self, rng, mean, sd, n):
        x = rng.normal(size=n)
        x = (x - x.mean()) / x.std(ddof=1)
        return mean + sd * x

    def test_published_summary_rows_regenerate(self, tmp_path, rng):
        # fixture files carrying the published per-group moments must
        # reproduce the published effect sizes through the file pipeline
        rows = [("short", (-51.34, 8.11, 10), (-39.27, 13.29, 10), -1.10),
                ("matched", (-54.82, 7.94, 5), (-36.29, 9.93, 5), -2.06),
                ("long", (-32.19, 31.83, 10), (-29.30, 20.47, 10), -0.11)]
        for label, (m1, s1, n1), (m2, s2, n2), want in rows:
            paths = []
            for arch, (m, s, n) in (("attn-1l", (m1, s1, n1)),
                                    ("deep-base", (m2, s2, n2))):
                vals = self._samples_with_moments(rng, m, s, n)
                for i, v in enumerate(vals):
                    p = tmp_path / f"{label}_{arch}_{i}.json"
                    _write_result(p, arch, i, float(v))
                    paths.append(p)
            out = compare_result_files(paths)
            rep = out["pairs"][0]
            assert rep.cohens_d == pytest.approx(want, abs=0.02)
            for p in paths:
                p.unlink()
