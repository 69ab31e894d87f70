"""Evaluation statistics: Mann-Whitney U, Welch's t, Cohen's d.

Self-contained implementations: the exact Mann-Whitney tail enumerates
all labelings for small samples and switches to the tie-corrected
normal approximation above a combined size of 16; the Student-t tail
evaluates the regularised incomplete beta by continued fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .runner import RunResult


class DegenerateVariance(ValueError):
    pass


class SchemaMismatch(ValueError):
    pass


class EmptyGroup(ValueError):
    pass


EXACT_ENUMERATION_LIMIT = 16   # combined n above which the normal tail is used


@dataclass
class SampleSet:
    label: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size == 0:
            raise ValueError("sample set must be non-empty")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample values must be finite")


@dataclass
class TestReport:
    label_a: str
    label_b: str
    n1: int
    n2: int
    mean1: float
    mean2: float
    sd1: float
    sd2: float
    u_statistic: float
    p_mann_whitney: float
    t_statistic: float
    p_welch: float
    welch_dof: float
    cohens_d: float


def _midranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks, ties sharing the mean of their ranks, and the size
    of each run of tied values (the distinct values' counts)."""
    _, inverse, counts = np.unique(pooled, return_inverse=True,
                                   return_counts=True)
    # a run of c tied values ending at rank r holds ranks r - c + 1 .. r
    last = np.cumsum(counts)
    return (last - 0.5 * (counts - 1))[inverse], counts


def _u_from_ranks(ranks: np.ndarray, idx_a, n1: int) -> float:
    r_a = float(np.sum(ranks[list(idx_a)]))
    return r_a - n1 * (n1 + 1) / 2.0


def mann_whitney_u(a, b, alternative: str = "less",
                   method: str = "auto") -> tuple[float, float]:
    """U statistic for sample a and its p-value.

    alternative 'less' tests a stochastically smaller than b.  Exact p
    by enumeration of all C(n1+n2, n1) labelings when the combined size
    allows it; otherwise the normal approximation with midrank tie
    correction and continuity correction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if alternative not in ("less", "greater", "two-sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    n1, n2 = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks, counts = _midranks(pooled)
    u_obs = _u_from_ranks(ranks, range(n1), n1)

    if method == "auto":
        method = "exact" if n1 + n2 <= EXACT_ENUMERATION_LIMIT else "normal"
    if method == "exact":
        total = 0
        le = 0
        ge = 0
        for idx in combinations(range(n1 + n2), n1):
            u = _u_from_ranks(ranks, idx, n1)
            total += 1
            if u <= u_obs + 1e-12:
                le += 1
            if u >= u_obs - 1e-12:
                ge += 1
        if alternative == "less":
            p = le / total
        elif alternative == "greater":
            p = ge / total
        else:
            p = min(1.0, 2.0 * min(le, ge) / total)
        return u_obs, p
    if method != "normal":
        raise ValueError(f"unknown method {method!r}")

    n = n1 + n2
    mu = n1 * n2 / 2.0
    tie_term = float(np.sum(counts ** 3 - counts)) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0.0:
        return u_obs, 1.0   # all values tied: no evidence either way
    sd = math.sqrt(var)
    if alternative == "less":
        zval = (u_obs - mu + 0.5) / sd
        p = _phi(zval)
    elif alternative == "greater":
        zval = (u_obs - mu - 0.5) / sd
        p = 1.0 - _phi(zval)
    else:
        zval = (abs(u_obs - mu) - 0.5) / sd
        p = min(1.0, 2.0 * (1.0 - _phi(zval)))
    return u_obs, p


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued fraction with the symmetry switch."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, dof: float) -> float:
    """CDF of Student's t via the incomplete beta tail."""
    if dof <= 0.0:
        raise ValueError("dof must be positive")
    x = dof / (dof + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * dof, 0.5, x)
    return 1.0 - tail if t >= 0.0 else tail


def welch_t(a, b) -> tuple[float, float, float]:
    """Welch's t statistic, two-sided p, and Satterthwaite dof."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = a.size, b.size
    if n1 < 2 or n2 < 2:
        raise DegenerateVariance("need at least two values per sample")
    v1, v2 = a.var(ddof=1), b.var(ddof=1)
    if v1 == 0.0 and v2 == 0.0:
        if a.mean() == b.mean():
            return 0.0, 1.0, float(n1 + n2 - 2)
        raise DegenerateVariance("zero variance in both samples")
    se2 = v1 / n1 + v2 / n2
    t = float((a.mean() - b.mean()) / math.sqrt(se2))
    dof = se2 ** 2 / (v1 ** 2 / (n1 ** 2 * (n1 - 1)) + v2 ** 2 / (n2 ** 2 * (n2 - 1)))
    p = 2.0 * (1.0 - student_t_cdf(abs(t), dof))
    return t, float(min(p, 1.0)), float(dof)


def cohens_d_pooled(mean1: float, sd1: float, n1: int,
                    mean2: float, sd2: float, n2: int) -> float:
    """Effect size with the (n-1)-weighted pooled standard deviation."""
    if sd1 < 0.0 or sd2 < 0.0:
        raise ValueError("standard deviations must be non-negative")
    if n1 < 2 or n2 < 2:
        raise DegenerateVariance("need n >= 2 in both groups")
    pooled = math.sqrt(((n1 - 1) * sd1 ** 2 + (n2 - 1) * sd2 ** 2)
                       / (n1 + n2 - 2))
    if pooled == 0.0:
        raise DegenerateVariance("pooled standard deviation is zero")
    return (mean1 - mean2) / pooled


def build_report(a: SampleSet, b: SampleSet,
                 alternative: str = "less") -> TestReport:
    if a.values.size < 2 or b.values.size < 2:
        raise DegenerateVariance(
            f"group {a.label if a.values.size < 2 else b.label} has a single value")
    u, p_u = mann_whitney_u(a.values, b.values, alternative)
    t, p_w, dof = welch_t(a.values, b.values)
    sd1 = float(a.values.std(ddof=1))
    sd2 = float(b.values.std(ddof=1))
    d = cohens_d_pooled(float(a.values.mean()), sd1, a.values.size,
                        float(b.values.mean()), sd2, b.values.size)
    return TestReport(label_a=a.label, label_b=b.label,
                      n1=a.values.size, n2=b.values.size,
                      mean1=float(a.values.mean()), mean2=float(b.values.mean()),
                      sd1=sd1, sd2=sd2, u_statistic=u, p_mann_whitney=p_u,
                      t_statistic=t, p_welch=p_w, welch_dof=dof, cohens_d=d)


def compare_result_files(paths, metric: str = "delta_percent",
                         group_key: str = "architecture",
                         alternative: str = "less") -> dict:
    """Group runner.RunResult files by the attribute group_key and test
    all group pairs on the numeric attribute metric (rmse_mean included).

    Returns {"groups": [...], "pairs": [TestReport...]}, deterministic
    ordering by group label.  Two groups whose values are all equal
    leave Welch's t and Cohen's d undefined for their pair, so the call
    raises DegenerateVariance naming the metric and every such group:
    the delta_percent of `memctrl evaluate` files, for one, is 0 in
    every file, since each run is its own baseline.
    """
    groups: dict[str, list[float]] = {}
    for path in paths:
        try:
            res = RunResult.read_json(path)
        except KeyError as exc:
            raise SchemaMismatch(f"{path}: missing {exc}") from None
        except (TypeError, ValueError) as exc:   # not JSON, or not a record
            raise SchemaMismatch(f"{path}: not a result file: {exc}") from None
        if (n := res.flags.get("diverged_rollouts", 0)) > 0:  # RMSE cut short
            total = res.flags.get("total_rollouts")
            raise ValueError(f"{path}: {n} of {total} rollouts diverged")
        value, label = (getattr(res, name, None) for name in (metric, group_key))
        if value is None or label is None:
            raise SchemaMismatch(f"{path}: missing {metric!r} or {group_key!r}")
        if not isinstance(value, (int, float)):
            raise SchemaMismatch(f"{path}: metric {metric!r} is not a number")
        groups.setdefault(str(label), []).append(float(value))
    if not groups:
        raise EmptyGroup("no input files matched")
    labels = sorted(groups)
    flat = [lab for lab in labels
            if len(groups[lab]) > 1 and min(groups[lab]) == max(groups[lab])]
    if len(flat) > 1:
        raise DegenerateVariance(
            f"metric {metric!r} has zero spread in groups {', '.join(flat)}:"
            " no pair of them can be tested")
    sets = [SampleSet(label=lab, values=np.array(groups[lab])) for lab in labels]
    summaries = []
    for s in sets:
        sd = float(s.values.std(ddof=1)) if s.values.size > 1 else None
        summaries.append({"label": s.label, "n": int(s.values.size),
                          "mean": float(s.values.mean()), "sd": sd})
    pairs = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            pairs.append(build_report(sets[i], sets[j], alternative))
    return {"groups": summaries, "pairs": pairs}
