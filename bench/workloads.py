"""Workloads of the memctrl benchmark: pipeline calls, output checks, metrics.

Each workload is a list of `memctrl.cli.main` argument vectors per pass.
The memory workloads call each pipeline once per tau_z: that computes the
same rows as one call over the whole list (every tau_z restarts from the
same seed) and gives the calibration kernel (calib.py) a boundary about
every second.

A pass takes one base seed; the benchmark draws the base seeds of its
timed passes from its own --seed.  Every call has a check; a call that
raises, returns non-zero or fails its check counts as failed.  A check
also returns the values that are pinned against `reference.json` on the
reference pass, which always runs at REFERENCE_SEED.

This module imports neither numpy nor memctrl at load time, so the
parent process (which must not start BLAS threads) can read its tables.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_SEED = 42

# Relative and absolute roundoff bound for pinned values, and the bound
# on the median relative deviation of captured gradient samples from
# their recorded reference rows (each matched to its nearest sample).
RTOL = 1e-7
ATOL = 1e-12
GRAD_MEDIAN_RTOL = 1e-6
# recorded gradient rows: every GRAD_STRIDE-th captured sample
GRAD_STRIDE = 32

WORKLOADS = ("closed-loop", "memory-scan", "memory-stats")

WHY = {
    "closed-loop": ("the only workload on the scalar per-step loop (RK4 step, "
                    "computed torque, shield projection); ensemble sits idle, so "
                    "it is the bypass for ensemble and gradient changes"),
    "memory-scan": ("batched ensemble with finite-difference re-simulation in the "
                    "history-gradient sampler; where a reverse-mode gradient "
                    "shows, and where incrt runs"),
    "memory-stats": ("batched ensemble as one long forward rollout with dense "
                     "history and no re-simulation, plus ridge, binning and "
                     "broadband Monte Carlo; sets peak memory"),
}

# stage1_cpu_s / stage2_cpu_s time a different pipeline on each workload
STAGES = {
    "closed-loop": ("evaluate", "shielded"),
    "memory-scan": ("phase1", "rank_scan"),
    "memory-stats": ("markov_gap", "sigma_scan"),
}

SPECS = {
    "closed-loop": {"horizon": 2.0, "tau_z": [1.0, 5.0], "eval_seeds": 2,
                    "rollouts": 2, "shielded_seeds": 6},
    "memory-scan": {"tau_z": [1.0, 2.0, 3.0, 4.0, 5.0], "window": 20,
                    "n_samples": 512},
    "memory-stats": {"gap_tau_z": [0.5, 1.0, 2.0], "gap_n_traj": 512,
                     "sigma_tau_z": [0.5, 1.0, 2.0], "sigma_n_traj": 2000,
                     "sigma_seeds": 8},
}

# Times are process CPU seconds scaled by the calibration kernel (calib.py);
# wall times are printed and recorded but not gated.
END_TO_END = [
    # name, unit, meaning
    ("cpu_s", "s", "sum over the cli.main calls of a pass of each call's median "
                   "scaled CPU time over the timed passes"),
    ("setup_s", "s", "median scaled CPU time of a fresh interpreter importing "
                     "memctrl and loading the workload's config"),
    ("peak_rss_mb", "MiB", "peak resident set of the workload process after its "
                           "first (reference) pass"),
    ("stage1_cpu_s", "s", "cpu_s restricted to the first pipeline in STAGES"),
    ("stage2_cpu_s", "s", "cpu_s restricted to the second pipeline in STAGES"),
]


def config_text(workload: str, spec: dict) -> str:
    if workload == "closed-loop":
        return f"# benchmark: shortened reference horizon\nhorizon = {spec['horizon']!r}\n"
    return "# benchmark: defaults\n"


def _fmt(x: float) -> str:
    return f"{x:g}"


@dataclass
class Samples:
    """Gradient samples captured from the sampler (compared by nearest row)."""

    rows: object  # numpy array (n, W)


@dataclass
class Call:
    stage: str
    argv: list
    check: object          # (call, stdout, ctx) -> (errors, pinned)
    key: str = ""          # identifies the call inside a pass
    info: dict = field(default_factory=dict)


def _base(cfg: str, seed: int | None, out: str) -> list:
    argv = ["--config", cfg, "--out-dir", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def build_pass(workload: str, spec: dict, seed: int, out: str, cfg: str) -> list:
    """The pipeline calls of one pass at base seed `seed`."""
    calls = []
    if workload == "closed-loop":
        files = []
        for tz in spec["tau_z"]:
            for i in range(spec["eval_seeds"]):
                s = seed + i
                argv = _base(cfg, s, out) + ["evaluate", "--tau-z", _fmt(tz),
                                             "--rollouts", str(spec["rollouts"])]
                path = str(Path(out) / f"baseline-ct__tz{_fmt(tz)}s__seed{s}.json")
                files.append(path)
                calls.append(Call("evaluate", argv, check_evaluate,
                                  f"evaluate/tz{_fmt(tz)}/{i}",
                                  {"path": path, "tau_z": tz, "seed": s,
                                   "rollouts": spec["rollouts"]}))
        for i in range(spec["shielded_seeds"]):
            name = f"shielded_{i}.csv"
            argv = _base(cfg, seed + i, out) + ["simulate", "--shielded",
                                                "--out", name]
            calls.append(Call("shielded", argv, check_simulate, f"simulate/{i}",
                              {"path": str(Path(out) / name),
                               "n_steps": round(spec["horizon"] / 0.01)}))
        argv = _base(cfg, None, out) + ["compare", *files, "--group-key", "tau_z",
                                        "--metric", "baseline_rmse",
                                        "--out", "compare"]
        calls.append(Call("compare", argv, check_compare, "compare",
                          {"path": str(Path(out) / "compare.csv"),
                           "files": files}))
    elif workload == "memory-scan":
        sizes = ["--window", str(spec["window"]), "--n-samples", str(spec["n_samples"])]
        info = {"window": spec["window"], "n_samples": spec["n_samples"]}
        for stage, check in (("phase1", check_phase1), ("rank_scan", check_rank_scan)):
            for tz in spec["tau_z"]:
                name = f"{stage}_tz{_fmt(tz)}." + ("json" if stage == "phase1" else "csv")
                argv = _base(cfg, seed, out) + [stage.replace("_", "-"), "--tau-z-list",
                                                _fmt(tz), *sizes, "--out", name]
                calls.append(Call(stage, argv, check, f"{stage}/tz{_fmt(tz)}",
                                  dict(info, tau_z=[tz], path=str(Path(out) / name))))
    elif workload == "memory-stats":
        # sigma-scan is short; several seeds give its stage time enough work
        for stage, taus, n_traj, seeds, check in (
                ("markov_gap", spec["gap_tau_z"], spec["gap_n_traj"], [None],
                 check_markov_gap),
                ("sigma_scan", spec["sigma_tau_z"], spec["sigma_n_traj"],
                 range(spec["sigma_seeds"]), check_sigma_scan)):
            for tz in taus:
                for i in seeds:
                    tag = f"tz{_fmt(tz)}" + ("" if i is None else f"/{i}")
                    name = f"{stage}_{tag.replace('/', '_')}.csv"
                    argv = _base(cfg, seed + (i or 0), out) + [
                        stage.replace("_", "-"), "--tau-z-list", _fmt(tz),
                        "--n-traj", str(n_traj), "--out", name]
                    calls.append(Call(stage, argv, check, f"{stage}/{tag}",
                                      {"path": str(Path(out) / name), "tau_z": [tz]}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


# ---------------------------------------------------------------- checks


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_evaluate(call: Call, stdout: str, ctx: dict):
    from memctrl.runner import PAYLOAD_GRID, RunResult

    info = call.info
    errs = []
    res = RunResult.read_json(info["path"])
    if not res.check_delta_consistency():
        errs.append("delta_percent inconsistent with the payload RMSEs")
    if res.tau_z != info["tau_z"] or res.seed != info["seed"]:
        errs.append("tau_z or seed differs from the request")
    if [p.payload for p in res.payload_rmse] != list(PAYLOAD_GRID):
        errs.append("payload grid differs")
    for p in res.payload_rmse:
        if not (_finite(p.rmse, p.sd) and 0.0 < p.rmse < 1.0 and p.sd >= 0.0):
            errs.append(f"implausible RMSE {p.rmse} (sd {p.sd}) at payload {p.payload}")
    flags = res.flags
    if flags.get("total_rollouts") != len(PAYLOAD_GRID) * info["rollouts"]:
        errs.append(f"total_rollouts {flags.get('total_rollouts')}")
    if flags.get("diverged_rollouts") != 0:
        errs.append(f"diverged_rollouts {flags.get('diverged_rollouts')}")
    pinned = {call.key: [p.rmse for p in res.payload_rmse]
              + [p.sd for p in res.payload_rmse]}
    return errs, pinned


def check_simulate(call: Call, stdout: str, ctx: dict):
    errs = []
    report = json.loads(stdout.splitlines()[0])
    if report.get("decay_passed") is not True:
        errs.append(f"decay check failed (max ratio {report.get('max_decay_ratio')})")
    if report.get("diverged") is not False:
        errs.append("shielded rollout diverged")
    act = report.get("activation_fraction")
    if not (_finite(report.get("rmse"), act) and 0.0 < report["rmse"] < 1.0
            and 0.0 <= act <= 1.0):
        errs.append(f"implausible report {report}")
    with open(call.info["path"], newline="") as fh:
        n_rows = sum(1 for _ in fh) - 1
    if n_rows != call.info["n_steps"] + 1:
        errs.append(f"trajectory CSV has {n_rows} rows")
    pinned = {call.key: [report.get("rmse"), act, report.get("max_decay_ratio"),
                         float(report.get("assumption_violations", 0))]}
    return errs, pinned


def _mann_whitney_u(a, b) -> float:
    return sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)


def check_compare(call: Call, stdout: str, ctx: dict):
    """Recompute the group statistics from the result files with the stdlib."""
    errs = []
    groups: dict[str, list] = {}
    for path in call.info["files"]:
        with open(path) as fh:
            rec = json.load(fh)
        groups.setdefault(str(rec["tau_z"]), []).append(float(rec["baseline_rmse"]))
    rows = _read_rows(call.info["path"])
    labels = sorted(groups)
    if len(rows) != 1 or len(labels) != 2:
        return [f"expected one pair of two groups, got {len(rows)} rows"], {}
    row = rows[0]
    a, b = groups[labels[0]], groups[labels[1]]
    m1, m2 = statistics.fmean(a), statistics.fmean(b)
    s1, s2 = statistics.stdev(a), statistics.stdev(b)
    n1, n2 = len(a), len(b)
    se2 = s1 ** 2 / n1 + s2 ** 2 / n2
    t = (m1 - m2) / math.sqrt(se2)
    dof = se2 ** 2 / (s1 ** 4 / (n1 ** 2 * (n1 - 1)) + s2 ** 4 / (n2 ** 2 * (n2 - 1)))
    pooled = math.sqrt(((n1 - 1) * s1 ** 2 + (n2 - 1) * s2 ** 2) / (n1 + n2 - 2))
    expect = {"n1": (n1, 0), "n2": (n2, 0), "mean1": (m1, 4), "mean2": (m2, 4),
              "sd1": (s1, 4), "sd2": (s2, 4), "U": (_mann_whitney_u(a, b), 1),
              "t": (t, 3), "dof": (dof, 2), "d": ((m1 - m2) / pooled, 3)}
    if (row["group_a"], row["group_b"]) != (labels[0], labels[1]):
        errs.append(f"groups {row['group_a']}/{row['group_b']} != {labels}")
    for col, (want, decimals) in expect.items():
        # the CSV rounds to `decimals`; allow the rounding plus roundoff
        if abs(float(row[col]) - want) > 0.5 * 10.0 ** -decimals + 1e-9 * abs(want):
            errs.append(f"compare column {col} = {row[col]}, recomputed {want:.6g}")
    for col in ("p_U", "p_W"):
        if not 0.0 <= float(row[col]) <= 1.0:
            errs.append(f"{col} = {row[col]} outside [0, 1]")
    cols = ["n1", "n2", "mean1", "mean2", "sd1", "sd2", "U", "p_U", "t", "p_W",
            "dof", "d"]
    return errs, {call.key: [float(row[c]) for c in cols]}


def check_phase1(call: Call, stdout: str, ctx: dict):
    """K* and r_eff in [1, W]; convergence required on the reference pass.

    On other seeds a run that stops at the iteration cap is a documented
    outcome (converged=False, iterations == cap), counted in
    ctx["counts"] rather than failed: at n_samples = 512 about 5 % of
    (seed, tau_z) pairs end there, and about 2 % at the CLI default 2048.
    """
    from memctrl.incrt import Phase1Config

    info = call.info
    W = info["window"]
    cap = Phase1Config().max_iterations
    errs = []
    with open(info["path"]) as fh:
        records = json.load(fh)
    if [r["tau_z"] for r in records] != info["tau_z"]:
        errs.append("tau_z list differs")
    r_eff = {}
    counts = ctx.setdefault("counts", {})
    for r in records:
        k, re_, tz = r["K_star"], r["r_eff"], r["tau_z"]
        if not (isinstance(k, int) and 1 <= k <= W):
            errs.append(f"K* = {k} outside [1, {W}] at tau_z={tz}")
        if not (_finite(re_) and 1.0 - 1e-9 <= re_ <= W + 1e-9):
            errs.append(f"r_eff = {re_} outside [1, {W}] at tau_z={tz}")
        counts["phase1_runs"] = counts.get("phase1_runs", 0) + 1
        if r["converged"] is not True:
            counts["phase1_not_converged"] = counts.get("phase1_not_converged", 0) + 1
            if ctx.get("reference"):
                errs.append(f"phase 1 did not converge at tau_z={tz}")
            elif r["converged"] is not False or r["iterations"] != cap:
                errs.append(f"converged={r['converged']} after {r['iterations']} "
                            f"iterations (cap {cap}) at tau_z={tz}")
        r_eff[tz] = re_
    ctx.setdefault("phase1_r_eff", {}).update(r_eff)
    captured = ctx.get("captured_gradients", {})
    pinned = {f"grad_samples/tz{_fmt(tz)}": Samples(rows)
              for tz, rows in captured.items()}
    captured.clear()
    return errs, pinned


def check_rank_scan(call: Call, stdout: str, ctx: dict):
    """Same sampler and seed as phase1, so r_eff must agree with it."""
    info = call.info
    W, n_req = info["window"], info["n_samples"]
    errs = []
    rows = _read_rows(info["path"])
    if [float(r["tau_z"]) for r in rows] != info["tau_z"]:
        errs.append("tau_z list differs")
    p1 = ctx.get("phase1_r_eff", {})
    for r in rows:
        tz, re_, n = float(r["tau_z"]), float(r["effective_rank"]), int(r["n_samples"])
        if not (_finite(re_) and 1.0 - 1e-9 <= re_ <= W + 1e-9):
            errs.append(f"r_eff = {re_} outside [1, {W}] at tau_z={tz}")
        if not 0.99 * n_req <= n <= n_req:
            errs.append(f"kept {n} of {n_req} gradient samples at tau_z={tz}")
        if tz in p1 and abs(p1[tz] - re_) > 1e-9 * re_:
            errs.append(f"rank-scan r_eff {re_} != phase1 r_eff {p1[tz]} at tau_z={tz}")
    return errs, {}


def check_markov_gap(call: Call, stdout: str, ctx: dict):
    errs = []
    rows = _read_rows(call.info["path"])
    if [float(r["tau_z"]) for r in rows] != call.info["tau_z"]:
        errs.append("tau_z list differs")
    pinned = {}
    cols = ["sigma_z2_mc", "sigma_z2_cf", "excess_markov", "excess_windowed_W",
            "bound_c1_sigma2"]
    for r in rows:
        v = {c: float(r[c]) for c in cols}
        tz = float(r["tau_z"])
        if not (_finite(*v.values()) and v["sigma_z2_mc"] > 0.0):
            errs.append(f"non-finite or empty row at tau_z={tz}")
        elif not 0.0 <= v["excess_windowed_W"] < v["excess_markov"]:
            errs.append(f"windowed excess {v['excess_windowed_W']} not below "
                        f"Markov excess {v['excess_markov']} at tau_z={tz}")
        # default surrogate: c1 = mu kappa^2 / 2 = 0.5
        if abs(v["bound_c1_sigma2"] - 0.5 * v["sigma_z2_mc"]) > 1e-12 * v["sigma_z2_mc"]:
            errs.append(f"bound column != c1 sigma2 at tau_z={tz}")
        pinned[call.key] = [v[c] for c in cols]
    return errs, pinned


def check_sigma_scan(call: Call, stdout: str, ctx: dict):
    from memctrl.config import default_config

    lam = default_config().friction.lambda_z
    errs = []
    rows = _read_rows(call.info["path"])
    if [float(r["tau_z"]) for r in rows] != call.info["tau_z"]:
        errs.append("tau_z list differs")
    pinned = {}
    for r in rows:
        tz, cf, mc = float(r["tau_z"]), float(r["closed_form"]), float(r["monte_carlo"])
        want = lam ** 2 * 0.01 * tz / 2.0   # unit-variance held steps, dt = 0.01
        if abs(cf - want) > 1e-12 * want:
            errs.append(f"closed form {cf} != {want} at tau_z={tz}")
        # 40 seeds x 3 horizons at n_traj = 2000 stay within 4.3 %
        if not (_finite(mc) and abs(mc - cf) <= 0.15 * cf):
            errs.append(f"Monte Carlo {mc} not within 15% of {cf} at tau_z={tz}")
        pinned[call.key] = [cf, mc]
    return errs, pinned


# ---------------------------------------------------------- references


def compare_pinned(pinned: dict, reference: dict) -> list[str]:
    """Compare one call's pinned values with the recorded reference."""
    errs = []
    for key, got in pinned.items():
        if key not in reference:
            errs.append(f"{key}: no reference value")
            continue
        want = reference[key]
        if isinstance(got, Samples):
            dev = grad_median_deviation(got.rows, want)
            if not dev <= GRAD_MEDIAN_RTOL:
                errs.append(f"{key}: median gradient deviation {dev:.3g} "
                            f"> {GRAD_MEDIAN_RTOL:g}")
            continue
        if len(got) != len(want):
            errs.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if not abs(g - w) <= ATOL + RTOL * abs(w):
                errs.append(f"{key}[{i}] = {g!r}, reference {w!r}")
    return errs


def grad_median_deviation(rows, ref_rows) -> float:
    """Median over reference rows of the relative distance to the nearest row."""
    import numpy as np

    g = np.asarray(rows, dtype=float)
    r = np.asarray(ref_rows, dtype=float)
    if g.ndim != 2 or r.ndim != 2 or g.shape[1] != r.shape[1] or g.shape[0] == 0:
        return float("inf")
    dist = np.sqrt(((r[:, None, :] - g[None, :, :]) ** 2).sum(axis=-1)).min(axis=1)
    return float(np.median(dist / np.maximum(np.linalg.norm(r, axis=1), 1e-300)))


def recordable(pinned: dict) -> dict:
    """Pinned values in the form stored in reference.json."""
    out = {}
    for key, val in pinned.items():
        if isinstance(val, Samples):
            val = val.rows[::GRAD_STRIDE].tolist()
        out[key] = val
    return out
