"""Command-line entry points.

Subcommands: simulate, evaluate, sigma-scan, rank-scan, phase1,
markov-gap, compare.  Global flags --config/--seed/--out-dir apply to
every subcommand and may go before or after it.

Each setting has one default.  What the CLI owns (seed, sizes, payload
mode, tau_z) defaults in its flags; what the config owns (plant,
friction, reference, dt, baseline gains) defaults in memctrl.config.
The pipeline functions keep no default for either, so their signatures
make every pipeline read dt and Config.baseline_gains() from the config.

A ValueError or an OSError ends the run with one line on stderr and
exit status 1; any other exception keeps its traceback.  Every error
memctrl defines is a ValueError, numpy's LinAlgError is one too, and an
OSError is a file that cannot be read or written, such as a missing
--config or compare input.  A closed stdout (memctrl simulate | head)
exits 1 with nothing on stderr.  A diverged rollout is no error:
simulate and evaluate report it, and compare refuses its result file.

Each command runs in a fresh interpreter, so start-up counts in every
pipeline's time.  Importing this module loads only the config and the
modules it is built from (controller, dynamics); each command imports
its pipeline when it runs, and calls it through the module attribute
(memory_analysis.gradient_samples_closed_loop), so a wrapper or a test
double set on the module sees the call.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .controller import BaselineController
from .dynamics import BatchReference


def _float_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _write_csv(path, header, rows) -> None:
    """One header row, then rows, in the csv module's dialect."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


_GLOBAL_FLAGS = (
    ("--config", {"default": None, "help": "key = value config file"}),
    ("--seed", {"type": int, "default": 42}),
    ("--out-dir", {"default": ".", "help": "output directory"}),
)


# phase1's thresholds by field name; only a flag that is given reaches
# incrt.Phase1Config, which holds their one default
_PHASE1_FIELDS = (("gamma_add", float), ("gamma_prune", float),
                  ("n_stable", int))

_TAU_Z_LIST_HELP = ("comma-separated memory horizons tau_z in s; a config "
                    "file's tau_z is not read")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="memctrl",
                                 description=__doc__.splitlines()[0])
    # the subcommands repeat the global flags; their copies default to
    # SUPPRESS so they never overwrite a value given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    for flag, kw in _GLOBAL_FLAGS:
        ap.add_argument(flag, **kw)
        common.add_argument(flag, **dict(kw, default=argparse.SUPPRESS))
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p = add("simulate", "one baseline rollout to CSV")
    p.add_argument("--tau-z", type=float, default=None)
    p.add_argument("--shielded", action="store_true",
                   help="apply the admissibility projection")
    p.add_argument("--out", default="trajectory.csv")

    p = add("evaluate", "payload sweep to a result JSON")
    p.add_argument("--tau-z", type=float, default=None)
    p.add_argument("--rollouts", type=int, default=20)
    p.add_argument("--payload-mode", default="nominal",
                   choices=["nominal", "true", "noisy"])
    p.add_argument("--payload-csv", action="store_true",
                   help="also write per-payload rows for plotting")

    p = add("sigma-scan", "sigma_z^2 closed form vs Monte Carlo")
    p.add_argument("--tau-z-list", type=_float_list, default=[0.5, 1.0, 2.0],
                   help=_TAU_Z_LIST_HELP)
    p.add_argument("--n-traj", type=int, default=2000)
    p.add_argument("--out", default="sigma_scan.csv")

    p = add("rank-scan", "effective rank of the temporal operator")
    p.add_argument("--tau-z-list", type=_float_list, default=[1, 2, 3, 4, 5],
                   help=_TAU_Z_LIST_HELP)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--n-samples", type=int, default=2048)
    p.add_argument("--save-operators", action="store_true",
                   help="also write each W x W operator as CSV")
    p.add_argument("--out", default="rank_scan.csv")

    p = add("phase1", "head-count search per memory horizon")
    p.add_argument("--tau-z-list", type=_float_list, default=[1, 2, 3, 4, 5],
                   help=_TAU_Z_LIST_HELP)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--n-samples", type=int, default=2048)
    for name, kind in _PHASE1_FIELDS:
        p.add_argument("--" + name.replace("_", "-"), type=kind,
                       default=argparse.SUPPRESS,
                       help="default: incrt.Phase1Config's")
    p.add_argument("--verbose-log", action="store_true",
                   help="include the full iteration log in the JSON")
    p.add_argument("--out", default="phase1.json")

    p = add("markov-gap", "Markovian vs windowed excess")
    p.add_argument("--tau-z-list", type=_float_list, default=[0.5, 1.0, 2.0],
                   help=_TAU_Z_LIST_HELP)
    p.add_argument("--n-traj", type=int, default=512)
    p.add_argument("--out", default="markov_gap.csv")

    p = add("compare", "group result files and run the tests")
    p.add_argument("files", nargs="+")
    p.add_argument("--metric", default="delta_percent",
                   help="numeric result attribute, such as rmse_mean")
    p.add_argument("--group-key", default="architecture",
                   help="result attribute that labels the groups")
    p.add_argument("--alternative", default="less",
                   choices=["less", "greater", "two-sided"])
    p.add_argument("--out", default="compare")
    return ap


def cmd_simulate(args, cfg) -> None:
    from .dynamics import rollout

    fric = cfg.friction if args.tau_z is None else cfg.friction.with_tau_z(args.tau_z)
    plant = cfg.plant
    base = cfg.baseline_gains()
    if args.shielded:
        from . import shield

        form = shield.design_lyapunov_form(
            plant, BatchReference(cfg.reference).at(0.0).q, baseline=base,
            alpha=cfg.alpha)
        ctrl = shield.ShieldedController(lambda t, x: base, form, cfg.box,
                                         plant, fric)
    else:
        ctrl = BaselineController(plant, gains=base)
    traj = rollout(ctrl, cfg.reference, plant, fric, seed=args.seed, dt=cfg.dt)
    out = Path(args.out_dir) / args.out
    traj.write_csv(out)
    report = {"rmse": traj.rmse(), "diverged": traj.diverged}
    if args.shielded:
        report.update(shield.shield_report(traj, form, ctrl))
    print(json.dumps(report))
    print(f"wrote {out}")


def cmd_evaluate(args, cfg) -> None:
    from . import runner

    fric = cfg.friction if args.tau_z is None else cfg.friction.with_tau_z(args.tau_z)
    sweep = runner.SweepSpec(rollouts_per_payload=args.rollouts, dt=cfg.dt,
                             seed=args.seed)
    res = runner.evaluate_baseline(cfg.reference, cfg.plant, fric, sweep,
                                   payload_mode=args.payload_mode,
                                   gains=cfg.baseline_gains())
    out = Path(args.out_dir) / res.filename()
    res.write_json(out)
    if args.payload_csv:
        res.write_payload_csv(out.with_suffix(".payload.csv"))
    print(f"wrote {out} (rmse_mean={res.rmse_mean:.4f}, "
          f"class={runner.failure_mode_flag(res)})")


def cmd_sigma_scan(args, cfg) -> None:
    from . import memory_analysis

    out = Path(args.out_dir) / args.out
    rows = []
    for tz in args.tau_z_list:
        est = memory_analysis.sigma_z_broadband(
            tz, cfg.friction.lambda_z, n_traj=args.n_traj, dt=cfg.dt,
            seed=args.seed)
        rows.append((tz, est.closed_form, est.monte_carlo))
        print(f"tau_z={tz:g}: closed_form={est.closed_form:.6g} "
              f"monte_carlo={est.monte_carlo:.6g}")
    _write_csv(out, ["tau_z", "closed_form", "monte_carlo"], rows)
    print(f"wrote {out}")


def _gradient_samples(cfg, tz, window, n_samples, seed):
    """Closed-loop gradient samples at tau_z over a window of lags, the
    samples of rank-scan's and phase1's temporal residual operator."""
    from . import memory_analysis

    return memory_analysis.gradient_samples_closed_loop(
        tz, cfg.reference, cfg.plant, cfg.friction, window=window,
        n_samples=n_samples, dt=cfg.dt, seed=seed, gains=cfg.baseline_gains())


def cmd_rank_scan(args, cfg) -> None:
    from . import memory_analysis

    out = Path(args.out_dir) / args.out
    rows = []
    for tz in args.tau_z_list:
        g = _gradient_samples(cfg, tz, args.window, args.n_samples, args.seed)
        op = memory_analysis.build_residual_operator(g)
        if args.save_operators:
            np.savetxt(Path(args.out_dir) / f"operator_tz{tz:g}s.csv", op,
                       delimiter=",",
                       header=f"temporal residual operator, tau_z={tz:g}, "
                              f"n_samples={len(g)}, mode=closed-loop-gradient")
        rows.append((tz, memory_analysis.effective_rank(op), len(g)))
        print(f"tau_z={tz:g}: r_eff={rows[-1][1]:.3f} (n={len(g)})")
    _write_csv(out, ["tau_z", "effective_rank", "n_samples"], rows)
    print(f"wrote {out}")


def cmd_phase1(args, cfg) -> None:
    from . import incrt, memory_analysis

    config = incrt.Phase1Config(**{name: getattr(args, name)
                                   for name, _ in _PHASE1_FIELDS
                                   if hasattr(args, name)})
    config.validate()   # before the first tau_z's sampling
    records = []
    for tz in args.tau_z_list:
        g = _gradient_samples(cfg, tz, args.window, args.n_samples, args.seed)
        res = incrt.run_phase1(memory_analysis.build_residual_operator(g),
                               config)
        rec = {"tau_z": tz, "K_star": res.k_star,
               "r_eff": res.effective_rank_final,
               "iterations": res.n_iterations, "converged": res.converged,
               "phase2_range": list(incrt.phase2_range(res.k_star))}
        if args.verbose_log:
            rec["log"] = [vars(r) for r in res.iterations]
        records.append(rec)
        print(json.dumps({k: rec[k] for k in
                          ("tau_z", "K_star", "r_eff", "iterations", "converged")}))
    out = Path(args.out_dir) / args.out
    with open(out, "w") as fh:
        json.dump(records, fh, indent=1)
    print(f"wrote {out}")


def cmd_markov_gap(args, cfg) -> None:
    from . import markov_gap, memory_analysis

    out = Path(args.out_dir) / args.out
    rows = []
    for tz in args.tau_z_list:
        r = markov_gap.markov_gap_experiment(tz, cfg.reference, cfg.plant,
                                             cfg.friction, n_traj=args.n_traj,
                                             seed=args.seed, dt=cfg.dt,
                                             gains=cfg.baseline_gains())
        cf = memory_analysis.sigma_z_closed_form(
            tz, cfg.friction.lambda_z, 1.0, lambda u: 0.0)
        rows.append((tz, r.sigma2_hat, cf, r.excess_markov,
                     r.excess_windowed, r.lower_bound))
        print(f"tau_z={tz:g}: excess_markov={r.excess_markov:.5g} "
              f"excess_windowed={r.excess_windowed:.5g} "
              f"bound={r.lower_bound:.5g}")
    _write_csv(out, ["tau_z", "sigma_z2_mc", "sigma_z2_cf", "excess_markov",
                     "excess_windowed_W", "bound_c1_sigma2"], rows)
    print(f"wrote {out}")


def cmd_compare(args, cfg) -> None:
    from . import stats

    table = stats.compare_result_files(args.files, metric=args.metric,
                                       group_key=args.group_key,
                                       alternative=args.alternative)
    base = Path(args.out_dir) / args.out
    _write_csv(f"{base}.csv",
               ["group_a", "group_b", "n1", "n2", "mean1", "mean2",
                "sd1", "sd2", "U", "p_U", "t", "p_W", "dof", "d"],
               ([r.label_a, r.label_b, r.n1, r.n2,
                 f"{r.mean1:.4f}", f"{r.mean2:.4f}",
                 f"{r.sd1:.4f}", f"{r.sd2:.4f}",
                 f"{r.u_statistic:.1f}", f"{r.p_mann_whitney:.4g}",
                 f"{r.t_statistic:.3f}", f"{r.p_welch:.4g}",
                 f"{r.welch_dof:.2f}", f"{r.cohens_d:.3f}"]
                for r in table["pairs"]))
    lines = ["| group | n | mean | sd |", "| --- | --- | --- | --- |"]
    for g in table["groups"]:
        sd = "-" if g["sd"] is None else f"{g['sd']:.3f}"
        lines.append(f"| {g['label']} | {g['n']} | {g['mean']:.3f} | {sd} |")
    lines.append("")
    lines.append("| A | B | p_U | p_W | d |")
    lines.append("| --- | --- | --- | --- | --- |")
    for r in table["pairs"]:
        lines.append(f"| {r.label_a} | {r.label_b} | {r.p_mann_whitney:.4g} "
                     f"| {r.p_welch:.4g} | {r.cohens_d:.3f} |")
    md = "\n".join(lines) + "\n"
    with open(f"{base}.md", "w") as fh:
        fh.write(md)
    print(md)
    print(f"wrote {base}.csv and {base}.md")


_COMMANDS = {
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "sigma-scan": cmd_sigma_scan,
    "rank-scan": cmd_rank_scan,
    "phase1": cmd_phase1,
    "markov-gap": cmd_markov_gap,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, cfg)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # files written, reader gone: devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"memctrl: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
