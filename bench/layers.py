"""Per-layer metrics of the traced run: wrap targets and derived numbers.

Every metric is per traced pass unless it is a ratio.  The last field of
each PER_LAYER entry states, before any measurement, which end-to-end
metric on which workload the layer metric should move; a metric named
for one workload should leave the others unchanged.
"""

from __future__ import annotations

from spans import Target

CL, MSCAN, MSTATS = "closed-loop", "memory-scan", "memory-stats"
ALL = (CL, MSCAN, MSTATS)


def _on_shield_report(tr, args, kwargs, result):
    n = getattr(args[0], "n_steps", 0)
    tr.count("shield.steps", n)
    tr.count("shield.activated_steps", result.get("activation_fraction", 0.0) * n)
    tr.count("shield.fallbacks", result.get("assumption_violations", 0))


def _on_evaluate_controller(tr, args, kwargs, result):
    flags = getattr(result, "flags", {})
    tr.count("runner.rollouts", flags.get("total_rollouts", 0))
    tr.count("runner.diverged_rollouts", flags.get("diverged_rollouts", 0))


def _on_ensemble_step(tr, args, kwargs, result):
    batch = getattr(args[0], "batch", None)
    tr.count("ensemble.member_steps", batch if batch is not None else len(args[2]))


def _on_ensemble_run(tr, args, kwargs, result):
    alive = result.alive
    tr.count("ensemble.members", alive.size)
    tr.count("ensemble.alive", int(alive.sum()))


def _on_gradient_samples(tr, args, kwargs, result):
    tr.count("memory_analysis.samples_requested", kwargs.get("n_samples", 2048))
    tr.count("memory_analysis.samples_kept", result.shape[0])


def _on_run_phase1(tr, args, kwargs, result):
    tr.count("incrt.runs")
    tr.count("incrt.iterations", result.n_iterations)
    tr.count("incrt.converged", int(bool(result.converged)))


# span name, module, qualname, return hook, workloads that must call it
TARGETS = [
    (Target("cli", "cli", "main"), ALL),
    (Target("dynamics.step_rk4", "dynamics", "step_rk4"), (CL,)),
    (Target("dynamics.rollout", "dynamics", "rollout"), (CL,)),
    (Target("controller.baseline", "controller", "BaselineController.__call__"), (CL,)),
    (Target("controller.computed_torque", "controller", "computed_torque"), (CL,)),
    (Target("shield.project_admissible", "shield", "project_admissible"), (CL,)),
    (Target("shield.project_halfspace_box", "shield", "project_halfspace_box"), (CL,)),
    (Target("shield.halfspace_coeffs", "shield", "halfspace_coeffs"), (CL,)),
    (Target("shield.shield_report", "shield", "shield_report",
            _on_shield_report), (CL,)),
    (Target("runner.evaluate_controller", "runner", "evaluate_controller",
            _on_evaluate_controller), (CL,)),
    (Target("stats.compare_result_files", "stats", "compare_result_files"), (CL,)),
    (Target("stats.mann_whitney_u", "stats", "mann_whitney_u"), (CL,)),
    (Target("stats.welch_t", "stats", "welch_t"), (CL,)),
    (Target("ensemble.step", "ensemble", "BaselineEnsembleSim.step",
            _on_ensemble_step), (MSCAN, MSTATS)),
    (Target("ensemble.run", "ensemble", "BaselineEnsembleSim.run",
            _on_ensemble_run), (MSCAN, MSTATS)),
    (Target("memory_analysis.gradient_samples_closed_loop", "memory_analysis",
            "gradient_samples_closed_loop", _on_gradient_samples), (MSCAN,)),
    (Target("memory_analysis.build_residual_operator", "memory_analysis",
            "build_residual_operator"), (MSCAN,)),
    (Target("memory_analysis.binned_conditional_variance", "memory_analysis",
            "binned_conditional_variance"), (MSTATS,)),
    (Target("memory_analysis.sigma_z_broadband", "memory_analysis",
            "sigma_z_broadband"), (MSTATS,)),
    (Target("incrt.run_phase1", "incrt", "run_phase1", _on_run_phase1), (MSCAN,)),
    (Target("incrt.leading_eigvec", "incrt", "leading_eigvec"), (MSCAN,)),
    (Target("markov_gap.markov_gap_experiment", "markov_gap",
            "markov_gap_experiment"), (MSTATS,)),
    (Target("markov_gap.windowed_reconstructor_fit", "markov_gap",
            "windowed_reconstructor_fit"), (MSTATS,)),
    (Target("markov_gap.markovian_policy_fit", "markov_gap",
            "markovian_policy_fit"), (MSTATS,)),
]

_SCALAR = "stage1_cpu_s (evaluate), stage2_cpu_s (shielded) and cpu_s on closed-loop"
_SHIELD = "stage2_cpu_s (shielded) on closed-loop; not stage1_cpu_s (evaluate)"
_EVAL = "stage1_cpu_s (evaluate) on closed-loop"
_ENS = ("cpu_s on memory-scan; stage1_cpu_s (markov_gap) and peak_rss_mb on "
        "memory-stats")
_GRAD = "cpu_s on memory-scan; not memory-stats"
_MEMSTAT = "stage1_cpu_s (markov_gap) and stage2_cpu_s (sigma_scan) on memory-stats"
_GAP = "stage1_cpu_s (markov_gap) on memory-stats"
_INCRT = "cpu_s on memory-scan (below the noise; recorded only)"
_STATS = "cpu_s on closed-loop (negligible share; recorded so a regression shows)"
_GS = "memory_analysis.gradient_samples_closed_loop"


def _m(name, unit, kind, source, moves, target=None):
    """A per-layer metric; `target` (default: the span `source`) gates absence."""
    return name, unit, kind, source, target or source, moves


# name, unit, kind, source (span, counter or pair), target span, what it moves
PER_LAYER = [
    _m("dynamics.step_rk4.calls", "count", "calls", "dynamics.step_rk4", _SCALAR),
    _m("dynamics.step_rk4.us", "us", "us", "dynamics.step_rk4", _SCALAR),
    _m("dynamics.step_rk4.busy_s", "s", "busy_s", "dynamics.step_rk4", _SCALAR),
    _m("dynamics.rollout.self_s", "s", "self_s", "dynamics.rollout", _SCALAR),
    _m("dynamics.rollout.ms.p50", "ms", "p50_ms", "dynamics.rollout", _SCALAR),
    _m("dynamics.rollout.ms.p90", "ms", "p90_ms", "dynamics.rollout", _SCALAR),
    _m("controller.baseline.calls", "count", "calls", "controller.baseline", _EVAL),
    _m("controller.baseline.us", "us", "us", "controller.baseline", _EVAL),
    _m("controller.baseline.busy_s", "s", "busy_s", "controller.baseline", _EVAL),
    _m("controller.computed_torque.busy_s", "s", "busy_s",
       "controller.computed_torque", _EVAL),
    _m("shield.project_admissible.calls", "count", "calls",
       "shield.project_admissible", _SHIELD),
    _m("shield.project_admissible.us", "us", "us", "shield.project_admissible", _SHIELD),
    _m("shield.project_admissible.busy_s", "s", "busy_s",
       "shield.project_admissible", _SHIELD),
    _m("shield.project_halfspace_box.calls", "count", "calls",
       "shield.project_halfspace_box", _SHIELD),
    _m("shield.project_halfspace_box.busy_s", "s", "busy_s",
       "shield.project_halfspace_box", _SHIELD),
    _m("shield.halfspace_coeffs.busy_s", "s", "busy_s", "shield.halfspace_coeffs",
       _SHIELD),
    _m("shield.activation_frac", "frac", "ratio",
       ("shield.activated_steps", "shield.steps"), _SHIELD, "shield.shield_report"),
    _m("shield.fallbacks", "count", "counter", "shield.fallbacks", _SHIELD,
       "shield.shield_report"),
    _m("runner.evaluate_controller.self_s", "s", "self_s",
       "runner.evaluate_controller", _EVAL),
    _m("runner.rollouts", "count", "counter", "runner.rollouts", _EVAL,
       "runner.evaluate_controller"),
    _m("runner.diverged_rollouts", "count", "counter", "runner.diverged_rollouts",
       _EVAL, "runner.evaluate_controller"),
    _m("stats.compare_result_files.busy_s", "s", "busy_s",
       "stats.compare_result_files", _STATS),
    _m("stats.mann_whitney_u.calls", "count", "calls", "stats.mann_whitney_u", _STATS),
    _m("stats.welch_t.calls", "count", "calls", "stats.welch_t", _STATS),
    _m("ensemble.step.calls", "count", "calls", "ensemble.step", _ENS),
    _m("ensemble.step.busy_s", "s", "busy_s", "ensemble.step", _ENS),
    _m("ensemble.step.ns_per_member_step", "ns", "per_unit_ns",
       ("ensemble.step", "ensemble.member_steps"), _ENS, "ensemble.step"),
    _m("ensemble.member_steps", "count", "counter", "ensemble.member_steps", _ENS,
       "ensemble.step"),
    _m("ensemble.run.busy_s", "s", "busy_s", "ensemble.run", _ENS),
    _m("ensemble.run.self_s", "s", "self_s", "ensemble.run", _ENS),
    _m("ensemble.alive_frac", "frac", "ratio", ("ensemble.alive", "ensemble.members"),
       _ENS, "ensemble.run"),
    _m("memory_analysis.gradient_samples_closed_loop.busy_s", "s", "busy_s",
       _GS, _GRAD),
    _m("memory_analysis.gradient_samples_closed_loop.self_s", "s", "self_s",
       _GS, _GRAD),
    _m("memory_analysis.fd_ensemble_steps", "count", "child_calls",
       ("ensemble.step", _GS), _GRAD, "ensemble.step"),
    _m("memory_analysis.samples_kept_frac", "frac", "ratio",
       ("memory_analysis.samples_kept", "memory_analysis.samples_requested"),
       _GRAD, _GS),
    _m("memory_analysis.build_residual_operator.busy_s", "s", "busy_s",
       "memory_analysis.build_residual_operator", "cpu_s on memory-scan"),
    _m("memory_analysis.binned_conditional_variance.busy_s", "s", "busy_s",
       "memory_analysis.binned_conditional_variance", _MEMSTAT),
    _m("memory_analysis.sigma_z_broadband.busy_s", "s", "busy_s",
       "memory_analysis.sigma_z_broadband", "stage2_cpu_s (sigma_scan) on memory-stats"),
    _m("incrt.run_phase1.busy_s", "s", "busy_s", "incrt.run_phase1", _INCRT),
    _m("incrt.iterations", "count", "counter", "incrt.iterations", _INCRT,
       "incrt.run_phase1"),
    _m("incrt.converged_frac", "frac", "ratio", ("incrt.converged", "incrt.runs"),
       _INCRT, "incrt.run_phase1"),
    _m("incrt.leading_eigvec.calls", "count", "calls", "incrt.leading_eigvec", _INCRT),
    _m("incrt.leading_eigvec.busy_s", "s", "busy_s", "incrt.leading_eigvec", _INCRT),
    _m("markov_gap.markov_gap_experiment.self_s", "s", "self_s",
       "markov_gap.markov_gap_experiment", _GAP),
    _m("markov_gap.windowed_reconstructor_fit.busy_s", "s", "busy_s",
       "markov_gap.windowed_reconstructor_fit", _GAP),
    _m("markov_gap.markovian_policy_fit.busy_s", "s", "busy_s",
       "markov_gap.markovian_policy_fit", _GAP),
    _m("cli.self_s", "s", "self_s", "cli",
       "every stage metric (argument parsing, CSV/JSON output, unwrapped helpers)"),
    _m("trace.overhead_frac", "frac", "overhead", None,
       "none: median over pass pairs on one seed of traced over untraced "
       "scaled CPU time, minus one", "cli"),
    _m("trace.span_coverage_frac", "frac", "coverage", None,
       "none: summed span self times over the traced passes' CPU time", "cli"),
]


def derive(tracer, n_passes: int, absent: set, overhead: float,
           traced_wall: float) -> dict[str, float | None]:
    """Per-layer values per traced pass; None where the target is absent."""
    summ = tracer.summary()
    cnt = tracer.counters

    def span(name, key):
        return summ.get(name, {}).get(key, 0.0)

    out: dict[str, float | None] = {}
    for name, _unit, kind, src, target, _moves in PER_LAYER:
        if target in absent:
            out[name] = None
            continue
        if kind == "calls":
            v = span(src, "calls") / n_passes
        elif kind == "us":
            c = span(src, "calls")
            v = 1e6 * span(src, "busy_s") / c if c else 0.0
        elif kind in ("busy_s", "self_s"):
            v = span(src, kind) / n_passes
        elif kind in ("p50_ms", "p90_ms"):
            d = sorted(summ.get(src, {}).get("durations", []))
            q = 0.5 if kind == "p50_ms" else 0.9
            v = 1e3 * d[min(len(d) - 1, int(q * len(d)))] if d else 0.0
        elif kind == "counter":
            v = cnt.get(src, 0.0) / n_passes
        elif kind == "ratio":
            num, den = src
            v = cnt.get(num, 0.0) / cnt[den] if cnt.get(den) else 0.0
        elif kind == "per_unit_ns":
            span_name, units = src
            u = cnt.get(units, 0.0)
            v = 1e9 * span(span_name, "busy_s") / u if u else 0.0
        elif kind == "child_calls":
            v = tracer.child_calls(*src) / n_passes
        elif kind == "overhead":
            v = overhead
        elif kind == "coverage":
            v = tracer.totals()[0] / n_passes / traced_wall if traced_wall else 0.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[name] = float(v)
    return out
