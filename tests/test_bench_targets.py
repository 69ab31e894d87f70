"""The benchmark's trace targets name code that exists and is reached.

bench/layers.py lists the memctrl functions and methods a traced run
wraps.  A target that no longer resolves is reported as absent and its
per-layer metrics read null, so a deletion or rename must fail here
instead.  Each target is resolved as spans.Patcher.install does:
import memctrl.<module>, then look up each part of the qualname.

A target that resolves but that its workloads stop calling shows only
in a traced benchmark run ("present but recorded no calls").  So each
workload also runs here once, at a small size, with every target
wrapped as a traced run wraps it, return hooks included.  Each call's
output check then runs on its captured stdout, so a change to the
memctrl API that a check reads fails here, not in a benchmark run.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import layers
    import spans
    import workloads
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("target", [tg for tg, _ in layers.TARGETS],
                         ids=lambda tg: tg.name)
def test_trace_target_resolves(target):
    owner = importlib.import_module(f"memctrl.{target.module}")
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    assert owner is not None and hasattr(owner, attr), target.qualname


# small passes that still reach every target of their workload; a
# gap_n_traj of 128 leaves markov-gap below its 1000 fit samples
SMALL_SPECS = {
    "closed-loop": {"horizon": 0.5, "tau_z": [1.0, 5.0], "eval_seeds": 2,
                    "rollouts": 2, "shielded_seeds": 1},
    "memory-scan": {"tau_z": [1.0], "window": 5, "n_samples": 32},
    "memory-stats": {"gap_tau_z": [0.1], "gap_n_traj": 160,
                     "sigma_tau_z": [0.5], "sigma_n_traj": 300,
                     "sigma_seeds": 1},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reaches_its_targets(workload, tmp_path):
    import memctrl.cli

    spec = SMALL_SPECS[workload]
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(workloads.config_text(workload, spec))
    calls = workloads.build_pass(workload, spec, workloads.REFERENCE_SEED,
                                 str(tmp_path), str(cfg))
    tracer = spans.Tracer()
    patcher = spans.Patcher()
    patcher.install([tg for tg, _ in layers.TARGETS],
                    lambda orig, tg: tracer.wrap(orig, tg.name, tg.on_return))
    codes, stdouts = [], []
    try:
        for call in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                # looked up at each call: the patcher rebinds module attributes
                codes.append(memctrl.cli.main(call.argv))
            stdouts.append(buf.getvalue())
    finally:
        patcher.remove()
    assert codes == [0] * len(calls)
    assert patcher.absent == []
    summary = tracer.summary()
    silent = [tg.name for tg, wls in layers.TARGETS
              if workload in wls and not summary.get(tg.name, {}).get("calls")]
    assert silent == []
    # the output checks read memctrl's API (Phase1Config, RunResult and
    # default_config among others): each must run to its return, whatever
    # it finds at this small size
    for call, stdout in zip(calls, stdouts):
        errors, _ = call.check(call, stdout, {})
        assert isinstance(errors, list), call.key
