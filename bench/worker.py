"""One benchmark run of one workload, in a fresh single-threaded interpreter.

Started by run.py with the BLAS thread variables already set, so numpy
sees them at import.  Usage: python3 bench/worker.py <job.json>.  The job
names the workload, its sizes, the seed, the time budget, whether to
trace, and where to write the result.

A run is: one reference pass at REFERENCE_SEED (warm-up; its pinned
outputs are compared with reference.json), then timed passes whose base
seeds come from the run's --seed.  A traced run times pairs of passes on
one seed: untraced, then with every target in layers.TARGETS wrapped.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import calib
import layers
import workloads as wl
# Pipeline calls and spans are timed in process CPU time (spans.CLOCK),
# which leaves out the time the host steals the vCPU; the vCPU's speed
# still drifts, which the calibration kernel corrects (calib.py).
from spans import CLOCK, Patcher, Target, Tracer

MIN_PASSES = 3
# CPU seconds of pipeline calls between two runs of the calibration kernel
SEGMENT_S = 0.5


class Runner:
    def __init__(self, job: dict):
        self.job = job
        self.workload = job["workload"]
        self.spec = job["spec"]
        from memctrl import cli   # after the thread variables are in place
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # outcomes that are counted, not failed (see workloads.check_phase1)
        self.counts: dict[str, int] = {}

    def fail(self, where: str, errs) -> None:
        self.failed += 1
        for e in errs:
            if len(self.errors) < 50:
                self.errors.append(f"{where}: {e}")

    def run_call(self, call, ctx: dict):
        """Time one cli.main call, then check its outputs (untimed).

        Returns (CPU seconds, wall seconds, pinned values or None).
        """
        buf = io.StringIO()
        self.attempted += 1
        w0, t0 = time.perf_counter(), CLOCK()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(call.argv)
        except Exception as exc:   # a pipeline failure is a counted result
            dt, wall = CLOCK() - t0, time.perf_counter() - w0
            self.fail(call.key, [f"raised {type(exc).__name__}: {exc}"])
            return dt, wall, None
        dt, wall = CLOCK() - t0, time.perf_counter() - w0
        try:
            errs, pinned = call.check(call, buf.getvalue(), ctx)
        except Exception as exc:   # unreadable output fails the check
            errs, pinned = [f"output check raised {type(exc).__name__}: {exc}"], None
        if rc != 0:
            errs = [f"exit code {rc}"] + errs
        if errs:
            self.fail(call.key, errs)
            return dt, wall, None
        return dt, wall, pinned

    def run_pass(self, seed: int, ctx: dict | None = None, calibrate: bool = False):
        """All calls of one pass.

        Returns the pass record and the pinned values per call.  The
        record lists each call as [key, stage, CPU s, wall s, scaled CPU s].
        With `calibrate`, the calibration kernel runs before the first call
        and after every SEGMENT_S of CPU time (at call boundaries), and a
        call's scaled CPU time is its CPU time times NOMINAL_S over the mean
        kernel time at the two ends of its segment (see calib).
        """
        ctx = {} if ctx is None else ctx
        ctx["counts"] = self.counts
        gc.collect()
        pinned = []
        rows: list[list] = []
        calls = wl.build_pass(self.workload, self.spec, seed,
                              self.job["out_dir"], self.job["config"])
        cals = [calib.kernel()] if calibrate else []
        seg = 0
        for i, call in enumerate(calls):
            dt, wall, pin = self.run_call(call, ctx)
            pinned.append((call, pin))
            rows.append([call.key, call.stage, dt, wall, None])
            if calibrate and (i == len(calls) - 1
                              or sum(r[2] for r in rows[seg:]) >= SEGMENT_S):
                cals.append(calib.kernel())
                scale = calib.NOMINAL_S / (0.5 * (cals[-2] + cals[-1]))
                for r in rows[seg:]:
                    r[4] = r[2] * scale
                seg = len(rows)
        record = {"seed": seed, "calls": rows, "cal": cals,
                  "cpu": sum(r[2] for r in rows), "wall": sum(r[3] for r in rows)}
        if calibrate:
            record["scaled"] = sum(r[4] for r in rows)
        return record, pinned

    def reference_pass(self) -> dict:
        """Warm-up pass at the reference seed, pinned values captured."""
        ctx: dict = {"reference": True}
        capture = ctx.setdefault("captured_gradients", {})

        def make_capture(orig, target):
            def captured(*args, **kwargs):
                out = orig(*args, **kwargs)
                capture[float(args[0])] = out
                return out
            return captured

        patcher = Patcher()
        patcher.install([Target("grad", "memory_analysis",
                                "gradient_samples_closed_loop")], make_capture)
        try:
            _, pinned = self.run_pass(wl.REFERENCE_SEED, ctx)
        finally:
            patcher.remove()
        recorded = {}
        for call, pin in pinned:
            if pin:
                recorded.update(wl.recordable(pin))
        if self.job["mode"] == "record":
            return recorded
        ref = self.load_reference()
        if ref is None:
            return recorded
        for call, pin in pinned:
            if pin is None:
                continue
            errs = wl.compare_pinned(pin, ref["values"])
            if errs:
                self.fail(f"reference {call.key}", errs)
        missing = set(ref["values"]) - set(recorded)
        if missing and not self.failed:
            self.fail("reference", [f"no output for {sorted(missing)[:5]}"])
        return recorded

    def load_reference(self):
        path = Path(self.job["reference_path"])
        try:
            with open(path) as fh:
                ref = json.load(fh)["workloads"][self.workload]
        except (OSError, KeyError, ValueError) as exc:
            self.fail("reference", [f"cannot read {path.name}: {exc}"])
            return None
        if ref.get("spec") != self.spec or ref.get("seed") != wl.REFERENCE_SEED:
            self.fail("reference", ["recorded for other sizes or another seed; "
                                    "re-record with run.py --record"])
            return None
        return ref

    def timed_passes(self, seeds, budget: float, one_pass=None):
        """Passes until the budget is spent (at least MIN_PASSES).

        one_pass(seed) -> pass record; by default one calibrated pass.
        """
        one_pass = one_pass or self.timed_pass
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append(one_pass(next(seeds)))
            elapsed = time.perf_counter() - t_start
            if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > budget:
                return passes

    def timed_pass(self, seed: int) -> dict:
        return self.run_pass(seed, calibrate=True)[0]


def _seed_stream(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(1, 1_000_000)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    import numpy as np

    out = {"numpy": np.__version__, "openblas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return out


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    run = Runner(job)
    result = {"versions": versions(), "absent": []}
    result["reference"] = run.reference_pass()
    # the workload's footprint, before any calibration kernel has run
    result["peak_rss_mb"] = _peak_rss_mb()
    if job["mode"] == "measure":
        seeds = _seed_stream(job["workload"], job["seed"])
        if not job["trace"]:
            result["passes"] = run.timed_passes(seeds, job["seconds"])
        else:
            result.update(traced_run(run, seeds, job))
    result.update(attempted=run.attempted, failed=run.failed, errors=run.errors,
                  counts=run.counts,
                  final_peak_rss_mb=_peak_rss_mb())
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


def traced_run(run: Runner, seeds, job: dict) -> dict:
    """Pairs of passes on one seed, untraced then traced, within the budget.

    Interleaving the pairs keeps drift of the machine out of the
    tracing overhead.
    """
    tracer = Tracer()
    patcher = Patcher()
    targets = [t for t, _ in layers.TARGETS]
    traced = []

    def pair(seed):
        untraced = run.timed_pass(seed)
        patcher.install(targets, lambda orig, tg: tracer.wrap(orig, tg.name,
                                                              tg.on_return))
        try:
            traced.append(run.timed_pass(seed))
        finally:
            patcher.remove()
        return untraced

    untraced = run.timed_passes(seeds, job["seconds"], pair)
    absent = set(patcher.absent)
    summ = tracer.summary()
    for target, wls in layers.TARGETS:
        if (target.name not in absent and job["workload"] in wls
                and not summ.get(target.name, {}).get("calls")):
            run.fail("trace", [f"{target.name} is present but recorded no calls"])
    overhead = statistics.median(t["scaled"] / u["scaled"]
                                 for t, u in zip(traced, untraced)) - 1.0
    n = len(traced)
    traced_cpu = sum(p["cpu"] for p in traced)
    per_layer = layers.derive(tracer, n, absent, overhead, traced_cpu / n)
    tracer.write(job["trace_path"])
    self_sum, top_sum = tracer.totals()
    return {"passes": untraced, "traced_passes": traced, "per_layer": per_layer,
            "absent": sorted(absent), "run_id": tracer.run_id,
            "span_self_sum_s": self_sum, "span_top_sum_s": top_sum,
            "traced_cpu_sum_s": traced_cpu}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
