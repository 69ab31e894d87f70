"""memctrl benchmark: three workloads run through memctrl.cli.main.

Run from the repository root:

    python3 bench/run.py --workload closed-loop --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all     # every workload, one after another
    python3 bench/run.py --record           # re-record bench/reference.json

Each workload run is one fresh interpreter (bench/worker.py) with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 before
numpy is imported; `--threads` is never passed to the CLI.  Timing is
in-process only: process CPU time around each cli.main call and in the
set-up interpreters, scaled by the calibration kernel run next to it
(calib.py); wall times are printed alongside but not gated.  There is no
whole-machine tracing and no cache dropping.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of a traced run.  This script imports no numpy itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers      # noqa: E402  (after the path insert)
import workloads as wl  # noqa: E402
from calib import NOMINAL_S  # noqa: E402

ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
# A run's deadline is its pass budget (twice it when traced: the budget
# counts pairs of passes, and the last pair may overrun it) plus this
# margin for the set-up interpreters, the reference pass and the minimum
# number of passes.
RUN_MARGIN_S = 120.0
METHOD = ("in-process timing only: time.process_time around each memctrl.cli.main "
          "call in one single-threaded process, scaled by NOMINAL_S over the CPU "
          "time of a fixed calibration kernel run at segment boundaries (calib.py), "
          "summed over the calls of a pass from each call's median over timed "
          "passes; wall time (time.perf_counter) recorded but not gated; setup_s is "
          "the median over fresh interpreters of the CPU time to import memctrl and "
          "load the config, scaled the same way by a kernel run in that "
          "interpreter; no whole-machine tracing and no cache dropping")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def git_rev() -> str:
    try:
        # the ceiling keeps git from reporting a repository above ROOT
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ,
                                       GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# A fresh interpreter: import memctrl and load the config, take the CPU
# time spent since the process started, then run the calibration kernel.
SETUP_CODE = """import sys, time
import memctrl.cli
from memctrl.config import load_config
load_config(sys.argv[1])
setup = time.process_time()
sys.path.insert(0, sys.argv[2])
import calib
print(setup, sorted(calib.kernel() for _ in range(3))[1])
"""


def measure_setup(config: Path, env: dict, deadline: float) -> list[list[float]]:
    """[setup CPU seconds, calibration CPU seconds] of fresh interpreters."""
    out = []
    for i in range(SETUP_REPEATS + 1):     # the first run also writes bytecode
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config),
                               str(BENCH)], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if i:
            out.append([float(x) for x in proc.stdout.split()])
    return out


def run_worker(job: dict, env: dict, deadline: float) -> dict:
    job_path = Path(job["out_dir"]) / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker for {job['workload']} exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    with open(job["result_path"]) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 mode: str = "measure", spec: dict | None = None,
                 reference_path: Path | None = None) -> dict:
    """One run of one workload; returns the worker result plus metrics."""
    deadline = time.monotonic() + seconds * (2 if trace else 1) + RUN_MARGIN_S
    spec = wl.SPECS[workload] if spec is None else spec
    out_dir = OUT / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        config = out_dir / "bench.cfg"
        config.write_text(wl.config_text(workload, spec))
        env = child_env()
        setup = measure_setup(config, env, deadline) \
            if mode == "measure" and not trace else []
        job = {"workload": workload, "spec": spec, "seed": seed,
               "seconds": seconds, "trace": int(trace), "mode": mode,
               "reference_path": str(reference_path or BENCH / "reference.json"),
               "out_dir": str(out_dir), "config": str(config),
               "result_path": str(out_dir / "result.json"),
               "trace_path": str(OUT / f"trace-{workload}.json")}
        res = run_worker(job, env, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    res["setup_times"] = setup
    res["spec"] = spec
    if mode == "measure":
        res["metrics"] = per_layer_metrics(res) if trace \
            else end_to_end_metrics(workload, res)
    return res


def call_medians(passes, column: int) -> dict[str, tuple[str, float]]:
    """Per call key: (stage, median over passes of one column of the call rows)."""
    values: dict[str, list] = {}
    stage = {}
    for p in passes:
        for row in p["calls"]:
            values.setdefault(row[0], []).append(row[column])
            stage[row[0]] = row[1]
    return {k: (stage[k], statistics.median(v)) for k, v in values.items()}


def stage_sums(passes, column: int) -> dict[str, float]:
    """Per stage and "total": sums of the per-call medians of one column."""
    out = {"total": 0.0}
    for stage, v in call_medians(passes, column).values():
        out[stage] = out.get(stage, 0.0) + v
        out["total"] += v
    return out


def end_to_end_metrics(workload: str, res: dict) -> dict:
    s1, s2 = wl.STAGES[workload]
    scaled = stage_sums(res["passes"], 4)
    values = {
        "cpu_s": scaled["total"],
        "setup_s": statistics.median(t * NOMINAL_S / c for t, c in res["setup_times"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "stage1_cpu_s": scaled.get(s1, 0.0),
        "stage2_cpu_s": scaled.get(s2, 0.0),
    }
    units = {name: unit for name, unit, _ in wl.END_TO_END}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer_metrics(res: dict) -> dict:
    # an absent target's value is null: no figure, so nothing to compare
    return {name: {"value": res["per_layer"][name], "unit": unit}
            for name, unit, *_ in layers.PER_LAYER}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_rev": git_rev()}


def record_of(workload: str, seed: int, seconds: float, trace: bool,
              res: dict) -> dict:
    rec = {"workload": workload, "why": wl.WHY[workload], "seed": seed,
           "seconds": seconds, "trace": int(trace),
           "machine": dict(machine(), **res["versions"]),
           "threads": dict(THREAD_VARS, cli_threads_flag="not passed"),
           "method": METHOD, "nominal_kernel_s": NOMINAL_S, "spec": res["spec"],
           "metric_definitions": {n: m for n, _u, m in wl.END_TO_END},
           "reference_seed": wl.REFERENCE_SEED,
           "stages": dict(zip(("stage1_cpu_s", "stage2_cpu_s"), wl.STAGES[workload])),
           "attempted": res["attempted"], "failed": res["failed"],
           "errors": res["errors"], "counts": res.get("counts", {}),
           "final_peak_rss_mb": res["final_peak_rss_mb"],
           "passes": res.get("passes"),
           "setup_times_s": res["setup_times"], "metrics": res["metrics"]}
    if trace:
        rec.update(absent=res["absent"], run_id=res["run_id"],
                   traced_passes=res["traced_passes"],
                   span_self_sum_s=res["span_self_sum_s"],
                   span_top_sum_s=res["span_top_sum_s"],
                   traced_cpu_sum_s=res["traced_cpu_sum_s"],
                   trace_file=str(Path(".bench_build") / f"trace-{workload}.json"),
                   per_layer_moves={n: m for n, _u, _k, _s, _t, m in layers.PER_LAYER})
    return rec


def print_report(workload: str, seed: int, seconds: float, trace: bool,
                 res: dict) -> None:
    passes = res["passes"]
    print(f"memctrl benchmark: workload {workload}, seed {seed}, "
          f"{seconds:g} s, trace {int(trace)}")
    print(f"  why: {wl.WHY[workload]}")
    print(f"  timed passes: {len(passes)} (+1 reference pass at seed "
          f"{wl.REFERENCE_SEED}); pass CPU "
          + ", ".join(f"{p['cpu']:.3f}" for p in passes) + " s; pass wall "
          + ", ".join(f"{p['wall']:.3f}" for p in passes) + " s")
    if not trace:
        stage = dict(zip(("stage1_cpu_s", "stage2_cpu_s"), wl.STAGES[workload]))
        walls = stage_sums(passes, 3)
        for name, m in res["metrics"].items():
            note = ""
            if name in stage:
                note = (f"  ({stage[name]}; {stage[name]}_s wall "
                        f"{walls.get(stage[name], 0.0):.6g} s, not gated)")
            print(f"  {name:<14} {m['value']:12.6g} {m['unit']}{note}")
        print(f"  {'wall_s':<14} {walls['total']:12.6g} s  (not gated)")
        frac = res["failed"] / res["attempted"]
        print(f"  {'failed_frac':<14} {frac:12.6g} frac  "
              f"({res['failed']} of {res['attempted']} pipeline calls)")
    else:
        absent = set(res["absent"])
        for name, unit, _k, _s, target, _m in layers.PER_LAYER:
            v = res["per_layer"][name]
            shown = "absent" if target in absent else f"{v:12.6g}"
            print(f"  {name:<54} {shown:>12} {unit}")
        print(f"  spans: self-time sum {res['span_self_sum_s']:.6f} s, top-level "
              f"span sum {res['span_top_sum_s']:.6f} s, traced passes "
              f"{res['traced_cpu_sum_s']:.6f} s CPU; run id {res['run_id']}")
    counts = res.get("counts", {})
    if counts.get("phase1_runs"):
        print(f"  phase 1 stopped at the iteration cap in "
              f"{counts.get('phase1_not_converged', 0)} of {counts['phase1_runs']} "
              f"(seed, tau_z) runs (counted, not failed)")
    for e in res["errors"]:
        print(f"  FAILED {e}")


def result_line(res: dict) -> str:
    return json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": res["metrics"]})


def record_references(names) -> None:
    path = BENCH / "reference.json"
    ref = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    for w in names:
        res = run_workload(w, wl.REFERENCE_SEED, 0.0, False, mode="record")
        if res["failed"]:
            raise BenchError(f"{w}: reference pass failed: {res['errors']}")
        ref["workloads"][w] = {"spec": wl.SPECS[w], "seed": wl.REFERENCE_SEED,
                               "values": res["reference"]}
        print(f"recorded {len(res['reference'])} values for {w}")
    ref["tolerance"] = {"rtol": wl.RTOL, "atol": wl.ATOL,
                        "grad_median_rtol": wl.GRAD_MEDIAN_RTOL,
                        "grad_stride": wl.GRAD_STRIDE}
    ref["recorded_on"] = dict(machine(), threads=THREAD_VARS)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record reference.json at the reference seed")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "memctrl" / "__init__.py").is_file():
        print(f"error: no memctrl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.record:
            record_references(names)
            return 0
        results = {}
        for w in names:
            res = run_workload(w, args.seed, args.seconds, bool(args.trace))
            print_report(w, args.seed, args.seconds, bool(args.trace), res)
            rec = record_of(w, args.seed, args.seconds, bool(args.trace), res)
            (OUT / f"record-{w}.json").write_text(json.dumps(rec, indent=1))
            print("record: " + json.dumps(rec))
            results[w] = res
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(result_line(results[names[0]]))
    else:
        # one line per workload above; the last line combines them
        for w in names:
            print(f"{w}: {result_line(results[w])}")
        print(json.dumps({
            "correct": all(r["failed"] == 0 for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
