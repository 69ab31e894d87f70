"""Self-test of the benchmark harness at a tiny size.

Run from the repository root:  python3 bench/selftest.py

1. Every workload runs at a tiny size against references recorded at that
   size, passes its output checks, and prints every end-to-end metric
   with its unit (and failed_frac).
2. A corrupted reference value drives failed_frac above 0.
3. A traced run reports every per-layer metric with its unit, and the
   self times of the written spans sum to the top-level span total.
4. A wrap target that does not exist is reported absent (null in the
   result line); wrapping reaches names imported by value and is undone
   cleanly.
5. Without the memctrl sources the benchmark exits non-zero and prints
   no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads as wl
import layers

TINY = {
    "closed-loop": {"horizon": 0.2, "tau_z": [1.0, 5.0], "eval_seeds": 2,
                    "rollouts": 2, "shielded_seeds": 2},
    "memory-scan": {"tau_z": [1.0, 2.0], "window": 20, "n_samples": 64},
    "memory-stats": {"gap_tau_z": [0.5], "gap_n_traj": 256,
                     "sigma_tau_z": [0.5], "sigma_n_traj": 200, "sigma_seeds": 2},
}
SECONDS = 1.0

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def printed(text: str, name: str, unit: str) -> bool:
    """A report line names the metric first and shows its unit."""
    return any(line.split()[:1] == [name] and unit in line.split()[2:]
               for line in text.splitlines())


def report_text(workload: str, trace: bool, res: dict) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_report(workload, 1, SECONDS, trace, res)
    return buf.getvalue()


def record_tiny(path: Path) -> None:
    ref = {"workloads": {}}
    for w, spec in TINY.items():
        res = run.run_workload(w, wl.REFERENCE_SEED, 0.0, False, mode="record",
                               spec=spec)
        expect(res["failed"] == 0, f"{w}: tiny reference pass runs clean")
        ref["workloads"][w] = {"spec": spec, "seed": wl.REFERENCE_SEED,
                               "values": res["reference"]}
    path.write_text(json.dumps(ref))


def check_end_to_end(path: Path) -> None:
    for w, spec in TINY.items():
        res = run.run_workload(w, 1, SECONDS, False, spec=spec, reference_path=path)
        expect(res["failed"] == 0 and res["attempted"] > 0,
               f"{w}: {res['attempted']} calls, none failed {res['errors'][:3]}")
        text = report_text(w, False, res)
        for name, unit, _ in wl.END_TO_END:
            m = res["metrics"].get(name)
            expect(m is not None and m["unit"] == unit and m["value"] > 0
                   and printed(text, name, unit), f"{w}: {name} printed in {unit}")
        expect(printed(text, "failed_frac", "frac"), f"{w}: failed_frac printed")


def check_corruption(path: Path) -> None:
    ref = json.loads(path.read_text())
    for w in TINY:
        bad = json.loads(json.dumps(ref))
        values = bad["workloads"][w]["values"]
        key = sorted(values)[0]
        first = values[key][0]
        if isinstance(first, list):          # gradient rows
            values[key] = [[x * 1.01 for x in row] for row in values[key]]
        else:
            values[key][0] = first * (1.0 + 1e-4) + 1e-9
        bad_path = path.with_name(f"corrupt-{w}.json")
        bad_path.write_text(json.dumps(bad))
        res = run.run_workload(w, 1, SECONDS, False, spec=TINY[w],
                               reference_path=bad_path)
        frac = res["failed"] / res["attempted"]
        expect(frac > 0.0, f"{w}: corrupted {key} gives failed_frac {frac:.3f} > 0")


def check_trace(path: Path) -> None:
    for w, spec in TINY.items():
        res = run.run_workload(w, 1, SECONDS, True, spec=spec, reference_path=path)
        expect(res["failed"] == 0, f"{w}: traced run clean {res['errors'][:3]}")
        text = report_text(w, True, res)
        names = {n: u for n, u, *_ in layers.PER_LAYER}
        expect(set(res["metrics"]) == set(names)
               and all(res["metrics"][n]["unit"] == u for n, u in names.items())
               and all(printed(text, n, u) for n, u in names.items()),
               f"{w}: all {len(names)} per-layer metrics printed with units")
        with open(run.OUT / f"trace-{w}.json") as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for _nid, t0, t1, parent, _self in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_sum = sum(t1 - t0 - c for (_n, t0, t1, _p, _s), c in zip(spans, child))
        top = sum(t1 - t0 for _n, t0, t1, p, _s in spans if p < 0)
        expect(abs(self_sum - top) <= 1e-9 * top + 1e-9,
               f"{w}: span self times sum to the top-level total "
               f"({self_sum:.6f} vs {top:.6f} s)")
        cover = res["per_layer"]["trace.span_coverage_frac"]
        expect(0.98 <= cover <= 1.0 + 1e-9,
               f"{w}: top-level spans cover the traced wall ({cover:.4f})")


def check_absent() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import memctrl.dynamics as dyn
    import memctrl.runner as runner
    from spans import Patcher, Target, Tracer

    tracer = Tracer()
    patcher = Patcher()
    orig = dyn.rollout
    patcher.install([Target("gone", "dynamics", "no_such_function"),
                     Target("gone.method", "ensemble", "BaselineEnsembleSim.no_such"),
                     Target("dynamics.rollout", "dynamics", "rollout")],
                    lambda fn, tg: tracer.wrap(fn, tg.name))
    expect(sorted(patcher.absent) == ["gone", "gone.method"],
           f"missing targets reported absent: {patcher.absent}")
    expect(runner.rollout is dyn.rollout and dyn.rollout is not orig,
           "a name imported by value is wrapped where it is looked up")
    patcher.remove()
    expect(runner.rollout is orig and dyn.rollout is orig, "wrappers removed")
    vals = layers.derive(tracer, 1, {"incrt.leading_eigvec"}, 0.0, 1.0)
    expect(vals["incrt.leading_eigvec.calls"] is None
           and vals["incrt.run_phase1.busy_s"] == 0.0,
           "an absent target gives no value, a present one gives a number")
    line = run.per_layer_metrics({"per_layer": vals})
    expect(line["incrt.leading_eigvec.calls"]["value"] is None,
           "an absent target is null in the result line")


def check_no_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                           "closed-loop", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env,
                          capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "selftest-reference.json"
    print("tiny references")
    record_tiny(path)
    print("end-to-end metrics")
    check_end_to_end(path)
    print("corrupted references")
    check_corruption(path)
    print("traced runs")
    check_trace(path)
    print("absent targets")
    check_absent()
    print("no sources")
    check_no_sources()
    for p in run.OUT.glob("corrupt-*.json"):
        p.unlink()
    path.unlink()
    print(f"selftest: {len(failures)} failed" if failures else "selftest: all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
