"""Run the pinned CLI commands and print a short hash of every output.

    python3 scripts/pinned_outputs.py            # this checkout's src/
    python3 scripts/pinned_outputs.py OTHER/src  # another memctrl tree

Each command runs through memctrl.cli.main with one BLAS thread, seed 42
unless named, in its own directory under a temporary directory that is
removed afterwards.  Every file a command writes, and its standard
output (`stdout.txt`), gets one line `sha256[:16]  command/file`, sorted
by path.  Two trees give the same numbers exactly when the listings
match line for line.

The pinned commands: `simulate` and `simulate --shielded` for seeds 0-5
at the default horizon and at `horizon = 2.0`; `evaluate` with
`--payload-csv` at tau_z 1, 2 and 5 in each payload mode; `compare` of
those nine result files with `--metric rmse_mean --group-key
architecture`; `phase1` and `rank-scan --save-operators` at
`--tau-z-list 1,2,3,4,5 --window 20 --n-samples 512`; `markov-gap` and
`sigma-scan` at their defaults.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SCAN = ["--tau-z-list", "1,2,3,4,5", "--window", "20", "--n-samples", "512"]


def commands():
    """(directory name, argv, config text or None) of every pinned run."""
    for horizon, tag in ((None, ""), ("2.0", "_h2")):
        cfg = None if horizon is None else f"horizon = {horizon}\n"
        for seed in range(6):
            yield (f"simulate{tag}_s{seed}", ["simulate", "--seed", str(seed)],
                   cfg)
            yield (f"shielded{tag}_s{seed}",
                   ["simulate", "--shielded", "--seed", str(seed)], cfg)
    results = []
    for tz in ("1", "2", "5"):
        for mode in ("nominal", "true", "noisy"):
            name = f"evaluate_tz{tz}_{mode}"
            label = "baseline-ct" + ("" if mode == "nominal" else f"-{mode}")
            results.append(f"../{name}/{label}__tz{tz}s__seed42.json")
            yield (name, ["evaluate", "--tau-z", tz, "--payload-mode", mode,
                          "--payload-csv"], None)
    # the result files of the runs above, read from their directories
    yield ("compare", ["compare", *results, "--metric", "rmse_mean",
                       "--group-key", "architecture"], None)
    yield "phase1", ["phase1", *SCAN], None
    yield "rank_scan", ["rank-scan", *SCAN, "--save-operators"], None
    yield "markov_gap", ["markov-gap"], None
    yield "sigma_scan", ["sigma-scan"], None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, str(src.resolve()))
    from memctrl.cli import main as cli_main

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, args, cfg in commands():
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            extra = []
            if cfg is not None:
                (Path(tmp) / f"{name}.cfg").write_text(cfg)
                extra = ["--config", str(Path(tmp) / f"{name}.cfg")]
            out = io.StringIO()
            cwd = os.getcwd()
            os.chdir(run_dir)   # relative paths keep the printed lines stable
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli_main([*extra, "--out-dir", ".", *args])
            finally:
                os.chdir(cwd)
            if rc != 0:
                print(f"{name}: exit status {rc}", file=sys.stderr)
                return 1
            (run_dir / "stdout.txt").write_text(out.getvalue())
            for path in sorted(run_dir.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                lines.append(f"{digest}  {name}/{path.name}")
    print("\n".join(sorted(lines, key=lambda s: s.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
