"""The benchmark's trace targets name code that exists.

bench/layers.py lists the memctrl functions and methods a traced run
wraps.  A target that no longer resolves is reported as absent and its
per-layer metrics read null, so a deletion or rename must fail here
instead.  Each target is resolved as spans.Patcher.install does:
import memctrl.<module>, then look up each part of the qualname.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import layers
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
