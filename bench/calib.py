"""Calibration kernel: fixed work that tracks how fast this CPU runs right now.

On a shared virtual machine the speed of the vCPU drifts by tens of
percent within seconds and between runs (other tenants on the host), and
process CPU time drifts with it.  The benchmark therefore runs this
kernel between the calls it times and reports times scaled to the
kernel's nominal speed: t_reported = t_measured * NOMINAL_S / t_kernel.

The kernel mixes the kinds of work memctrl does: a pure-Python loop,
numpy calls on 2-vectors (the scalar per-step loop), on (256, 2) arrays
(the ensemble step) and on arrays of 64k elements (histories and
binning).  It uses nothing from memctrl, so no change to memctrl can
move it.  numpy is imported inside kernel() so that run.py, which must
not load BLAS before the thread variables are set, can read NOMINAL_S.
"""

from __future__ import annotations

import time

# A typical CPU time of kernel() on the 2-core VM where the benchmark was
# defined (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread); it
# ranged from 0.030 to 0.050 s there as the host's load changed.
NOMINAL_S = 0.035


def kernel() -> float:
    """Run the fixed work once; returns its process CPU seconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    mid0 = rng.standard_normal((256, 2))
    big = rng.standard_normal((64, 1000))
    t0 = time.process_time()
    acc = 0
    for i in range(200_000):
        acc += i * i
    a = np.array([0.3, 0.7])
    for _ in range(1400):
        b = np.sin(a) * 1.0001 + np.cos(a)
        a = np.stack([b[0], b[1]]) * 0.5
    m = mid0
    for _ in range(600):
        b = np.sin(m) * 1.0001 + np.cos(m) * m
        m = np.where(np.abs(b) < 10.0, b, m) * 0.5
    for _ in range(20):
        big = np.exp(-big * big) * 0.5 + big * 0.3
    if not (acc > 0 and np.isfinite(a).all() and np.isfinite(m).all()
            and np.isfinite(big).all()):
        raise ArithmeticError("calibration kernel produced non-finite values")
    return time.process_time() - t0
