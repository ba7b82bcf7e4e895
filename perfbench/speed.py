"""Machine-speed calibration: a fixed reference kernel timed between blocks of steps.

The benchmark's host shares its cores with other guests.  For spells of a
few seconds to several minutes a core runs up to twice as slow, slower still
in short bursts, and process CPU time slows with it (steal time stays near 0), so no statistic taken inside
one run removes a spell that outlasts the run.  The reference kernel below
is the benchmark's own code and never calls covsize.  Timed on the same CPU
right before and right after a block of steps, it gives the block's speed
factors: the mean of the two kernel times over REFERENCE_S, one by wall time
and one by CPU time.  A block's wall and CPU times divided by their factors
are "reference seconds", the time the block would take on a core that runs
the kernel in REFERENCE_S.  A change to covsize moves the block's time but
not the kernel's, so it moves reference seconds in full.  CPU time has a
factor of its own because the guest does not always count the time the host
takes its vCPU away in the same clock as the wall time.

On two Xeon vCPUs of a KVM guest, raw pass times of the `production`
workload ranged over 6 to 10 s within single runs, while ten runs agreed
within a few per cent in reference seconds (see README.md).
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# the kernel's time on an unloaded core of the host above; the unit of the
# reference seconds, nothing else depends on it
REFERENCE_S = 0.0021
# a block ends at the first step boundary after this many seconds; blocks of
# 0.05 s left a certify pass's step-time deciles half as noisy as blocks of
# 0.25 s with a kernel four times as long, at the same share of kernel time
BLOCK_S = 0.05


def kernel() -> tuple[Fraction, float]:
    """The three kinds of work covsize does: Fraction arithmetic, scalar
    float log-probabilities, and vectorized numpy/scipy over arrays."""
    # imported here, so that a set-up child that imports this module
    # imports numpy and scipy only if covsize does
    import numpy as np
    from scipy.special import gammaln

    x = np.linspace(0.01, 0.99, 4000)
    exact = Fraction(0)
    for i in range(1, 200):
        exact += Fraction(1, i * i + 1)
    scalar = 0.0
    for i in range(1, 3000):
        scalar += math.exp(math.lgamma(i * 0.01 + 1) - i * 0.03)
    for k in range(15):
        scalar += float((gammaln(x * 50 + k) + np.log(x) * k).sum())
    return exact, scalar


def kernel_s() -> tuple[float, float]:
    """Wall and CPU time of one run of the kernel.  The cyclic collector is
    off meanwhile: the kernel makes no cycles, and a collection would scan
    the workload's objects and charge their number to the machine's speed."""
    gc.disable()
    try:
        start = (time.perf_counter(), time.process_time())
        kernel()
        return time.perf_counter() - start[0], time.process_time() - start[1]
    finally:
        gc.enable()


def factor(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Speed factors of a block, by wall and by CPU time, from the kernel
    times on either side of it; 1 on the reference core."""
    return ((before[0] + after[0]) / (2 * REFERENCE_S),
            (before[1] + after[1]) / (2 * REFERENCE_S))
