"""Host-speed calibration.

On a shared 2-core host the same call takes up to a third longer while
neighbours are busy, in phases that last from seconds to minutes, and CPU
time stretches with wall time.  A median over the repeats of one run cannot
remove a phase that covers the whole run: over 20-second windows of identical
calls, the median call time moved by 12-14% between windows.

So a fixed calibration pass, which exercises what the program's inner loops
exercise (the interpreter on numpy scalars, short vector operations, a sort),
runs right before and right after every timed call.  Its time says how fast
the host ran at that moment, and a rate is scaled to a host that runs one pass
in REFERENCE_S seconds.  Scaled this way the window medians moved by 2-5%.
The pass does not touch lossdepth, so a faster program still reads faster.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.01  # a round number near one pass on the 2-core reference host

_VALUES = np.linspace(0.0, 1.0, 1000)


def calibration_pass() -> float:
    """Seconds taken by one fixed pass of about REFERENCE_S on a quiet host."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(20):
        for i in range(_VALUES.size):
            if _VALUES[i] > 0.5:
                total += float(_VALUES[i]) * 0.5
    for _ in range(200):
        y = np.exp(-_VALUES * _VALUES)
        total += float(np.sort(y)[::-1] @ _VALUES)
    return time.perf_counter() - start
