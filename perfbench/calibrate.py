"""Machine-speed calibration.

The benchmark's machine is shared: its speed drifts by tens of percent over
minutes and flips between fast and slow phases over seconds, which moves
every timing together. A fixed kernel that belongs to the benchmark (small
NumPy block sums and a Python dict loop, the two kinds of work vidconceal
does) is timed between operations; a time is then reported at the reference
speed, at which the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / kernel time around the measurement

The kernel shares no code with vidconceal, so a change to the program moves
the measured time and leaves the kernel alone. Raw times and kernel times
are kept in the run's result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REFERENCE_S = 0.025
REPS = 5

# Small enough that the kernel's arrays (under 0.3 MB) stay below what
# vidconceal allocates itself, so calibrating does not raise peak RSS.
_FRAME = np.random.default_rng(0).integers(0, 256, (32, 32), dtype=np.uint8)
_BLOCK = _FRAME[8:24, 8:24].astype(np.int32)


def kernel() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(60):
        windows = sliding_window_view(_FRAME, (16, 16)).astype(np.int32)
        int(np.abs(windows - _BLOCK).sum(axis=(2, 3)).min())
    counts: dict[tuple[int, int], int] = {}
    for i in range(30000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def measure() -> float:
    """Median kernel time over REPS passes."""
    return statistics.median(kernel() for _ in range(REPS))
