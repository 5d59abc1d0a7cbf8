"""Host-speed calibration for timings taken on a shared machine.

On a shared host the same work can take 1.5 to 2 times as long from one
minute to the next, because other tenants load the same cores.  The
benchmark times a fixed loop that uses no library code just before and just
after every timed sample, and reports

    sample * REFERENCE_S / mean(calibration before, calibration after)

that is, the sample's duration in seconds at the speed where the loop takes
REFERENCE_S.  A change to the library moves the sample and not the loop; a
change of host speed moves both.  The raw wall times and the calibration
times go to the report next to the result.
"""

from __future__ import annotations

import time

# The loop's wall time on an unloaded 2-vCPU machine with Python 3.11 and
# NumPy 2.4.  It only fixes the scale of the reported times.
REFERENCE_S = 0.1


def calibration_s() -> float:
    """Wall time of one fixed pass of interpreter-bound work like the
    library's: tuple-keyed dicts, a keyed sort and small NumPy set
    operations."""
    import numpy as np

    left = np.arange(0, 96, 2)
    right = np.arange(0, 96, 3)
    start = time.perf_counter()
    table = {}
    for i in range(120000):
        table[(i & 1023, i >> 10)] = (i, i % 7)
    sorted(table.items(), key=lambda item: item[1][1])
    for _ in range(4000):
        np.intersect1d(left, right, assume_unique=True)
    return time.perf_counter() - start


def at_reference_speed(sample_s: float, before_s: float, after_s: float) -> float:
    """``sample_s`` rescaled by the calibrations taken around it."""
    return sample_s * REFERENCE_S * 2.0 / (before_s + after_s)
