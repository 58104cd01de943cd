"""Machine-speed probe that turns measured seconds into reference seconds.

On a shared 2-core machine the same work takes 14 s in one minute and 21 s in
the next, because neighbours load the physical cores.  A fixed kernel that
uses no gelsolve code (a Python loop with `math` calls and small numpy
convolutions) is timed next to the work, and every time is scaled by
REFERENCE_S / kernel time: a "reference second" is a second on a machine
where the kernel takes REFERENCE_S.  The raw seconds are reported beside
the scaled ones.
"""
import math
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3
_A = np.linspace(0.0, 1.0, 300)


def kernel():
    """About a millisecond of interpreted scalar code and short numpy
    convolutions, weighted 2:1 by time.  Of the mixes tried (scalar code,
    1-D convolutions, 2-D FFTs) on the classic, arms-postgel and validate
    streams, this one tracked their speed best; FFTs swing far more than
    gelsolve does."""
    start = time.perf_counter()
    s = 0.0
    for i in range(1, 3000):
        s += math.exp(-1.0 / i) * (i % 7)
    for _ in range(8):
        np.convolve(_A, _A)
    return time.perf_counter() - start


def sample():
    """Median of three kernel runs, in seconds."""
    return statistics.median(kernel() for _ in range(3))
