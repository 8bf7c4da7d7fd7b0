"""Host-speed reference for normalising wall times.

On a shared host the same op can take twice as long a few seconds later,
and CPU time moves with wall time, so the slowdown is the host's, not
scheduling.  The benchmark therefore times a fixed reference kernel right
before and right after every op and reports each op's wall time scaled by
``NOMINAL_S / reference time``: the time the op would take on a host where
the kernel takes ``NOMINAL_S``.  The kernel is the same kind of work as the
program -- small-object arithmetic, dict updates and small numpy calls --
so contention slows both in much the same way.  Raw wall times are recorded
next to the normalised ones.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 0.010  # reference kernel time on a quiet 2-core Intel Xeon host
CHUNKS = 5


def _kernel_chunk() -> None:
    counts = {}
    for i in range(1, 300):
        p = Fraction(i, 3 * i + 1) * Fraction(i + 2, 7) - Fraction(1, i)
        key = (p.denominator % 17, f"v{i % 5}")
        counts[key] = counts.get(key, 0) + 1
    m = np.eye(4, dtype=complex)
    for _ in range(40):
        np.einsum("ki,ij,kj->k", m.conj(), m, m)


def reference_s() -> float:
    """Reference kernel time at the host's current speed.

    The kernel runs as back-to-back chunks; the median chunk, scaled to the
    whole kernel, is the result, so one interrupted chunk does not count.
    Garbage collection is held off so that the program's live heap does not
    change the kernel's cost.
    """
    gc.disable()
    try:
        times = []
        for _ in range(CHUNKS):
            start = perf_counter()
            _kernel_chunk()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return CHUNKS * statistics.median(times)


def speed_factor(before_s: float, after_s: float) -> float:
    """Scale for a wall time measured between two reference runs."""
    return NOMINAL_S / ((before_s + after_s) / 2)
