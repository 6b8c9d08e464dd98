"""Contiguous bands of rows, one thread per core the process may run on.

Brownian generation and kde split their rows into bands.  Each band writes
rows of its own and computes every value by the same operations as a single
pass would, so the number of bands never enters the bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# cores this process may run on: the most bands a call uses.  Only the CPU
# affinity mask counts; a CPU quota narrower than the mask is not read.
try:
    CORES = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity API on this platform
    CORES = os.cpu_count() or 1

MIN_WORK = 1 << 20  # elementary values a band needs to be worth a thread


def band_count(work, cap) -> int:
    """Bands for a call of `work` elementary values: one per core, none with
    less than MIN_WORK values, and at most `cap`, the most the caller's rows
    or its memory budget allow."""
    return max(1, min(CORES, work // MIN_WORK, cap))


def run_bands(n, bands, task):
    """Run task(lo, hi) on `bands` contiguous ranges that cover [0, n).

    Every range is joined before the first exception, in range order, is
    re-raised.  Tasks must write disjoint memory, and must not call the
    names the benchmark tracer wraps, since its span stack belongs to the
    calling thread.
    """
    if bands == 1:
        task(0, n)
        return
    edges = [n * b // bands for b in range(bands + 1)]
    with ThreadPoolExecutor(bands) as pool:
        list(pool.map(lambda b: task(edges[b], edges[b + 1]), range(bands)))
