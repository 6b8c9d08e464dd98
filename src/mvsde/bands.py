"""Contiguous bands of rows, one thread per core the process may run on.

Brownian generation and kde split their rows into bands.  Each band writes
rows of its own and computes every value by the same operations as a single
pass would, so the number of bands never enters the bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CORES = None  # the most bands a call uses; host_cores() at the first band_count
MIN_WORK = 1 << 20  # elementary values a band needs to be worth a thread


def host_cores(cgroup="/sys/fs/cgroup") -> int:
    """Cores this process may run on: its CPU affinity mask, narrowed to
    ceil(quota / period) by a CPU quota at the root of the cgroup tree, where
    a container sees its own cgroup: v2's cpu.max, else v1's cpu/cpu.cfs_*."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for files in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            quota, period = " ".join(Path(cgroup, f).read_text() for f in files).split()
        except (OSError, ValueError):  # no such files, or not two words
            continue
        return cores if quota in ("max", "-1") else min(cores, max(1, -(-int(quota) // int(period))))
    return cores


def band_count(work, cap) -> int:
    """Bands for a call of `work` elementary values: one per core, none with
    less than MIN_WORK values, and at most `cap`, the most the caller's rows
    or its memory budget allow."""
    global CORES
    if CORES is None:
        CORES = host_cores()
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
