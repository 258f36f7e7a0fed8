"""Tiny deterministic worker pool.

Results are always returned in input order, never completion order, so
where the items run has no effect on any output. Items whose estimated work
is at most ``_INLINE_WORK`` array elements run in the calling thread: such
an item is mostly small numpy calls that hold the GIL, and a second thread
only adds contention. Larger items run on a thread pool of
``worker_count()`` threads, capped by the ``SOFTCOVER_THREADS`` environment
variable. The items of a Monte Carlo run are groups of trials
(``simulate.per_trial_error_probs``); a group of more than one trial never
exceeds the crossover, so only trials too large to share a group reach the
pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# the crossover of one thread and two on groups of Monte Carlo trials,
# measured over Z, BSC and 2x3 channels (CHANGES.md has the table)
_INLINE_WORK = 1 << 17


def worker_count() -> int:
    env = os.environ.get("SOFTCOVER_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"SOFTCOVER_THREADS must be an integer, got {env!r}")
    return min(4, os.cpu_count() or 1)


def map_indexed(fn, items, work: int) -> list:
    """``[fn(item) for item in items]``, where ``work`` estimates the array
    elements one item touches."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or work <= _INLINE_WORK:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
