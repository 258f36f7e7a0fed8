"""Tiny deterministic worker pool.

Results are always returned in input order, never completion order, so
where the items run has no effect on any output. Items run on a thread
pool of ``worker_count()`` threads, capped by the ``SOFTCOVER_THREADS``
environment variable. The caller decides what is worth a thread: Monte
Carlo trials come here only when one trial is too large to share a group
(``simulate.per_trial_error_probs``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    env = os.environ.get("SOFTCOVER_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"SOFTCOVER_THREADS must be an integer, got {env!r}")
    return min(4, os.cpu_count() or 1)


def map_indexed(fn, items) -> list:
    """``[fn(item) for item in items]``."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
