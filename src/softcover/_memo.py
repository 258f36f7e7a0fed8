"""The one cache policy of the package: a thread-safe least-recently-used
map bounded by the total bytes of its values."""

from __future__ import annotations

import threading
from collections import OrderedDict


def _nbytes(value: tuple) -> int:
    return sum(a.nbytes for a in value)


class Memo:
    """Thread-safe least-recently-used map from keys to tuples of arrays (or
    of other objects with ``nbytes``), bounded by their total ``nbytes``.

    A value larger than the bound, or built with ``keep=False``, is returned
    without being stored. Lookup and insertion hold a lock, the build does
    not, so two threads may build the same value; the first one stored is
    kept and returned to both."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.bytes = 0
        self._items: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()

    def find(self, key: tuple):
        """The value stored under ``key``, now the most recently used, or
        None."""
        with self._lock:
            if key in self._items:
                self._items.move_to_end(key)
                return self._items[key]
        return None

    def get(self, key: tuple, build, keep: bool = True) -> tuple:
        if not keep:
            return build()
        value = self.find(key)
        if value is not None:
            return value
        value = build()
        size = _nbytes(value)
        with self._lock:
            if key in self._items:
                self._items.move_to_end(key)
                return self._items[key]
            if size <= self.max_bytes:
                self._items[key] = value
                self.bytes += size
                while self.bytes > self.max_bytes:
                    self.bytes -= _nbytes(self._items.popitem(last=False)[1])
        return value
