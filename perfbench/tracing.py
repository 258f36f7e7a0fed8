"""Spans recorded from the benchmark's side of each call into a layer.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that caused it and the id of the request it belongs to. Spans stay
in memory and are written out once, when the run ends. Calls the benchmark
makes itself are wrapped with ``span``; calls the package makes internally
(``cli.main`` into ``phase``, ``phase`` into ``phase``, Monte Carlo trials
on the pool threads) are reached by temporarily replacing the public
module attribute the caller looks up, and restored afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from statistics import median, quantiles


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False
    request_id = None

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def patched(self, targets):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.request_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        # a pool thread's first span hangs off the main thread's open span
        return self._main_stack[-1] if self._main_stack else None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._parent()
        sid = next(self._ids)
        record = {"id": sid, "name": name, "parent": parent,
                  "request": self.request_id, **attrs}
        stack = self._stack()
        stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def record(self, name, start, **attrs) -> None:
        """Add a span that began at ``start`` and ends now, under the
        caller's innermost open span."""
        self.spans.append({"id": next(self._ids), "name": name,
                           "parent": self._parent(),
                           "request": self.request_id,
                           "start": start, "end": time.perf_counter(),
                           **attrs})

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a span-recording wrapper for each
        ``(module, attr, span_name)``; attributes a module lacks are skipped,
        so a renamed internal call only drops its spans."""
        saved = []
        try:
            for module, attr, name in targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                wrapper = (name(self, fn) if callable(name)
                           else self._wrap(fn, name))
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def durations(spans, name, **match) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name
            and all(s.get(k) == v for k, v in match.items())]


def p50(values) -> float:
    return float(median(values)) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(quantiles(values, n=10)[8])
