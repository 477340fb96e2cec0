"""In-memory span tracer that times calls into the program from outside.

The benchmark never edits the program.  Instead, :class:`Tracer` replaces
selected public functions and methods with thin wrappers for the duration
of a ``with tracer.installed():`` block, records one span per call (name,
start, end, parent) and restores the originals on exit.  Spans stay in
memory until :meth:`Tracer.chrome_trace` turns them into Chrome
trace-event JSON (viewable in Perfetto or ``chrome://tracing``).

The wrappers assume one thread: the workloads pin ``lane_threads=1`` and
``workers=1``, so every traced call happens on the main thread and spans
nest strictly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "scope")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 scope: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0
        self.scope = scope

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the (non-overlapping) direct children."""

        return self.duration - self.child_time


class Tracer:
    """Collects spans and counters from wrapped calls.

    ``scope`` tags every span with the benchmark phase it belongs to
    (``"setup"``, ``"rep"``, ...) so per-layer figures can be split by
    phase afterwards.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = {}
        self.scope = "setup"
        self._stack: List[int] = []
        self._targets: List[tuple] = []
        self._origin = time.perf_counter()

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), parent, self.scope)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += span.duration

    def count(self, name: str, value: float = 1.0) -> None:
        bucket = self.counters.setdefault(self.scope, {})
        bucket[name] = bucket.get(name, 0.0) + value

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``on_result(tracer, args, result)`` runs after each call, outside
        the span, to derive counters from the call's arguments or result.
        Static methods keep their descriptor; plain functions bind as
        methods exactly like the original.
        """

        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        # Inherited attributes are restored by deleting the override.
        self._targets.append((owner, attr, raw, attr in vars(owner)))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]):
        """Wrap the targets ``install`` names; restore them on exit."""

        install(self)
        try:
            yield self
        finally:
            for owner, attr, raw, own in reversed(self._targets):
                if own:
                    setattr(owner, attr, raw)
                else:
                    delattr(owner, attr)
            self._targets.clear()

    # -- reporting -----------------------------------------------------
    def layer_table(self, scope: Optional[str] = None) -> Dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""

        table: Dict[str, dict] = {}
        for span in self.spans:
            if scope is not None and span.scope != scope:
                continue
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_time
            row["durations"].append(span.duration)
        return table

    def chrome_trace(self, metadata: dict) -> dict:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""

        pid = os.getpid()
        events = []
        for index, span in enumerate(self.spans):
            events.append({
                "name": span.name, "ph": "X", "pid": pid, "tid": 0,
                "ts": (span.start - self._origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"id": index, "parent": span.parent, "scope": span.scope},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata}
