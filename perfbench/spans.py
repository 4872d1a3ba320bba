"""Span recording at hsbmlab's public function boundaries, from outside.

A Tracer replaces a function at the module attribute through which its
callers look it up, and restores it on close.  Each call becomes a span:
name, start, end, the span that caused it, the thread, the process CPU
clock at both ends, and counts read from the call's public result.  Spans
are kept in memory; the caller writes them out when the run ends.

A span opened on a worker thread with no open span of its own takes as its
parent the innermost open span of the thread that created the Tracer
(``run_monte_carlo`` for the harness's worker threads).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cpu: float
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Record a span around every call of module.attr; counts maps the
        call's result to a dict of counts stored on the span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            home = self._home_stack[-1:]
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._home and home:
                parent = home[0]
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu
                stack.pop()
            span = Span(span_id, name, start, end, parent, threading.get_ident(),
                        cpu, counts(result) if counts else {})
            with self._lock:
                self.spans.append(span)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def close(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def to_dicts(self) -> list[dict]:
        origin = min((s.start for s in self.spans), default=0.0)
        return [{"id": s.id, "name": s.name, "start": s.start - origin,
                 "end": s.end - origin, "parent": s.parent, "thread": s.thread,
                 "cpu": s.cpu, "counts": s.counts}
                for s in sorted(self.spans, key=lambda s: s.id)]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover.
    Children on parallel threads overlap; their union is subtracted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inner = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        out[s.id] = s.seconds - covered((a, b) for a, b in inner if b > a)
    return out
