"""In-memory span recording around the public entry points of a program.

A :class:`Tracer` keeps one :class:`Span` per call of a wrapped function:
its name, start and end on the ``perf_counter`` clock, the span that was
open when it started (its parent) and the thread it ran on.  Nothing is
written until the caller asks for it.  :func:`patched` rebinds attributes
of modules and classes to recording wrappers for the length of a ``with``
block and restores the originals afterwards, so code that looks a name up
at call time is traced without being edited.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from itertools import count
from time import perf_counter
from typing import Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; parents follow a per-thread stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def adopt(self, parent: Optional[int]):
        """Make ``parent`` the enclosing span of this thread's next spans.

        Used where work started under one span runs on another thread.
        """
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that every call records a span."""

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = Span(span_id, name, start, end, parent, threading.get_ident())
                with self._lock:
                    self.spans.append(span)

        return traced


@contextmanager
def patched(bindings):
    """Rebind ``(owner, attribute, replacement)`` triples inside the block.

    ``owner`` is a module or a class; the original attribute must be
    defined on the owner itself.  Originals are restored in reverse order,
    also when the block raises.
    """
    saved = []
    try:
        for owner, attribute, replacement in bindings:
            saved.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its own
    interval that its children cover.

    Children on other threads may overlap each other; the union of their
    intervals is subtracted once, so concurrent children never drive a
    parent's self time below zero.
    """
    by_id = {span.id: span for span in spans}
    children: dict[int, list] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {
        span.id: span.duration - covered_length(children.get(span.id, ()))
        for span in spans
    }


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total duration and total self time."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return table


def has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    """Whether some enclosing span of ``span`` is called ``name``."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False
