"""Span tracing from outside the program under test.

``Tracer.install`` replaces chosen public functions of ``amoo`` with thin
wrappers that record a span (name, start, end, parent) around each call and
restores the originals on exit.  Spans stay in memory; the benchmark turns
them into per-layer metrics when the traced pass ends.  Nothing here is
active in an untraced run.
"""

import contextlib
import functools
import os
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread, in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, inspect=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``inspect(args, kwargs, result)`` may return a dict stored on the
        span, for counters that only the call's arguments or result show.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(idx)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if inspect is not None:
                span.info = inspect(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self, bindings):
        """Patch each ``(owner, attribute, span_name, inspect)`` binding.

        The same function reached through several bindings is wrapped once
        per binding; every wrapper records under the one span name.
        """
        saved = []
        try:
            for owner, attr, name, inspect in bindings:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, inspect))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (recursion counted once)."""
    flags = []
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p is None)
    return flags


def enclosing(spans, name: str) -> list:
    """Index of the nearest ancestor span called ``name`` (or None) per span."""
    out: list = []
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        out.append(p)
    return out


def file_bytes(args, kwargs, result):
    """An ``inspect`` hook: the size of the file a ``writer(obj, path)`` made."""
    return {"bytes": os.path.getsize(args[1])}
