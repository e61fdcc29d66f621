"""In-memory spans for the traced stage runner, and the arithmetic over them.

A span is (id, parent, name, start, end) in `time.perf_counter` seconds.
Its parent is the span that was open on the same thread when it began,
or None. A span's self time is its duration minus the part of that
interval its child spans cover.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: object
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span around every call of a wrapped function."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, name: str, on_result=None):
        """`fn` recording a span `name`; errors are counted as `name.errors`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(name + ".errors")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """{span id: duration minus the time its children cover}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - covered_length(clipped)
    return out


def self_time(spans, name: str) -> float:
    """Summed self time of every span called `name`."""
    own = self_times(spans)
    return sum(own[s.id] for s in spans if s.name == name)


def outer_time(spans, names) -> float:
    """Summed duration of spans named in `names` with no ancestor so named,
    so a layer that calls itself is not counted twice."""
    names = set(names)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.duration
    return total


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def total_time(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def peak_overlap(spans, name: str) -> int:
    """Most spans called `name` open at one instant."""
    events = []
    for s in spans:
        if s.name == name:
            events.append((s.start, 1))
            events.append((s.end, -1))
    peak = cur = 0
    for _, step in sorted(events):
        cur += step
        peak = max(peak, cur)
    return peak
