"""In-memory spans for the traced benchmark run, and self-time arithmetic.

A span is [id, parent, name, tag, start, end, calls]: one per call into a
public function, or one per batch of calls for functions called thousands
of times (then `calls` says how many).  Spans stay in memory and are
written out once, when the traced run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ID, PARENT, NAME, TAG, START, END, CALLS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None, calls: int = 1):
        """Record one span around the body; the body may update span[CALLS]."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, tag, perf_counter(), None, calls]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def write(self, path, counts: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - _covered(children[s[ID]], s[START], s[END])
        for s in spans
    }


def totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Self time and call count per span name, and per "name.tag"."""
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        keys = [s[NAME]] + ([f"{s[NAME]}.{s[TAG]}"] if s[TAG] else [])
        for key in keys:
            seconds[key] += own[s[ID]]
            calls[key] += s[CALLS]
    return dict(seconds), dict(calls)
