"""In-memory spans around calls into the program's layers.

A span is ``[name, start_ns, end_ns, parent, query_id]``; ``parent`` is
the index of the enclosing span or -1.  Spans stay in memory and are
written out once, when the run ends.  With tracing off, :meth:`Tracer.call`
is a plain call, so untraced runs pay one Python call per layer boundary.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self.query_id = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)``; when enabled, record it as span ``name``."""
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.query_id]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def note(self, name: str, value: float) -> None:
        """A duration measured elsewhere (in a child process), in ms."""
        if self.enabled:
            self.notes[name].append(value)

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per span name: total self time in ns (duration minus the time
        covered by direct child spans) and the number of spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, int] = defaultdict(int)
        count: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child_ns[i]
            count[name] += 1
        return total, count

    def dump(self) -> dict:
        return {"fields": ["name", "start_ns", "end_ns", "parent", "query"],
                "spans": self.spans, "notes": self.notes}
