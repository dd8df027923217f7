"""In-memory spans around the benchmark's calls into folnerflow.

A span records its name ("<layer>.<function>"), start, end, parent span
and job id. Spans are kept in memory and written out once the run ends.
A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

perf = time.perf_counter


class NullTracer:
    """Untraced runs: the same call sites, with no recording."""

    job = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def under(self, parent):
        return contextlib.nullcontext()


class Tracer:
    """Traced runs: every call through `call` becomes a span."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, job]
        self.job = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf()
            self._stack.pop()

    def add(self, name, start, end, job) -> int:
        """Record a span timed elsewhere (a child process); returns its id."""
        self.spans.append([name, start, end, None, job])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def under(self, parent: int):
        """New top-level spans in this context become children of `parent`."""
        self._stack.append(parent)
        try:
            yield
        finally:
            self._stack.pop()

    def write(self, path):
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def percentile(values, p):
    """Inclusive percentile p (0-100); the median for p=50."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summarize(spans):
    """Per span name: calls, self seconds, durations (seconds); per layer:
    self seconds."""
    child_time = defaultdict(float)
    for name, start, end, parent, _job in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_name = {}
    layers = defaultdict(float)
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        dur = end - start
        self_s = max(0.0, dur - child_time[i])
        entry = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "durs": []})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["durs"].append(dur)
        layers[name.split(".", 1)[0]] += self_s
    return by_name, layers
