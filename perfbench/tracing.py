"""Spans and counts recorded around the benchmark's calls into timelyck.

A span has a name, a start, an end, a parent span and an operation id.  Spans
stay in memory while the run lasts, are written out when it ends, and are
reduced to self times: a span's duration minus the part its child spans cover.
An untraced run uses `NULL_TRACER`, whose `call` is a plain call.
"""

from __future__ import annotations

import json
from time import perf_counter


class NullTracer:
    """Records nothing."""

    def begin_op(self, op_id: int) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, op id]
        self.counts: dict = {}  # op id -> {count name: value}
        self._stack = [-1]
        self._op = -1

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.counts[op_id] = {}

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1], self._op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        per_op = self.counts[self._op]
        per_op[name] = per_op.get(name, 0) + value

    def self_times(self) -> dict:
        """op id -> {span name: summed self time in ms}."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for k, (name, start, end, _, op) in enumerate(self.spans):
            per_op = out.setdefault(op, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start - covered[k]) * 1e3
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh)
