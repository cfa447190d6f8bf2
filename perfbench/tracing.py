"""Spans recorded around the benchmark's own calls into ``pathalg``.

A workload takes every ``pathalg`` function it times through ``wrap``.  The
untraced ``Tracer`` hands the function back unchanged, so end-to-end runs pay
nothing for the hooks.  ``SpanTracer`` keeps spans (name, start, end, parent,
operation id) in memory; the worker writes them out after the run and derives
self times from them.
"""
from __future__ import annotations

import time
from collections import defaultdict

OP_SPAN = "op"


class Tracer:
    """The untraced case: no spans, no counts."""

    def wrap(self, name, fn, count=None):
        return fn


class SpanTracer(Tracer):
    """Records spans and per-span counts read from the returned values.

    ``count(result)`` gives the work the call did (kernel pairs, paths,
    monomials, ...); it runs after the span has closed, so it is not charged
    to the layer.
    """

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][5] = count(result)
            return result

        return traced

    def op(self, op_id):
        return _OpSpan(self, op_id)

    def records(self, pass_id) -> list[dict]:
        return [{"pass": pass_id, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op_id, "count": count}
                for name, start, end, parent, op_id, count in self.spans]


class _OpSpan:
    def __init__(self, tracer: SpanTracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer._op = self.op_id
        self.idx = self.tracer._open(OP_SPAN)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        self.tracer._op = None
        return False


def layer_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: self time in ms (duration minus the time its child
    spans cover), the number of calls and the summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = defaultdict(lambda: {"ms": 0.0, "calls": 0, "count": 0})
    for i, (name, start, end, _, _, count) in enumerate(spans):
        row = table[name]
        row["ms"] += (end - start - child_time[i]) * 1000.0
        row["calls"] += 1
        if count is not None:
            row["count"] += count
    return dict(table)
