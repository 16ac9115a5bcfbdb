"""Spans and multiplication counts for the traced run.

Spans are recorded by the benchmark around its own calls into a layer's
public functions; nothing inside the program is instrumented.  A span keeps
its name, start, end and parent, plus the multiplication count at both ends,
so self time and self count are the span's own interval minus what its child
spans cover.  Stream multiplications are counted by handing the program a
copy of each stream handle whose ``mul_fn`` bumps a counter.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.mul_calls = 0
        self._stack = []

    def counted(self, S):
        """A copy of stream handle ``S`` whose multiplications are counted."""
        inner = S.mul_fn

        def mul_fn(x, y):
            self.mul_calls += 1
            return inner(x, y)

        return dataclasses.replace(S, mul_fn=mul_fn)

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None,
                  "mul_start": self.mul_calls, "mul_end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["mul_end"] = self.mul_calls
            self._stack.pop()

    def self_totals(self):
        """Per span name: summed self time (s), self multiplications and
        number of spans."""
        child_time = [0.0] * len(self.spans)
        child_mul = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
                child_mul[s["parent"]] += s["mul_end"] - s["mul_start"]
        totals = {}
        for s in self.spans:
            t = totals.setdefault(s["name"], {"s": 0.0, "mul_calls": 0, "spans": 0})
            t["s"] += s["end"] - s["start"] - child_time[s["id"]]
            t["mul_calls"] += s["mul_end"] - s["mul_start"] - child_mul[s["id"]]
            t["spans"] += 1
        return totals

    def write(self, path, extra):
        doc = {"spans": self.spans, "self_totals": self.self_totals()}
        doc.update(extra)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class NullTracer:
    """The same interface with nothing recorded: the untraced pass."""

    def counted(self, S):
        return S

    @contextmanager
    def span(self, name):
        yield None
