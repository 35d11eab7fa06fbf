"""In-memory span recorder for the perf harness.

A span is one call from the harness into a layer's public function:
name, layer, start, end, the span that caused it (parent) and the op it
belongs to.  Spans are kept in memory and written once, at exit, as
Chrome ``trace_event`` JSON (load it in https://ui.perfetto.dev).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  The harness is single-threaded, so
children of one span never overlap and the subtraction is exact.

While ``enabled`` is false ``span()`` does nothing, which is how the
end-to-end rounds run: same code path, no records.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    layer: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """Record one span; a span opened with none open starts a new op."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            op=self._ops,
            name=name,
            layer=layer,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def roots(self, name: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.parent is None and (name is None or s.name == name)
        ]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def layer_self_times(self) -> Dict[int, Dict[str, float]]:
        """Op -> layer -> summed self time of that op's spans."""
        self_times = self.self_times()
        out: Dict[int, Dict[str, float]] = {}
        for s in self.spans:
            layers = out.setdefault(s.op, {})
            layers[s.layer] = layers.get(s.layer, 0.0) + self_times[s.id]
        return out

    def chrome_trace(self) -> dict:
        pid = os.getpid()
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s.name,
                    "cat": s.layer,
                    "ph": "X",
                    "ts": (s.start - origin) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"id": s.id, "parent": s.parent, "op": s.op},
                }
                for s in self.spans
            ],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
