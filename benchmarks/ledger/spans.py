"""Spans recorded by the benchmark around its calls into each layer.

The program under test is not instrumented: a span here wraps one call
into a layer's public function, made from the benchmark's own files.  A
span is (name, start, end, parent, op id); spans stay in memory and are
written out once, at exit, as Chrome ``trace_event`` JSON.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in ``Tracer.spans`` (``None`` = root).
    parent: Optional[int] = None
    #: Spans of one benchmark op share this identifier.
    op: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder (the traced run is serial)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(name=name, start=self.clock(), parent=parent, op=op)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def record(self, name: str, start: float, end: float,
               op: Optional[int] = None) -> None:
        """Add a finished root span measured elsewhere (a client thread)."""
        self.spans.append(Span(name=name, start=start, end=end, op=op))

    def seconds(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``."""
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus the part of it that
        its child spans cover (children of one thread never overlap)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        result: Dict[str, List[float]] = {}
        for index, span in enumerate(self.spans):
            result.setdefault(span.name, []).append(
                span.seconds - covered[index])
        return result

    def chrome_trace(self) -> Dict[str, object]:
        origin = self.spans[0].start if self.spans else 0.0
        return {"traceEvents": [
            {"name": span.name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (span.start - origin) * 1e6, "dur": span.seconds * 1e6,
             "args": {"op": span.op, "parent": span.parent}}
            for span in self.spans]}

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
