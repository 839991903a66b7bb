"""Span-based tracer with deterministic ids and cross-process context.

Span ids are *structural*, not random: the root span of a trace is ``"1"``,
its children are ``"1.1"``, ``"1.2"`` …, grandchildren ``"1.2.1"`` and so
on — the id of a span is fully determined by where it sits in the tree.
Two runs of the same workload therefore produce the same span ids, which
makes traces diffable and lets tests assert on structure instead of
regexes.

Cross-process propagation works the same way: the coordinator puts the
current :class:`SpanContext` on the job wire; a worker seeds its
:class:`Tracer` from that context and opens its per-item root span with an
explicit id derived from the item index (``"<parent>.c<index>"``).  Item
indexes are unique per job, so span ids never collide across workers and
every worker-side span carries the coordinator's trace id — the traces
stitch into one tree with no id allocation protocol between processes.

Timing: wall-clock epoch is sampled once per span start (``time.time``)
for cross-process alignment; durations use ``time.perf_counter``.
"""

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..wire import Wire

__all__ = ["Span", "SpanContext", "Tracer"]

_TRACE_SEQ = [0]
_TRACE_SEQ_LOCK = threading.Lock()


def _new_trace_id() -> str:
    """Process-unique trace id: pid + per-process sequence number."""
    with _TRACE_SEQ_LOCK:
        _TRACE_SEQ[0] += 1
        return f"{os.getpid():x}-{_TRACE_SEQ[0]:x}"


@dataclass(frozen=True)
class SpanContext(Wire):
    """The propagatable part of a span: (trace id, span id)."""

    trace_id: str
    span_id: str


class Span:
    """One timed operation.  Created via :meth:`Tracer.span`; usable as a
    context manager.  ``attrs`` may be extended while the span is open
    (``span.set(key, value)``)."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_wall",
                 "duration", "pid", "tid", "attrs", "_tracer", "_t0",
                 "_child_seq")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: Optional[str], attrs: Dict[str, Any]):
        self.trace_id = tracer.trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_wall = time.time()
        self.duration = 0.0
        self.pid = tracer.pid
        self.tid = tracer.tid
        self.attrs = attrs
        self._tracer = tracer
        self._t0 = time.perf_counter()
        self._child_seq = 0

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def finish(self) -> None:
        self.duration = time.perf_counter() - self._t0
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", repr(exc))
        self.finish()

    def to_wire(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "start": self.start_wall, "duration": self.duration,
                "pid": self.pid, "tid": self.tid, "attrs": dict(self.attrs)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id!r}, "
                f"dur={self.duration * 1e3:.2f}ms)")


class Tracer:
    """Produces spans for one process's share of a trace.

    ``parent`` seeds the tracer from a remote :class:`SpanContext`; spans
    opened with no enclosing local span become children of that remote
    span.  ``sink`` receives each finished span wire dict (in addition to
    it being appended to :attr:`finished`).
    """

    def __init__(self, trace_id: Optional[str] = None,
                 parent: Optional[SpanContext] = None,
                 sink: Optional[Callable[[Dict[str, Any]], None]] = None):
        if parent is not None:
            trace_id = parent.trace_id
        self.trace_id = trace_id or _new_trace_id()
        self.parent = parent
        self.pid = os.getpid()
        self.tid = threading.get_ident() % 100_000
        self.sink = sink
        self.finished: List[Dict[str, Any]] = []
        self._stack: List[Span] = []
        self._root_seq = 0
        self._lock = threading.Lock()

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, span_id: Optional[str] = None,
             **attrs: Any) -> Span:
        """Open a span as a child of the innermost open span (or of the
        remote parent context, or as a root).  Deterministic id unless an
        explicit ``span_id`` is given (used for cross-process item spans)."""
        with self._lock:
            if self._stack:
                parent_span = self._stack[-1]
                parent_id: Optional[str] = parent_span.span_id
                if span_id is None:
                    parent_span._child_seq += 1
                    span_id = f"{parent_id}.{parent_span._child_seq}"
            elif self.parent is not None:
                parent_id = self.parent.span_id
                if span_id is None:
                    self._root_seq += 1
                    span_id = f"{parent_id}.{self._root_seq}"
            else:
                parent_id = None
                if span_id is None:
                    self._root_seq += 1
                    span_id = str(self._root_seq)
            span = Span(self, name, span_id, parent_id, dict(attrs))
            self._stack.append(span)
            return span

    def _finish(self, span: Span) -> None:
        with self._lock:
            # Close any abandoned inner spans first (exception unwinding
            # without the context-manager protocol).
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
            wire = span.to_wire()
            self.finished.append(wire)
        if self.sink is not None:
            self.sink(wire)

    # -- context & collection ---------------------------------------------

    def context(self) -> SpanContext:
        """Context of the innermost open span (for propagation)."""
        with self._lock:
            if self._stack:
                return self._stack[-1].context()
        if self.parent is not None:
            return self.parent
        return SpanContext(self.trace_id, "0")

    def current_span_id(self) -> Optional[str]:
        with self._lock:
            return self._stack[-1].span_id if self._stack else None

    def drain(self) -> List[Dict[str, Any]]:
        """Pop and return all finished span wire dicts (worker shipping)."""
        with self._lock:
            out, self.finished = self.finished, []
        return out

    def ingest(self, span_wires: List[Dict[str, Any]]) -> None:
        """Adopt spans finished elsewhere (another process) into this
        tracer's collection."""
        with self._lock:
            self.finished.extend(span_wires)


def sort_key(span_wire: Dict[str, Any]) -> Tuple:
    """Stable ordering for exported spans: by start time, then id."""
    return (span_wire.get("start", 0.0), span_wire.get("span_id", ""))
