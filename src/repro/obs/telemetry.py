"""The per-run telemetry bundle: one tracer + one metrics registry.

A :class:`Telemetry` object is created by the session (or a worker, seeded
from the job wire) when telemetry is enabled; everywhere else the absence
of telemetry is spelled ``None``, so disabled runs pay no construction and
no bookkeeping.

Worker flow: the coordinator puts ``telemetry.job_context()`` on the job
wire; the worker rebuilds a telemetry bundle with
:meth:`Telemetry.from_job_context` (same trace id, remote parent span), runs
its items, and ships ``drain_remote()`` — finished span wire dicts plus a
metrics *delta* — back on each item outcome.  The coordinator calls
:meth:`absorb` to stitch those into the session trace.
"""

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .export import spans_to_chrome, write_chrome_trace
from .metrics import MetricsRegistry, prometheus_text
from .trace import SpanContext, Tracer

__all__ = ["JobContext", "Telemetry"]


@dataclass(frozen=True)
class JobContext:
    """What a worker needs to continue the coordinator's trace: the span
    its items hang under and the knobs that shape its spans."""

    parent: SpanContext
    slice_packets: Optional[int] = None
    trace_fixpoints: bool = False


class Telemetry:
    def __init__(self, trace_id: Optional[str] = None,
                 parent: Optional[SpanContext] = None,
                 slice_packets: Optional[int] = None,
                 profile: bool = False,
                 trace_fixpoints: bool = False):
        self.tracer = Tracer(trace_id=trace_id, parent=parent)
        self.metrics = MetricsRegistry()
        self.slice_packets = slice_packets
        self.profile = profile
        self.trace_fixpoints = trace_fixpoints
        self.profiles: Dict[str, str] = {}
        self._shipped = self.metrics.snapshot()

    # -- tracing passthrough ----------------------------------------------

    @property
    def trace_id(self) -> str:
        return self.tracer.trace_id

    def span(self, name: str, span_id: Optional[str] = None, **attrs: Any):
        return self.tracer.span(name, span_id=span_id, **attrs)

    def spans(self) -> List[Dict[str, Any]]:
        return list(self.tracer.finished)

    # -- cross-process propagation ----------------------------------------

    def job_context(self) -> JobContext:
        """The span context and knobs a distrib job carries."""
        return JobContext(self.tracer.context(), self.slice_packets,
                          self.trace_fixpoints)

    @classmethod
    def from_job_context(cls, context: JobContext) -> "Telemetry":
        return cls(parent=context.parent,
                   slice_packets=context.slice_packets,
                   trace_fixpoints=context.trace_fixpoints)

    def drain_remote(self) -> Tuple[List[Dict[str, Any]], Dict[str, list]]:
        """Spans finished + metrics accrued since the last drain (worker
        side; the pair rides the item outcome back to the coordinator)."""
        spans = self.tracer.drain()
        delta = self.metrics.delta_since(self._shipped)
        self._shipped = self.metrics.snapshot()
        return spans, delta

    def absorb(self, spans: Optional[List[Dict[str, Any]]],
               metrics_delta: Optional[Dict[str, list]]) -> None:
        """Stitch a worker's drained spans/metrics into this bundle."""
        if spans:
            self.tracer.ingest(spans)
        if metrics_delta:
            self.metrics.merge(metrics_delta)

    # -- event stamping ----------------------------------------------------

    def stamp_event(self, event):
        """Attach trace/span ids to a frozen SessionEvent (or any frozen
        dataclass with ``trace_id``/``span_id`` fields)."""
        if getattr(event, "trace_id", None):
            return event
        span_id = self.tracer.current_span_id() or ""
        try:
            return dataclasses.replace(event, trace_id=self.trace_id,
                                       span_id=span_id)
        except TypeError:
            return event

    # -- export -------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        return spans_to_chrome(self.tracer.finished,
                               trace_id=self.trace_id)

    def write_chrome(self, path: str) -> Dict[str, Any]:
        return write_chrome_trace(self.tracer.finished, path,
                                  trace_id=self.trace_id)

    def prometheus(self) -> str:
        return prometheus_text(self.metrics.snapshot())
