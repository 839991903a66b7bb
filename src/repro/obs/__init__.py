"""Observability for the repair pipeline: tracing, metrics, profiling.

The package is deliberately dependency-free (stdlib only, nothing from the
rest of ``repro`` but the :mod:`repro._lazy` leaf) so every layer — ndlog
engine, backtesters, distrib fabric, API session, CLI — can hook into it
without import cycles.

Three pillars:

``trace``
    Span-based tracer with deterministic hierarchical span ids
    (``1``, ``1.2``, ``1.2.c3`` …) and wire-format span context so worker
    processes stitch their spans under the coordinator's trace.

``metrics``
    A registry of counters / gauges / histograms that snapshots to plain
    JSON-able dicts and merges across workers (sum counters, sum histogram
    buckets, last-write gauges).

``export``
    JSONL span logs, Chrome ``trace_event`` JSON (loadable in Perfetto /
    ``chrome://tracing``), and a Prometheus-style text dump — plus a
    strict validator for the Chrome format used by tests and CI.

``Telemetry`` bundles the three behind one object. The disabled state is
represented by ``None`` everywhere (``session.telemetry is None``,
``engine.tracer is None``), so the cost when off is a single attribute
load + ``is None`` test on coarse-grained paths and literally nothing on
per-tuple paths.
"""

from .._lazy import lazy_exports
from .metrics import MetricsRegistry, merge_snapshots, prometheus_text

# The event bus counts into a ``MetricsRegistry`` in every session; spans,
# exporters and the profiler load only when telemetry is switched on.
__getattr__, __dir__ = lazy_exports(__name__, {
    "export": ("spans_to_chrome", "spans_to_jsonl", "validate_chrome_trace",
               "write_chrome_trace"),
    "profile": ("StageProfiler",),
    "telemetry": ("Telemetry",),
    "trace": ("Span", "SpanContext", "Tracer"),
})

__all__ = [
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "StageProfiler",
    "Telemetry",
    "Tracer",
    "merge_snapshots",
    "prometheus_text",
    "spans_to_chrome",
    "spans_to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
]
