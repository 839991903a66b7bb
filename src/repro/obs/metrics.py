"""Metrics registry: counters, gauges, histograms — snapshot & merge.

Instruments are looked up by ``(name, sorted label items)`` and cached, so
hot paths hold a reference to the instrument and pay one attribute-level
``+=`` per update.  Snapshots are plain JSON-able dicts; ``merge_snapshots``
folds worker snapshots into a session-level view (counters and histogram
buckets sum, gauges are last-write — distinguish workers with labels).

Prometheus-style text output is provided for the ``repro stats`` CLI and
the exporters; it is a *style* match (``name{labels} value`` lines with
``# TYPE`` headers), not a wire-exact scrape endpoint.
"""

import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "merge_snapshots", "prometheus_text"]

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   30.0, 60.0)


class Counter:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +1: +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.total += value
        self.count += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Registry of named, labelled instruments."""

    def __init__(self):
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        self._lock = threading.Lock()

    # -- instrument lookup (cached) ---------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_items(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_items(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels: object) -> Histogram:
        key = (name, _label_items(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(buckets or DEFAULT_BUCKETS))
        return instrument

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> Dict[str, list]:
        """JSON-able snapshot: lists of [name, labels, payload] rows."""
        with self._lock:
            counters = [[name, [list(kv) for kv in labels], c.value]
                        for (name, labels), c in sorted(self._counters.items())]
            gauges = [[name, [list(kv) for kv in labels], g.value]
                      for (name, labels), g in sorted(self._gauges.items())]
            histograms = [[name, [list(kv) for kv in labels],
                           {"bounds": list(h.bounds),
                            "bucket_counts": list(h.bucket_counts),
                            "sum": h.total, "count": h.count}]
                          for (name, labels), h
                          in sorted(self._histograms.items())]
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge(self, snapshot: Dict[str, list]) -> None:
        """Fold another registry's snapshot (or delta) into this one."""
        for name, labels, value in snapshot.get("counters", ()):
            if value:
                self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in snapshot.get("gauges", ()):
            self.gauge(name, **dict(labels)).set(value)
        for name, labels, payload in snapshot.get("histograms", ()):
            hist = self.histogram(name, buckets=tuple(payload["bounds"]),
                                  **dict(labels))
            if list(hist.bounds) != list(payload["bounds"]):
                raise ValueError(
                    f"histogram {name!r} bucket bounds mismatch on merge")
            for i, count in enumerate(payload["bucket_counts"]):
                hist.bucket_counts[i] += count
            hist.total += payload["sum"]
            hist.count += payload["count"]

    def delta_since(self, previous: Dict[str, list]) -> Dict[str, list]:
        """Snapshot minus a previous snapshot (for incremental shipping).

        Counters and histograms subtract; gauges report current values.
        """
        current = self.snapshot()
        prev_counters = {(name, tuple(map(tuple, labels))): value
                         for name, labels, value
                         in previous.get("counters", ())}
        counters = []
        for name, labels, value in current["counters"]:
            base = prev_counters.get((name, tuple(map(tuple, labels))), 0.0)
            if value - base:
                counters.append([name, labels, value - base])
        prev_hists = {(name, tuple(map(tuple, labels))): payload
                      for name, labels, payload
                      in previous.get("histograms", ())}
        histograms = []
        for name, labels, payload in current["histograms"]:
            base = prev_hists.get((name, tuple(map(tuple, labels))))
            if base is None:
                if payload["count"]:
                    histograms.append([name, labels, payload])
                continue
            delta_counts = [c - b for c, b in zip(payload["bucket_counts"],
                                                  base["bucket_counts"])]
            if any(delta_counts):
                histograms.append([name, labels, {
                    "bounds": payload["bounds"],
                    "bucket_counts": delta_counts,
                    "sum": payload["sum"] - base["sum"],
                    "count": payload["count"] - base["count"]}])
        return {"counters": counters, "gauges": current["gauges"],
                "histograms": histograms}


def merge_snapshots(snapshots: Iterable[Dict[str, list]]) -> Dict[str, list]:
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


#: The text format's escapes for a label value; a tenant name is one.
_LABEL_VALUE_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def _format_labels(labels: List[list]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{str(v).translate(_LABEL_VALUE_ESCAPES)}"'
                     for k, v in labels)
    return "{" + inner + "}"


def prometheus_text(snapshot: Dict[str, list]) -> str:
    """Prometheus exposition-style text for a registry snapshot."""
    lines: List[str] = []
    seen_types: Dict[str, str] = {}

    def type_header(name: str, kind: str) -> None:
        if seen_types.get(name) != kind:
            lines.append(f"# TYPE {name} {kind}")
            seen_types[name] = kind

    for name, labels, value in snapshot.get("counters", ()):
        type_header(name, "counter")
        lines.append(f"{name}{_format_labels(labels)} {value:g}")
    for name, labels, value in snapshot.get("gauges", ()):
        type_header(name, "gauge")
        lines.append(f"{name}{_format_labels(labels)} {value:g}")
    for name, labels, payload in snapshot.get("histograms", ()):
        type_header(name, "histogram")
        cumulative = 0
        for bound, count in zip(payload["bounds"],
                                payload["bucket_counts"]):
            cumulative += count
            bucket_labels = labels + [["le", f"{bound:g}"]]
            lines.append(
                f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}")
        cumulative += payload["bucket_counts"][-1]
        lines.append(
            f"{name}_bucket{_format_labels(labels + [['le', '+Inf']])} "
            f"{cumulative}")
        lines.append(f"{name}_sum{_format_labels(labels)} "
                     f"{payload['sum']:g}")
        lines.append(f"{name}_count{_format_labels(labels)} "
                     f"{payload['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
