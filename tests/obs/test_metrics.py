"""Metrics registry: instruments, snapshots, merge/delta, Prometheus text."""

import pytest

from repro.obs import MetricsRegistry, merge_snapshots, prometheus_text


def test_counter_identity_and_labels():
    registry = MetricsRegistry()
    registry.counter("hits").inc()
    registry.counter("hits").inc(2)
    registry.counter("hits", worker="a").inc()
    assert registry.counter("hits") is registry.counter("hits")
    assert registry.counter("hits").value == 3
    assert registry.counter("hits", worker="a").value == 1


def test_gauge_set_inc_dec():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(5)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 4


def test_histogram_buckets_and_mean():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    assert hist.bucket_counts == [1, 2, 1]
    assert hist.count == 4
    assert hist.mean() == pytest.approx(6.05 / 4)


def test_snapshot_is_json_able_and_sorted():
    import json
    registry = MetricsRegistry()
    registry.counter("b").inc()
    registry.counter("a", x="1").inc()
    snapshot = registry.snapshot()
    json.dumps(snapshot)
    assert [row[0] for row in snapshot["counters"]] == ["a", "b"]


def test_merge_sums_counters_and_buckets_last_writes_gauges():
    worker1 = MetricsRegistry()
    worker1.counter("items").inc(3)
    worker1.gauge("depth").set(7)
    worker1.histogram("lat", buckets=(1.0,)).observe(0.5)
    worker2 = MetricsRegistry()
    worker2.counter("items").inc(4)
    worker2.gauge("depth").set(2)
    worker2.histogram("lat", buckets=(1.0,)).observe(3.0)
    merged = merge_snapshots([worker1.snapshot(), worker2.snapshot()])
    counters = {name: value for name, _l, value in merged["counters"]}
    gauges = {name: value for name, _l, value in merged["gauges"]}
    assert counters["items"] == 7
    assert gauges["depth"] == 2
    histogram = merged["histograms"][0][2]
    assert histogram["bucket_counts"] == [1, 1]
    assert histogram["count"] == 2


def test_merge_rejects_mismatched_bucket_bounds():
    registry = MetricsRegistry()
    registry.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
    other = MetricsRegistry()
    other.histogram("lat", buckets=(5.0,)).observe(0.5)
    with pytest.raises(ValueError, match="bounds mismatch"):
        registry.merge(other.snapshot())


def test_delta_since_ships_only_increments():
    registry = MetricsRegistry()
    registry.counter("items").inc(2)
    registry.histogram("lat", buckets=(1.0,)).observe(0.5)
    mark = registry.snapshot()
    delta = registry.delta_since(mark)
    assert delta["counters"] == []
    assert delta["histograms"] == []
    registry.counter("items").inc(3)
    registry.histogram("lat", buckets=(1.0,)).observe(2.0)
    delta = registry.delta_since(mark)
    assert delta["counters"] == [["items", [], 3]]
    assert delta["histograms"][0][2]["bucket_counts"] == [0, 1]
    assert delta["histograms"][0][2]["count"] == 1
    # Applying the delta to a copy of the mark reproduces the registry.
    rebuilt = MetricsRegistry()
    rebuilt.merge(mark)
    rebuilt.merge(delta)
    assert rebuilt.snapshot()["counters"] == registry.snapshot()["counters"]


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("hits", worker="a").inc(2)
    registry.gauge("depth").set(3)
    registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
    registry.counter("hits", worker='a"}\nfake 1\n\\').inc()
    text = prometheus_text(registry.snapshot())
    assert "# TYPE hits counter" in text
    assert 'hits{worker="a"} 2' in text
    assert "# TYPE depth gauge" in text
    assert "depth 3" in text
    assert 'lat_bucket{le="0.1"} 0' in text
    assert 'lat_bucket{le="1"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_sum 0.5" in text
    assert "lat_count 1" in text
    # A label value is escaped, so it cannot end its line early.
    assert 'hits{worker="a\\"}\\nfake 1\\n\\\\"} 1\n' in text
    assert not any(line.startswith("fake") for line in text.splitlines())


def test_prometheus_text_empty_snapshot():
    assert prometheus_text(MetricsRegistry().snapshot()) == ""
