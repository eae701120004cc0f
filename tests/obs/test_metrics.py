"""Unit tests for the metrics registry and its instruments."""

import json

import pytest

from repro.obs import MetricsRegistry, NULL_METRICS


def test_counter_labels_and_total():
    registry = MetricsRegistry()
    counter = registry.counter("steal.edges_by_pair")
    counter.inc(10, home=0, worker=3)
    counter.inc(5, home=0, worker=3)
    counter.inc(2, home=1, worker=0)
    counter.inc()  # unlabelled series
    assert counter.value(home=0, worker=3) == 15
    assert counter.value(home=1, worker=0) == 2
    assert counter.value() == 1
    assert counter.total() == 18
    snap = counter.snapshot()
    assert snap["type"] == "counter"
    assert snap["series"]["home=0,worker=3"] == 15


def test_gauge_last_write_wins():
    registry = MetricsRegistry()
    gauge = registry.gauge("osteal.group_size")
    assert gauge.value() is None
    gauge.set(8)
    gauge.set(2)
    assert gauge.value() == 2.0
    assert gauge.snapshot() == {"type": "gauge", "value": 2.0}


def test_histogram_stats_and_decade_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("fsteal.solve_seconds")
    for value in (0.002, 0.004, 0.02, 3.0, 0.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.min == 0.0
    assert hist.max == 3.0
    assert hist.mean == pytest.approx(3.026 / 5)
    snap = hist.snapshot()
    assert snap["decade_buckets"]["1e-3"] == 2
    assert snap["decade_buckets"]["1e-2"] == 1
    assert snap["decade_buckets"]["1e0"] == 1
    assert snap["decade_buckets"]["0"] == 1


def test_registry_get_or_create_and_kind_clash():
    registry = MetricsRegistry()
    first = registry.counter("x")
    assert registry.counter("x") is first
    with pytest.raises(TypeError, match="already registered"):
        registry.gauge("x")
    assert registry.names() == ["x"]


def test_registry_snapshot_is_json_friendly():
    registry = MetricsRegistry()
    registry.counter("a").inc(2, k="v")
    registry.gauge("b").set(1.5)
    registry.histogram("c").observe(0.5)
    snap = registry.snapshot()
    assert set(snap) == {"a", "b", "c"}
    json.dumps(snap)


def test_null_metrics_is_inert():
    assert NULL_METRICS.enabled is False
    counter = NULL_METRICS.counter("anything")
    counter.inc(100, label="x")
    assert counter.total() == 0.0
    NULL_METRICS.gauge("g").set(5)
    NULL_METRICS.histogram("h").observe(1.0)
    assert NULL_METRICS.snapshot() == {}


def test_snapshot_is_json_stable():
    """Identical metric activity must serialize to identical bytes.

    The run registry diffs archived snapshots, so key order and scalar
    types cannot depend on insertion order or numpy input types.
    """
    import numpy as np

    def build(shuffle):
        registry = MetricsRegistry()
        names = ["z.counter", "a.gauge", "m.histogram"]
        if shuffle:
            names = list(reversed(names))
        for name in names:
            if name.endswith("counter"):
                registry.counter(name).inc(np.int64(3), gpu=np.int64(1))
            elif name.endswith("gauge"):
                registry.gauge(name).set(np.float32(2.0))
            else:
                registry.histogram(name).observe(np.float64(0.25))
        return registry.snapshot()

    first = json.dumps(build(False), sort_keys=True)
    second = json.dumps(build(True), sort_keys=True)
    assert first == second
    # every leaf is a plain python scalar, not a numpy type
    snap = build(False)
    assert type(snap["z.counter"]["total"]) is float
    assert type(snap["z.counter"]["series"]["gpu=1"]) is float
    assert type(snap["a.gauge"]["value"]) is float
    assert type(snap["m.histogram"]["count"]) is int
    assert type(snap["m.histogram"]["sum"]) is float
