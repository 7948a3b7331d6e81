"""Unit tests for counters, gauges, histograms, and the registry."""

import pytest

from repro.metrics import Registry


@pytest.fixture
def registry():
    return Registry()


def test_counter_increments(registry):
    counter = registry.counter("hits")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5


def test_counter_rejects_negative(registry):
    counter = registry.counter("hits")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_with_labels(registry):
    counter = registry.counter("http_requests", label_names=("code",))
    counter.labels(code="200").inc(3)
    counter.labels(code="500").inc()
    points = {tuple(p.labels.items()): p.value for p in counter.collect()}
    assert points == {(("code", "200"),): 3.0, (("code", "500"),): 1.0}


def test_labelled_metric_requires_labels_call(registry):
    counter = registry.counter("c", label_names=("x",))
    with pytest.raises(ValueError):
        counter.inc()


def test_labels_must_match_declared_names(registry):
    counter = registry.counter("c", label_names=("x",))
    with pytest.raises(ValueError):
        counter.labels(y="1")
    with pytest.raises(ValueError):
        counter.labels(x="1", y="2")


def test_labels_returns_same_child_for_same_values(registry):
    counter = registry.counter("c", label_names=("x",))
    assert counter.labels(x="1") is counter.labels(x="1")
    assert counter.labels(x="1") is not counter.labels(x="2")


def test_gauge_set(registry):
    gauge = registry.gauge("inflight")
    gauge.set(10)
    gauge.set(8)
    assert [(p.name, p.value) for p in gauge.collect()] == [("inflight", 8)]


def test_labelled_gauge_requires_labels_call(registry):
    gauge = registry.gauge("g", label_names=("x",))
    with pytest.raises(ValueError):
        gauge.set(1)


def test_histogram_observe_and_collect(registry):
    histogram = registry.histogram("latency", buckets=(0.1, 1.0))
    for value in [0.05, 0.5, 0.7, 5.0]:
        histogram.observe(value)
    points = {(p.name, p.labels.get("le")): p.value for p in histogram.collect()}
    assert points[("latency_bucket", "0.1")] == 1.0
    assert points[("latency_bucket", "1")] == 3.0
    assert points[("latency_bucket", "+Inf")] == 4.0
    assert points[("latency_sum", None)] == pytest.approx(6.25)
    assert points[("latency_count", None)] == 4.0


def test_histogram_boundary_value_falls_in_bucket(registry):
    histogram = registry.histogram("h", buckets=(1.0,))
    histogram.observe(1.0)  # le="1" is cumulative <= 1.0
    points = {p.labels.get("le"): p.value for p in histogram.collect() if "bucket" in p.name}
    assert points["1"] == 1.0


def test_histogram_with_labels(registry):
    histogram = registry.histogram("h", label_names=("path",), buckets=(1.0,))
    histogram.labels(path="/a").observe(0.5)
    histogram.labels(path="/b").observe(2.0)
    counts = {
        p.labels["path"]: p.value
        for p in histogram.collect()
        if p.name == "h_count"
    }
    assert counts == {"/a": 1.0, "/b": 1.0}
    sums = {p.labels["path"]: p.value for p in histogram.collect() if p.name == "h_sum"}
    assert sums["/b"] == 2.0


def test_registry_rejects_duplicate_names(registry):
    registry.counter("dup")
    with pytest.raises(ValueError):
        registry.gauge("dup")


def test_registry_collect_combines_all_metrics(registry):
    registry.counter("a").inc()
    registry.gauge("b").set(2)
    names = {p.name for p in registry.collect()}
    assert names == {"a", "b"}
