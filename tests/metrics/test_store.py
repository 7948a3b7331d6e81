"""Unit tests for the metric store and label matchers."""

from math import inf

import pytest

from repro.metrics import LabelMatcher, MetricsServer, MetricStore


def test_record_creates_series_on_first_sight():
    store = MetricStore()
    store.record("requests", 1.0, timestamp=1.0, labels={"instance": "a"})
    assert len(store) == 1
    (series,) = store.select("requests", [LabelMatcher("instance", "=", "a")])
    assert series.value_at(inf) == 1.0


def test_record_appends_to_existing_series():
    store = MetricStore()
    store.record("m", 1.0, 1.0)
    store.record("m", 2.0, 2.0)
    assert len(store) == 1
    assert list(store.select("m")[0].window_arrays(-inf, inf)[1]) == [1.0, 2.0]


def test_distinct_labels_create_distinct_series():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"v": "a"})
    store.record("m", 2.0, 1.0, {"v": "b"})
    assert len(store) == 2


def test_select_by_name():
    store = MetricStore()
    store.record("a", 1.0, 1.0)
    store.record("b", 1.0, 1.0)
    assert len(store.select("a")) == 1
    assert store.select("missing") == []


def test_select_with_equality_matcher():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"instance": "search:80"})
    store.record("m", 2.0, 1.0, {"instance": "product:80"})
    matched = store.select("m", [LabelMatcher("instance", "=", "search:80")])
    assert len(matched) == 1
    assert matched[0].labels["instance"] == "search:80"


def test_select_with_negation_and_regex_matchers():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"v": "product_a"})
    store.record("m", 2.0, 1.0, {"v": "product_b"})
    store.record("m", 3.0, 1.0, {"v": "search"})
    assert len(store.select("m", [LabelMatcher("v", "!=", "search")])) == 2
    assert len(store.select("m", [LabelMatcher("v", "=~", "product_.*")])) == 2
    assert len(store.select("m", [LabelMatcher("v", "!~", "product_.*")])) == 1


def test_regex_matcher_is_anchored():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"v": "xproduct"})
    assert store.select("m", [LabelMatcher("v", "=~", "product")]) == []


def test_matcher_on_absent_label_compares_empty_string():
    store = MetricStore()
    store.record("m", 1.0, 1.0)
    assert len(store.select("m", [LabelMatcher("v", "=", "")])) == 1
    assert store.select("m", [LabelMatcher("v", "=", "x")]) == []


def test_bad_matcher_op_rejected():
    with pytest.raises(ValueError):
        LabelMatcher("a", "==", "b")


@pytest.mark.parametrize("op", ["=~", "!~"])
def test_regex_that_does_not_compile_rejected(op):
    with pytest.raises(ValueError, match="invalid regex"):
        LabelMatcher("a", op, "(")
    LabelMatcher("a", "=", "(")  # only regex matchers read it as a pattern


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_timestamp_rejected(bad):
    store = MetricStore(retention=10.0)
    store.record("m", 1.0, 1.0)
    generation = store.generation
    with pytest.raises(ValueError, match="non-finite"):
        store.record("m", 2.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        store.record("fresh", 2.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        store.record_batch([("fresh", 1.0, 2.0, None), ("m", 2.0, bad, None)])
    assert (len(store), store.generation) == (1, generation)
    # The ordering guard still holds, and retention kept the history.
    with pytest.raises(ValueError, match="out-of-order"):
        store.record("m", 3.0, 0.5)
    assert list(store.select("m")[0].window_arrays(-1.0, 100.0)[0]) == [1.0]
    store.record("m", float("nan"), 2.0)  # values may be NaN


@pytest.mark.parametrize(
    "name, labels",
    [
        ("", None),
        (None, None),
        ("m", {"a": [1]}),
        ("m", {"a": {"b": "c"}}),
        ("m", {"a": 1}),
        ("m", {"a": None}),
        ("m", {"": "b"}),
        ("m", {1: "b", "c": "d"}),  # unorderable label names
    ],
)
def test_unselectable_series_rejected_on_creation(name, labels):
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"a": "b"})
    before = (len(store), store.generation, store.series_generation)
    with pytest.raises(ValueError):
        store.record(name, 2.0, 2.0, labels)
    with pytest.raises(ValueError):
        store.record_batch([("fresh", 1.0, 2.0, None), (name, 2.0, 2.0, labels)])
    assert (len(store), store.generation, store.series_generation) == before


def test_retention_drops_old_samples():
    store = MetricStore(retention=10.0)
    store.record("m", 1.0, 0.0)
    store.record("m", 2.0, 5.0)
    store.record("m", 3.0, 20.0)  # triggers drop of t=0 and t=5
    series = store.select("m")[0]
    assert list(series.window_arrays(-inf, inf)[0]) == [20.0]


@pytest.mark.parametrize("bad", [-5.0, -1e-9, float("nan"), float("-inf")])
def test_negative_or_nan_retention_rejected(bad):
    # A negative one would trim every sample as it lands, turning the
    # out-of-order guard off; a NaN one would never trim.
    with pytest.raises(ValueError, match="retention"):
        MetricStore(retention=bad)
    with pytest.raises(ValueError, match="retention"):
        MetricsServer(retention=bad)


@pytest.mark.parametrize("retention", [None, 0.0, 10.0, float("inf")])
def test_retention_zero_or_more_is_accepted(retention):
    store = MetricStore(retention=retention)
    store.record("m", 1.0, 1.0)
    store.record("m", 2.0, 2.0)
    kept = list(store.select("m")[0].window_arrays(-1.0, 9.0)[0])
    assert kept == ([2.0] if retention == 0.0 else [1.0, 2.0])


def test_names():
    store = MetricStore()
    store.record("a", 1.0, 1.0)
    store.record("b", 1.0, 1.0)
    assert store.names() == {"a", "b"}
