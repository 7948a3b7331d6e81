"""Tests for batched ingest (``record_batch``)."""

import pytest

from repro.metrics import LabelMatcher, MetricStore


def _snapshot(store):
    return {
        str(key): list(zip(*series.window_arrays(float("-inf"), float("inf"))))
        for key, series in (
            (series.key, series)
            for name in store.names()
            for series in store.select(name)
        )
    }


BATCH = [
    ("hits_total", 1.0, 10.0, {"instance": "a"}),
    ("hits_total", 2.0, 11.0, {"instance": "a"}),
    ("hits_total", 5.0, 10.0, {"instance": "b"}),
    ("errs_total", 0.0, 10.0, None),
]


def test_batch_equals_per_point_ingest():
    batched, pointwise = MetricStore(), MetricStore()
    assert batched.record_batch(BATCH) == len(BATCH)
    for name, value, timestamp, labels in BATCH:
        pointwise.record(name, value, timestamp, labels)
    assert _snapshot(batched) == _snapshot(pointwise)
    assert batched.series_generation == pointwise.series_generation


def test_batch_bumps_generation_once():
    store = MetricStore()
    before = store.generation
    store.record_batch(BATCH)
    assert store.generation == before + 1
    assert store.record_batch([]) == 0
    assert store.generation == before + 1


def test_batch_invalidates_selector_cache_for_new_series():
    store = MetricStore()
    store.record("hits_total", 1.0, 1.0, {"instance": "a"})
    matcher = [LabelMatcher("instance", "=", "b")]
    assert store.select("hits_total", matcher) == []
    store.record_batch([("hits_total", 2.0, 2.0, {"instance": "b"})])
    assert len(store.select("hits_total", matcher)) == 1


def test_out_of_order_mid_batch_aborts_whole_batch():
    store = MetricStore()
    store.record("hits_total", 1.0, 50.0, {"instance": "a"})
    generation = store.generation
    bad = [
        ("errs_total", 1.0, 60.0, None),  # would create a series
        ("hits_total", 2.0, 40.0, {"instance": "a"}),  # behind the floor
    ]
    with pytest.raises(ValueError):
        store.record_batch(bad)
    assert store.generation == generation
    assert store.names() == {"hits_total"}
    assert list(store.select("hits_total")[0].window_arrays(0.0, 99.0)[0]) == [50.0]


def test_in_batch_ordering_violation_detected():
    store = MetricStore()
    with pytest.raises(ValueError):
        store.record_batch(
            [("m", 1.0, 10.0, None), ("m", 2.0, 9.0, None)]
        )
    assert len(store) == 0


def test_equal_timestamps_in_batch_are_allowed():
    store = MetricStore()
    assert store.record_batch([("m", 1.0, 5.0, None), ("m", 2.0, 5.0, None)]) == 2


def test_batch_applies_retention():
    store = MetricStore(retention=10.0)
    store.record_batch(
        [("m", float(t), float(t), None) for t in range(0, 40, 5)]
    )
    series = store.select("m")[0]
    assert list(series.window_arrays(-1.0, 99.0)[0]) == [25.0, 30.0, 35.0]


def test_label_orders_of_one_new_series_meet_in_a_batch():
    store = MetricStore()
    with pytest.raises(ValueError, match="out-of-order"):
        store.record_batch(
            [("m", 1.0, 9.0, {"a": "1", "b": "2"}), ("m", 2.0, 8.0, {"b": "2", "a": "1"})]
        )
    assert len(store) == 0
    store.record_batch(
        [("m", 1.0, 8.0, {"a": "1", "b": "2"}), ("m", 2.0, 9.0, {"b": "2", "a": "1"})]
    )
    [series] = store.select("m")
    assert list(series.window_arrays(0.0, 10.0)[1]) == [1.0, 2.0]


def test_rejected_batch_leaves_no_index_entry():
    store = MetricStore()
    store.record("m", 1.0, 5.0)
    index = dict(store._by_sent)
    fresh = ("fresh", 1.0, 1.0, {"b": "2", "a": "1"})
    with pytest.raises(ValueError, match="out-of-order"):
        store.record_batch([fresh, ("m", 2.0, 4.0, None)])
    # The as-sent index gained nothing, so no entry names the series the
    # refused batch would have created.
    assert store._by_sent == index
    assert store.names() == {"m"}
    generation = store.series_generation
    store.record_batch([fresh, ("fresh", 2.0, 2.0, {"a": "1", "b": "2"})])
    assert store.series_generation == generation + 1
    [series] = store.select("fresh")
    assert list(series.window_arrays(0.0, 9.0)[1]) == [1.0, 2.0]
    # One index entry per label order, both naming the one series.
    assert [found for key, found in store._by_sent.items() if key[0] == "fresh"] == [
        series,
        series,
    ]
