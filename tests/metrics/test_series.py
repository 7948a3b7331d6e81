"""Unit tests for time series and series keys."""

from math import inf

import pytest

from repro.metrics import MetricStore, SeriesKey, TimeSeries


def make_series(samples):
    series = TimeSeries(SeriesKey("m"))
    for timestamp, value in samples:
        series.append_ordered(timestamp, value)
    return series


def pairs(series, start=-inf, end=inf):
    """The ``(timestamp, value)`` samples of *series* in ``(start, end]``."""
    return list(zip(*series.window_arrays(start, end)))


def test_series_key_identity_ignores_label_order():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"x": "1", "y": "2"})
    store.record("m", 2.0, 2.0, {"y": "2", "x": "1"})
    (series,) = store.select("m")
    assert series.key == SeriesKey("m", (("x", "1"), ("y", "2")))
    assert pairs(series) == [(1.0, 1.0), (2.0, 2.0)]


def test_series_key_str_rendering():
    assert str(SeriesKey("up")) == "up"
    assert str(SeriesKey("up", (("job", "api"),))) == 'up{job="api"}'


def test_append_and_len():
    series = make_series([(1, 10), (2, 20)])
    assert pairs(series) == [(1, 10), (2, 20)]


def test_append_rejects_out_of_order():
    # The store checks order before it appends (append_ordered trusts it).
    store = MetricStore()
    store.record("m", 1, 5)
    with pytest.raises(ValueError, match=r"out-of-order sample for m: 4"):
        store.record("m", 2, 4)


def test_append_allows_equal_timestamps():
    store = MetricStore()
    store.record("m", 1, 5)
    store.record("m", 2, 5)
    assert pairs(store.select("m")[0]) == [(5, 1), (5, 2)]


def test_latest():
    assert make_series([]).newest_timestamp is None
    assert make_series([]).value_at(inf) is None
    series = make_series([(1, 10), (3, 30)])
    assert series.newest_timestamp == 3
    assert series.value_at(inf) == 30


def test_at_returns_newest_at_or_before():
    series = make_series([(1, 10), (3, 30), (5, 50)])
    assert series.value_at(3) == 30
    assert series.value_at(4) == 30
    assert series.value_at(0.5) is None
    assert series.value_at(100) == 50


def test_at_respects_staleness():
    series = make_series([(1, 10)])
    assert series.value_at(100, staleness=10) is None
    assert series.value_at(10, staleness=10) == 10


def test_window_is_half_open():
    series = make_series([(1, 10), (2, 20), (3, 30), (4, 40)])
    # start exclusive, end inclusive
    assert pairs(series, 1, 3) == [(2, 20), (3, 30)]


def test_window_empty_range():
    series = make_series([(1, 10)])
    assert pairs(series, 5, 10) == []


def test_drop_before():
    series = make_series([(1, 10), (2, 20), (3, 30)])
    dropped = series.drop_before(2)
    assert dropped == 1
    assert pairs(series) == [(2, 20), (3, 30)]
    assert series.drop_before(0) == 0
