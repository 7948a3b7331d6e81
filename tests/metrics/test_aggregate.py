"""Tests for the range-function reductions over the ring window."""

from repro.metrics import (
    MetricStore,
    SeriesKey,
    TimeSeries,
    evaluate_scalar,
    planner_for,
)
from repro.metrics.aggregate import RANGE_REFERENCE, rescan_value

FUNCTIONS = sorted(RANGE_REFERENCE)


def _series(samples):
    series = TimeSeries(SeriesKey("m"))
    for timestamp, value in samples:
        series.append_ordered(timestamp, value)
    return series


def test_incremental_matches_rescan_on_growing_series():
    store = MetricStore()
    for t in range(50):
        store.record("m", float(t * 3 % 17), float(t))
        series = store.select("m")[0]
        # Reads after every append, at the head and behind it.
        for at in (float(t), t - 4.5):
            for function in FUNCTIONS:
                expected = rescan_value(series, function, 12.0, at)
                got = evaluate_scalar(store, f"{function}(m[12s])", at)
                assert got == expected, (function, at, got, expected)


def test_window_advance_evicts_and_stays_correct():
    series = _series([(float(t), float(t)) for t in range(20)])
    # The window is (at - 5, at]: sliding it drops samples off the left.
    assert rescan_value(series, "sum_over_time", 5.0, 10.0) == 6 + 7 + 8 + 9 + 10
    assert rescan_value(series, "sum_over_time", 5.0, 15.0) == 11 + 12 + 13 + 14 + 15
    assert rescan_value(series, "count_over_time", 5.0, 19.0) == 5.0
    assert rescan_value(series, "min_over_time", 5.0, 19.0) == 15.0


def test_counter_reset_contribution():
    series = _series([(0.0, 10.0), (1.0, 20.0), (2.0, 3.0), (3.0, 8.0)])
    # +10, then a reset contributes the new value (3), then +5.
    assert rescan_value(series, "rate", 10.0, 3.0) == 18.0 / 3.0
    assert rescan_value(series, "increase", 10.0, 3.0) == 18.0


def test_backwards_query_falls_back_to_rescan():
    series = _series([(float(t), float(t)) for t in range(10)])
    assert rescan_value(series, "sum_over_time", 4.0, 9.0) == 6 + 7 + 8 + 9
    # Behind the newest sample: the window ends at 5, later samples ignored.
    assert rescan_value(series, "sum_over_time", 4.0, 5.0) == 2 + 3 + 4 + 5
    assert rescan_value(series, "max_over_time", 4.0, 5.0) == 5.0


def test_widening_window_behind_floor_falls_back():
    store = MetricStore()
    for t in range(20):
        store.record("m", float(t), float(t))
    planner = planner_for(store)
    assert planner.evaluate_scalar(store, "sum_over_time(m[5s])", 19.0) == sum(
        range(15, 20)
    )
    # An earlier instant, then a wider window reaching behind the first
    # read's left edge: every answer rescans the samples it covers.
    assert planner.evaluate_scalar(store, "sum_over_time(m[5s])", 15.0) == sum(
        range(11, 16)
    )
    assert planner.evaluate_scalar(store, "sum_over_time(m[12s])", 15.0) == sum(
        range(4, 16)
    )
    assert planner.evaluate_scalar(store, "count_over_time(m[60s])", 15.0) == 16.0


def test_truncate_mirrors_drop_before():
    store = MetricStore(retention=10.0)
    for t in range(8):
        store.record("m", float(t), float(t))
    assert evaluate_scalar(store, "count_over_time(m[30s])", 7.0) == 8.0
    # Ingest far enough ahead that retention trims the old prefix: a window
    # reaching back over it sees only what the ring kept.
    store.record("m", 99.0, 25.0)
    assert list(store.select("m")[0].window_arrays(-1.0, 99.0)[0]) == [25.0]
    assert evaluate_scalar(store, "sum_over_time(m[30s])", 25.0) == 99.0
    assert evaluate_scalar(store, "count_over_time(m[30s])", 7.0) is None


def test_empty_window_reports_none():
    series = _series([(0.0, 1.0), (1.0, 2.0)])
    for function in FUNCTIONS:
        assert rescan_value(series, function, 5.0, 100.0) is None, function
    # rate/increase need two samples with time between them.
    single = _series([(0.0, 1.0)])
    assert rescan_value(single, "rate", 5.0, 0.0) is None
    same_instant = _series([(0.0, 1.0), (0.0, 2.0)])
    assert rescan_value(same_instant, "increase", 5.0, 0.0) is None
