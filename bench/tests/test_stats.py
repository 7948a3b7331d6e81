import pytest

from bench import stats


def test_percentile_is_nearest_rank_and_returns_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.9) == 5.0
    assert stats.percentile(values, 0.2) == 1.0
    assert stats.percentile(values, 1.0) == 5.0
    hundred = list(range(1, 101))
    assert stats.percentile(hundred, 0.9) == 90
    assert stats.percentile(hundred, 0.99) == 99


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(200, 0.9) == 20
    assert stats.samples_beyond(199, 0.9) == 19
    assert stats.samples_beyond(600, 0.99) == 6


def test_a_percentile_needs_twenty_samples_beyond_it():
    assert stats.supports_percentile(200, 0.9)
    assert not stats.supports_percentile(199, 0.9)
    # p99 would need 2000 samples a window: that is why it is a diagnostic.
    assert not stats.supports_percentile(600, 0.99)
    assert stats.supports_percentile(2000, 0.99)


def test_median_of_even_and_odd_counts():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert stats.median(x for x in (7.0,)) == 7.0
    with pytest.raises(ValueError):
        stats.median([])


def test_trend_ratio_compares_the_halves():
    assert stats.trend_ratio([10.0] * 20) == 1.0
    drifting = [100.0] * 10 + [90.0] * 10
    assert stats.trend_ratio(drifting) == pytest.approx(0.9)
    # One outlier per half does not move a median.
    assert stats.trend_ratio([10.0, 10.0, 99.0, 10.0, 10.0, 1.0]) == 1.0


def test_spreads():
    values = [98.0, 99.0, 100.0, 101.0, 102.0, 103.0]
    assert stats.range_spread(values) == pytest.approx(5.0 / 100.5)
    # statistics.quantiles (exclusive): Q1 = 98.75, Q3 = 102.25.
    assert stats.quartile_spread(values) == pytest.approx(3.5 / 100.5)


def test_fingerprint_is_canonical():
    assert stats.fingerprint({"a": 1, "b": [1, 2]}) == stats.fingerprint({"b": [1, 2], "a": 1})
    assert stats.fingerprint({"a": 1}) != stats.fingerprint({"a": 2})
    assert len(stats.fingerprint([])) == 64
