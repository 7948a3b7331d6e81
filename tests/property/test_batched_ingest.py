"""Batched ingest vs per-point recording, over random op interleavings.

Random sequences of single-sample ``record`` calls and multi-sample
``record_batch`` calls (some deliberately invalid) are applied to a store
under test and mirrored point-by-point onto :class:`PerPoint`, a reference
that appends straight to ``TimeSeries`` one sample at a time (``record``
is a batch of one, so it cannot be its own oracle).  A batch that would
fail validation must raise and leave the store byte-identical to before
the call (atomicity); a valid batch must leave the store in exactly the
state per-point recording produces.

The label strategy covers the shapes the batch plan distinguishes: one
dict object shared across names (the scraper's memoized
``{"instance": ...}``), equal dicts that are not the same object, and
label values that could never be selected (the batch is refused, even
when it would also have created a good series).
"""

from math import isfinite

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import MetricStore, SeriesKey, TimeSeries
from repro.metrics.aggregate import RANGE_REFERENCE, resum_interval, state_for

NAMES = ["alpha_total", "beta_total", "gamma_seconds", "delta_bytes"]
LABELS = [None, {"instance": "a"}, {"instance": "b", "zone": "z1"}]
#: Label maps no string matcher selects: a sample carrying one is refused.
BAD_LABELS = [{"instance": 7}, {"instance": ["a"]}, {"": "a"}]
#: How a sample's label map is drawn: mostly the shared objects themselves,
#: often an equal copy, rarely a bad map.
KINDS = ["shared"] * 6 + ["copy"] * 3 + ["bad"]


def _labels(kind, shared, bad):
    if kind == "bad":
        return bad
    if kind == "copy" and shared is not None:
        return dict(shared)
    return shared


samples = st.tuples(
    st.sampled_from(NAMES),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.builds(
        _labels, st.sampled_from(KINDS), st.sampled_from(LABELS), st.sampled_from(BAD_LABELS)
    ),
)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), samples),
        st.tuples(st.just("batch"), st.lists(samples, max_size=8)),
    ),
    max_size=30,
)


def _selectable(labels):
    return all(label and isinstance(value, str) for label, value in (labels or {}).items())


class PerPoint:
    """Reference store: one ``TimeSeries.append`` and one trim per sample."""

    def __init__(self, retention=None):
        self.retention = retention
        self.by_key = {}
        self.generation = 0
        self.series_generation = 0

    def record(self, name, value, timestamp, labels):
        if not isfinite(timestamp) or not _selectable(labels):
            raise ValueError(name)
        key = SeriesKey.make(name, labels)
        series = self.by_key.get(key)
        if series is None:
            series = self.by_key[key] = TimeSeries(key)
            self.series_generation += 1
        series.append(timestamp, value)  # raises on out-of-order
        if self.retention is not None and series.oldest_timestamp < timestamp - self.retention:
            series.drop_before(timestamp - self.retention)
        self.generation += 1

    def all_series(self):
        return list(self.by_key.values())

    def __len__(self):
        return len(self.by_key)


def _all_series(store):
    if isinstance(store, PerPoint):
        return store.all_series()
    return [series for name in store.names() for series in store.select(name)]


def _snapshot(store):
    state = {}
    for series in _all_series(store):
        timestamps, values = series.window_arrays(float("-inf"), float("inf"))
        state[series.key] = (list(timestamps), list(values))
    return state


def _shape(store):
    return len(store), store.series_generation


def _batch_is_valid(store, batch):
    """Pure pre-check mirroring record_batch's plan phase."""
    floors = {}
    for name, value, timestamp, labels in batch:
        if not _selectable(labels):
            return False  # never names an existing series, and cannot create one
        key = SeriesKey.make(name, labels)
        if key not in floors:
            series = store.series(key)
            floors[key] = series.newest_timestamp if series is not None else None
        floor = floors[key]
        if floor is not None and timestamp < floor:
            return False
        floors[key] = timestamp
    return True


def _step(store, reference, op):
    """Apply *op* to *store* as drawn and to *reference* one point at a time."""
    if op[0] == "record":
        name, value, timestamp, labels = op[1]
        outcomes = []
        for target in (store, reference):
            try:
                target.record(name, value, timestamp, labels)
                outcomes.append(True)
            except ValueError:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1]
        return
    batch = op[1]
    if _batch_is_valid(store, batch):
        assert store.record_batch(batch) == len(batch)
        for sample in batch:
            reference.record(*sample)  # a valid batch is valid point by point
    else:
        before, shape, generation = _snapshot(store), _shape(store), store.generation
        with pytest.raises(ValueError):
            store.record_batch(batch)
        # Atomic: nothing landed, no series was created, no stamp moved.
        assert _snapshot(store) == before
        assert (_shape(store), store.generation) == (shape, generation)


@settings(max_examples=150, deadline=None)
@given(ops_list=ops)
def test_batched_equals_per_point_on_monolithic_store(ops_list):
    batched = MetricStore()
    reference = PerPoint()
    for op in ops_list:
        _step(batched, reference, op)
    assert _snapshot(batched) == _snapshot(reference)
    assert _shape(batched) == _shape(reference)


WINDOWS = (5.0, 30.0)


def _readings(store, at):
    """Every range function over every (series, window) state at *at*.

    Attaches the states on first sight, as a query would; reading evicts,
    so both stores must be read with the same calls in the same order.
    """
    readings = {}
    for series in sorted(_all_series(store), key=lambda series: series.key):
        for window in WINDOWS:
            state = state_for(series, window)
            for function in RANGE_REFERENCE:
                readings[(series.key, window, function)] = state.value(function, at)
    return readings


@settings(max_examples=100, deadline=None)
@given(ops_list=ops)
def test_batched_aggregates_equal_per_point_under_retention(ops_list):
    # A re-sum after every eviction makes each state's sums a pure function
    # of its window contents, so equal aggregates means bit-identical ones.
    with resum_interval(1):
        batched = MetricStore(retention=20.0)
        reference = PerPoint(retention=20.0)
        at = 0.0
        for op in ops_list:
            _step(batched, reference, op)
            entries = [op[1]] if op[0] == "record" else op[1]
            at = max([at] + [timestamp for _, _, timestamp, _ in entries])
            assert _readings(batched, at) == _readings(reference, at)
        assert _snapshot(batched) == _snapshot(reference)


def test_non_consecutive_repeats_land_in_order():
    a, b = {"instance": "a"}, {"instance": "b"}
    batched, reference = MetricStore(), PerPoint()
    batch = [
        ("m", 1.0, 1.0, a),
        ("m", 2.0, 1.0, b),
        ("n", 3.0, 1.0, a),  # the same dict object under another name
        ("m", 4.0, 2.0, dict(a)),  # an equal copy: found by key, not identity
        ("m", 5.0, 3.0, a),
        ("m", 6.0, 2.0, b),
    ]
    assert batched.record_batch(batch) == len(batch)
    for sample in batch:
        reference.record(*sample)
    assert _snapshot(batched) == _snapshot(reference)
    assert (len(batched), batched.generation, batched.series_generation) == (3, 1, 3)
    series = batched.series(SeriesKey.make("m", a))
    assert [s.value for s in series.window(0.0, 9.0)] == [1.0, 4.0, 5.0]
