"""Batched ingest vs per-point recording, over random op interleavings.

Random sequences of single-sample ``record`` calls and multi-sample
``record_batch`` calls (some deliberately invalid) are applied to a store
under test and mirrored point-by-point onto :class:`PerPoint`, a reference
that appends straight to ``TimeSeries`` one sample at a time (``record``
is a batch of one, so it cannot be its own oracle).  A batch that would
fail validation must raise and leave the store byte-identical to before
the call (atomicity); a valid batch must leave the store in exactly the
state per-point recording produces, and under retention every range
query must answer the same on both after every op.

The label strategy covers the shapes the batch plan distinguishes: one
dict object shared across names (the scraper's memoized
``{"instance": ...}``), equal dicts that are not the same object, equal
dicts whose labels were inserted in another order (the store's as-sent
index keys on that order, so each order must still reach the one series
of the label set, within a batch and across batches), and label values
that could never be selected (the batch is refused, even when it would
also have created a good series).
"""

from math import isfinite

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import MetricStore, SeriesKey, TimeSeries, evaluate
from repro.metrics.query import RANGE_FUNCTIONS

NAMES = ["alpha_total", "beta_total", "gamma_seconds", "delta_bytes"]
LABELS = [
    None,
    {"instance": "a"},
    {"instance": "b", "zone": "z1"},
    {"instance": "c", "zone": "z2", "rack": "r1"},
]
#: Label maps no string matcher selects: a sample carrying one is refused.
BAD_LABELS = [{"instance": 7}, {"instance": ["a"]}, {"": "a"}]
#: How a sample's label map is drawn: mostly the shared objects themselves,
#: often an equal copy or one in another insertion order, rarely a bad map.
KINDS = ["shared"] * 6 + ["copy"] * 3 + ["reordered"] * 3 + ["bad"]


def _labels(kind, shared, bad, order):
    if kind == "bad":
        return bad
    if shared is None or kind == "shared":
        return shared
    items = list(shared.items())
    if kind == "reordered":
        return dict(items[index] for index in order if index < len(items))
    return dict(items)


samples = st.tuples(
    st.sampled_from(NAMES),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.builds(
        _labels,
        st.sampled_from(KINDS),
        st.sampled_from(LABELS),
        st.sampled_from(BAD_LABELS),
        st.permutations(range(3)),
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


def _key(name, labels):
    return SeriesKey(name, tuple(sorted(labels.items())) if labels else ())


def _found(store, key):
    """The store's series under *key*, or ``None``."""
    return next((series for series in store.select(key.name) if series.key == key), None)


class PerPoint:
    """Reference store: one order check, append and trim per sample."""

    def __init__(self, retention=None):
        self.retention = retention
        self.by_key = {}
        self.generation = 0
        self.series_generation = 0

    def record(self, name, value, timestamp, labels):
        if not isfinite(timestamp) or not _selectable(labels):
            raise ValueError(name)
        key = _key(name, labels)
        series = self.by_key.get(key)
        if series is None:
            series = self.by_key[key] = TimeSeries(key)
            self.series_generation += 1
        if series.newest_timestamp is not None and timestamp < series.newest_timestamp:
            raise ValueError(f"out-of-order sample for {key}")
        series.append_ordered(timestamp, value)
        if self.retention is not None:
            series.drop_before(timestamp - self.retention)
        self.generation += 1

    def select(self, name, matchers=None):
        """Every series of *name*: enough of ``MetricStore.select`` for the
        matcher-less range queries the tests evaluate."""
        assert not matchers
        return [series for key, series in self.by_key.items() if key.name == name]

    def __len__(self):
        return len(self.by_key)


def _all_series(store):
    if isinstance(store, PerPoint):
        return list(store.by_key.values())
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
        key = _key(name, labels)
        if key not in floors:
            series = _found(store, key)
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
    # One series per label set, whatever order its labels arrived in.
    assert _shape(store) == _shape(reference)


@settings(max_examples=150, deadline=None)
@given(ops_list=ops)
def test_batched_equals_per_point_on_monolithic_store(ops_list):
    batched = MetricStore()
    reference = PerPoint()
    for op in ops_list:
        _step(batched, reference, op)
    assert _snapshot(batched) == _snapshot(reference)
    assert _shape(batched) == _shape(reference)


WINDOWS = (5, 30)


def _readings(store, at):
    """Every range function over every metric name and window at *at*."""
    readings = {}
    for name in NAMES:
        for window in WINDOWS:
            for function in RANGE_FUNCTIONS:
                vector = evaluate(store, f"{function}({name}[{window}s])", at)
                readings[(name, window, function)] = sorted(
                    (sorted(sample.labels.items()), sample.value) for sample in vector
                )
    return readings


@settings(max_examples=100, deadline=None)
@given(ops_list=ops)
def test_batched_aggregates_equal_per_point_under_retention(ops_list):
    # At 0.0 each series keeps only the samples at its newest timestamp.
    for retention in (20.0, 0.0):
        batched = MetricStore(retention=retention)
        reference = PerPoint(retention=retention)
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
    series = _found(batched, _key("m", a))
    assert list(series.window_arrays(0.0, 9.0)[1]) == [1.0, 4.0, 5.0]
