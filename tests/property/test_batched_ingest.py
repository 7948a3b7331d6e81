"""Batched ingest vs per-point recording, over random op interleavings.

Random sequences of single-sample ``record`` calls and multi-sample
``record_batch`` calls (some deliberately invalid) are applied to a store
under test and mirrored point-by-point onto a reference store.  A batch
that would fail validation must raise and leave the store byte-identical
to before the call (atomicity); a valid batch must leave the store in
exactly the state per-point recording produces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import MetricStore, SeriesKey

NAMES = ["alpha_total", "beta_total", "gamma_seconds", "delta_bytes"]
LABELS = [None, {"instance": "a"}, {"instance": "b", "zone": "z1"}]

samples = st.tuples(
    st.sampled_from(NAMES),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.sampled_from(LABELS),
)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), samples),
        st.tuples(st.just("batch"), st.lists(samples, max_size=8)),
    ),
    max_size=30,
)


def _snapshot(store):
    state = {}
    for name in store.names():
        for series in store.select(name):
            timestamps, values = series.window_arrays(float("-inf"), float("inf"))
            state[str(series.key)] = (list(timestamps), list(values))
    return state


def _batch_is_valid(store, batch):
    """Pure pre-check mirroring record_batch's plan phase."""
    floors = {}
    for name, value, timestamp, labels in batch:
        key = SeriesKey.make(name, labels)
        if key not in floors:
            series = store.series(key)
            latest = series.latest() if series is not None else None
            floors[key] = latest.timestamp if latest is not None else None
        floor = floors[key]
        if floor is not None and timestamp < floor:
            return False
        floors[key] = timestamp
    return True


def _drive(store, ops_list):
    """Apply *ops_list*; returns how many samples actually landed."""
    landed = 0
    for op in ops_list:
        if op[0] == "record":
            name, value, timestamp, labels = op[1]
            try:
                store.record(name, value, timestamp, labels)
                landed += 1
            except ValueError:
                pass
        else:
            batch = op[1]
            before = _snapshot(store)
            if _batch_is_valid(store, batch):
                assert store.record_batch(batch) == len(batch)
                landed += len(batch)
            else:
                with pytest.raises(ValueError):
                    store.record_batch(batch)
                assert _snapshot(store) == before  # atomic: nothing landed
    return landed


@settings(max_examples=150, deadline=None)
@given(ops_list=ops)
def test_batched_equals_per_point_on_monolithic_store(ops_list):
    batched = MetricStore()
    reference = MetricStore()
    _drive(batched, ops_list)
    # Reference: same accepted samples, recorded one at a time.
    for op in ops_list:
        entries = [op[1]] if op[0] == "record" else op[1]
        if op[0] == "batch" and not _batch_is_valid_replay(reference, entries):
            continue
        for name, value, timestamp, labels in entries:
            try:
                reference.record(name, value, timestamp, labels)
            except ValueError:
                pass
    assert _snapshot(batched) == _snapshot(reference)
    assert batched.series_generation == reference.series_generation


def _batch_is_valid_replay(store, batch):
    return _batch_is_valid(store, batch)
