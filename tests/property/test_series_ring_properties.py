"""Ring-buffer ``TimeSeries`` vs a list-backed reference model.

The ring buffer in :mod:`repro.metrics.series` earns its keep through
physical-index arithmetic (wrap-aware bisect, two-piece slices, start
pointer trims).  These properties drive random interleavings of the whole
public API against a trivially-correct list model and demand identical
observable behavior at every step — if the index math is off by one
anywhere, some interleaving here finds it.
"""

import bisect
from math import inf

from hypothesis import given, settings, strategies as st

from repro.metrics.series import SeriesKey, TimeSeries, _MIN_CAPACITY


def retained(ring, start=-inf, end=inf):
    """The ring's ``(timestamp, value)`` samples in ``(start, end]``."""
    return list(zip(*ring.window_arrays(start, end)))


class ListSeries:
    """The obviously-correct reference: a plain sorted list of samples."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def append(self, timestamp, value):
        if self.samples and timestamp < self.samples[-1][0]:
            raise ValueError("out of order")
        self.samples.append((timestamp, value))

    @property
    def newest_timestamp(self):
        return self.samples[-1][0] if self.samples else None

    def at(self, timestamp, staleness=float("inf")):
        index = bisect.bisect_right([s[0] for s in self.samples], timestamp) - 1
        if index < 0:
            return None
        found, value = self.samples[index]
        if timestamp - found > staleness:
            return None
        return (found, value)

    def window(self, start, end):
        return [s for s in self.samples if start < s[0] <= end]

    def drop_before(self, timestamp):
        kept = [s for s in self.samples if s[0] >= timestamp]
        dropped = len(self.samples) - len(kept)
        self.samples = kept
        return dropped


timestamps = st.floats(min_value=-5.0, max_value=120.0, allow_nan=False)
values = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
staleness = st.one_of(st.just(float("inf")), st.floats(min_value=0.0, max_value=30.0))
#: Retention of the folded append+trim: none, the newest timestamp only,
#: about one append step (one sample leaves), a few (several leave) and a
#: long window (nothing leaves, so the ring fills, grows and wraps).
retentions = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=3.0, max_value=12.0),
    st.floats(min_value=12.0, max_value=400.0),
    st.just(float("inf")),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.floats(min_value=0.0, max_value=3.0), values),
        st.tuples(
            st.just("append_retained"), st.floats(min_value=0.0, max_value=3.0), values, retentions
        ),
        st.tuples(st.just("drop_before"), timestamps),
        st.tuples(st.just("value_at"), timestamps, staleness),
        st.tuples(st.just("window"), timestamps, st.floats(min_value=0.0, max_value=40.0)),
    ),
    max_size=150,
)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_ring_series_matches_list_model(ops):
    ring = TimeSeries(SeriesKey("m"))
    model = ListSeries()
    now = 0.0
    for op in ops:
        if op[0] == "append":
            # Non-negative deltas keep timestamps monotone; zero deltas
            # exercise duplicate-timestamp bisects.
            _, delta, value = op
            now += delta
            ring.append_ordered(now, value)
            model.append(now, value)
        elif op[0] == "append_retained":
            # MetricStore's apply pass: append, trimming to the retention
            # window ending at the new sample.
            _, delta, value, retention = op
            now += delta
            ring.append_ordered(now, value, retention)
            model.append(now, value)
            model.drop_before(now - retention)
        elif op[0] == "drop_before":
            assert ring.drop_before(op[1]) == model.drop_before(op[1])
        elif op[0] == "value_at":
            _, t, stale = op
            expected = model.at(t, staleness=stale)
            assert ring.value_at(t, staleness=stale) == (expected and expected[1])
        else:
            _, start, width = op
            end = start + width
            expected = model.window(start, end)
            assert retained(ring, start, end) == expected
            lo, hi = ring.window_bounds(start, end)
            assert hi - lo == len(expected)
            ts, vs = ring.window_arrays(start, end)
            assert list(ts) == [s[0] for s in expected]
            assert list(vs) == [s[1] for s in expected]
        # Invariants checked after every single operation.
        assert retained(ring) == model.samples
        assert ring.newest_timestamp == model.newest_timestamp


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False), max_size=100),
    st.integers(min_value=0, max_value=100),
)
def test_drop_then_refill_keeps_order_checks(deltas, drop_at_step):
    """Appends after trims must still track the newest timestamp, which
    the store's out-of-order check reads."""
    ring = TimeSeries(SeriesKey("m"))
    model = ListSeries()
    now = 0.0
    for step, delta in enumerate(deltas):
        now += delta
        ring.append_ordered(now, float(step))
        model.append(now, float(step))
        if step == drop_at_step:
            cutoff = now / 2.0
            assert ring.drop_before(cutoff) == model.drop_before(cutoff)
        assert ring.newest_timestamp == model.newest_timestamp
    assert retained(ring, -1.0, now + 1.0) == model.samples


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=40),
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40),
)
def test_emptying_drop_then_refill_tracks_newest(first, refill):
    """A trim that empties the ring forgets the newest timestamp: a refill
    may start below it, and is order-checked against itself from there."""
    ring = TimeSeries(SeriesKey("m"))
    model = ListSeries()
    for timestamps in (sorted(first), sorted(refill)):
        for value, timestamp in enumerate(timestamps):
            ring.append_ordered(timestamp, float(value))
            model.append(timestamp, float(value))
            assert ring.newest_timestamp == model.newest_timestamp == timestamp
        cutoff = max(timestamps, default=0.0) + 1.0
        assert ring.drop_before(cutoff) == model.drop_before(cutoff) == len(timestamps)
        assert ring.newest_timestamp is None
        assert retained(ring) == []


def test_trim_shrinks_capacity_back_down():
    """A retention-style workload must not pin the grown buffer forever."""
    ring = TimeSeries(SeriesKey("m"))
    for t in range(10_000):
        ring.append_ordered(float(t), 1.0)
    grown = len(ring._ts)
    assert grown >= 10_000
    ring.drop_before(9_990.0)
    # The survivors are intact and ordered.
    assert retained(ring) == [(float(t), 1.0) for t in range(9_990, 10_000)]
    # Shrink hysteresis: capacity follows occupancy back down.
    assert len(ring._ts) <= max(_MIN_CAPACITY, 4 * 10)


def test_steady_state_retention_capacity_is_bounded():
    """append+drop_before cycling (the scraper's pattern) stays O(window)."""
    ring = TimeSeries(SeriesKey("m"))
    for t in range(50_000):
        ring.append_ordered(float(t), 1.0)
        if t >= 100:
            ring.drop_before(float(t - 100))
    assert len(retained(ring)) == 101
    assert len(ring._ts) <= 1024  # far below the 50k samples ever appended


def test_wrapped_ring_window_returns_samples():
    """Force physical wrap-around, then read windows spanning the seam."""
    ring = TimeSeries(SeriesKey("m"))
    for t in range(12):
        ring.append_ordered(float(t), float(t * 10))
    ring.drop_before(8.0)  # start pointer advances, no shrink at this size
    for t in range(12, 22):
        ring.append_ordered(float(t), float(t * 10))  # writes wrap physically
    assert retained(ring, 9.0, 20.0) == [(float(t), float(t * 10)) for t in range(10, 21)]
    assert ring.value_at(13.5) == 130.0
    assert ring.value_at(8.0) == 80.0


def test_folded_trim_drops_none_one_or_many_as_drop_before_does():
    """``append_ordered`` with a retention, against append + drop_before,
    through each way the fold can go: nothing leaves while the ring grows,
    exactly one leaves per append while it wraps, and a larger cut that
    compacts the buffers."""
    ring = TimeSeries(SeriesKey("m"))
    model = ListSeries()
    seen = set()

    def step(t, retention):
        capacity = len(ring._ts)
        size = len(model.samples)
        ring.append_ordered(t, -t, retention)
        model.append(t, -t)
        model.drop_before(t - retention)
        assert retained(ring, -1.0, t) == model.samples
        assert ring.newest_timestamp == model.newest_timestamp
        left = size + 1 - len(model.samples)
        seen.add(("left", min(left, 2)))
        if ring._start + len(model.samples) > len(ring._ts):
            seen.add("wrapped")
        if len(ring._ts) < capacity:
            seen.add("compacted")

    for t in range(200):  # nothing leaves; the ring grows to 256
        step(float(t), 1e9)
    for t in range(200, 500):  # one leaves per append; the ring wraps
        step(float(t), 199.5)
    step(500.0, 10.0)  # all but eleven leave; the ring compacts
    for t in range(501, 520):
        step(float(t), 10.0)
    step(520.0, 0.0)  # only the newest timestamp stays
    assert seen == {("left", 0), ("left", 1), ("left", 2), "wrapped", "compacted"}
    assert retained(ring) == [(520.0, -520.0)]
