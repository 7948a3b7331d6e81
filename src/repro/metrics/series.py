"""Time series: the Ω of the formal model.

The paper models monitoring data Ω as a tuple of metrics, each a time series
of values.  :class:`TimeSeries` is that primitive: an append-only sequence of
``(timestamp, value)`` samples identified by a metric name plus a label set,
exactly like a Prometheus series.

Storage is a pair of ``array('d')`` ring buffers (timestamps and values)
rather than Python lists: a sample costs 16 bytes of packed doubles instead
of two pointers plus two boxed floats (~64 bytes), and retention trims
(:meth:`TimeSeries.drop_before`) advance the ring's start index in O(1)
amortized instead of shifting every surviving element with ``del lst[:i]``.
The window primitives stay ring-aware: :meth:`TimeSeries.window_bounds`
binary-searches logical indices without materializing anything, and
:meth:`TimeSeries.window_arrays` hands back at most two C-level slice
copies for the range functions to iterate.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from math import inf
from typing import NamedTuple, Sequence


class SeriesKey(NamedTuple):
    """Identity of a series: metric name + sorted label pairs.

    A tuple underneath, so a plain ``(name, sorted_label_pairs)`` tuple
    hashes and compares equal to it: the store's ingest path probes its
    series dict with such tuples and builds a ``SeriesKey`` only when a
    series is created.
    """

    name: str
    labels: tuple[tuple[str, str], ...] = ()

    def __str__(self) -> str:
        if not self.labels:
            return self.name
        rendered = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{rendered}}}"


class Labels(dict):
    """A read-only label set; :attr:`json` is its JSON text, rendered on
    first use (what ``json.dumps`` writes for the mapping)."""

    __slots__ = ("_json",)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a series' labels are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return Labels, (dict(self),)

    @property
    def json(self) -> str:
        try:
            return self._json
        except AttributeError:
            self._json = text = json.dumps(self)
            return text


#: The label set of a sample with no labels (a scalar, an aggregation).
NO_LABELS = Labels()

#: Smallest ring capacity allocated once a series holds data.
_MIN_CAPACITY = 16

_EMPTY = array("d")


class TimeSeries:
    """An append-only, time-ordered series of samples on ring buffers."""

    __slots__ = ("key", "_labels", "_ts", "_vs", "_start", "_size", "newest_timestamp")

    def __init__(self, key: SeriesKey):
        self.key = key
        self._labels: Labels | None = None
        self._ts = array("d")  # timestamps, physical ring order
        self._vs = array("d")  # values, parallel to _ts
        self._start = 0  # physical index of the logical first sample
        self._size = 0  # live samples (<= capacity == len(_ts))
        #: Timestamp of the latest sample, or ``None`` when empty: stored
        #: by the appends, so ingest's order check reads one slot.
        self.newest_timestamp: float | None = None

    @property
    def labels(self) -> Labels:
        """The series' one label set, built on first use and shared by
        every answer that reads the series."""
        if self._labels is None:
            self._labels = Labels(self.key.labels)
        return self._labels

    # -- ring primitives ---------------------------------------------------

    def _linearized(self, buffer: array) -> array:
        """The live samples of *buffer* in logical order (a copy)."""
        start, size = self._start, self._size
        end = start + size
        capacity = len(buffer)
        if end <= capacity:
            return buffer[start:end]
        return buffer[start:capacity] + buffer[: end - capacity]

    def _resize(self, capacity: int) -> None:
        """Re-home the live samples into fresh buffers of *capacity*."""
        pad = array("d", bytes(8 * (capacity - self._size)))
        self._ts = self._linearized(self._ts) + pad
        self._vs = self._linearized(self._vs) + pad
        self._start = 0

    def _bisect_right(self, timestamp: float) -> int:
        """Logical count of samples with ``t <= timestamp``."""
        ts, start, size = self._ts, self._start, self._size
        end = start + size
        capacity = len(ts)
        if end <= capacity:  # contiguous run
            return bisect_right(ts, timestamp, start, end) - start
        wrap = end - capacity
        if ts[0] <= timestamp:  # boundary sample of the wrapped run
            return (capacity - start) + bisect_right(ts, timestamp, 0, wrap)
        return bisect_right(ts, timestamp, start, capacity) - start

    def _bisect_left(self, timestamp: float) -> int:
        """Logical count of samples with ``t < timestamp``."""
        ts, start, size = self._ts, self._start, self._size
        end = start + size
        capacity = len(ts)
        if end <= capacity:
            return bisect_left(ts, timestamp, start, end) - start
        wrap = end - capacity
        if ts[0] < timestamp:
            return (capacity - start) + bisect_left(ts, timestamp, 0, wrap)
        return bisect_left(ts, timestamp, start, capacity) - start

    def _slice(self, buffer: array, lo: int, hi: int) -> array:
        """Logical ``buffer[lo:hi]`` as at most two C-level slice copies."""
        if lo >= hi:
            return _EMPTY[:]
        capacity = len(buffer)
        physical_lo = (self._start + lo) % capacity
        physical_hi = physical_lo + (hi - lo)
        if physical_hi <= capacity:
            return buffer[physical_lo:physical_hi]
        return buffer[physical_lo:capacity] + buffer[: physical_hi - capacity]

    # -- public API --------------------------------------------------------

    def append_ordered(
        self, timestamp: float, value: float, retention: float = inf
    ) -> None:
        """Record one sample, then ``drop_before(timestamp - retention)``
        folded in — the apply pass of ``MetricStore.record_batch``.

        The caller has checked *timestamp* against
        :attr:`newest_timestamp`: samples must be non-decreasing.

        The fold pays one comparison when nothing leaves and no search
        when only the oldest sample does (a series at retention-full
        steady state); a larger cut takes :meth:`drop_before`.
        """
        ts = self._ts
        start, size = self._start, self._size
        capacity = len(ts)
        if size == capacity:
            self._resize(max(_MIN_CAPACITY, capacity * 2))
            ts = self._ts
            start, capacity = 0, len(ts)
        position = (start + size) % capacity
        ts[position] = timestamp
        self._vs[position] = value
        self._size = size + 1
        self.newest_timestamp = ts[position]  # a float, as stored
        floor = timestamp - retention
        if ts[start] < floor:
            following = start + 1 if start + 1 < capacity else 0
            if size and ts[following] >= floor:
                # Only the oldest leaves.  Occupancy is back where it was
                # before the append, so no compaction can be due.
                self._start, self._size = following, size
            else:
                self.drop_before(floor)

    def value_at(self, timestamp: float, staleness: float = float("inf")) -> float | None:
        """The value of the newest sample at or before *timestamp*.

        Returns ``None`` if there is no such sample or it is older than
        *staleness* seconds relative to *timestamp* (Prometheus applies a
        5-minute staleness window in the same spot).
        """
        index = self._bisect_right(timestamp) - 1
        if index < 0:
            return None
        position = (self._start + index) % len(self._ts)
        if timestamp - self._ts[position] > staleness:
            return None
        return self._vs[position]

    def window_bounds(self, start: float, end: float) -> tuple[int, int]:
        """Logical index bounds ``(lo, hi)`` of samples with ``start < t <= end``.

        The zero-copy primitive behind :meth:`window_arrays`: nothing is
        materialized, callers slice the ring through the accessors.
        """
        return self._bisect_right(start), self._bisect_right(end)

    def window_arrays(self, start: float, end: float) -> tuple[Sequence[float], Sequence[float]]:
        """Timestamp/value array slices for the range selector window.

        Two packed ``array('d')`` slices, not one object per point — the
        allocation-light path the range functions (``rate``,
        ``*_over_time``) iterate over.
        """
        lo, hi = self.window_bounds(start, end)
        return self._slice(self._ts, lo, hi), self._slice(self._vs, lo, hi)

    def drop_before(self, timestamp: float) -> int:
        """Discard samples older than *timestamp*; returns how many.

        Amortized O(1) beyond the index search: the ring's start pointer
        advances past the dropped prefix, and the buffers are compacted
        only when occupancy falls below a quarter of a non-trivial
        capacity (hysteresis keeps trim/append cycles from thrashing).
        """
        index = self._bisect_left(timestamp)
        if index == 0:
            return 0
        capacity = len(self._ts)
        self._start = (self._start + index) % capacity
        self._size -= index
        if self._size == 0:
            self._start = 0
            self.newest_timestamp = None
        if capacity > 4 * _MIN_CAPACITY and self._size * 4 <= capacity:
            self._resize(max(_MIN_CAPACITY, self._size * 2))
        return index
