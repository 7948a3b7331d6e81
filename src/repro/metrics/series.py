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

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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

    @classmethod
    def make(cls, name: str, labels: dict[str, str] | None = None) -> "SeriesKey":
        return cls(name, tuple(sorted(labels.items())) if labels else ())

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def __str__(self) -> str:
        if not self.labels:
            return self.name
        rendered = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{rendered}}}"


@dataclass
class Sample:
    """One observation of a metric."""

    timestamp: float
    value: float


#: Smallest ring capacity allocated once a series holds data.
_MIN_CAPACITY = 16

_EMPTY = array("d")


class TimeSeries:
    """An append-only, time-ordered series of samples on ring buffers.

    Listeners (see :meth:`add_listener`) observe every accepted append and
    every retention trim, which is how the streaming window aggregates of
    :mod:`repro.metrics.aggregate` stay coherent with the ring without the
    series knowing anything about them.
    """

    __slots__ = (
        "key",
        "_ts",
        "_vs",
        "_start",
        "_size",
        "listeners",
        "aggregates",
        "__weakref__",
    )

    def __init__(self, key: SeriesKey):
        self.key = key
        self._ts = array("d")  # timestamps, physical ring order
        self._vs = array("d")  # values, parallel to _ts
        self._start = 0  # physical index of the logical first sample
        self._size = 0  # live samples (<= capacity == len(_ts))
        #: Mutation observers: objects with ``record(t, v)`` and
        #: ``truncate(boundary)``.  ``None`` until the first registration
        #: so the common listener-less append stays a single falsy check.
        self.listeners: list | None = None
        #: Streaming window aggregate states keyed by window width, owned
        #: by :mod:`repro.metrics.aggregate`.  Living on the series keeps
        #: the query hot path to one plain dict lookup and ties the state
        #: lifetime to the series itself.
        self.aggregates: dict | None = None

    def __repr__(self) -> str:
        return f"TimeSeries({self.key}, samples={self._size})"

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

    def append(self, timestamp: float, value: float) -> None:
        """Record one sample; timestamps must be non-decreasing."""
        last = self.newest_timestamp
        if last is not None and timestamp < last:
            raise ValueError(
                f"out-of-order sample for {self.key}: {timestamp} < {last}"
            )
        self.append_ordered(timestamp, value)

    def append_ordered(self, timestamp: float, value: float) -> None:
        """:meth:`append` for a sample already checked against
        :attr:`newest_timestamp` — the apply phase of
        ``MetricStore.record_batch``.  Listeners see exactly what
        :meth:`append` would show them.
        """
        size = self._size
        capacity = len(self._ts)
        if size == capacity:
            self._resize(max(_MIN_CAPACITY, capacity * 2))
            capacity = len(self._ts)
        position = (self._start + size) % capacity
        self._ts[position] = timestamp
        self._vs[position] = value
        self._size = size + 1
        if self.listeners:
            for listener in self.listeners:
                listener.record(timestamp, value)

    def add_listener(self, listener) -> None:
        """Register a mutation observer (``record``/``truncate`` methods)."""
        if self.listeners is None:
            self.listeners = []
        self.listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if self.listeners is not None and listener in self.listeners:
            self.listeners.remove(listener)

    def __len__(self) -> int:
        return self._size

    def latest(self) -> Sample | None:
        """The most recent sample, or ``None`` for an empty series."""
        if not self._size:
            return None
        position = (self._start + self._size - 1) % len(self._ts)
        return Sample(self._ts[position], self._vs[position])

    def at(self, timestamp: float, staleness: float = float("inf")) -> Sample | None:
        """The newest sample at or before *timestamp*.

        Returns ``None`` if there is no such sample or it is older than
        *staleness* seconds relative to *timestamp* (Prometheus applies a
        5-minute staleness window in the same spot).
        """
        index = self._bisect_right(timestamp) - 1
        if index < 0:
            return None
        position = (self._start + index) % len(self._ts)
        found = self._ts[position]
        if timestamp - found > staleness:
            return None
        return Sample(found, self._vs[position])

    def value_at(self, timestamp: float, staleness: float = float("inf")) -> float | None:
        """Like :meth:`at` but returns the bare value, allocating nothing."""
        index = self._bisect_right(timestamp) - 1
        if index < 0:
            return None
        position = (self._start + index) % len(self._ts)
        if timestamp - self._ts[position] > staleness:
            return None
        return self._vs[position]

    @property
    def oldest_timestamp(self) -> float | None:
        """Timestamp of the first retained sample, or ``None`` when empty."""
        return self._ts[self._start] if self._size else None

    @property
    def newest_timestamp(self) -> float | None:
        """Timestamp of the latest sample, or ``None`` when empty."""
        size = self._size
        if not size:
            return None
        return self._ts[(self._start + size - 1) % len(self._ts)]

    def window_bounds(self, start: float, end: float) -> tuple[int, int]:
        """Logical index bounds ``(lo, hi)`` of samples with ``start < t <= end``.

        The zero-copy primitive behind :meth:`window` and
        :meth:`window_arrays`: nothing is materialized, callers slice the
        ring through the accessors.
        """
        return self._bisect_right(start), self._bisect_right(end)

    def window_arrays(self, start: float, end: float) -> tuple[Sequence[float], Sequence[float]]:
        """Timestamp/value array slices for the range selector window.

        Two packed ``array('d')`` slices instead of one :class:`Sample`
        object per point — the allocation-light path the range functions
        (``rate``, ``*_over_time``) iterate over.
        """
        lo, hi = self.window_bounds(start, end)
        return self._slice(self._ts, lo, hi), self._slice(self._vs, lo, hi)

    def window(self, start: float, end: float) -> list[Sample]:
        """All samples with ``start < timestamp <= end`` (range selector)."""
        timestamps, values = self.window_arrays(start, end)
        return [Sample(t, v) for t, v in zip(timestamps, values)]

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
        if capacity > 4 * _MIN_CAPACITY and self._size * 4 <= capacity:
            self._resize(max(_MIN_CAPACITY, self._size * 2))
        if self.listeners:
            for listener in self.listeners:
                listener.truncate(timestamp)
        return index
