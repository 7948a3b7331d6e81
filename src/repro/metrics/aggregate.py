"""Streaming sliding-window aggregates: O(Δsamples) range functions.

The range functions (``rate``, ``avg_over_time``, ...) historically
rescanned their whole window on every evaluation: ``TimeSeries.
window_arrays`` hands back the samples in ``(at - window, at]`` and the
function reduces them from scratch.  Under sustained scrape ingest every
check tick therefore cost O(window × checks) — the window contents barely
change between ticks, but nothing remembered the previous reduction.

:class:`WindowState` is that memory.  One state exists per
``(series, window)`` pair, created on demand the first time a subscribed
query evaluates a range function over that series (the creation pays one
seed scan of the retained samples).  From then on it is updated O(1)
amortized:

* :meth:`WindowState.record` is invoked from ``TimeSeries.append`` via the
  series' listener hook — running sum, counter-increase contribution, and
  the monotonic min/max deques each absorb the new sample in O(1)
  amortized.
* Window-edge eviction happens lazily when a query reads the state:
  samples whose timestamp fell behind ``at - window`` pop off the left of
  the deque, and their contributions are subtracted from the running sums.
* :meth:`WindowState.truncate` mirrors retention trims
  (``TimeSeries.drop_before``) so the state never resurrects samples the
  ring has dropped.

**Drift and the re-summation rule.**  Additions alone keep the running
sum bit-identical to the reference left-to-right reduction (appending is
exactly how ``sum()`` folds), but evictions subtract, and float
subtraction does not undo float addition.  Two rules bound the drift:

1. whenever one eviction pass removes at least as many samples as remain,
   the state re-sums from scratch — the re-sum costs no more than the
   eviction just paid, so it is amortized free and makes the common
   "first evaluation after seeding" case exact;
2. otherwise an eviction debt accumulates and the state re-sums after
   ``resum_interval`` evicted samples (default 4096), bounding steady-
   state drift to a handful of ulps between re-sums.

With ``resum_interval=1`` every read after an eviction re-sums, making the
incremental path *exactly* equal to the rescan reference — the property
suite (``tests/property/test_incremental_aggregates.py``) asserts bitwise
equality in that mode and tight ``isclose`` bounds in the default mode.
``min``/``max``/``count`` are exact in every mode.

The rescanning implementations live here as the reference
(:data:`RANGE_REFERENCE` / :func:`rescan_value`); the incremental path
falls back to them whenever it cannot answer exactly (a query instant
behind the newest sample, or a window start behind an already-evicted
boundary) — correctness never depends on callers evaluating in time
order.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Callable, Sequence
from weakref import WeakSet

from .series import TimeSeries

_INF = float("inf")

#: Evicted-sample debt tolerated before a full re-summation (drift bound).
DEFAULT_RESUM_INTERVAL = 4096


# -- reference implementations (the rescanning path) -------------------------


def _rate(timestamps: Sequence[float], values: Sequence[float], window: float) -> float | None:
    """Per-second increase of a counter over *window* (2+ samples needed).

    Counter resets (value decreasing) are compensated the way Prometheus
    does: each drop adds the current value to the accumulated increase.
    Operates on parallel timestamp/value arrays — the range functions never
    see per-point objects.
    """
    if len(values) < 2:
        return None
    increase = 0.0
    previous = values[0]
    for current in values[1:]:
        if current >= previous:
            increase += current - previous
        else:  # counter reset
            increase += current
        previous = current
    elapsed = timestamps[-1] - timestamps[0]
    if elapsed <= 0:
        return None
    return increase / elapsed


#: The reference reductions every incremental answer is tested against.
RANGE_REFERENCE: dict[str, Callable[[Sequence[float], Sequence[float], float], float | None]] = {
    "rate": _rate,
    "increase": lambda timestamps, values, window: (
        None if (value := _rate(timestamps, values, window)) is None
        else value * (timestamps[-1] - timestamps[0])
    ),
    "avg_over_time": lambda _t, values, _w: (
        sum(values) / len(values) if values else None
    ),
    "min_over_time": lambda _t, values, _w: (
        min(values) if values else None
    ),
    "max_over_time": lambda _t, values, _w: (
        max(values) if values else None
    ),
    "sum_over_time": lambda _t, values, _w: (
        sum(values) if values else None
    ),
    "count_over_time": lambda _t, values, _w: (
        float(len(values)) if values else None
    ),
}


def rescan_value(
    series: TimeSeries, function: str, window: float, at: float
) -> float | None:
    """The reference answer: rescan the ring window and reduce it."""
    timestamps, values = series.window_arrays(at - window, at)
    return RANGE_REFERENCE[function](timestamps, values, window)


# -- incremental state --------------------------------------------------------


class WindowState:
    """Sliding-window aggregate state for one ``(series, window)`` pair.

    Holds its own deque of ``(t, v, contrib)`` samples inside the window —
    ``contrib`` is the counter-increase contribution of the transition from
    the sample's predecessor, computed once at append time with exactly the
    float operations the reference ``_rate`` performs.  The running
    ``total`` (Σ v) and ``inc_total`` (Σ contrib over ``samples[1:]``)
    answer ``sum``/``avg``/``rate``/``increase`` in O(1); the monotonic
    ``mins``/``maxs`` deques answer ``min``/``max`` in O(1) amortized.
    """

    __slots__ = (
        "window",
        "floor",
        "samples",
        "total",
        "inc_total",
        "mins",
        "maxs",
        "_debt",
        "resum_interval",
        "resums",
    )

    def __init__(
        self,
        series: TimeSeries,
        window: float,
        resum_interval: int = DEFAULT_RESUM_INTERVAL,
    ):
        self.window = window
        #: Samples with ``t <= floor`` have been evicted; a query whose
        #: window start lies before the floor must fall back to a rescan.
        self.floor = -_INF
        self.samples: deque[tuple[float, float, float]] = deque()
        self.total = 0.0
        self.inc_total = 0.0
        self.mins: deque[tuple[float, float]] = deque()
        self.maxs: deque[tuple[float, float]] = deque()
        self._debt = 0
        self.resum_interval = resum_interval
        self.resums = 0
        # Seed from everything the ring retains: in-order appends, so the
        # seeded running sums equal the reference reduction bit-for-bit.
        timestamps, values = series.window_arrays(-_INF, _INF)
        for timestamp, value in zip(timestamps, values):
            self.record(timestamp, value)

    # -- listener protocol (TimeSeries mutation hooks) --------------------

    def record(self, timestamp: float, value: float) -> None:
        """Absorb one appended sample in O(1) amortized."""
        if timestamp <= self.floor:
            # The window start already slid past this instant (ingest
            # lagging reads at the same timestamps): no window this state
            # can still answer incrementally contains the sample, and the
            # deque is necessarily empty here (appends are time-ordered,
            # and anything retained satisfies t > floor >= timestamp).
            return
        samples = self.samples
        if samples:
            previous = samples[-1][1]
            if value >= previous:
                contrib = value - previous
            else:  # counter reset
                contrib = value
            self.inc_total += contrib
        else:
            contrib = 0.0
        samples.append((timestamp, value, contrib))
        self.total += value
        mins = self.mins
        while mins and mins[-1][1] >= value:
            mins.pop()
        mins.append((timestamp, value))
        maxs = self.maxs
        while maxs and maxs[-1][1] <= value:
            maxs.pop()
        maxs.append((timestamp, value))

    def truncate(self, boundary: float) -> None:
        """Mirror ``TimeSeries.drop_before``: discard samples ``t < boundary``."""
        self._evict(boundary, inclusive=False)

    # -- eviction and drift control ---------------------------------------

    def _evict(self, boundary: float, inclusive: bool) -> None:
        samples = self.samples
        evicted = 0
        while samples:
            timestamp = samples[0][0]
            if timestamp < boundary or (inclusive and timestamp == boundary):
                _, value, _ = samples.popleft()
                self.total -= value
                if samples:
                    # The new first sample's transition left the window.
                    self.inc_total -= samples[0][2]
                evicted += 1
            else:
                break
        if not evicted:
            return
        mins = self.mins
        while mins and (
            mins[0][0] < boundary or (inclusive and mins[0][0] == boundary)
        ):
            mins.popleft()
        maxs = self.maxs
        while maxs and (
            maxs[0][0] < boundary or (inclusive and maxs[0][0] == boundary)
        ):
            maxs.popleft()
        if not samples:
            self.total = 0.0
            self.inc_total = 0.0
            self._debt = 0
            return
        self._debt += evicted
        # Re-sum when the eviction already cost at least a rescan (exact
        # and amortized free) or when the accumulated debt crosses the
        # drift bound.
        if evicted >= len(samples) or self._debt >= self.resum_interval:
            self._resum()

    def _resum(self) -> None:
        """Recompute the running sums left-to-right (the reference order)."""
        total = 0.0
        inc_total = 0.0
        first = True
        for _, value, contrib in self.samples:
            total += value
            if first:
                first = False
            else:
                inc_total += contrib
        self.total = total
        self.inc_total = inc_total
        self._debt = 0
        self.resums += 1

    # -- reads --------------------------------------------------------------

    def value(self, function: str, at: float) -> tuple[bool, float | None]:
        """The aggregate at instant *at*, or ``(False, None)`` to rescan.

        The fast path only answers when it provably matches the reference:
        *at* must not precede the newest absorbed sample (the window end
        must cover the whole deque) and the window start must not precede
        an already-evicted boundary.
        """
        samples = self.samples
        if samples and at < samples[-1][0]:
            return False, None
        start = at - self.window
        if start < self.floor:
            return False, None
        if start > self.floor:
            self.floor = start
            self._evict(start, inclusive=True)
        if not samples:
            return True, None
        if function == "sum_over_time":
            return True, self.total
        if function == "avg_over_time":
            return True, self.total / len(samples)
        if function == "count_over_time":
            return True, float(len(samples))
        if function == "min_over_time":
            return True, self.mins[0][1]
        if function == "max_over_time":
            return True, self.maxs[0][1]
        # rate / increase
        if len(samples) < 2:
            return True, None
        elapsed = samples[-1][0] - samples[0][0]
        if elapsed <= 0:
            return True, None
        rate = self.inc_total / elapsed
        if function == "rate":
            return True, rate
        # increase mirrors the reference exactly: rate * elapsed, not the
        # raw increase — (inc/e)*e can differ from inc by an ulp.
        return True, rate * elapsed


# -- registration and the module switch ---------------------------------------

#: Series carrying at least one window state (weak: dies with the series).
_TRACKED: "WeakSet[TimeSeries]" = WeakSet()

_STATS = {"hits": 0, "fallbacks": 0, "registrations": 0}

_ENABLED = True

#: Re-sum interval applied to newly created states (tests tighten it).
_RESUM_INTERVAL = DEFAULT_RESUM_INTERVAL


def enabled() -> bool:
    """Whether range functions consult streaming aggregates."""
    return _ENABLED


@contextmanager
def disabled():
    """Force the rescanning reference path (property tests, benchmarks)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


@contextmanager
def resum_interval(interval: int):
    """Override the re-sum interval for states created inside the block."""
    global _RESUM_INTERVAL
    previous = _RESUM_INTERVAL
    _RESUM_INTERVAL = interval
    try:
        yield
    finally:
        _RESUM_INTERVAL = previous


def state_for(series: TimeSeries, window: float) -> WindowState:
    """Get or create the window state for ``(series, window)``.

    Creation registers the state as a series listener and seeds it from
    the retained samples — the one-time rescan a subscription pays.
    """
    by_window = series.aggregates
    if by_window is None:
        by_window = series.aggregates = {}
        _TRACKED.add(series)
    state = by_window.get(window)
    if state is None:
        state = WindowState(series, window, resum_interval=_RESUM_INTERVAL)
        by_window[window] = state
        series.add_listener(state)
        _STATS["registrations"] += 1
    return state


def range_value(
    series: TimeSeries, function: str, window: float, at: float
) -> float | None:
    """Evaluate one range function incrementally, rescanning on a miss."""
    state = state_for(series, window)
    ok, value = state.value(function, at)
    if ok:
        _STATS["hits"] += 1
        return value
    _STATS["fallbacks"] += 1
    return rescan_value(series, function, window, at)


def cache_info() -> dict[str, int]:
    """Registration/hit/fallback tallies, for health endpoints and tests."""
    info = dict(_STATS)
    info["series_tracked"] = len(_TRACKED)
    return info


#: Import-friendly alias (``metrics.aggregate_cache_info``), mirroring
#: ``layout_cache_info`` naming at the package level.
aggregate_cache_info = cache_info


__all__ = [
    "DEFAULT_RESUM_INTERVAL",
    "RANGE_REFERENCE",
    "WindowState",
    "cache_info",
    "disabled",
    "enabled",
    "range_value",
    "rescan_value",
    "resum_interval",
    "state_for",
]
