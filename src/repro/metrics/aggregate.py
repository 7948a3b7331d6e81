"""Range-function reductions over the ring window.

The range functions (``rate``, ``avg_over_time``, ...) reduce the samples
``TimeSeries.window_arrays`` hands back for ``(at - window, at]`` from
scratch on every evaluation.  No per-window state is kept between
evaluations: a rescan of the short windows checks use costs less than
maintaining incremental state on every append, and the plan-node memo
(:mod:`repro.metrics.plan`) already runs each distinct range node at most
once per ``(at, generation)``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .series import TimeSeries


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


#: One reduction per range function, over the window's parallel arrays.
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
    """*function* over *series* at instant *at*: rescan the window, reduce it."""
    timestamps, values = series.window_arrays(at - window, at)
    return RANGE_REFERENCE[function](timestamps, values, window)


# Only reader: bench/workloads/fixtures.py, until its aggregate_hit_ratio goes.
def aggregate_cache_info() -> dict[str, int]:
    return {"hits": 0, "fallbacks": 0}


__all__ = [
    "RANGE_REFERENCE",
    "aggregate_cache_info",
    "rescan_value",
]
