"""Pure statistics used by the harness (no I/O, no clocks; unit-tested)."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Sequence

#: A window must keep at least this many samples beyond its p90.
MIN_SAMPLES_BEYOND = 20

#: Windows whose CPU/wall falls below this were pre-empted or waited.
MIN_BUSY_SHARE = 0.95


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of unsorted *values*.

    Nearest rank returns an observed sample, never an interpolation, so
    "samples beyond the percentile" is an exact count.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples rank strictly above the q-percentile."""
    return count - math.ceil(q * count)


def supports_percentile(count: int, q: float) -> bool:
    """The reporting rule: a percentile needs >= 20 samples beyond it."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def trend_ratio(values: Sequence[float]) -> float:
    """Median of the second half over median of the first half.

    Stationarity check: a fixture still warming up (or leaking) drifts,
    and a median over all windows would hide it.
    """
    half = len(values) // 2
    if half < 1:
        raise ValueError("trend needs at least two windows")
    return median(values[half:]) / median(values[:half])


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with Python's default exclusive quartiles."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def range_spread(values: Sequence[float]) -> float:
    """(max - min) / median."""
    return (max(values) - min(values)) / median(values)


def fingerprint(inputs: Any) -> str:
    """sha256 over the canonical JSON form of generated inputs."""
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
