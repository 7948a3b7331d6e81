"""The metric store: an in-process stand-in for Prometheus' TSDB.

Holds many :class:`~repro.metrics.series.TimeSeries` and answers selector
queries (metric name + label matchers).  The Bifrost engine never touches
this directly; it goes through the query language
(:mod:`repro.metrics.query`) or over HTTP (:mod:`repro.metrics.server`),
matching the paper's engine→Prometheus integration.

Selectors are the hot path — every check tick of every parallel strategy
lands here — so the store keeps a per-metric-name index (``select`` touches
only series of that name, not all series), memoizes compiled anchored
regexes for ``=~``/``!~`` matchers, and caches resolved ``(name, matchers)``
selector results until a new series appears under that name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import Sequence

from .series import SeriesKey, TimeSeries


@lru_cache(maxsize=1024)
def _compile_anchored(pattern: str) -> re.Pattern[str]:
    """Compiled ``^(?:pattern)$`` — shared by every ``=~``/``!~`` matcher."""
    return re.compile(f"^(?:{pattern})$")


def _check_identity(name, labels) -> None:
    """Reject a series no string matcher could select, with ValueError.

    Runs only when a sample would create a series: a known series' name
    and labels passed it when the series was made, so appends pay nothing.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"metric name must be a non-empty string, got {name!r}")
    for label, value in (labels or {}).items():
        if not isinstance(label, str) or not label or not isinstance(value, str):
            raise ValueError(
                f"label {label!r}={value!r} on {name}: label names must be "
                f"non-empty strings and values strings"
            )


def _out_of_order(key: tuple, timestamp: float, floor: float) -> ValueError:
    return ValueError(
        f"out-of-order sample for {SeriesKey(*key)}: {timestamp} < {floor}"
    )


@dataclass(frozen=True)
class LabelMatcher:
    """One label matcher: ``name op value`` with op in ``= != =~ !~``.

    A regex matcher whose pattern does not compile is rejected here, with
    :class:`ValueError`, so no matcher that exists can fail in ``matches``.
    """

    label: str
    op: str
    value: str

    def __post_init__(self) -> None:
        if self.op not in ("=", "!=", "=~", "!~"):
            raise ValueError(f"unknown label matcher op: {self.op!r}")
        if self.op in ("=~", "!~"):
            try:
                _compile_anchored(self.value)
            except re.error as exc:
                raise ValueError(
                    f"invalid regex {self.value!r} in matcher for "
                    f"label {self.label!r}: {exc}"
                ) from None

    def matches(self, labels: dict[str, str]) -> bool:
        actual = labels.get(self.label, "")
        if self.op == "=":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        anchored = _compile_anchored(self.value)
        if self.op == "=~":
            return bool(anchored.match(actual))
        return not anchored.match(actual)


class MetricStore:
    """All series known to one metrics provider instance."""

    def __init__(self, retention: float | None = None):
        #: Samples older than ``now - retention`` are dropped on ingest.
        self.retention = retention
        self._series: dict[SeriesKey, TimeSeries] = {}
        #: Name index: every series bucketed by metric name.
        self._by_name: dict[str, list[TimeSeries]] = {}
        #: Resolved selector cache, invalidated per name on series creation.
        self._selector_cache: dict[str, dict[tuple[LabelMatcher, ...], list[TimeSeries]]] = {}
        #: Bumped on every mutation; lets callers detect "store changed".
        self.generation = 0
        #: Bumped only when the *shape* of the store changes (a series is
        #: created or the store is cleared) — sample appends leave it
        #: untouched.  Structural caches (histogram bucket layouts,
        #: resolved selectors) key on this instead of :attr:`generation`,
        #: which advances on every single sample.
        self.series_generation = 0

    def record(
        self,
        name: str,
        value: float,
        timestamp: float,
        labels: dict[str, str] | None = None,
    ) -> None:
        """Append one sample, creating the series on first sight.

        A batch of one, so it is validated exactly as :meth:`record_batch`
        validates: a non-finite *timestamp* raises :class:`ValueError` (a
        NaN compares false against every floor, so one would disable the
        out-of-order guard for the series from then on; values may be
        NaN), as does an out-of-order one or a sample that would create a
        series no string matcher could select (see :func:`_check_identity`).
        """
        self.record_batch(((name, value, timestamp, labels),))

    def record_batch(
        self,
        samples: Sequence[tuple[str, float, float, dict[str, str] | None]],
    ) -> int:
        """Append many ``(name, value, timestamp, labels)`` samples at once.

        The batch is atomic: every sample is validated against the store's
        current floors *and* earlier samples in the batch before anything
        is recorded, so an out-of-order or non-finite timestamp, or a
        sample that would create a series with a bad name or labels,
        mid-list raises :class:`ValueError` and leaves the store untouched.

        The win over per-point :meth:`record` is amortization: each
        distinct series is resolved once, selector-cache invalidation
        happens once per created series, the retention guard runs once per
        touched series, and :attr:`generation` bumps once for the whole
        batch — a scrape of M points costs one cache invalidation wave
        instead of M.
        """
        plan = self._plan_batch(samples)
        if not plan:
            return 0
        self._apply_batch(plan)
        return len(samples)

    def _plan_batch(
        self,
        samples: Sequence[tuple[str, float, float, dict[str, str] | None]],
    ) -> dict[tuple, list]:
        """Validate *samples* and group them by series; mutates nothing.

        Entries are keyed by the plain ``(name, sorted_label_pairs)``
        tuple, so every probe hashes and compares in C, and each one is
        ``[series, key, newest, timestamp, value, more]``: the resolved
        series (``None`` if the batch creates it), the newest timestamp
        the entry has accepted, the first sample as scalars, and a list of
        further ``(timestamp, value)`` pairs only when the series repeats.
        A run of samples with the same name and the same label dict
        *object* skips even the key build; every other repeat, including
        an equal but distinct dict, is found by the keyed lookup.
        """
        plan: dict[tuple, list] = {}
        series_by_key = self._series
        last_name = None
        last_labels = None
        entry = None
        for name, value, timestamp, labels in samples:
            if not isfinite(timestamp):
                raise ValueError(f"non-finite timestamp for {name}: {timestamp}")
            if labels is not last_labels or name != last_name or entry is None:
                last_name = name
                last_labels = labels
                try:
                    key = (name, tuple(sorted(labels.items())) if labels else ())
                    entry = plan.get(key)
                except TypeError:  # an unhashable or unorderable label
                    _check_identity(name, labels)
                    raise
                if entry is None:
                    series = series_by_key.get(key)
                    if series is None:
                        _check_identity(name, labels)
                    else:
                        floor = series.newest_timestamp
                        if floor is not None and timestamp < floor:
                            raise _out_of_order(key, timestamp, floor)
                    plan[key] = entry = [series, key, timestamp, timestamp, value, None]
                    continue
            floor = entry[2]
            if timestamp < floor:
                raise _out_of_order(entry[1], timestamp, floor)
            entry[2] = timestamp
            if entry[5] is None:
                entry[5] = [(timestamp, value)]
            else:
                entry[5].append((timestamp, value))
        return plan

    def _apply_batch(self, plan: dict[tuple, list]) -> None:
        """Apply a validated :meth:`_plan_batch` result; cannot fail."""
        retention = self.retention
        for series, key, newest, timestamp, value, more in plan.values():
            if series is None:
                series = TimeSeries(SeriesKey(*key))
                self._series[series.key] = series
                self._by_name.setdefault(key[0], []).append(series)
                # A new series can change what any cached selector for
                # this name matches, so resolved selectors start over.
                self._selector_cache.pop(key[0], None)
                self.series_generation += 1
            series.append_ordered(timestamp, value)
            if more is not None:
                for timestamp, value in more:
                    series.append_ordered(timestamp, value)
            if retention is not None and series.oldest_timestamp < newest - retention:
                series.drop_before(newest - retention)
        self.generation += 1

    def series(self, key: SeriesKey) -> TimeSeries | None:
        return self._series.get(key)

    def select(
        self, name: str, matchers: Sequence[LabelMatcher] | None = None
    ) -> list[TimeSeries]:
        """All series with metric *name* whose labels satisfy *matchers*."""
        bucket = self._by_name.get(name)
        if bucket is None:
            return []
        if not matchers:
            return list(bucket)
        cache_key = tuple(matchers)
        by_matchers = self._selector_cache.setdefault(name, {})
        cached = by_matchers.get(cache_key)
        if cached is not None:
            return list(cached)
        found = []
        for series in bucket:
            labels = series.key.label_dict()
            if all(matcher.matches(labels) for matcher in matchers):
                found.append(series)
        by_matchers[cache_key] = found
        return list(found)

    def names(self) -> set[str]:
        """All metric names with at least one series."""
        return set(self._by_name)

    def __len__(self) -> int:
        return len(self._series)

    def clear(self) -> None:
        self._series.clear()
        self._by_name.clear()
        self._selector_cache.clear()
        self.generation += 1
        self.series_generation += 1
