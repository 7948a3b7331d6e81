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
from math import inf, isfinite, isnan
from typing import Sequence

from .series import SeriesKey, TimeSeries

#: The longest query (or matcher) text a query-path cache keeps: a longer
#: one is compiled and evaluated, never retained.
RETAIN_LIMIT = 4096

#: How many entries a query-path cache keeps per store (the server's
#: target table, resolved selectors, histogram layouts); a miss past it
#: evicts the oldest.
CACHE_ENTRIES = 4096


def retained(name: str, matchers: Sequence["LabelMatcher"]) -> bool:
    """Whether a cache may keep a key of *name* and *matchers* (16 more per matcher)."""
    return len(name) + sum([len(m.label) + len(m.value) + 16 for m in matchers]) <= RETAIN_LIMIT


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


@dataclass(frozen=True)
class LabelMatcher:
    """One label matcher: ``name op value`` with op in ``= != =~ !~``.

    A regex matcher whose pattern does not compile, or is longer than
    ``RETAIN_LIMIT`` (its compiled form would be kept by two caches), is
    rejected here with :class:`ValueError`, so no matcher that exists can
    fail in ``matches``.
    """

    label: str
    op: str
    value: str

    def __post_init__(self) -> None:
        if self.op not in ("=", "!=", "=~", "!~"):
            raise ValueError(f"unknown label matcher op: {self.op!r}")
        if self.op in ("=~", "!~"):
            if len(self.value) > RETAIN_LIMIT:
                raise ValueError(f"regex for label {self.label!r} over {RETAIN_LIMIT} characters")
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
        if retention is not None and (isnan(retention) or retention < 0):
            raise ValueError(f"retention must be a non-negative number, got {retention}")
        #: Samples older than ``newest - retention`` are dropped on ingest,
        #: per series.
        self.retention = retention
        self._series: dict[SeriesKey, TimeSeries] = {}
        #: Ingest's first probe: ``(name, *labels, *labels.values())``, the
        #: labels in the order they were sent, to the series they resolve
        #: to.  Flat, so an entry holds no per-label pair tuples.
        self._by_sent: dict[tuple, TimeSeries] = {}
        #: Name index: every series bucketed by metric name.
        self._by_name: dict[str, list[TimeSeries]] = {}
        #: Resolved selectors by ``(name, matchers)``, each stamped with the
        #: size of the name's bucket it was resolved against: a bucket only
        #: grows, so a new series of that name makes the entry stale.
        self._selector_cache: dict[
            tuple[str, tuple[LabelMatcher, ...]], tuple[int, list[TimeSeries]]
        ] = {}
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

        The win over per-point :meth:`record` is amortization: a sample
        whose labels arrive in an order seen before resolves its series
        with one probe of the as-sent index, selector-cache invalidation
        happens once per created series, the retention trim is folded into
        each append, and :attr:`generation` bumps once for the whole
        batch — a scrape of M points costs one cache invalidation wave
        instead of M.
        """
        if not samples:
            return 0
        self._apply_batch(self._plan_batch(samples))
        return len(samples)

    def _plan_batch(
        self,
        samples: Sequence[tuple[str, float, float, dict[str, str] | None]],
    ) -> tuple[list, dict, dict]:
        """Validate *samples* and resolve their series; mutates nothing.

        Returns ``(points, created, sent)``: every sample as ``(series,
        timestamp, value)``; the series the batch creates, keyed by their
        sorted ``(name, label_pairs)`` key so two label orders of one new
        series meet; and the as-sent index entries the batch adds.  A
        sample is resolved by its as-sent key in :attr:`_by_sent`; only a
        miss sorts its labels and probes the series dict.
        """
        points: list[tuple[TimeSeries, float, float]] = []
        # Each touched series' newest timestamp so far in this batch: the
        # floor a later sample of that series must not fall behind.
        newest: dict[TimeSeries, float] = {}
        created: dict[tuple, TimeSeries] = {}
        sent: dict[tuple, TimeSeries] = {}
        known, by_sent, add = self._series.get, self._by_sent.get, points.append
        for name, value, timestamp, labels in samples:
            if not isfinite(timestamp):
                raise ValueError(f"non-finite timestamp for {name}: {timestamp}")
            try:
                sent_key = (name, *labels, *labels.values()) if labels else (name,)
                series = by_sent(sent_key)
                if series is None:
                    series = sent.get(sent_key)
                if series is None:
                    key = (name, tuple(sorted(labels.items())) if labels else ())
                    series = known(key, created.get(key))
                    if series is None:
                        _check_identity(name, labels)
                        series = created[key] = TimeSeries(SeriesKey(*key))
                    sent[sent_key] = series
            except TypeError:  # an unhashable or unorderable label
                _check_identity(name, labels)
                raise
            floor = newest.get(series, series.newest_timestamp)
            if floor is not None and timestamp < floor:
                raise ValueError(
                    f"out-of-order sample for {series.key}: {timestamp} < {floor}"
                )
            newest[series] = timestamp
            add((series, timestamp, value))
        return points, created, sent

    def _apply_batch(self, plan: tuple[list, dict, dict]) -> None:
        """Apply a validated :meth:`_plan_batch` result; cannot fail.

        One pass lands the points: each append trims its series to the
        retention window ending at that sample.  A series' timestamps never
        decrease, so this keeps exactly what one trim at its newest sample
        would.
        """
        points, created, sent = plan
        for series in created.values():
            name = series.key.name
            self._series[series.key] = series
            # A new series can change what any cached selector for this
            # name matches: the bucket grows, and their stamps go stale.
            self._by_name.setdefault(name, []).append(series)
            self.series_generation += 1
        self._by_sent.update(sent)
        retention = inf if self.retention is None else self.retention
        for series, timestamp, value in points:
            series.append_ordered(timestamp, value, retention)
        self.generation += 1

    def select(
        self, name: str, matchers: Sequence[LabelMatcher] | None = None
    ) -> list[TimeSeries]:
        """All series with metric *name* whose labels satisfy *matchers*."""
        bucket = self._by_name.get(name)
        if bucket is None:
            return []
        if not matchers:
            return list(bucket)
        cache = self._selector_cache
        cache_key = (name, tuple(matchers))
        cached = cache.get(cache_key)
        if cached is not None and cached[0] == len(bucket):
            return list(cached[1])
        found = [
            series for series in bucket
            if all(matcher.matches(series.labels) for matcher in matchers)
        ]
        if retained(name, matchers):
            if cached is None and len(cache) >= CACHE_ENTRIES:
                del cache[next(iter(cache))]
            cache[cache_key] = (len(bucket), found)
        return list(found)

    def names(self) -> set[str]:
        """All metric names with at least one series."""
        return set(self._by_name)

    def __len__(self) -> int:
        return len(self._series)
