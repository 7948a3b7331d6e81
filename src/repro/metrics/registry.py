"""Instrumentation primitives: counters, gauges, histograms.

The case-study services expose "container and low-level performance metrics
as well as business metrics" (paper section 5.1.1) which Prometheus scrapes.
This registry is the service-side half: metric objects that handlers update,
and a collect step that snapshots them for exposition/scraping.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable

DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass(frozen=True)
class MetricPoint:
    """One collected sample ready for exposition."""

    name: str
    labels: dict[str, str]
    value: float


class _Metric:
    """Common machinery: child instances per label set."""

    def __init__(self, name: str, help_text: str, label_names: tuple[str, ...]):
        self.name = name
        self.help_text = help_text
        self.label_names = label_names
        self._children: dict[tuple[str, ...], "_Metric"] = {}

    def labels(self, **labels: str):
        """Return (creating if needed) the child for this label set."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name} expects labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = type(self)(self.name, self.help_text, ())
            self._children[key] = child
        return child

    def _iter_children(self) -> Iterable[tuple[dict[str, str], "_Metric"]]:
        if self.label_names:
            for key, child in self._children.items():
                yield dict(zip(self.label_names, key)), child
        else:
            yield {}, self

    def collect(self) -> list[MetricPoint]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing value (requests served, errors seen)."""

    def __init__(self, name: str, help_text: str = "", label_names: tuple[str, ...] = ()):
        super().__init__(name, help_text, label_names)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        if self.label_names:
            raise ValueError(f"metric {self.name} is labelled; use .labels() first")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def collect(self) -> list[MetricPoint]:
        return [
            MetricPoint(self.name, labels, child._value)
            for labels, child in self._iter_children()
        ]


class Gauge(_Metric):
    """A value that can go up and down (in-flight requests, CPU%)."""

    def __init__(self, name: str, help_text: str = "", label_names: tuple[str, ...] = ()):
        super().__init__(name, help_text, label_names)
        self._value = 0.0

    def set(self, value: float) -> None:
        if self.label_names:
            raise ValueError(f"metric {self.name} is labelled; use .labels() first")
        self._value = value

    def collect(self) -> list[MetricPoint]:
        return [
            MetricPoint(self.name, labels, child._value)
            for labels, child in self._iter_children()
        ]


class Histogram(_Metric):
    """Cumulative-bucket histogram (response times).

    Collects to ``name_bucket{le=...}``, ``name_sum``, and ``name_count``
    points, following the Prometheus exposition conventions so queries like
    ``rate(http_request_seconds_sum[30s]) / rate(http_request_seconds_count[30s])``
    work against the store.
    """

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, label_names)
        self.buckets = tuple(sorted(buckets))
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # +inf bucket
        self._sum = 0.0
        self._count = 0

    def labels(self, **labels: str) -> "Histogram":
        child = super().labels(**labels)
        child.buckets = self.buckets
        if len(child._bucket_counts) != len(self.buckets) + 1:
            child._bucket_counts = [0] * (len(self.buckets) + 1)
        return child  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        if self.label_names:
            raise ValueError(f"metric {self.name} is labelled; use .labels() first")
        index = bisect.bisect_left(self.buckets, value)
        self._bucket_counts[index] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def collect(self) -> list[MetricPoint]:
        points = []
        for labels, child in self._iter_children():
            histogram: Histogram = child  # type: ignore[assignment]
            cumulative = 0
            for bound, bucket_count in zip(histogram.buckets, histogram._bucket_counts):
                cumulative += bucket_count
                points.append(
                    MetricPoint(
                        f"{self.name}_bucket",
                        {**labels, "le": _format_bound(bound)},
                        float(cumulative),
                    )
                )
            cumulative += histogram._bucket_counts[-1]
            points.append(
                MetricPoint(f"{self.name}_bucket", {**labels, "le": "+Inf"}, float(cumulative))
            )
            points.append(MetricPoint(f"{self.name}_sum", labels, histogram._sum))
            points.append(MetricPoint(f"{self.name}_count", labels, float(histogram._count)))
        return points


def _format_bound(bound: float) -> str:
    return str(int(bound)) if bound == int(bound) else repr(bound)


class Registry:
    """A named collection of metrics exposed by one process/service."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> None:
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric

    def counter(
        self, name: str, help_text: str = "", label_names: tuple[str, ...] = ()
    ) -> Counter:
        metric = Counter(name, help_text, label_names)
        self._register(metric)
        return metric

    def gauge(
        self, name: str, help_text: str = "", label_names: tuple[str, ...] = ()
    ) -> Gauge:
        metric = Gauge(name, help_text, label_names)
        self._register(metric)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = Histogram(name, help_text, label_names, buckets)
        self._register(metric)
        return metric

    def collect(self) -> list[MetricPoint]:
        """Snapshot every metric for exposition or direct ingestion."""
        points: list[MetricPoint] = []
        for metric in self._metrics.values():
            points.extend(metric.collect())
        return points
