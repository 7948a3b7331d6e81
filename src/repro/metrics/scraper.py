"""Pull-based metric collection, as Prometheus does it.

The scraper periodically fetches ``/metrics`` from configured targets and
ingests the parsed points into a :class:`~repro.metrics.store.MetricStore`,
attaching an ``instance`` label identifying the target (e.g.
``search:80``), which is what strategy queries match on (paper Listing 1).

Registries living in the same process can also be attached directly
(*local targets*), skipping HTTP — used by the engine to publish its own
resource metrics without a loopback scrape.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass

from ..clock import Clock, RealClock
from ..httpcore import HttpClient
from . import exposition
from .registry import Registry
from .store import MetricStore

logger = logging.getLogger(__name__)


@dataclass
class ScrapeTarget:
    """One HTTP scrape target."""

    instance: str  # label value, e.g. "search:80"
    url: str  # full URL of the metrics endpoint


class Scraper:
    """Periodically collects metrics from targets into a store."""

    def __init__(
        self,
        store: MetricStore,
        interval: float = 1.0,
        clock: Clock | None = None,
        client: HttpClient | None = None,
    ):
        self.store = store
        self.interval = interval
        self.clock = clock or RealClock()
        self._client = client or HttpClient(timeout=5.0)
        self._owns_client = client is None
        self._http_targets: list[ScrapeTarget] = []
        self._local_targets: list[tuple[str, Registry]] = []
        self._task: asyncio.Task[None] | None = None
        #: Consecutive failures per instance, for observability and tests.
        self.failures: dict[str, int] = {}
        #: Cumulative malformed exposition lines per instance.  A bad line
        #: is skipped, not fatal: the rest of the target's payload still
        #: ingests (see :func:`repro.metrics.exposition.parse_tolerant`).
        self.parse_errors: dict[str, int] = {}
        #: Memoized ``{"instance": ...}`` label maps, one per instance —
        #: the common unlabeled point reuses this dict instead of building
        #: a fresh one per point per scrape.
        self._instance_labels: dict[str, dict[str, str]] = {}

    def add_target(self, instance: str, url: str) -> None:
        """Scrape *url* and label its series with ``instance=<instance>``."""
        self._http_targets.append(ScrapeTarget(instance, url))

    def add_local(self, instance: str, registry: Registry) -> None:
        """Collect an in-process registry without HTTP."""
        self._local_targets.append((instance, registry))

    async def scrape_once(self) -> int:
        """Scrape every target once; returns the number of ingested points.

        HTTP targets are fetched *concurrently*: each target's response
        is timestamped and ingested as soon as its own fetch completes, so
        a slow target delays neither its peers' fetches nor their ingest
        timestamps.  Each target's points land through one
        :meth:`~repro.metrics.store.MetricStore.record_batch` call — one
        generation bump and one cache-invalidation wave per target per
        scrape instead of one per point.
        """
        ingested = 0
        if self._local_targets:
            timestamp = self.clock.now()
            for instance, registry in self._local_targets:
                batch = [
                    (
                        point.name,
                        point.value,
                        timestamp,
                        self._merged_labels(point.labels, instance),
                    )
                    for point in registry.collect()
                ]
                ingested += self._record_batch(batch, instance)
        if len(self._http_targets) == 1:
            ingested += await self._scrape_http_target(self._http_targets[0])
        elif self._http_targets:
            ingested += sum(
                await asyncio.gather(
                    *(
                        self._scrape_http_target(target)
                        for target in self._http_targets
                    )
                )
            )
        return ingested

    async def _scrape_http_target(self, target: ScrapeTarget) -> int:
        """Fetch, parse, and batch-ingest one HTTP target."""
        try:
            response = await self._client.get(target.url)
            points, bad_lines = exposition.parse_tolerant(
                response.body.decode("utf-8")
            )
        except Exception as exc:
            self.failures[target.instance] = self.failures.get(target.instance, 0) + 1
            logger.warning("scrape of %s failed: %s", target.instance, exc)
            return 0
        self.failures[target.instance] = 0
        if bad_lines:
            self.parse_errors[target.instance] = (
                self.parse_errors.get(target.instance, 0) + len(bad_lines)
            )
            logger.warning(
                "scrape of %s skipped %d malformed exposition lines",
                target.instance,
                len(bad_lines),
            )
        # Timestamp after the fetch resolves: concurrent peers each
        # stamp their own arrival time, so a stalled target cannot
        # skew the samples of targets that answered promptly.
        timestamp = self.clock.now()
        batch = [
            (
                point.name,
                point.value,
                timestamp,
                self._merged_labels(point.labels, target.instance),
            )
            for point in points
        ]
        return self._record_batch(batch, target.instance)

    def _record_batch(
        self, batch: list[tuple[str, float, float, dict[str, str]]], instance: str
    ) -> int:
        try:
            return self.store.record_batch(batch)
        except ValueError as exc:
            # The whole batch is rejected (record_batch is atomic), so a
            # target replaying stale timestamps counts as a failed scrape.
            self.failures[instance] = self.failures.get(instance, 0) + 1
            logger.warning("ingest of %s failed: %s", instance, exc)
            return 0

    def _merged_labels(
        self, labels: dict[str, str], instance: str
    ) -> dict[str, str]:
        """The point's labels with ``instance`` attached, copying lazily.

        Unlabeled points — the common case — share one memoized
        ``{"instance": ...}`` dict per target, and points already carrying
        an ``instance`` label are passed through untouched; only the
        labeled-without-instance case pays for a fresh dict.  Safe because
        the store never mutates or retains the label map (it is collapsed
        into a :class:`~repro.metrics.series.SeriesKey` tuple).
        """
        if not labels:
            cached = self._instance_labels.get(instance)
            if cached is None:
                cached = self._instance_labels[instance] = {"instance": instance}
            return cached
        if "instance" in labels:
            return labels
        merged = dict(labels)
        merged["instance"] = instance
        return merged

    async def _run(self) -> None:
        while True:
            await self.scrape_once()
            await self.clock.sleep(self.interval)

    def start(self) -> None:
        """Start the periodic scrape loop as a background task."""
        if self._task is not None:
            raise RuntimeError("scraper already started")
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the scrape loop and release the HTTP client if owned."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._owns_client:
            await self._client.close()
