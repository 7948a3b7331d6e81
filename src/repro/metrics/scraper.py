"""Periodic metric collection into the store.

Each scrape collects every attached in-process
:class:`~repro.metrics.registry.Registry` (a *local target*) and ingests
its points into a :class:`~repro.metrics.store.MetricStore`, attaching an
``instance`` label identifying the target (e.g. ``search:80``), which is
what strategy queries match on (paper Listing 1).  Components in another
process push through ``POST /api/v1/ingest`` instead.
"""

from __future__ import annotations

import asyncio
import logging

from ..clock import Clock, RealClock
from .registry import Registry
from .store import MetricStore

logger = logging.getLogger(__name__)


class Scraper:
    """Periodically collects metrics from targets into a store."""

    def __init__(
        self,
        store: MetricStore,
        interval: float = 1.0,
        clock: Clock | None = None,
    ):
        self.store = store
        self.interval = interval
        self.clock = clock or RealClock()
        self._local_targets: list[tuple[str, Registry]] = []
        self._task: asyncio.Task[None] | None = None
        #: Memoized ``{"instance": ...}`` label maps, one per instance —
        #: the common unlabeled point reuses this dict instead of building
        #: a fresh one per point per scrape.
        self._instance_labels: dict[str, dict[str, str]] = {}

    def add_local(self, instance: str, registry: Registry) -> None:
        """Collect an in-process registry without HTTP."""
        self._local_targets.append((instance, registry))

    async def scrape_once(self) -> int:
        """Collect every target once; returns the number of ingested points.

        Each target's points land through one
        :meth:`~repro.metrics.store.MetricStore.record_batch` call — one
        generation bump and one cache-invalidation wave per target per
        scrape instead of one per point.
        """
        ingested = 0
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
        return ingested

    def _record_batch(
        self, batch: list[tuple[str, float, float, dict[str, str]]], instance: str
    ) -> int:
        try:
            return self.store.record_batch(batch)
        except ValueError as exc:
            # The whole batch is rejected (record_batch is atomic): the
            # target's points are lost for this scrape, the loop goes on.
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
        """Cancel the scrape loop."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
