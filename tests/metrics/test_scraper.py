"""Tests for the scraper of in-process registries."""

import pytest

from repro.clock import VirtualClock
from repro.metrics import LabelMatcher, MetricStore, Registry, Scraper


async def test_scrape_local_registry():
    store = MetricStore()
    registry = Registry()
    registry.counter("hits").inc(5)
    scraper = Scraper(store, clock=VirtualClock(start=100.0))
    scraper.add_local("svc:80", registry)
    ingested = await scraper.scrape_once()
    await scraper.stop()
    assert ingested == 1
    series = store.select("hits", [LabelMatcher("instance", "=", "svc:80")])
    assert len(series) == 1
    assert series[0].value_at(100.0) == 5.0
    assert series[0].newest_timestamp == 100.0


async def test_scrape_mixed_targets_one_failing():
    registry = Registry()
    registry.counter("ok_metric").inc()
    broken = Registry()
    broken.counter("").inc()  # a series no selector could name: refused
    store = MetricStore()
    scraper = Scraper(store)
    scraper.add_local("bad", broken)
    scraper.add_local("good", registry)
    ingested = await scraper.scrape_once()
    await scraper.stop()
    assert ingested == 1
    assert store.names() == {"ok_metric"}


async def test_periodic_scrape_loop_with_virtual_clock():
    clock = VirtualClock()
    store = MetricStore()
    registry = Registry()
    gauge = registry.gauge("g")
    scraper = Scraper(store, interval=5.0, clock=clock)
    scraper.add_local("svc", registry)
    scraper.start()
    with pytest.raises(RuntimeError):
        scraper.start()
    # First scrape happens immediately; then every 5 virtual seconds.
    await clock.advance(0)
    gauge.set(1)
    await clock.advance(5)
    gauge.set(2)
    await clock.advance(5)
    await scraper.stop()
    series = store.select("g")[0]
    values = list(series.window_arrays(-1, clock.now())[1])
    assert values == [0.0, 1.0, 2.0]


async def test_instance_label_does_not_override_existing():
    """A point that already carries instance keeps its own label."""
    store = MetricStore()
    registry = Registry()
    registry.gauge("g", label_names=("instance",)).labels(instance="custom").set(9)
    scraper = Scraper(store, clock=VirtualClock())
    scraper.add_local("scraped", registry)
    await scraper.scrape_once()
    await scraper.stop()
    series = store.select("g", [LabelMatcher("instance", "=", "custom")])
    assert len(series) == 1
