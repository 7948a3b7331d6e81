"""Scraper batching semantics (incremental ingest path)."""

from repro.clock import VirtualClock
from repro.metrics import LabelMatcher, MetricStore, Registry, Scraper


async def test_stale_batch_rejected_atomically():
    clock = VirtualClock(start=50.0)
    store = MetricStore()
    store.record("a_total", 1.0, 99.0, {"instance": "svc:80"})
    registry = Registry()
    registry.counter("fresh_total").inc()
    registry.counter("a_total").inc(2)
    scraper = Scraper(store, clock=clock)
    scraper.add_local("svc:80", registry)
    # The whole target batch is rejected: a_total at t=50 is behind its
    # floor (99), so fresh_total must not land either.
    assert await scraper.scrape_once() == 0
    assert store.names() == {"a_total"}


async def test_unselectable_series_fails_the_scrape_atomically():
    clock = VirtualClock(start=5.0)
    store = MetricStore()
    registry = Registry()
    registry.counter("ok_total").inc()
    registry.counter("").inc()  # a series no selector could ever name
    scraper = Scraper(store, clock=clock)
    scraper.add_local("svc:80", registry)
    assert await scraper.scrape_once() == 0
    assert (len(store), store.generation, store.series_generation) == (0, 0, 0)


async def test_unlabeled_points_share_cached_instance_labels():
    clock = VirtualClock(start=1.0)
    store = MetricStore()
    registry = Registry()
    registry.counter("c1").inc()
    registry.counter("c2").inc(2)
    scraper = Scraper(store, clock=clock)
    scraper.add_local("svc:80", registry)
    await scraper.scrape_once()
    cached = scraper._instance_labels["svc:80"]
    assert cached == {"instance": "svc:80"}
    assert scraper._merged_labels({}, "svc:80") is cached
    # A point already carrying instance passes through without a copy.
    labels = {"instance": "custom"}
    assert scraper._merged_labels(labels, "svc:80") is labels
    series = store.select("c1", [LabelMatcher("instance", "=", "svc:80")])
    assert len(series) == 1


async def test_labeled_points_gain_the_instance_label():
    clock = VirtualClock(start=7.0)
    store = MetricStore()
    registry = Registry()
    for i in range(24):
        counter = registry.counter(f"metric_{i}_total", label_names=("zone",))
        counter.labels(zone=f"z{i % 3}").inc(i)
    scraper = Scraper(store, clock=clock)
    scraper.add_local("svc:80", registry)
    assert await scraper.scrape_once() == 24
    assert store.names() == {f"metric_{i}_total" for i in range(24)}
    for i in range(24):
        (series,) = store.select(f"metric_{i}_total")
        assert series.labels == {"zone": f"z{i % 3}", "instance": "svc:80"}
        assert series.newest_timestamp == 7.0
        assert series.value_at(7.0) == float(i)


async def test_a_target_lands_as_one_generation_bump():
    clock = VirtualClock(start=3.0)
    store = MetricStore()
    registry = Registry()
    for name in ("a_total", "b_total", "c_total"):
        registry.counter(name).inc()
    scraper = Scraper(store, clock=clock)
    scraper.add_local("svc:80", registry)
    before = store.generation
    assert await scraper.scrape_once() == 3
    assert store.generation == before + 1
