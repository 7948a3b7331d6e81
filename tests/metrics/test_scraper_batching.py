"""Scraper concurrency and batching semantics (incremental ingest path)."""

import asyncio

from repro.clock import VirtualClock
from repro.httpcore import HttpServer, Response
from repro.metrics import LabelMatcher, MetricStore, Registry, Sample, Scraper


class FakeClient:
    """HTTP client stub: per-URL payloads, optional virtual-time delays."""

    def __init__(self, clock, pages, delays=None):
        self.clock = clock
        self.pages = pages
        self.delays = delays or {}

    async def get(self, url):
        delay = self.delays.get(url, 0.0)
        if delay:
            await self.clock.sleep(delay)
        return Response.text(self.pages[url])


async def test_slow_target_does_not_delay_peer_ingest_timestamps():
    clock = VirtualClock(start=100.0)
    store = MetricStore()
    client = FakeClient(
        clock,
        pages={"http://fast/metrics": "m_fast 1\n", "http://slow/metrics": "m_slow 2\n"},
        delays={"http://slow/metrics": 10.0},
    )
    scraper = Scraper(store, clock=clock, client=client)
    scraper.add_target("fast:80", "http://fast/metrics")
    scraper.add_target("slow:80", "http://slow/metrics")
    task = asyncio.create_task(scraper.scrape_once())
    await clock.advance(10.0)
    assert await task == 2
    # The fast target's sample is stamped at its own fetch completion, not
    # after its slow peer finally answered.
    assert store.select("m_fast")[0].latest().timestamp == 100.0
    assert store.select("m_slow")[0].latest().timestamp == 110.0


async def test_malformed_lines_skipped_and_counted():
    clock = VirtualClock(start=5.0)
    store = MetricStore()
    payload = "good_metric 1\nthis is {{{ garbage\nother_metric 2\nbad value!!\n"
    client = FakeClient(clock, pages={"http://svc/metrics": payload})
    scraper = Scraper(store, clock=clock, client=client)
    scraper.add_target("svc:80", "http://svc/metrics")
    assert await scraper.scrape_once() == 2
    assert store.names() == {"good_metric", "other_metric"}
    assert scraper.parse_errors["svc:80"] == 2
    assert scraper.failures["svc:80"] == 0
    # Counters accumulate across scrapes.
    await scraper.scrape_once()
    assert scraper.parse_errors["svc:80"] == 4


async def test_stale_batch_rejected_atomically():
    clock = VirtualClock(start=50.0)
    store = MetricStore()
    store.record("a_total", 1.0, 99.0, {"instance": "svc:80"})
    client = FakeClient(clock, pages={"http://svc/metrics": "fresh_total 1\na_total 2\n"})
    scraper = Scraper(store, clock=clock, client=client)
    scraper.add_target("svc:80", "http://svc/metrics")
    # The whole target batch is rejected: a_total at t=50 is behind its
    # floor (99), so fresh_total must not land either.
    assert await scraper.scrape_once() == 0
    assert store.names() == {"a_total"}
    assert scraper.failures["svc:80"] == 1


async def test_unlabeled_points_share_cached_instance_labels():
    clock = VirtualClock(start=1.0)
    store = MetricStore()
    registry = Registry()
    registry.counter("c1").inc()
    registry.counter("c2").inc(2)
    scraper = Scraper(store, clock=clock, client=FakeClient(clock, pages={}))
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
    payload = "".join(
        f'metric_{i}_total{{zone="z{i % 3}"}} {i}\n' for i in range(24)
    )
    clock = VirtualClock(start=7.0)
    store = MetricStore()
    client = FakeClient(clock, pages={"http://svc/metrics": payload})
    scraper = Scraper(store, clock=clock, client=client)
    scraper.add_target("svc:80", "http://svc/metrics")
    assert await scraper.scrape_once() == 24
    assert store.names() == {f"metric_{i}_total" for i in range(24)}
    for i in range(24):
        (series,) = store.select(f"metric_{i}_total")
        assert series.key.label_dict() == {"zone": f"z{i % 3}", "instance": "svc:80"}
        assert series.latest() == Sample(7.0, float(i))


async def test_http_scrape_lands_as_one_generation_bump():
    clock = VirtualClock(start=3.0)
    store = MetricStore()
    payload = "a_total 1\nb_total 2\nc_total 3\n"
    client = FakeClient(clock, pages={"http://svc/metrics": payload})
    scraper = Scraper(store, clock=clock, client=client)
    scraper.add_target("svc:80", "http://svc/metrics")
    before = store.generation
    assert await scraper.scrape_once() == 3
    assert store.generation == before + 1


async def test_real_http_target_batched_end_to_end():
    registry = Registry()
    registry.gauge("temperature").set(21.5)
    server = HttpServer()

    @server.router.get("/metrics")
    async def metrics(request):
        body = "temperature 21.5\ngarbage line !!!\n"
        return Response.text(body)

    async with server:
        store = MetricStore()
        scraper = Scraper(store)
        scraper.add_target("svc:80", f"http://{server.address}/metrics")
        ingested = await scraper.scrape_once()
        await scraper.stop()
    assert ingested == 1
    assert scraper.parse_errors["svc:80"] == 1
    assert store.select("temperature")[0].latest().value == 21.5
