"""Tests for the instrumented-service base (metrics, queueing model)."""

import asyncio
import gc

from repro.casestudy import InstrumentedService
from repro.httpcore import HttpClient, Response


class Worker(InstrumentedService):
    def __init__(self, **kwargs):
        super().__init__(name="worker", **kwargs)

        @self.router.get("/work")
        async def work(request):
            await self.simulate_processing()
            return Response.from_json({"ok": True})

        @self.router.get("/boom")
        async def boom(request):
            raise RuntimeError("exploded")


async def test_requests_counted_by_path_and_code():
    service = Worker()
    async with service, HttpClient() as client:
        await client.get(f"http://{service.address}/work")
        await client.get(f"http://{service.address}/work")
        await client.get(f"http://{service.address}/missing")
        points = {
            (p.labels.get("path"), p.labels.get("code")): p.value
            for p in service.registry.collect()
            if p.name == "http_requests_total"
        }
        assert points[("/work", "200")] == 2.0
        assert points[("/missing", "404")] == 1.0


async def test_errors_counted_on_5xx():
    service = Worker()
    async with service, HttpClient() as client:
        await client.get(f"http://{service.address}/boom")
        # handle_error + instrumentation both see the 500; the counter
        # reflects at least one error and the latency histogram grew.
        assert service.request_errors.value >= 1
        assert service.request_seconds.count >= 1


async def test_metrics_and_health_not_instrumented():
    service = Worker()
    async with service, HttpClient() as client:
        await client.get(f"http://{service.address}/metrics")
        await client.get(f"http://{service.address}/healthz")
        points = [
            p
            for p in service.registry.collect()
            if p.name == "http_requests_total"
        ]
        assert points == [] or all(
            p.labels.get("path") not in ("/metrics", "/healthz") for p in points
        )


async def test_processing_delay_applied():
    import time

    service = Worker(processing_delay=0.03)
    async with service, HttpClient() as client:
        started = time.monotonic()
        await client.get(f"http://{service.address}/work")
        assert time.monotonic() - started >= 0.025
        assert service.processing_seconds.count == 1


async def test_queue_factor_inflates_concurrent_latency():
    """With queueing, 4 concurrent requests are slower per-request than a
    lone request — the load-splitting mechanism of the A/B phase."""
    service = Worker(processing_delay=0.02, queue_factor=1.0)
    async with service, HttpClient() as client:

        async def timed():
            import time

            t0 = time.monotonic()
            await client.get(f"http://{service.address}/work")
            return time.monotonic() - t0

        # A full collection now keeps a collector pause (tens of ms after
        # a long test session) out of the timed requests: it is not
        # queueing, and landing in the lone request it hides the effect.
        gc.collect()
        solo = await timed()
        concurrent = await asyncio.gather(*[timed() for _ in range(4)])
        assert max(concurrent) > solo * 1.5


async def test_inflight_returns_to_zero():
    service = Worker(processing_delay=0.01)
    async with service, HttpClient() as client:
        await asyncio.gather(
            *[client.get(f"http://{service.address}/work") for _ in range(5)]
        )
        assert service.inflight == 0
