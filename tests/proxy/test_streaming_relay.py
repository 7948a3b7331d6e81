"""The streaming data plane: proxy relay, shadow tee, adaptive backpressure."""

import asyncio

import pytest

from repro.core import RoutingConfig, ShadowRoute, TrafficSplit
from repro.httpcore import BodyStream, HttpClient, HttpServer, Request, Response
from repro.metrics import Registry
from repro.proxy import BifrostProxy, Shadower


class RecordingUpstream(HttpServer):
    """Buffered upstream that records every body it receives."""

    def __init__(self, version: str):
        super().__init__(name=version)
        self.version = version
        self.bodies: list[bytes] = []

        async def handler(request):
            self.bodies.append(request.body)
            return Response.from_json({"version": self.version})

        self.router.set_fallback(handler)


class RelayUpstream(HttpServer):
    """Streaming upstream that echoes the request stream back as it arrives."""

    def __init__(self):
        super().__init__(name="relay", stream_bodies=True)

        async def handler(request):
            return Response.streaming(request.iter_body())

        self.router.set_fallback(handler)


def chunked_request(target: str, chunks, host: str) -> Request:
    request = Request(
        method="POST", target=target, stream=BodyStream.from_iterable(chunks)
    )
    request.headers.set("Host", host)
    return request


async def test_proxy_relays_streamed_bodies_duplex():
    """First upstream response bytes reach the client before the last
    client request bytes are produced — through two relay hops."""
    release_tail = asyncio.Event()

    async def producer():
        yield b"head"
        await release_tail.wait()
        yield b"tail"

    async with RelayUpstream() as upstream:
        proxy = BifrostProxy("svc", default_upstream=upstream.address)
        await proxy.start()
        client = HttpClient()
        try:
            request = chunked_request("/pipe", producer(), proxy.address)
            response = await client.send(
                request, proxy.host, proxy.port, stream=True
            )
            assert response.status == 200
            first = await response.stream.__anext__()
            assert first == b"head"
            release_tail.set()
            assert await response.aread() == b"tail"
        finally:
            await client.close()
            await proxy.stop()


async def test_proxy_streams_large_body_through_buffered_upstream():
    async with RecordingUpstream("stable") as upstream:
        proxy = BifrostProxy("svc", default_upstream=upstream.address)
        await proxy.start()
        client = HttpClient()
        try:
            body = b"b" * 100_000
            response = await client.post(f"http://{proxy.address}/x", body=body)
            assert response.status == 200
            assert upstream.bodies == [body]
        finally:
            await client.close()
            await proxy.stop()


async def shadow_setup(tee_capacity: int = 64):
    primary = RecordingUpstream("stable")
    shadow = RecordingUpstream("shadow")
    await primary.start()
    await shadow.start()
    proxy = BifrostProxy("svc", default_upstream=primary.address)
    # A fast primary can outrun the shadow's connection setup; give the
    # tee enough slack to hold the whole (small) test body.
    proxy.shadower.tee_capacity = tee_capacity
    await proxy.start()
    config = RoutingConfig(
        splits=[TrafficSplit("stable", 100.0)],
        shadows=[ShadowRoute("stable", "shadow", 100.0)],
    )
    proxy.apply_config(
        config, {"stable": primary.address, "shadow": shadow.address}
    )
    client = HttpClient()
    return proxy, primary, shadow, client


async def test_streamed_shadow_gets_identical_body_via_tee():
    proxy, primary, shadow, client = await shadow_setup()
    try:
        chunks = [b"chunk-%03d" % i for i in range(50)]
        request = chunked_request("/x", chunks, proxy.address)
        response = await client.send(request, proxy.host, proxy.port)
        assert response.json()["version"] == "stable"
        await proxy.shadower.drain()
        assert primary.bodies == [b"".join(chunks)]
        assert shadow.bodies == [b"".join(chunks)]
        assert proxy.shadower.sent == 1
        assert proxy.shadower.dropped == 0
    finally:
        await client.close()
        await proxy.stop()
        await primary.stop()
        await shadow.stop()


async def test_second_streamed_shadow_is_dropped_with_accounting():
    primary = RecordingUpstream("stable")
    shadow = RecordingUpstream("shadow")
    await primary.start()
    await shadow.start()
    proxy = BifrostProxy("svc", default_upstream=primary.address)
    proxy.shadower.tee_capacity = 64
    await proxy.start()
    config = RoutingConfig(
        splits=[TrafficSplit("stable", 100.0)],
        shadows=[
            ShadowRoute("stable", "shadow", 100.0),
            ShadowRoute("stable", "shadow2", 100.0),
        ],
    )
    proxy.apply_config(
        config,
        {
            "stable": primary.address,
            "shadow": shadow.address,
            "shadow2": shadow.address,
        },
    )
    client = HttpClient()

    async def held_tail():
        # The rest of the body leaves only once the proxy dispatched the
        # head, so the body is still streaming (a whole body that arrives
        # with its head is buffered, and buffered bodies fan out to all).
        yield b"data"
        while not proxy.requests_handled:
            await asyncio.sleep(0.001)
        for _ in range(3):
            yield b"data"

    try:
        request = chunked_request("/x", held_tail(), proxy.address)
        response = await client.send(request, proxy.host, proxy.port)
        assert response.status == 200
        await proxy.shadower.drain()
        # A stream tees to at most one branch: the first shadow rode it,
        # the second was dropped and the drop is visible.
        assert proxy.shadower.sent == 1
        assert proxy.shadower.dropped == 1
        assert shadow.bodies == [b"data" * 4]
    finally:
        await client.close()
        await proxy.stop()
        await primary.stop()
        await shadow.stop()


async def test_buffered_shadows_still_fan_out_to_all_targets():
    """A body that arrives with its head is buffered, not streamed, and
    keeps the N-way fan-out."""
    primary = RecordingUpstream("stable")
    shadow = RecordingUpstream("shadow")
    await primary.start()
    await shadow.start()
    proxy = BifrostProxy("svc", default_upstream=primary.address)
    await proxy.start()
    config = RoutingConfig(
        splits=[TrafficSplit("stable", 100.0)],
        shadows=[
            ShadowRoute("stable", "shadow", 100.0),
            ShadowRoute("stable", "shadow2", 100.0),
        ],
    )
    proxy.apply_config(
        config,
        {
            "stable": primary.address,
            "shadow": shadow.address,
            "shadow2": shadow.address,
        },
    )
    client = HttpClient()
    try:
        await client.post(f"http://{proxy.address}/x", body=b"dup")
        await proxy.shadower.drain()
        assert proxy.shadower.sent == 2
        assert proxy.shadower.dropped == 0
        assert shadow.bodies == [b"dup", b"dup"]
    finally:
        await client.close()
        await proxy.stop()
        await primary.stop()
        await shadow.stop()


# -- tee under a slow shadow ------------------------------------------------


async def test_slow_shadow_branch_aborts_never_stalls_primary():
    shadower = Shadower(HttpClient(), tee_capacity=2)
    source = BodyStream.from_iterable([b"x" * 10] * 20)
    tee = shadower.tee(source)
    # Nobody consumes the branch (the shadow upstream is stuck): the
    # primary still sees every byte, immediately.
    total = 0
    async for chunk in tee.primary:
        total += len(chunk)
    assert total == 200
    assert shadower.dropped == 1


# -- adaptive bound ---------------------------------------------------------


def make_shadower(**kwargs):
    return Shadower(HttpClient(), **kwargs)


async def test_effective_pending_starts_at_ceiling():
    shadower = make_shadower(max_pending=64)
    assert shadower.effective_pending == 64


async def test_drops_halve_the_bound_and_sends_recover_it():
    shadower = make_shadower(max_pending=64)
    shadower.note_drop()
    assert shadower.effective_pending == 32
    shadower.note_drop()
    assert shadower.effective_pending == 16
    before = shadower.effective_pending
    for _ in range(4):
        shadower._note_sent(0.001)
    assert shadower.effective_pending == before + 4


async def test_latency_ewma_bounds_queue_to_target_delay():
    shadower = make_shadower(max_pending=1024, concurrency=8, target_delay=0.25)
    # A slow shadow upstream (500 ms per send) can absorb at most
    # concurrency * target_delay / latency = 8 * 0.25 / 0.5 = 4 queued
    # duplicates without exceeding the target queue delay.
    shadower._note_sent(0.5)
    assert shadower.latency_ewma == 0.5
    assert shadower.effective_pending == 4


async def test_bound_never_leaves_configured_range():
    shadower = make_shadower(max_pending=8)
    for _ in range(10):
        shadower.note_drop()
    assert shadower.effective_pending == 1
    shadower.latency_ewma = 1000.0  # absurdly slow upstream
    assert shadower.effective_pending == 1
    shadower.latency_ewma = None
    for _ in range(100):
        shadower._note_sent(0.0001)
    assert shadower.effective_pending == 8


async def test_admission_uses_adaptive_bound():
    class StuckClient:
        async def send(self, request, host, port, timeout=None, stream=False):
            await asyncio.sleep(3600)

    shadower = Shadower(StuckClient(), max_pending=100)
    # Simulate a measured-slow upstream: bound collapses well below the
    # static ceiling, so admission stops far earlier than max_pending.
    shadower.note_drop()  # 50
    shadower.note_drop()  # 25
    accepted = sum(
        1 if shadower.shadow(Request("GET", f"/{i}"), "t:80") else 0
        for i in range(100)
    )
    # The first `concurrency` take a send slot at once; the bound counts
    # only the duplicates waiting for one.
    assert accepted == 25 + shadower.concurrency
    await shadower.close()


# -- metrics exposition -----------------------------------------------------


async def test_shadow_metrics_ride_the_proxy_exposition():
    registry = Registry()
    shadower = Shadower(HttpClient(), registry=registry)
    shadower.note_drop()
    names = {point.name for point in registry.collect()}
    assert "bifrost_shadow_dropped_total" in names
    assert any(
        name.startswith("bifrost_shadow_queue_delay_seconds") for name in names
    )
    assert "bifrost_shadow_effective_pending" in names


async def test_proxy_metrics_endpoint_exposes_shadow_counters():
    proxy, primary, shadow, client = await shadow_setup()
    try:
        await client.post(f"http://{proxy.address}/x", body=b"hello")
        await proxy.shadower.drain()
        metrics = await client.get(f"http://{proxy.address}/metrics")
        text = metrics.body.decode()
        assert "bifrost_shadow_dropped_total" in text
        assert "bifrost_shadow_queue_delay_seconds" in text
    finally:
        await client.close()
        await proxy.stop()
        await primary.stop()
        await shadow.stop()
