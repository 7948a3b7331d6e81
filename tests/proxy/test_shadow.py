"""Tests for shadow dispatch: send slots and the bounded wait."""

import asyncio

import pytest

from repro.core import RoutingConfig, ShadowRoute, TrafficSplit
from repro.httpcore import HttpClient, HttpServer, Request, Response
from repro.proxy import BifrostProxy, Shadower
from tests.httpcore.test_fastpath_counts import TaskCounter, TimerCounter


class GatedClient:
    """Stub upstream client whose sends block until released; it records
    the most sends it ever held at once."""

    def __init__(self):
        self.gate = asyncio.Event()
        self.sent = []
        self.fail = False
        self.sending = 0
        self.peak = 0

    async def send(self, request, host, port, timeout=None):
        self.sending += 1
        self.peak = max(self.peak, self.sending)
        try:
            await self.gate.wait()
        finally:
            self.sending -= 1
        if self.fail:
            raise ConnectionError("shadow target down")
        self.sent.append((request, host, port))
        return Response(status=200)


def _request(i=0):
    return Request("GET", f"/shadow/{i}")


async def test_shadows_are_sent_and_counted():
    client = GatedClient()
    client.gate.set()
    shadower = Shadower(client)
    assert shadower.shadow(_request(), "target:80")
    await shadower.drain()
    assert shadower.sent == 1
    assert shadower.dropped == 0
    request, host, port = client.sent[0]
    assert (host, port) == ("target", 80)
    assert request.headers.get("X-Bifrost-Shadow") == "true"
    await shadower.close()


async def test_failures_are_counted_never_raised():
    client = GatedClient()
    client.fail = True
    client.gate.set()
    shadower = Shadower(client)
    shadower.shadow(_request(), "target:80")
    await shadower.drain()
    assert shadower.failed == 1
    assert shadower.sent == 0
    await shadower.close()


async def test_drop_newest_when_queue_full():
    client = GatedClient()  # gate closed: nothing completes
    shadower = Shadower(client, max_pending=2, concurrency=1)
    accepted = [shadower.shadow(_request(i), "t:80") for i in range(5)]
    # The first takes the one send slot; two wait (max_pending), and the
    # first drop halves the bound, so everything beyond that is dropped.
    assert accepted == [True, True, True, False, False]
    assert shadower.dropped == accepted.count(False) > 0
    client.gate.set()
    await shadower.drain()
    assert shadower.sent == accepted.count(True)
    await shadower.close()


async def test_in_flight_tracks_backlog():
    client = GatedClient()
    shadower = Shadower(client, max_pending=10)
    for i in range(3):
        shadower.shadow(_request(i), "t:80")
    assert shadower.in_flight == 3
    client.gate.set()
    await shadower.drain()
    assert shadower.in_flight == 0
    await shadower.close()


async def test_concurrency_bounds_worker_pool():
    client = GatedClient()
    shadower = Shadower(client, max_pending=100, concurrency=2)
    for i in range(10):
        shadower.shadow(_request(i), "t:80")
    for _ in range(3):
        await asyncio.sleep(0)
    assert client.sending == 2
    client.gate.set()
    await shadower.drain()
    await shadower.close()
    assert shadower.sent == 10
    assert client.peak == 2


async def test_close_cancels_sends_and_discards_waiting_duplicates():
    client = GatedClient()  # gate closed: nothing completes
    shadower = Shadower(client, max_pending=10, concurrency=2)
    for i in range(5):
        assert shadower.shadow(_request(i), "t:80")
    await asyncio.sleep(0)
    await shadower.close()
    # Two sends cancelled, three waiting discarded: each one drop.
    assert (shadower.sent, shadower.failed, shadower.dropped) == (0, 0, 5)
    assert shadower.in_flight == 0
    assert client.sending == 0
    assert not shadower.shadow(_request(5), "t:80")  # closed: dropped
    assert shadower.dropped == 6


async def _answer(request) -> Response:
    return Response.text("ok")


async def dark_launch(dark_handler):
    """A started proxy forwarding everything to an answering primary and
    duplicating every request to a dark version served by *dark_handler*."""
    primary, dark = HttpServer(name="primary"), HttpServer(name="dark")
    primary.router.set_fallback(_answer)
    dark.router.set_fallback(dark_handler)
    await primary.start()
    await dark.start()
    proxy = BifrostProxy("svc", default_upstream=primary.address)
    await proxy.start()
    proxy.apply_config(
        RoutingConfig(
            splits=[TrafficSplit("stable", 100.0)],
            shadows=[ShadowRoute("stable", "dark", 100.0)],
        ),
        {"stable": primary.address, "dark": dark.address},
    )
    return proxy, primary, dark


async def test_stop_does_not_wait_for_a_hung_dark_version():
    """A dark version that never answers held ``proxy.stop()`` for the
    whole upstream timeout (30 s) while close() drained first."""

    async def never(request):
        await asyncio.Event().wait()

    proxy, primary, hung = await dark_launch(never)
    loop = asyncio.get_running_loop()
    async with HttpClient() as client:
        assert (await client.get(f"http://{proxy.address}/x")).status == 200
    while not hung.requests_handled:
        await asyncio.sleep(0.01)
    started = loop.time()
    await proxy.stop()
    assert loop.time() - started < 1.0
    shadower = proxy.shadower
    assert shadower.sent + shadower.failed + shadower.dropped == 1
    assert shadower.dropped == 1
    await hung.stop()
    await primary.stop()
    assert asyncio.all_tasks() == {asyncio.current_task()}


async def test_a_shadowed_request_creates_one_task_and_no_timer():
    proxy, primary, dark = await dark_launch(_answer)
    url = f"http://{proxy.address}/x"
    try:
        async with HttpClient() as client:
            # Warm: every connection is open and each client's timer armed.
            assert (await client.get(url)).status == 200
            await proxy.shadower.drain()
            tasks, timers = TaskCounter(), TimerCounter()
            for sends in range(1, 6):
                assert (await client.get(url)).status == 200
                await proxy.shadower.drain()
                assert tasks.created == sends  # the duplicate's send, only
            assert timers.armed == 0
            assert proxy.shadower.sent == 6
    finally:
        await proxy.stop()
        await dark.stop()
        await primary.stop()


def test_constructor_validation():
    client = GatedClient()
    with pytest.raises(ValueError):
        Shadower(client, max_pending=0)
    with pytest.raises(ValueError):
        Shadower(client, concurrency=0)
    with pytest.raises(ValueError):
        Shadower(client, target_delay=0)
