"""Counts that repeat exactly: Tasks per round trip, ``str.lower`` per
field name, closures per dispatch.  These pin the message fast path's
three invariants (docs/architecture.md, "HTTP message fast path") without
timing anything."""

import asyncio
import sys

from repro.httpcore import BodyStream, Headers, HttpClient, HttpServer, Request, Response
from tests.httpcore.wire import parked


def make_server() -> HttpServer:
    server = HttpServer(name="counts")

    async def echo(request: Request) -> Response:
        return Response(body=request.body or b"ok")

    server.router.set_fallback(echo)
    return server


class TaskCounter:
    """A task factory that counts the Tasks created while it is armed."""

    def __init__(self) -> None:
        self.created = 0
        asyncio.get_running_loop().set_task_factory(self)

    def __call__(self, loop, coro, **kwargs):
        self.created += 1
        return asyncio.Task(coro, loop=loop, **kwargs)


class TimerCounter:
    """Records the timers armed on the running loop while it is armed
    (``call_later`` arms through ``call_at`` too)."""

    def __init__(self) -> None:
        self.handles: list[asyncio.TimerHandle] = []
        loop = asyncio.get_running_loop()
        call_at = loop.call_at

        def counting_call_at(when, callback, *args, **kwargs):
            handle = call_at(when, callback, *args, **kwargs)
            self.handles.append(handle)
            return handle

        loop.call_at = counting_call_at

    @property
    def armed(self) -> int:
        return len(self.handles)


def request_to(server: HttpServer, **kwargs) -> Request:
    return Request("POST", "/echo", Headers({"Host": server.address}), **kwargs)


async def test_warm_buffered_round_trips_create_no_tasks():
    async with make_server() as server, HttpClient() as client:
        await client.send(request_to(server, body=b"warm"), server.host, server.port)
        counter = TaskCounter()
        for index in range(25):
            body = b"payload-%d" % index
            response = await client.send(
                request_to(server, body=body), server.host, server.port
            )
            assert response.body == body
        # Client and server share this loop: neither side made a Task.
        assert counter.created == 0
        assert parked(client) == 1


async def test_warm_buffered_round_trips_arm_at_most_one_timer():
    async with make_server() as server, HttpClient() as client:
        await client.send(request_to(server, body=b"warm"), server.host, server.port)
        timers = TimerCounter()
        for index in range(25):
            body = b"payload-%d" % index
            response = await client.send(
                request_to(server, body=body), server.host, server.port
            )
            assert response.body == body
        # One deadline timer per client, not one per round trip.
        assert timers.armed <= 1


async def test_close_leaves_no_timer_armed():
    async with make_server() as server:
        client = HttpClient()
        timers = TimerCounter()
        await client.send(request_to(server, body=b"one"), server.host, server.port)
        assert timers.armed == 1
        await client.close()
        assert all(handle.cancelled() for handle in timers.handles)


async def test_streamed_request_send_creates_exactly_the_pump_task():
    async with make_server() as server, HttpClient() as client:
        await client.send(request_to(server, body=b"warm"), server.host, server.port)
        counter = TaskCounter()
        for _ in range(5):
            stream = BodyStream.from_iterable([b"ab", b"cd"])
            response = await client.send(
                request_to(server, stream=stream), server.host, server.port
            )
            assert response.body == b"abcd"
        assert counter.created == 5


async def test_streamed_request_and_response_create_at_most_one_task_per_send():
    async with make_server() as server, HttpClient() as client:
        await client.send(request_to(server, body=b"warm"), server.host, server.port)
        counter = TaskCounter()
        for sends in range(1, 6):
            stream = BodyStream.from_iterable([b"ab", b"cd"])
            response = await client.send(
                request_to(server, stream=stream), server.host, server.port, stream=True
            )
            assert await response.aread() == b"abcd"
            assert counter.created <= sends
        assert parked(client) == 1


async def test_each_field_name_is_lowered_once_per_hop():
    # Casings no lookup literal in the code uses, so only the stored field
    # names are counted, not the names callers ask for.
    names = [f"X-Field-{index}" for index in range(9)] + ["CONNECTION"]
    lowered: dict[str, int] = {}

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ == "lower":
            subject = getattr(arg, "__self__", None)
            if subject in names:
                lowered[subject] = lowered.get(subject, 0) + 1

    async with make_server() as server:
        reader, writer = await asyncio.open_connection(server.host, server.port)
        fields = "".join(
            f"{name}: {'keep-alive' if name == 'CONNECTION' else 'v'}\r\n"
            for name in names
        )
        sys.setprofile(profile)
        try:
            for _ in range(2):  # the second proves the connection was kept
                writer.write(f"GET /x HTTP/1.1\r\n{fields}\r\n".encode())
                head = await reader.readuntil(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200")
                await reader.readexactly(2)
        finally:
            sys.setprofile(None)
            writer.close()
    assert lowered == {name: 2 for name in names}


async def test_dispatch_allocates_no_closure_per_request(monkeypatch):
    binds = 0
    bind = HttpServer._bind

    def counting_bind(middleware, inner):
        nonlocal binds
        binds += 1
        return bind(middleware, inner)

    monkeypatch.setattr(HttpServer, "_bind", staticmethod(counting_bind))
    server = make_server()
    seen: list[str] = []

    def tagger(tag: str):
        async def middleware(request, handler):
            seen.append(tag)
            return await handler(request)

        return middleware

    server.add_middleware(tagger("outer"))
    server.add_middleware(tagger("inner"))
    for _ in range(10):
        assert (await server._dispatch(Request("GET", "/x"))).body == b"ok"
    assert binds == 2  # one closure per middleware, built for the first request
    assert seen == ["outer", "inner"] * 10


async def test_middleware_added_after_start_applies_to_the_next_request():
    async with make_server() as server, HttpClient() as client:
        url = f"http://{server.address}/x"
        assert (await client.get(url)).headers.get("X-Late") is None

        async def late(request, handler):
            response = await handler(request)
            response.headers.set("X-Late", "yes")
            return response

        server.add_middleware(late)
        # Same keep-alive connection, already-composed handler: still applies.
        assert (await client.get(url)).headers.get("X-Late") == "yes"
        assert parked(client) == 1
