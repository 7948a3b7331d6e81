"""Integration tests: HttpServer and HttpClient talking over localhost."""

import asyncio
import contextlib
import gc
import warnings

import pytest

from repro.httpcore import (
    BodyStream,
    ConnectionClosed,
    Headers,
    HttpClient,
    HttpError,
    HttpServer,
    Request,
    RequestTimeout,
    Response,
)
from repro.proxy import BifrostProxy
from tests.httpcore.wire import parked


def make_server() -> HttpServer:
    server = HttpServer(name="test")

    @server.router.get("/ping")
    async def ping(request):
        return Response.text("pong")

    @server.router.post("/echo")
    async def echo(request):
        return Response(body=request.body)

    @server.router.get("/json")
    async def json_route(request):
        return Response.from_json({"n": 1})

    @server.router.get("/slow")
    async def slow(request):
        await asyncio.sleep(0.5)
        return Response.text("late")

    @server.router.get("/boom")
    async def boom(request):
        raise RuntimeError("kaboom")

    @server.router.get("/items/{id}")
    async def item(request):
        return Response.from_json({"id": request.path_params["id"]})

    return server


async def test_basic_get():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/ping")
        assert response.status == 200
        assert response.body == b"pong"


async def test_post_echo_body():
    async with make_server() as server, HttpClient() as client:
        response = await client.post(f"http://{server.address}/echo", body=b"hello")
        assert response.body == b"hello"


async def test_json_request_and_response():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/json")
        assert response.json() == {"n": 1}


async def test_json_body_sets_content_type():
    server = HttpServer()

    @server.router.post("/check")
    async def check(request):
        assert request.headers.get("content-type") == "application/json"
        return Response.from_json(request.json())

    async with server, HttpClient() as client:
        response = await client.post(
            f"http://{server.address}/check", json_body={"a": [1, 2]}
        )
        assert response.json() == {"a": [1, 2]}


async def test_path_params_reach_handler():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/items/42")
        assert response.json() == {"id": "42"}


async def test_unknown_route_is_404():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/nope")
        assert response.status == 404


async def test_handler_exception_is_500():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/boom")
        assert response.status == 500


async def test_keep_alive_reuses_connection():
    async with make_server() as server, HttpClient(pool_size=1) as client:
        for _ in range(5):
            response = await client.get(f"http://{server.address}/ping")
            assert response.status == 200
        # Five sequential requests over a pooled connection: the server saw
        # five requests but only one TCP connection carried them.
        assert server.requests_handled == 5


async def test_concurrent_requests():
    async with make_server() as server, HttpClient() as client:
        responses = await asyncio.gather(
            *[client.get(f"http://{server.address}/ping") for _ in range(20)]
        )
        assert all(r.status == 200 for r in responses)


async def test_request_timeout():
    async with make_server() as server, HttpClient() as client:
        with pytest.raises(RequestTimeout):
            await client.get(f"http://{server.address}/slow", timeout=0.05)


@contextlib.asynccontextmanager
async def raw_peer(handler):
    """A raw TCP server running *handler(reader, writer)* per connection;
    yields its port and, on exit, waits until every connection is closed."""
    tasks = []

    async def tracked(reader, writer):
        tasks.append(asyncio.current_task())
        try:
            await handler(reader, writer)
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    server = await asyncio.start_server(tracked, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1]
    finally:
        server.close()
        await server.wait_closed()
        await asyncio.wait_for(asyncio.gather(*tasks), 2.0)


@pytest.mark.parametrize(
    "partial",
    [b"", b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly-this-much"],
    ids=["before-the-head", "mid-body"],
)
async def test_timeout_budget_covers_the_round_trip_and_burns_the_connection(partial):
    timeout = 0.5
    loop = asyncio.get_running_loop()
    connections = 0
    saw_close = asyncio.Event()

    async def answer_once_then_stall(reader, writer):
        nonlocal connections
        connections += 1
        await reader.readuntil(b"\r\n\r\n")
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        await reader.readuntil(b"\r\n\r\n")
        writer.write(partial)
        if await reader.read() == b"":  # the client hung up on the stall
            saw_close.set()

    async with raw_peer(answer_once_then_stall) as port:
        async with HttpClient(timeout=timeout) as client:
            url = f"http://127.0.0.1:{port}/"
            assert (await client.get(url)).body == b"ok"
            assert parked(client) == 1
            started = loop.time()
            with pytest.raises(RequestTimeout):
                await client.get(url)  # rides the pooled connection
            assert loop.time() - started < 1.2 * timeout
            await asyncio.wait_for(saw_close.wait(), 1.0)  # closed ...
            assert parked(client) == 0  # ... not pooled ...
            assert connections == 1  # ... and a timeout is never retried


async def test_timeout_budget_includes_the_request_body_pump():
    # The reply arrives late in the budget while the streamed request body
    # is still trickling: the send hands back the (valid) reply when the
    # budget is spent and does not pool the connection, instead of granting
    # the pump a second full timeout.
    timeout = 0.4
    loop = asyncio.get_running_loop()

    async def answer_late(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        await asyncio.sleep(0.75 * timeout)
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nreply")
        await reader.read()

    async def trickle():
        for _ in range(40):
            yield b"x"
            await asyncio.sleep(0.05)

    async with raw_peer(answer_late) as port, HttpClient(timeout=timeout) as client:
        request = Request(
            "POST", "/", Headers({"Host": "peer"}), stream=BodyStream.from_iterable(trickle())
        )
        started = loop.time()
        response = await client.send(request, "127.0.0.1", port)
        assert response.body == b"reply"
        assert loop.time() - started < 1.2 * timeout
        assert parked(client) == 0


# -- the client's one deadline timer ------------------------------------------


async def test_a_shorter_deadline_fires_under_a_longer_one():
    loop = asyncio.get_running_loop()
    async with make_server() as server, HttpClient(timeout=30.0) as client:
        url = f"http://{server.address}/slow"
        long = asyncio.ensure_future(client.get(url))
        await asyncio.sleep(0.05)  # the 30 s round trip armed the timer
        started = loop.time()
        with pytest.raises(RequestTimeout):
            await client.get(url, timeout=0.2)
        assert loop.time() - started < 1.2 * 0.2
        assert (await long).body == b"late"


async def test_the_timer_rearms_after_a_timeout():
    timeout = 0.3
    loop = asyncio.get_running_loop()
    async with make_server() as server, HttpClient(timeout=timeout) as client:
        url = f"http://{server.address}/slow"
        started = loop.time()
        longer = asyncio.ensure_future(client.get(url))
        with pytest.raises(RequestTimeout):
            await client.get(url, timeout=0.1)
        # Fired for the shorter deadline, the timer re-armed for this one ...
        with pytest.raises(RequestTimeout):
            await longer
        assert loop.time() - started < 1.2 * timeout
        # ... and after both, a new stalled round trip arms it again.
        started = loop.time()
        with pytest.raises(RequestTimeout):
            await client.get(url)
        assert loop.time() - started < 1.2 * timeout


def test_a_client_still_times_out_under_a_second_event_loop():
    # The first loop closes with the client's timer armed on it; the
    # second loop's round trip must arm its own, though its deadline is
    # later than the dead timer's.
    timeout = 0.3
    client = HttpClient(timeout=timeout)

    async def get(path: str):
        async with make_server() as server:
            # Not pooled: a connection must not outlive its loop.
            return await client.get(
                f"http://{server.address}{path}", headers={"Connection": "close"}
            )

    assert asyncio.run(get("/ping")).body == b"pong"

    async def stalled():
        loop = asyncio.get_running_loop()
        started = loop.time()
        with pytest.raises(RequestTimeout):
            await get("/slow")
        assert loop.time() - started < 1.2 * timeout

    asyncio.run(stalled())


async def test_client_close_rejects_further_use():
    async with make_server() as server:
        client = HttpClient()
        await client.close()
        with pytest.raises(ConnectionClosed):
            await client.get(f"http://{server.address}/ping")


async def test_connection_close_header_honored():
    async with make_server() as server, HttpClient() as client:
        response = await client.get(
            f"http://{server.address}/ping", headers={"Connection": "close"}
        )
        assert response.status == 200
        assert response.headers.get("connection") == "close"
        # Next request must open a fresh connection and still work.
        response = await client.get(f"http://{server.address}/ping")
        assert response.status == 200


async def test_retry_on_stale_pooled_connection():
    server = make_server()
    await server.start()
    client = HttpClient()
    try:
        address = server.address
        assert (await client.get(f"http://{address}/ping")).status == 200
        # Restart the server on the same port: the pooled connection is dead.
        await server.stop()
        server2 = HttpServer(host="127.0.0.1", port=int(address.split(":")[1]))

        @server2.router.get("/ping")
        async def ping(request):
            return Response.text("pong2")

        await server2.start()
        try:
            response = await client.get(f"http://{address}/ping")
            assert response.body == b"pong2"
        finally:
            await server2.stop()
    finally:
        await client.close()
        await server.stop()


async def test_malformed_request_gets_400():
    async with make_server() as server:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"NOT A REQUEST\r\n\r\n")
        await writer.drain()
        data = await reader.read(100)
        assert b"400" in data.split(b"\r\n")[0]
        writer.close()


async def test_a_400_that_closes_the_connection_says_so():
    """RFC 7230 §6.6: the server closes after a malformed head, so its
    400 carries ``Connection: close`` and nothing follows it."""
    async with make_server() as server:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"GET /a b HTTP/1.1\r\nHost: x\r\n\r\n")
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5)
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split(" ")[1] == "400"
        assert "connection: close" in [line.lower() for line in lines[1:]]
        length = next(
            int(line.split(":", 1)[1])
            for line in lines[1:]
            if line.lower().startswith("content-length:")
        )
        await asyncio.wait_for(reader.readexactly(length), 5)
        assert await asyncio.wait_for(reader.read(1), 5) == b""
        writer.close()


async def test_middleware_wraps_handlers_in_order():
    server = make_server()
    order = []

    async def outer(request, handler):
        order.append("outer-in")
        response = await handler(request)
        order.append("outer-out")
        return response

    async def inner(request, handler):
        order.append("inner-in")
        response = await handler(request)
        order.append("inner-out")
        return response

    server.add_middleware(outer)
    server.add_middleware(inner)
    async with server, HttpClient() as client:
        await client.get(f"http://{server.address}/ping")
    assert order == ["outer-in", "inner-in", "inner-out", "outer-out"]


async def test_middleware_can_short_circuit():
    server = make_server()

    async def deny(request, handler):
        return Response.text("denied", status=403)

    server.add_middleware(deny)
    async with server, HttpClient() as client:
        response = await client.get(f"http://{server.address}/ping")
        assert response.status == 403


async def test_server_start_twice_raises():
    server = make_server()
    await server.start()
    try:
        with pytest.raises(RuntimeError):
            await server.start()
    finally:
        await server.stop()


async def test_server_stop_idempotent():
    server = make_server()
    await server.start()
    await server.stop()
    await server.stop()
    assert not server.running


def test_split_url_variants():
    from repro.httpcore.client import _split_url

    assert _split_url("http://h:81/p?q=1") == ("h", 81, "/p?q=1")
    assert _split_url("h:81") == ("h", 81, "/")
    assert _split_url("http://h/p") == ("h", 80, "/p")
    with pytest.raises(ValueError):
        _split_url("https://secure")
    with pytest.raises(ValueError):
        _split_url("http://:80/")


async def test_idle_connections_observability():
    async with make_server() as server, HttpClient() as client:
        key = server.address
        assert parked(client) == 0
        await client.get(f"http://{server.address}/ping")
        assert parked(client) == 1
        assert parked(client, key) == 1
        assert parked(client, "other:80") == 0


async def test_stale_idle_connection_evicted_on_acquire():
    async with make_server() as server, HttpClient(idle_timeout=60.0) as client:
        await client.get(f"http://{server.address}/ping")
        pool = client._pools[server.address]
        old, released_at = pool[0]
        # Backdate the idle instant past the keep-alive budget.
        pool[0] = (old, released_at - 120.0)
        response = await client.get(f"http://{server.address}/ping")
        assert response.status == 200
        assert old.transport.is_closing()  # the stale socket was retired
        assert parked(client) == 1  # a fresh one was pooled
        assert pool[0][0] is not old


async def test_stale_acquire_drains_older_stack_entries():
    """Everything below a stale LIFO top is older still — all must go."""
    async with make_server() as server, HttpClient(idle_timeout=60.0) as client:
        await asyncio.gather(
            *[client.get(f"http://{server.address}/ping") for _ in range(3)]
        )
        pool = client._pools[server.address]
        assert len(pool) == 3
        old = [connection for connection, _ in pool]
        pool[:] = [
            (connection, released_at - 120.0)
            for connection, released_at in pool
        ]
        await client.get(f"http://{server.address}/ping")
        assert all(connection.transport.is_closing() for connection in old)
        assert parked(client) == 1


async def test_release_ages_out_oldest_idler():
    """A burst then a quiet period must not pin sockets open forever."""
    async with make_server() as server, HttpClient(idle_timeout=60.0) as client:
        await asyncio.gather(
            *[client.get(f"http://{server.address}/ping") for _ in range(3)]
        )
        pool = client._pools[server.address]
        oldest, released_at = pool[0]
        pool[0] = (oldest, released_at - 120.0)
        # The next request reuses the fresh LIFO top; releasing it back
        # sweeps the expired connection off the bottom of the stack.
        await client.get(f"http://{server.address}/ping")
        assert oldest.transport.is_closing()
        assert parked(client) == 2
        assert all(not c.transport.is_closing() for c, _ in pool)


async def test_fresh_connections_survive_idle_sweeps():
    async with make_server() as server, HttpClient(idle_timeout=60.0) as client:
        for _ in range(4):
            await client.get(f"http://{server.address}/ping")
        # Sequential keep-alive traffic: one warm connection, never evicted.
        assert parked(client) == 1
        assert server.requests_handled == 4


def test_stop_and_close_leave_no_task_transport_or_warning():
    async def drive():
        server = make_server()
        await server.start()
        client = HttpClient()
        url = f"http://{server.address}"
        await asyncio.gather(*[client.get(f"{url}/ping") for _ in range(3)])
        in_flight = asyncio.create_task(client.get(f"{url}/slow"))
        await asyncio.sleep(0.05)
        # A proxy stopped mid-forward closes its checked-out upstream
        # connection: the server sees EOF on it.
        proxy = BifrostProxy("svc", default_upstream=server.address)
        await proxy.start()
        served = set(server._connections)
        proxied = asyncio.create_task(client.get(f"http://{proxy.address}/slow"))
        await asyncio.sleep(0.05)
        [upstream] = set(server._connections) - served
        await proxy.stop()
        with pytest.raises((HttpError, OSError)):
            await proxied
        for _ in range(3):
            await asyncio.sleep(0)
        assert upstream.eof
        connections = [c for c, _ in client._pools[server.address]]
        connections += list(server._connections)
        await server.stop()
        with pytest.raises((HttpError, OSError)):
            await in_flight
        await client.close()
        for _ in range(3):
            await asyncio.sleep(0)
        assert not server._connections
        assert asyncio.all_tasks() == {asyncio.current_task()}
        # 2 idle in the pool, 3 served (one in /slow), the proxy's upstream
        assert len(connections) == 6
        for connection in connections:
            assert connection.transport.is_closing() and connection.eof

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        asyncio.run(drive())
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


async def test_proxy_stopped_mid_relay_closes_its_upstream():
    # The downstream peer never reads, so the proxy's relay of the upstream
    # response stalls in drain(); stopping the proxy must still close the
    # upstream connection the response streams from.
    server = HttpServer(name="big")

    @server.router.get("/big")
    async def big(request):
        return Response(status=200, stream=BodyStream.from_bytes(b"x" * (8 << 20)))

    await server.start()
    proxy = BifrostProxy("svc", default_upstream=server.address)
    await proxy.start()
    reader, writer = await asyncio.open_connection(proxy.host, proxy.port)
    try:
        writer.write(b"GET /big HTTP/1.1\r\nHost: svc\r\n\r\n")
        for _ in range(100):
            await asyncio.sleep(0.01)
            if server._connections and any(c.write_paused for c in proxy._connections):
                break
        assert any(c.write_paused for c in proxy._connections)
        [upstream] = server._connections
        await proxy.stop()
        for _ in range(10):
            await asyncio.sleep(0.01)
        assert upstream.eof
    finally:
        writer.close()
        await server.stop()
