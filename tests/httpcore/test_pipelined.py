"""Pipelined GET trains (``HttpClient.get_pipelined``) against a real server."""

import asyncio

import pytest

import repro.httpcore.client as client_module
from repro.httpcore import (
    ConnectionClosed,
    HttpClient,
    HttpServer,
    IncompleteMessage,
    RequestTimeout,
    Response,
)
from tests.httpcore.wire import parked


class NumberServer(HttpServer):
    """Answers ``/n/{n}`` with ``n``.

    ``hang`` holds the answer to that number until ``release`` is set;
    ``drop`` numbers make the server close the connection instead of
    answering; every ``close_every``-th request the server reads is
    answered with ``Connection: close``.
    """

    def __init__(self, hang=None, drop=(), close_every=0):
        super().__init__(name="numbers")
        self.hang = hang
        self.release = asyncio.Event()
        self.entered = asyncio.Event()
        self.drop = set(drop)
        self.close_every = close_every
        #: The numbers asked, in the order the server read them.
        self.asked: list[int] = []
        self.router.get("/n/{n}")(self._number)

    async def _dispatch(self, request):
        n = int(request.path.rsplit("/", 1)[-1])
        self.asked.append(n)
        if n in self.drop:
            self.drop.discard(n)
            raise ConnectionResetError("dropped")  # _serve closes quietly
        response = await super()._dispatch(request)
        if self.close_every and len(self.asked) % self.close_every == 0:
            response.headers.set("Connection", "close")
        return response

    async def _number(self, request):
        n = request.path_params["n"]
        if int(n) == self.hang:
            self.entered.set()
            await self.release.wait()
        return Response.text(n)


@pytest.fixture
def opened(monkeypatch):
    """Every connection the client opens, in order, with its ``host:port``."""
    connections = []
    original = client_module._open

    async def counting_open(host, port):
        connection = await original(host, port)
        connections.append((f"{host}:{port}", connection))
        return connection

    monkeypatch.setattr(client_module, "_open", counting_open)
    return connections


def urls(server, numbers):
    return [f"http://{server.address}/n/{n}" for n in numbers]


async def ride(client, targets):
    """One train: every GET issued in the same loop iteration."""
    return await asyncio.gather(
        *(client.get_pipelined(url) for url in targets), return_exceptions=True
    )


async def test_responses_come_back_in_request_order(opened):
    async with NumberServer() as server, HttpClient() as client:
        responses = await ride(client, urls(server, range(12)))
        assert [response.body for response in responses] == [
            str(n).encode() for n in range(12)
        ]
        assert server.asked == list(range(12))
        assert len(opened) == 1  # one train, one connection
        assert parked(client, server.address) == 1
        # The next train reuses the pooled connection.
        again = await ride(client, urls(server, [20, 21]))
        assert [response.body for response in again] == [b"20", b"21"]
        assert len(opened) == 1


async def test_a_cancelled_rider_does_not_disturb_the_others(opened):
    async with NumberServer(hang=0) as server, HttpClient() as client:
        riders = [
            asyncio.ensure_future(client.get_pipelined(url))
            for url in urls(server, range(5))
        ]
        await server.entered.wait()  # the train is on its way
        riders[2].cancel()
        server.release.set()
        done = await asyncio.gather(*riders, return_exceptions=True)
        assert isinstance(done[2], asyncio.CancelledError)
        assert [done[n].body for n in (0, 1, 3, 4)] == [b"0", b"1", b"3", b"4"]
        # The dropped answer was read off the wire: the connection is
        # pooled and the next rider gets its own answer on it.
        assert server.asked == list(range(5))
        assert parked(client, server.address) == 1
        assert (await client.get_pipelined(urls(server, [7])[0])).body == b"7"
        assert len(opened) == 1


async def test_a_stale_pooled_connection_is_replaced_once(opened):
    async with NumberServer() as server, HttpClient() as client:
        await client.get_pipelined(urls(server, [0])[0])
        assert parked(client, server.address) == 1
        # The pooled connection ends after reading the next request,
        # before answering it.
        server.drop = {1}
        responses = await ride(client, urls(server, [1, 2, 3]))
        assert [response.body for response in responses] == [b"1", b"2", b"3"]
        assert len(opened) == 2
        assert server.asked == [0, 1, 1, 2, 3]
        assert parked(client, server.address) == 1


async def test_a_fresh_connection_that_ends_early_is_not_retried(opened):
    async with NumberServer(drop={1}) as server, HttpClient() as client:
        responses = await ride(client, urls(server, [0, 1, 2]))
        assert responses[0].body == b"0"
        assert all(isinstance(failed, IncompleteMessage) for failed in responses[1:])
        assert len(opened) == 1
        assert parked(client, server.address) == 0


async def test_connection_close_resends_the_rest_once(opened):
    async with NumberServer(close_every=2) as server, HttpClient() as client:
        responses = await ride(client, urls(server, range(3)))
        assert [response.body for response in responses] == [b"0", b"1", b"2"]
        assert server.asked == [0, 1, 2]
        assert len(opened) == 2
        # The second connection answered its only rider and stays pooled.
        assert parked(client, server.address) == 1


async def test_a_second_connection_close_fails_the_rest(opened):
    async with NumberServer(close_every=2) as server, HttpClient() as client:
        responses = await ride(client, urls(server, range(6)))
        assert [response.body for response in responses[:4]] == [b"0", b"1", b"2", b"3"]
        assert all(isinstance(failed, ConnectionClosed) for failed in responses[4:])
        assert server.asked == [0, 1, 2, 3]
        assert len(opened) == 2
        assert parked(client, server.address) == 0


async def test_a_timeout_fails_every_unanswered_rider(opened):
    async with NumberServer(hang=1) as server, HttpClient(timeout=0.05) as client:
        await client.get_pipelined(urls(server, [9])[0])  # pool a connection
        responses = await ride(client, urls(server, range(4)))
        assert responses[0].body == b"0"
        assert all(isinstance(failed, RequestTimeout) for failed in responses[1:])
        # Nothing is re-sent and no connection is pooled.
        assert len(opened) == 1
        assert server.asked == [9, 0, 1]
        assert parked(client, server.address) == 0
        assert opened[0][1].transport.is_closing()
        assert not client._deadlines


async def test_two_hosts_in_one_iteration_make_two_trains(opened):
    async with NumberServer() as first, NumberServer() as second, HttpClient() as client:
        targets = urls(first, [0, 1, 2]) + urls(second, [3, 4])
        responses = await ride(client, targets)
        assert [response.body for response in responses] == [b"0", b"1", b"2", b"3", b"4"]
        assert sorted(key for key, _ in opened) == sorted([first.address, second.address])
        assert first.asked == [0, 1, 2] and second.asked == [3, 4]


async def test_riders_of_later_iterations_board_later_trains(opened):
    async with NumberServer() as server, HttpClient() as client:
        early = asyncio.ensure_future(client.get_pipelined(urls(server, [0])[0]))
        await asyncio.sleep(0)
        await asyncio.sleep(0)  # the first train has departed
        late = asyncio.ensure_future(client.get_pipelined(urls(server, [1])[0]))
        assert [(await early).body, (await late).body] == [b"0", b"1"]
        assert len(opened) == 2  # the first connection was still out


async def test_no_connection_is_leaked(opened):
    async with NumberServer(hang=3, close_every=4) as server:
        client = HttpClient(timeout=0.05)
        await ride(client, urls(server, range(6)))  # times out at 3
        server.hang = None
        await ride(client, urls(server, range(6, 12)))  # closes after 9
        await client.close()
        assert opened
        assert all(connection.transport.is_closing() for _, connection in opened)
        assert not client._trains and not client._boarding and not client._deadlines


async def test_a_closed_client_boards_nothing():
    client = HttpClient()
    await client.close()
    with pytest.raises(ConnectionClosed):
        await client.get_pipelined("http://127.0.0.1:1/n/0")
