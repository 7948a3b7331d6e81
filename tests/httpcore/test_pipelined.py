"""Pipelined GET trains (``HttpClient.get_many``) against a real server."""

import asyncio

import pytest

import repro.httpcore.client as client_module
from repro.httpcore import (
    ConnectionClosed,
    Headers,
    HttpClient,
    HttpServer,
    IncompleteMessage,
    Request,
    RequestTimeout,
    Response,
)
from repro.httpcore.connection import HttpConnection
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


@pytest.fixture
def writes(monkeypatch, opened):
    """How many writes the client made on the connections it opened."""
    writers = []
    original = HttpConnection.write

    def counting_write(connection, data):
        writers.append(connection)
        return original(connection, data)

    monkeypatch.setattr(HttpConnection, "write", counting_write)
    return lambda: sum(any(w is mine for _, mine in opened) for w in writers)


def urls(server, numbers):
    return [f"http://{server.address}/n/{n}" for n in numbers]


async def train(client, targets, order=None):
    """One ``get_many`` train read to its end: the answers by position.
    *order*, when given, collects the positions as they were yielded."""
    answers = [None] * len(targets)
    async for position, answer in client.get_many(targets):
        answers[position] = answer
        if order is not None:
            order.append(position)
    return answers


async def test_responses_come_back_in_request_order(opened, writes):
    async with NumberServer() as server, HttpClient() as client:
        order = []
        responses = await train(client, urls(server, range(12)), order)
        assert order == list(range(12))
        assert [response.body for response in responses] == [
            str(n).encode() for n in range(12)
        ]
        assert server.asked == list(range(12))
        assert len(opened) == 1 and writes() == 1  # one train, one write
        assert parked(client, server.address) == 1
        # The next train reuses the pooled connection.
        again = await train(client, urls(server, [20, 21]))
        assert [response.body for response in again] == [b"20", b"21"]
        assert len(opened) == 1


async def test_a_train_writes_what_request_serialize_writes(opened, monkeypatch):
    sent = []
    original = HttpConnection.write

    def recording_write(connection, data):
        if any(connection is mine for _, mine in opened):
            sent.append(data)
        return original(connection, data)

    monkeypatch.setattr(HttpConnection, "write", recording_write)
    async with NumberServer() as server, HttpClient() as client:
        targets = ["/n/1", "/n/2?q=a%20b"]
        # The second URL names the same host:port without the scheme.
        responses = await train(
            client, [f"http://{server.address}{targets[0]}", f"{server.address}{targets[1]}"]
        )
        assert [response.body for response in responses] == [b"1", b"2"]
        headers = Headers({"Host": server.address})
        assert sent == [b"".join(Request("GET", t, headers).serialize() for t in targets)]


async def test_a_cancelled_rider_does_not_disturb_the_others(opened):
    """A caller cancelled mid-train takes only its own train down."""
    async with NumberServer(hang=0) as server, HttpClient() as client:
        cancelled = asyncio.ensure_future(train(client, urls(server, range(5))))
        await server.entered.wait()  # the first train is on its way
        # Its connection is out, so the next train opens another.
        other = await train(client, urls(server, [5, 6]))
        assert [response.body for response in other] == [b"5", b"6"]
        cancelled.cancel()
        with pytest.raises(asyncio.CancelledError):
            await cancelled
        server.release.set()
        # The cancelled train's connection is closed, not pooled; the
        # other one is pooled and the next train rides it.
        assert opened[0][1].transport.is_closing()
        assert parked(client, server.address) == 1
        assert (await train(client, urls(server, [7])))[0].body == b"7"
        assert len(opened) == 2


async def test_a_stale_pooled_connection_is_replaced_once(opened):
    async with NumberServer() as server, HttpClient() as client:
        await train(client, urls(server, [0]))
        assert parked(client, server.address) == 1
        # The pooled connection ends after reading the next request,
        # before answering it.
        server.drop = {1}
        responses = await train(client, urls(server, [1, 2, 3]))
        assert [response.body for response in responses] == [b"1", b"2", b"3"]
        assert len(opened) == 2
        assert server.asked == [0, 1, 1, 2, 3]
        assert parked(client, server.address) == 1


async def test_a_fresh_connection_that_ends_early_is_not_retried(opened):
    async with NumberServer(drop={1}) as server, HttpClient() as client:
        responses = await train(client, urls(server, [0, 1, 2]))
        assert responses[0].body == b"0"
        assert all(isinstance(failed, IncompleteMessage) for failed in responses[1:])
        assert len(opened) == 1
        assert parked(client, server.address) == 0


async def test_connection_close_resends_the_rest_once(opened):
    async with NumberServer(close_every=2) as server, HttpClient() as client:
        responses = await train(client, urls(server, range(3)))
        assert [response.body for response in responses] == [b"0", b"1", b"2"]
        assert server.asked == [0, 1, 2]
        assert len(opened) == 2
        # The second connection answered its only rider and stays pooled.
        assert parked(client, server.address) == 1


async def test_a_second_connection_close_fails_the_rest(opened):
    async with NumberServer(close_every=2) as server, HttpClient() as client:
        responses = await train(client, urls(server, range(6)))
        assert [response.body for response in responses[:4]] == [b"0", b"1", b"2", b"3"]
        assert all(isinstance(failed, ConnectionClosed) for failed in responses[4:])
        assert server.asked == [0, 1, 2, 3]
        assert len(opened) == 2
        assert parked(client, server.address) == 0


async def test_a_timeout_fails_every_unanswered_rider(opened):
    async with NumberServer(hang=1) as server, HttpClient(timeout=0.05) as client:
        await train(client, urls(server, [9]))  # pool a connection
        responses = await train(client, urls(server, range(4)))
        assert responses[0].body == b"0"
        assert all(isinstance(failed, RequestTimeout) for failed in responses[1:])
        # Nothing is re-sent and no connection is pooled.
        assert len(opened) == 1
        assert server.asked == [9, 0, 1]
        assert parked(client, server.address) == 0
        assert opened[0][1].transport.is_closing()
        assert not client._deadlines


async def test_two_hosts_in_one_iteration_make_two_trains(opened, writes):
    """Two providers' batches are two trains: one per ``get_many`` call."""
    async with NumberServer() as first, NumberServer() as second, HttpClient() as client:
        one, two = await asyncio.gather(
            train(client, urls(first, [0, 1, 2])), train(client, urls(second, [3, 4]))
        )
        assert [response.body for response in one + two] == [b"0", b"1", b"2", b"3", b"4"]
        assert sorted(key for key, _ in opened) == sorted([first.address, second.address])
        assert first.asked == [0, 1, 2] and second.asked == [3, 4]
        assert writes() == 2
        # One train goes to one host.
        with pytest.raises(ValueError):
            await train(client, urls(first, [5]) + urls(second, [6]))


async def test_riders_of_later_iterations_board_later_trains(opened):
    """Two dispatches' batches are two trains, even to one host."""
    async with NumberServer(hang=0) as server, HttpClient() as client:
        early = asyncio.ensure_future(train(client, urls(server, [0])))
        await server.entered.wait()  # the first train is out
        late = await train(client, urls(server, [1]))
        server.release.set()
        assert [(await early)[0].body, late[0].body] == [b"0", b"1"]
        assert len(opened) == 2  # the first connection was still out


async def test_no_connection_is_leaked(opened):
    async with NumberServer(hang=3, close_every=4) as server:
        client = HttpClient(timeout=0.05)
        await train(client, urls(server, range(6)))  # times out at 3
        server.hang = None
        await train(client, urls(server, range(6, 12)))  # closes after 9
        await client.close()
        assert opened
        assert all(connection.transport.is_closing() for _, connection in opened)
        assert not client._deadlines


async def test_a_closed_client_boards_nothing(opened):
    client = HttpClient()
    await client.close()
    answers = await train(client, ["http://127.0.0.1:1/n/0", "http://127.0.0.1:1/n/1"])
    assert all(isinstance(answer, ConnectionClosed) for answer in answers)
    assert not opened
