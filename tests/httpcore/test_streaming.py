"""Streaming bodies: chunked framing, BodyStream, tee, end-to-end relay."""

import asyncio

import pytest

from repro.httpcore import (
    BodyStream,
    HttpClient,
    HttpConnection,
    HttpServer,
    ProtocolError,
    Request,
    Response,
    StreamAborted,
    StreamTee,
    encode_chunk,
    read_response,
)
from repro.httpcore.connection import BULK_BUFFER_BYTES
from repro.httpcore.errors import BodyTooLarge, IncompleteMessage
from repro.httpcore.stream import CHUNKED_EOF, relay_body
from tests.httpcore.wire import CHUNKED_HEAD, decode_chunked, feed, parked


async def collect(iterator) -> bytes:
    return b"".join([chunk async for chunk in iterator])


# -- chunked wire framing ---------------------------------------------------


async def test_chunked_decode_basic():
    wire = encode_chunk(b"hello ") + encode_chunk(b"world") + CHUNKED_EOF
    assert await decode_chunked(wire) == b"hello world"


async def test_chunked_decode_ignores_extensions_and_trailers():
    wire = (
        b"6;ext=1\r\nhello \r\n"
        b"5\r\nworld\r\n"
        b"0\r\nTrailer: ignored\r\nAnother: one\r\n\r\n"
    )
    assert await decode_chunked(wire) == b"hello world"


async def test_chunked_decode_rejects_bad_size():
    # RFC 7230 §4.1: a chunk size is 1*HEXDIG.  ``int(size, 16)`` reads every
    # row but the first as the size beside it; the data is sized to match,
    # so only the size line can be what fails.
    for size, lenient in [(b"zz", 0), (b"5_0", 0x50), (b"0x5", 5), (b"+5", 5), (b" 5", 5)]:
        wire = size + b"\r\n" + b"x" * lenient + b"\r\n" + CHUNKED_EOF
        with pytest.raises(ProtocolError, match="bad chunk size"):
            await decode_chunked(wire)


async def test_chunked_decode_rejects_missing_crlf():
    wire = b"5\r\nhelloXX" + CHUNKED_EOF
    with pytest.raises(ProtocolError):
        await decode_chunked(wire)


async def test_chunked_decode_truncated_body():
    with pytest.raises(IncompleteMessage):
        await decode_chunked(b"10\r\nonly-this")


async def test_giant_chunk_is_resplit():
    body = bytes(range(256)) * (3 * BULK_BUFFER_BYTES // 256)
    # One chunk larger than any receive buffer, all sent at once: it leaves
    # in buffer-sized pieces, never as one giant buffer.
    wire = encode_chunk(body) + CHUNKED_EOF
    request = await feed(CHUNKED_HEAD + wire).receive(stream=True)
    pieces = [chunk async for chunk in request.stream]
    assert b"".join(pieces) == body
    assert len(pieces) > 1
    assert max(map(len, pieces)) <= BULK_BUFFER_BYTES


async def test_torn_chunk_leaves_as_it_arrives():
    wire = encode_chunk(b"x" * 100) + CHUNKED_EOF
    request = await feed(CHUNKED_HEAD + wire, tears=(32,)).receive(stream=True)
    pieces = [chunk async for chunk in request.stream]
    assert b"".join(pieces) == b"x" * 100
    assert all(len(piece) <= 32 for piece in pieces)


async def test_one_read_of_many_chunks_leaves_as_one_piece():
    chunks = [bytes([65 + i]) * 1024 for i in range(5)]
    frames = [encode_chunk(chunk) for chunk in chunks]
    wire = CHUNKED_HEAD + b"".join(frames) + CHUNKED_EOF
    # Read 1: the head, four whole frames and half of the fifth's data.
    first_read = len(CHUNKED_HEAD) + sum(map(len, frames[:4])) + len(b"400\r\n") + 512
    request = await feed(wire, tears=(first_read, len(wire))).receive(stream=True)
    pieces = [piece async for piece in request.stream]
    assert b"".join(pieces) == b"".join(chunks)
    assert [len(piece) for piece in pieces] == [4 * 1024 + 512, 512]


async def test_a_reader_that_stops_holds_one_bulk_buffer():
    body = b"b" * (4 * BULK_BUFFER_BYTES)
    connection = feed(_sized(b"POST /bulk", body))
    request = await connection.receive(stream=True)
    first = await request.stream.__anext__()
    for _ in range(10):  # the peer keeps sending until reading pauses
        await asyncio.sleep(0)
    assert connection.transport.paused and connection.transport.pieces
    assert len(connection._buf) == BULK_BUFFER_BYTES
    assert connection._end - connection._start <= BULK_BUFFER_BYTES
    # Reading resumes once the reader waits again: the rest arrives.
    assert first + await request.stream.read() == body


async def test_a_tee_branch_nobody_reads_holds_at_most_capacity_buffers():
    capacity = 2
    body = bytes(range(256)) * (6 * BULK_BUFFER_BYTES // 256)
    request = await feed(_sized(b"POST /bulk", body)).receive(stream=True)
    seen: list[bytes] = []
    dropped_after: list[int] = []
    queued: list[int] = []
    tee = StreamTee(
        request.stream, capacity=capacity, on_drop=lambda: dropped_after.append(len(seen))
    )
    async for piece in tee.primary:
        seen.append(piece)
        queued.append(sum(len(item) for item in tee._queue._queue if isinstance(item, bytes)))
    assert b"".join(seen) == body
    assert dropped_after == [capacity]
    assert max(queued) <= capacity * BULK_BUFFER_BYTES
    with pytest.raises(StreamAborted):
        await collect(tee.branch)


# -- BodyStream -------------------------------------------------------------


async def test_body_stream_read_and_flags():
    stream = BodyStream.from_bytes(b"payload")
    assert stream.length == 7
    assert not stream.started
    assert await stream.read() == b"payload"
    assert stream.started and stream.consumed


async def test_body_stream_max_buffer_enforced_on_read():
    stream = BodyStream.from_iterable([b"x" * 10] * 10)
    stream.max_buffer = 50
    with pytest.raises(BodyTooLarge):
        await stream.read()


async def test_body_stream_on_complete_clean_and_abort():
    outcomes = []
    stream = BodyStream.from_bytes(b"data")
    stream.set_on_complete(outcomes.append)
    await stream.drain()
    assert outcomes == [True]

    aborted = BodyStream.from_bytes(b"data")
    aborted.set_on_complete(outcomes.append)
    aborted.abort()
    aborted.abort()  # idempotent: the hook fires exactly once
    assert outcomes == [True, False]


# -- StreamTee --------------------------------------------------------------


async def test_tee_duplicates_chunks_to_branch():
    tee = StreamTee(BodyStream.from_iterable([b"one", b"two", b"three"]))
    primary = await collect(tee.primary)
    branch = await collect(tee.branch)
    assert primary == b"onetwothree"
    assert branch == b"onetwothree"


async def test_tee_overflow_aborts_branch_not_primary():
    drops = []
    chunks = [b"c%d" % i for i in range(10)]
    tee = StreamTee(
        BodyStream.from_iterable(chunks), capacity=2, on_drop=lambda: drops.append(1)
    )
    # Consume the primary without touching the branch: it must never block
    # and must see every byte.
    assert await collect(tee.primary) == b"".join(chunks)
    assert drops == [1]
    with pytest.raises(StreamAborted):
        await collect(tee.branch)


async def test_tee_finalized_branch_stops_buffering_silently():
    drops = []
    tee = StreamTee(
        BodyStream.from_iterable([b"x"] * 10),
        capacity=2,
        on_drop=lambda: drops.append(1),
    )
    tee.branch.abort()  # the duplicate was dropped before sending
    assert await collect(tee.primary) == b"x" * 10
    assert drops == []  # a consumer-side abandon is not a tee drop


# -- relay_body -------------------------------------------------------------


class _SinkWriter:
    def __init__(self):
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        await asyncio.sleep(0)


async def test_relay_known_length_is_raw():
    writer = _SinkWriter()
    await relay_body(writer, BodyStream.from_bytes(b"abcdef"))
    assert bytes(writer.data) == b"abcdef"


async def test_relay_unknown_length_is_chunk_encoded():
    writer = _SinkWriter()
    await relay_body(writer, BodyStream.from_iterable([b"ab", b"cd"]))
    assert await decode_chunked(bytes(writer.data)) == b"abcd"


async def test_relay_length_mismatch_raises():
    writer = _SinkWriter()
    stream = BodyStream.from_iterable([b"ab"], length=5)
    with pytest.raises(IncompleteMessage):
        await relay_body(writer, stream)


# -- end-to-end: streaming server + client ----------------------------------


def make_streaming_server(**kwargs) -> HttpServer:
    server = HttpServer(name="streaming", stream_bodies=True, **kwargs)

    @server.router.post("/echo")
    async def echo(request):
        return Response(body=await request.aread())

    @server.router.post("/relay")
    async def relay(request):
        # True relay: the response body is the request stream itself.
        return Response.streaming(request.iter_body())

    @server.router.get("/ignore-body")
    async def ignore(request):
        return Response.text("ignored")

    return server


async def test_streamed_request_buffered_by_handler():
    async with make_streaming_server() as server, HttpClient() as client:
        response = await client.post(f"http://{server.address}/echo", body=b"hi" * 500)
        assert response.body == b"hi" * 500


async def test_chunked_request_end_to_end():
    async with make_streaming_server() as server, HttpClient() as client:
        chunks = [b"alpha-", b"beta-", b"gamma"]
        request = Request(
            method="POST",
            target="/echo",
            stream=BodyStream.from_iterable(chunks),  # unknown length -> chunked
        )
        request.headers.set("Host", server.address)
        response = await client.send(request, server.host, server.port)
        assert response.body == b"alpha-beta-gamma"


async def test_streamed_response_end_to_end_keeps_connection():
    async with make_streaming_server() as server, HttpClient() as client:
        request = Request(
            method="POST",
            target="/relay",
            # More than one receive buffer, so the reply cannot arrive whole
            # with its head (a body that does is handed over as ``.body``).
            stream=BodyStream.from_iterable([b"x" * 16384] * 8),
        )
        request.headers.set("Host", server.address)
        response = await client.send(request, server.host, server.port, stream=True)
        assert response.stream is not None
        assert await response.aread() == b"x" * 131072
        # Drain rule satisfied on both sides: the connection is pooled again.
        assert parked(client, server.address) == 1
        again = await client.post(f"http://{server.address}/echo", body=b"ok")
        assert again.body == b"ok"


async def test_first_response_bytes_before_last_request_bytes():
    """The relay pipeline property: duplex streaming through one request."""
    fed: asyncio.Queue = asyncio.Queue()
    got_first = asyncio.Event()

    async def producer():
        yield b"head"
        await got_first.wait()  # only produce the tail after the response began
        yield b"tail"

    async with make_streaming_server() as server, HttpClient() as client:
        request = Request(
            method="POST", target="/relay", stream=BodyStream.from_iterable(producer())
        )
        request.headers.set("Host", server.address)
        response = await client.send(request, server.host, server.port, stream=True)
        first = await response.stream.__anext__()
        assert first == b"head"
        got_first.set()
        rest = await response.aread()
        assert rest == b"tail"
        del fed


async def test_unconsumed_request_stream_is_drained_for_keepalive():
    async with make_streaming_server() as server, HttpClient() as client:
        # The handler never reads the body; the server must drain it before
        # parsing the next request off the same connection.
        first = await client.request(
            "GET", f"http://{server.address}/ignore-body", body=b"leftover" * 100
        )
        assert first.body == b"ignored"
        assert parked(client, server.address) == 1
        second = await client.post(f"http://{server.address}/echo", body=b"next")
        assert second.body == b"next"


async def test_buffered_chunked_message_reserializes_length_framed():
    """A chunked message buffered by a hop must not re-emit the stale
    Transfer-Encoding header next to its new Content-Length — a reader
    would trust TE (RFC 7230 section 3.3.3) and wait for framing that is
    not there."""
    response = Response(body=b"decoded")
    response.headers.set("Transfer-Encoding", "chunked")
    wire = response.serialize()
    assert b"Transfer-Encoding" not in wire
    assert b"Content-Length: 7" in wire

    request = Request(method="POST", target="/x", body=b"decoded")
    request.headers.set("Transfer-Encoding", "chunked")
    wire = request.serialize()
    assert b"Transfer-Encoding" not in wire


async def test_buffered_proxy_hop_relays_chunked_upstream():
    """End-to-end shape of the bug above: streaming upstream answers
    chunked, a buffered hop re-serializes, a streaming reader consumes."""
    async with make_streaming_server() as origin:
        hop = HttpServer(name="hop")  # buffered middle hop

        @hop.router.post("/via")
        async def via(request):
            async with HttpClient() as client:
                inner = Request(
                    method="POST",
                    target="/relay",
                    stream=BodyStream.from_iterable([request.body]),
                )
                inner.headers.set("Host", origin.address)
                # Buffered read of the chunked reply: TE decoded away.
                upstream = await client.send(inner, origin.host, origin.port)
            return Response(status=upstream.status, headers=upstream.headers,
                            body=upstream.body)

        async with hop:
            async with HttpClient() as client:
                request = Request(method="POST", target="/via")
                request.headers.set("Host", hop.address)
                request.body = b"through-the-hop"
                request.headers.set("Content-Length", "15")
                response = await client.send(
                    request, hop.host, hop.port, stream=True
                )
                assert await response.aread() == b"through-the-hop"


# -- max-body limits --------------------------------------------------------


async def test_server_answers_413_when_handler_buffers_too_much():
    async with make_streaming_server(max_body_bytes=64) as server:
        async with HttpClient() as client:
            response = await client.post(
                f"http://{server.address}/echo", body=b"x" * 1000
            )
            assert response.status == 413
            # The oversized connection was closed, not reused.
            assert parked(client, server.address) == 0


async def test_buffered_server_rejects_declared_oversize():
    server = HttpServer(name="buffered", max_body_bytes=64)

    @server.router.post("/echo")
    async def echo(request):
        return Response(body=request.body)

    async with server, HttpClient() as client:
        response = await client.post(f"http://{server.address}/echo", body=b"y" * 100)
        assert response.status == 413


async def test_client_rejects_oversized_buffered_response():
    server = HttpServer(name="big")

    @server.router.get("/big")
    async def big(request):
        return Response(body=b"z" * 1000)

    async with server:
        async with HttpClient(max_body_bytes=100) as client:
            with pytest.raises(BodyTooLarge):
                await client.get(f"http://{server.address}/big")


async def test_client_streams_oversized_response_but_caps_aread():
    server = HttpServer(name="big-stream")

    @server.router.get("/big")
    async def big(request):
        return Response(body=b"z" * 1000)

    async with server:
        async with HttpClient(max_body_bytes=100) as client:
            request = Request(method="GET", target="/big")
            request.headers.set("Host", server.address)
            response = await client.send(
                request, server.host, server.port, stream=True
            )
            # Relaying (iterating) is fine at any size...
            total = 0
            async for chunk in response.iter_body():
                total += len(chunk)
            assert total == 1000


# -- pipelined requests behind a streamed body --------------------------------


def _chunked(route: bytes, wire: bytes) -> bytes:
    return route + b" HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" + wire


def _sized(route: bytes, body: bytes) -> bytes:
    return route + b" HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body


NEXT = b"POST /echo HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nnext"
BIG = b"b" * (3 * BULK_BUFFER_BYTES)

#: (wire sent in one write, server max_body_bytes, expected replies); after
#: the last reply the server must close the connection cleanly.
PIPELINED_ROWS = {
    "unread-length-body": (_sized(b"GET /ignore-body", b"leftover") + NEXT, None, [
        (200, b"ignored"), (200, b"next")]),
    "unread-chunked-body": (
        _chunked(b"GET /ignore-body", encode_chunk(b"left") + encode_chunk(b"over") + CHUNKED_EOF)
        + NEXT, None, [(200, b"ignored"), (200, b"next")]),
    "unread-body-past-one-buffer": (_sized(b"GET /ignore-body", BIG) + NEXT, None, [
        (200, b"ignored"), (200, b"next")]),
    "echoed-body-past-one-buffer": (_sized(b"POST /echo", BIG) + NEXT, None, [
        (200, BIG), (200, b"next")]),
    "unread-body-over-max": (_sized(b"GET /ignore-body", b"o" * 4096) + NEXT, 1024, [
        (200, b"ignored")]),
    "bad-chunk-size-mid-body": (
        _chunked(b"POST /echo", encode_chunk(b"hello") + b"zz\r\nhello\r\n" + CHUNKED_EOF)
        + NEXT, None, [(400, None)]),
    "differing-content-lengths": (
        b"POST /echo HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 6\r\n\r\nabcdef"
        + NEXT, None, [(400, None)]),
}


@pytest.mark.parametrize("row", PIPELINED_ROWS)
async def test_pipelined_request_behind_streamed_body(row):
    wire, limit, expected = PIPELINED_ROWS[row]
    kwargs = {} if limit is None else {"max_body_bytes": limit}
    async with make_streaming_server(**kwargs) as server:
        _, connection = await asyncio.get_running_loop().create_connection(
            lambda: HttpConnection(read_response), server.host, server.port
        )
        try:
            connection.write(wire)
            async with asyncio.timeout(10):
                replies = []
                while (response := await connection.receive(max_body=None)) is not None:
                    assert response.status < 500, row
                    replies.append(response)
        finally:
            connection.close()
    assert [r.status for r in replies] == [status for status, _ in expected]
    for response, (_, body) in zip(replies, expected):
        if body is not None:
            assert response.body == body, row
