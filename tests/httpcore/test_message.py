"""Unit tests for HTTP message parsing and serialization."""

import asyncio
import re

import pytest

from repro.httpcore import (
    Headers,
    HttpClient,
    IncompleteMessage,
    ProtocolError,
    Request,
    Response,
)
from repro.httpcore.connection import BULK_BUFFER_BYTES, BUFFER_BYTES
from repro.httpcore.errors import BodyTooLarge, HeaderTooLarge
from repro.httpcore.message import MAX_HEADER_BYTES
from tests.httpcore.wire import feed, fields


async def read_request(data: bytes, tears=(), **kwargs):
    return await feed(data, tears).receive(**kwargs)


async def read_response(data: bytes, tears=(), **kwargs):
    return await feed(data, tears, response=True).receive(**kwargs)


async def test_read_request_basic():
    request = await read_request(b"GET /products?limit=2 HTTP/1.1\r\nHost: shop\r\n\r\n")
    assert request is not None
    assert request.method == "GET"
    assert request.path == "/products"
    assert request.query == {"limit": "2"}
    assert request.headers.get("host") == "shop"
    assert request.body == b""


async def test_read_request_with_body():
    payload = b'{"name": "tv"}'
    raw = b"POST /buy HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(payload), payload)
    request = await read_request(raw)
    assert request is not None
    assert request.body == payload
    assert request.json() == {"name": "tv"}


async def test_read_request_clean_eof_returns_none():
    assert await read_request(b"") is None


async def test_read_request_mid_header_eof_raises():
    with pytest.raises(IncompleteMessage):
        await read_request(b"GET / HTTP/1.1\r\nHost: x")


async def test_read_request_mid_body_eof_raises():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
    with pytest.raises(IncompleteMessage):
        await read_request(raw)


async def test_read_request_malformed_request_line():
    with pytest.raises(ProtocolError):
        await read_request(b"GARBAGE\r\n\r\n")


async def test_read_request_bad_version():
    with pytest.raises(ProtocolError):
        await read_request(b"GET / SPDY/99\r\n\r\n")


async def test_read_request_unreadable_absolute_target():
    with pytest.raises(ProtocolError):
        await read_request(b"GET http://[x/a HTTP/1.1\r\n\r\n")
    # Origin form never reads an authority, so the same bytes are a path.
    assert (await read_request(b"GET //[x/a HTTP/1.1\r\n\r\n")).path == "//[x/a"


async def test_read_request_bad_content_length():
    with pytest.raises(ProtocolError):
        await read_request(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")


async def test_read_request_negative_content_length():
    with pytest.raises(ProtocolError):
        await read_request(b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")


async def test_read_request_huge_declared_body_rejected():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"
    with pytest.raises(BodyTooLarge):
        await read_request(raw)


async def test_read_request_rejects_space_before_colon():
    with pytest.raises(ProtocolError):
        await read_request(b"GET / HTTP/1.1\r\nHost : x\r\n\r\n")


async def test_request_serialize_parse_round_trip():
    request = Request(
        method="POST",
        target="/search?q=tv",
        headers=Headers([("Host", "shop"), ("X-User", "u1")]),
        body=b"hello",
    )
    parsed = await read_request(request.serialize())
    assert parsed is not None
    assert parsed.method == "POST"
    assert parsed.target == "/search?q=tv"
    assert parsed.headers.get("x-user") == "u1"
    assert parsed.body == b"hello"


async def test_response_serialize_parse_round_trip():
    response = Response.from_json({"ok": True}, status=201)
    parsed = await read_response(response.serialize())
    assert parsed.status == 201
    assert parsed.json() == {"ok": True}
    assert parsed.headers.get("content-type") == "application/json"


async def test_read_response_eof_raises():
    # A connection ends cleanly between messages (``receive()`` gives
    # ``None``); the client that awaited a reply makes that an error.
    assert await read_response(b"") is None

    async def hang_up(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.close()

    server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        async with HttpClient() as client:
            with pytest.raises(IncompleteMessage):
                await client.get(f"http://127.0.0.1:{port}/")
    finally:
        server.close()
        await server.wait_closed()


async def test_read_response_malformed_status_line():
    with pytest.raises(ProtocolError):
        await read_response(b"HTTP/1.1 abc OK\r\n\r\n")


def test_response_helpers():
    assert Response.text("hi").body == b"hi"
    assert Response.text("hi").headers.get("content-type").startswith("text/plain")
    assert Response.html("<p>x</p>").headers.get("content-type").startswith("text/html")
    assert Response(status=404).reason == "Not Found"
    assert Response(status=299).reason == "Unknown"


def test_response_json_invalid_body_raises():
    with pytest.raises(ProtocolError):
        Response(body=b"{not json").json()


def test_request_path_defaults_to_root():
    assert Request("GET", "").path == "/"


def test_an_origin_form_path_may_start_with_two_slashes():
    # RFC 7230 §5.3.1: "//x/a" is the path, not an authority "x" and "/a".
    request = Request("GET", "//x/a?b=1#frag")
    assert request.path == "//x/a"
    assert request.query == {"b": "1"}
    absolute = Request("GET", "http://x/a?b=1")
    assert (absolute.path, absolute.query) == ("/a", {"b": "1"})


async def test_pipelined_requests_parse_sequentially():
    raw = (
        b"GET /a HTTP/1.1\r\n\r\n"
        b"GET /b HTTP/1.1\r\n\r\n"
    )
    connection = feed(raw)
    first = await connection.receive()
    second = await connection.receive()
    third = await connection.receive()
    assert first is not None and first.path == "/a"
    assert second is not None and second.path == "/b"
    assert third is None


# -- hostile framing: the single-pass parser against a reference ------------
#
# ``_reference_parse`` is the parser as it was before the head was resolved
# in one pass: build the field list, then scan it once per question.  It
# stays here as the oracle, holding RFC 7230's framing rules: a
# Content-Length is 1*DIGIT, and repeats of it must agree (§3.3.2, §3.3.3).

HOSTILE_LINES = [
    "Host: a", "hOsT:b", "X-Colon: a:b:c", "X-Empty:", "X-Empty:   ",
    "Set-Cookie: a=1", "set-cookie: b=2",
    "Content-Length: 5", "content-length: 7", "CONTENT-LENGTH: -1",
    "Content-Length: abc", "Content-Length:   5 ", "Content-Length: +5",
    "Content-Length: 5_0", "Content-Length:", "Content-Length: 0",
    "Transfer-Encoding: chunked", "transfer-encoding: Chunked",
    "Transfer-Encoding: gzip, chunked", "Transfer-Encoding:",
    "Connection: close", "Connection: close, x-foo", "connection: CLOSE",
    "Connection: keep-alive",
    "X-Foo : bar", " X-Lead: v", "NoColonHere", ": empty-name",
]


def _hostile_corpus() -> list[tuple[str, ...]]:
    import itertools
    import random

    rng = random.Random(17)
    corpus = [(line,) for line in HOSTILE_LINES]
    corpus += list(itertools.permutations(HOSTILE_LINES, 2))
    corpus += [
        tuple(rng.choice(HOSTILE_LINES) for _ in range(rng.randint(3, 7)))
        for _ in range(400)
    ]
    return corpus


def _reference_parse(lines):
    items = []
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise ProtocolError(line)
        items.append((name, value.strip()))

    def first(wanted):
        return next((v for n, v in items if n.lower() == wanted), None)

    close = (first("connection") or "").lower() == "close"
    encoding = first("transfer-encoding")
    if encoding is not None:
        if [t.strip().lower() for t in encoding.split(",") if t.strip()] != ["chunked"]:
            raise ProtocolError(encoding)
        return items, (None, True), close
    lengths = {v for n, v in items if n.lower() == "content-length"}
    if len(lengths) > 1:
        raise ProtocolError(lengths)
    raw_length = first("content-length")
    if raw_length is not None and not re.fullmatch("[0-9]+", raw_length):
        raise ProtocolError(raw_length)
    length = None if raw_length is None else int(raw_length)
    return items, (length or None, False), close


def _reference_head(start_line, items, framing_line):
    kept = [
        f"{n}: {v}\r\n"
        for n, v in items
        if n.lower() not in ("content-length", "transfer-encoding")
    ]
    return (start_line + "".join(kept) + framing_line + "\r\n").encode("latin-1")


@pytest.mark.parametrize(
    "start_line, read",
    [("POST /x HTTP/1.1\r\n", read_request), ("HTTP/1.1 200 OK\r\n", read_response)],
)
# ``max_body=0`` keeps even a body that arrived whole with its head on
# ``.stream``, so the framing the head declared stays observable there.
async def test_single_pass_parser_matches_reference_on_hostile_heads(start_line, read):
    parsed = 0
    for lines in _hostile_corpus():
        raw = (start_line + "".join(f"{line}\r\n" for line in lines) + "\r\n").encode()
        try:
            expected = _reference_parse(lines)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                await read(raw + b"x" * 16, stream=True, max_body=0)
            continue
        items, framing, close = expected
        message = await read(raw + b"x" * 16, stream=True, max_body=0)
        stream = message.stream
        framed = ("content-length", "transfer-encoding")
        assert fields(message.headers) == [f for f in items if f[0].lower() not in framed], lines
        for name in framed:
            declared = [v for n, v in items if n.lower() == name]
            assert message.headers.get_all(name) == declared, lines
        assert (stream and stream.length, stream is not None and stream.length is None) == framing, lines
        assert message.connection_close is close, lines
        # serialize . parse renders what it always rendered.
        if stream is not None:
            framing_line = (
                "Transfer-Encoding: chunked\r\n"
                if framing[1]
                else f"Content-Length: {framing[0]}\r\n"
            )
            assert message.serialize_head() == _reference_head(start_line, items, framing_line)
        message.stream = None
        assert message.serialize() == _reference_head(start_line, items, "Content-Length: 0\r\n")
        parsed += 1
    assert parsed > 300  # the corpus is not all errors


# -- torn reads: the connection's buffer --------------------------------------

PIPELINED = (
    b"POST /first?x=1 HTTP/1.1\r\nHost: shop\r\nContent-Length: 5\r\n\r\nhello"
    b"GET /second HTTP/1.1\r\nConnection: close\r\n\r\n"
)


async def _both(connection):
    first = await connection.receive()
    second = await connection.receive()
    assert await connection.receive() is None
    return first, second


async def test_head_split_at_every_offset_frames_the_same():
    def framed(requests):
        return [(request.serialize(), request.connection_close) for request in requests]

    expected = await _both(feed(PIPELINED))
    assert expected[0].body == b"hello" and expected[1].connection_close
    for offset in range(1, len(PIPELINED)):
        torn = await _both(feed(PIPELINED, tears=(offset, len(PIPELINED))))
        assert framed(torn) == framed(expected), offset


def _straddling() -> tuple[bytes, bytes]:
    """A request ending just before the buffer's end, then a head across it."""
    second = b"GET /next HTTP/1.1\r\nX-Pad: " + b"p" * 200 + b"\r\n\r\n"
    head = b"POST /big HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
    length = BUFFER_BYTES - 50 - len(head % 0)
    first = head % length + b"b" * length
    assert len(first) < BUFFER_BYTES < len(first) + len(second)
    return first, second


async def test_head_straddling_the_buffer_end_is_compacted():
    first, second = _straddling()
    connection = feed(first + second)
    assert (await connection.receive()).body == first.partition(b"\r\n\r\n")[2]
    assert (await connection.receive()).headers.get("X-Pad") == "p" * 200
    assert len(connection._buf) == BUFFER_BYTES  # moved to the front, not grown


async def test_head_straddling_a_full_unread_buffer_grows_it():
    first, second = _straddling()
    connection = feed(b"")
    wire = first + second
    # Two reads land before the reader runs: the second finds the buffer
    # full with nothing framed yet, so it has to grow.
    for piece in (wire[:BUFFER_BYTES], wire[BUFFER_BYTES:]):
        buffer = connection.get_buffer(-1)
        buffer[: len(piece)] = piece
        connection.buffer_updated(len(piece))
    assert len(connection._buf) == 2 * BUFFER_BYTES
    assert (await connection.receive()).path == "/big"
    assert (await connection.receive()).path == "/next"
    connection.get_buffer(-1)
    assert len(connection._buf) == BULK_BUFFER_BYTES


async def test_a_connection_that_fills_its_buffer_reads_bulk_from_then_on():
    body = b"b" * (4 * BULK_BUFFER_BYTES)
    head = b"POST /bulk HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
    connection = feed(head + body + b"GET /next HTTP/1.1\r\n\r\n")
    request = await connection.receive(stream=True)
    sizes = [len(chunk) async for chunk in request.stream]
    assert sum(sizes) == len(body) and max(sizes) == BULK_BUFFER_BYTES
    assert (await connection.receive()).path == "/next"
    connection.get_buffer(-1)
    assert len(connection._buf) == BULK_BUFFER_BYTES


def _head_of(total: int) -> bytes:
    base = b"GET /x HTTP/1.1\r\nX-Pad: \r\n\r\n"
    return b"GET /x HTTP/1.1\r\nX-Pad: " + b"p" * (total - len(base)) + b"\r\n\r\n"


@pytest.mark.parametrize("tears", [(), (1000,), (MAX_HEADER_BYTES - 2, 7)])
async def test_header_size_limit_is_inclusive(tears):
    # Bounded: a limit checked one byte late pauses a full buffer forever.
    async with asyncio.timeout(10):
        for delta in (-1, 0):
            request = await read_request(_head_of(MAX_HEADER_BYTES + delta), tears)
            assert request.path == "/x"
        with pytest.raises(HeaderTooLarge):
            await read_request(_head_of(MAX_HEADER_BYTES + 1), tears)
