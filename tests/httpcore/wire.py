"""Drive :class:`HttpConnection` from bytes in memory, no socket.

``feed(data, tears)`` returns a connection whose peer sends *data* in
pieces of the sizes in *tears* (cycled; one piece when empty), one piece
per event-loop turn, and then EOF.  Delivery honours ``pause_reading`` and
asks the protocol for a buffer before every piece, exactly as a socket
transport does, so torn heads, compaction, growth and backpressure all run
the code a real connection runs.

``fields(headers)`` lists the header fields as they go on the wire, and
``parked(client)`` counts the keep-alive connections an
:class:`~repro.httpcore.HttpClient` holds in its pools.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.httpcore import Headers, HttpClient, HttpConnection, read_request, read_response


def fields(headers: Headers) -> list[tuple[str, str]]:
    """Every field *headers* serializes, as ``(name as given, value)`` in
    order.  The framing fields (``Content-Length``, ``Transfer-Encoding``)
    are written per message, so they are not among them."""
    head = headers.wire_head("", "").decode("latin-1")
    return [tuple(line.split(": ", 1)) for line in head.split("\r\n") if line]


def parked(client: HttpClient, key: str | None = None) -> int:
    """Idle keep-alive connections in *client*'s pools (for ``host:port`` *key*)."""
    if key is not None:
        return len(client._pools.get(key, ()))
    return sum(map(len, client._pools.values()))


class MemoryTransport(asyncio.Transport):
    def __init__(self, protocol: HttpConnection, data: bytes, tears=()):
        super().__init__()
        self.protocol = protocol
        self.written = bytearray()
        self.paused = False
        self.closed = False
        self.pieces: deque[bytes] = deque()
        position, index = 0, 0
        while position < len(data):
            size = max(1, tears[index % len(tears)]) if tears else len(data)
            self.pieces.append(data[position : position + size])
            position += size
            index += 1
        self.eof_pending = True
        protocol.connection_made(self)
        asyncio.get_running_loop().call_soon(self.deliver)

    def deliver(self) -> None:
        if self.paused or self.closed:
            return
        if self.pieces:
            piece = self.pieces.popleft()
            buffer = self.protocol.get_buffer(len(piece))
            assert len(buffer) > 0
            size = min(len(buffer), len(piece))
            buffer[:size] = piece[:size]
            if size < len(piece):
                self.pieces.appendleft(piece[size:])
            self.protocol.buffer_updated(size)
            asyncio.get_running_loop().call_soon(self.deliver)
        elif self.eof_pending:
            self.eof_pending = False
            self.protocol.eof_received()

    def pause_reading(self) -> None:
        self.paused = True

    def resume_reading(self) -> None:
        if self.paused:
            self.paused = False
            asyncio.get_running_loop().call_soon(self.deliver)

    def write(self, data) -> None:
        self.written += data

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def feed(data: bytes, tears=(), response: bool = False) -> HttpConnection:
    """A connection receiving *data* (requests, or responses)."""
    connection = HttpConnection(read_response if response else read_request)
    MemoryTransport(connection, data, tears)
    return connection


CHUNKED_HEAD = b"POST /chunked HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"


async def decode_chunked(wire: bytes, tears=()) -> bytes:
    """The body of a chunked request whose body section is *wire*."""
    request = await feed(CHUNKED_HEAD + wire, tears).receive(stream=True, max_body=None)
    return await request.aread()
