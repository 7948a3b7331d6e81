"""One HTTP/1.1 connection: the buffered protocol both ends share.

:class:`HttpConnection` is an :class:`asyncio.BufferedProtocol`: the
transport receives straight into one reusable buffer per connection, and
whoever owns the connection — the server's per-connection task or the
client's round trip — frames messages out of it in place with
:meth:`~HttpConnection.receive`.  A message whose head and whole body are
already buffered is returned without suspending; otherwise the reader
awaits one future, woken by the next bytes, EOF, connection loss or the
round trip's deadline (:meth:`~HttpConnection.expire`).  Reading pauses
while a bulk-sized buffer is full of bytes the reader has not taken;
writers await :meth:`~HttpConnection.drain` only while the transport has
paused writing.
"""

from __future__ import annotations

import asyncio
from typing import Callable

from .errors import (
    BodyTooLarge,
    HeaderTooLarge,
    IncompleteMessage,
    ProtocolError,
    RequestTimeout,
)
from .message import CHUNKED, MAX_BODY_BYTES, MAX_HEADER_BYTES, Request, Response
from .stream import BodyStream

#: The receive buffer of a connection until one read fills it.  That means
#: bulk data (large bodies), so from the next empty buffer on the
#: connection reads into :data:`BULK_BUFFER_BYTES`, the size asyncio's
#: socket transport reads per ``recv`` for its ``data_received`` protocols.
#: A head that outgrows either doubles it until the buffer empties.
BUFFER_BYTES = 16 * 1024
BULK_BUFFER_BYTES = 256 * 1024

# Where the body framer is: in data, at the CRLF after a chunk's data, at a
# chunk-size line, in the trailer section, or past the end of the body.
_DATA, _CRLF, _SIZE, _TRAILER, _DONE = range(5)
#: RFC 7230 HEXDIG, all a chunk size may hold (``int`` also takes a sign,
#: ``0x``, ``_`` and whitespace).
_HEXDIG = b"0123456789abcdefABCDEF"


class HttpConnection(asyncio.BufferedProtocol):
    """Frames the messages one peer sends; writes what is sent to it.

    *parse* turns one head (bytes through the blank line) into a
    :class:`Request` or :class:`Response`; *on_open* is called with the
    connection once the transport is up (the server starts its task there).
    """

    def __init__(
        self,
        parse: Callable[[memoryview], Request | Response],
        on_open: Callable[["HttpConnection"], None] | None = None,
    ):
        self._parse = parse
        self._on_open = on_open
        self.transport: asyncio.Transport | None = None
        self._buf = bytearray(BUFFER_BYTES)
        self._view = memoryview(self._buf)
        #: Received, not yet framed: ``_buf[_start:_end]``.
        self._start = self._end = 0
        self._bulk = False
        self._waiter: asyncio.Future[None] | None = None
        self._drain_waiter: asyncio.Future[None] | None = None
        self._read_paused = False
        self.write_paused = False
        #: The peer will send nothing more (EOF or connection lost).
        self.eof = False
        #: ``"METHOD target"`` of the round trip whose deadline passed here.
        self.expired: str | None = None
        self._state = _DONE
        self._remaining = 0
        self._chunked = False

    # -- protocol callbacks --------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.loop = asyncio.get_running_loop()
        if self._on_open is not None:
            self._on_open(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._start == self._end:
            self._start = self._end = 0
            size = BULK_BUFFER_BYTES if self._bulk else BUFFER_BYTES
            if len(self._buf) != size:
                self._buf = bytearray(size)
                self._view = memoryview(self._buf)
        elif self._end == len(self._buf):
            self._make_room()
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        self._wake()
        if self._end == len(self._buf):
            self._bulk = True
            # Runs after the reader just woken, before the next read event:
            # a reader that keeps up costs no pause/resume round.
            self.loop.call_soon(self._pause_if_full)

    def _pause_if_full(self) -> None:
        # Only a bulk-sized buffer pauses; a smaller one grows instead.
        if not self._start and self._end == len(self._buf) >= BULK_BUFFER_BYTES:
            self._read_paused = True
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        self._wake()
        return True  # the owner closes, after writing what it still owes

    def connection_lost(self, exc: Exception | None) -> None:
        self.eof = True
        self._wake()
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_exception(ConnectionResetError("connection lost"))

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- reading ---------------------------------------------------------------

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _make_room(self) -> None:
        """Move the unframed bytes to the front, or grow a full buffer."""
        start, end = self._start, self._end
        if start:
            self._buf[: end - start] = self._buf[start:end]
        else:
            grown = bytearray(2 * len(self._buf))
            grown[:end] = self._view[:end]
            self._buf, self._view = grown, memoryview(grown)
        self._start, self._end = 0, end - start

    async def _wait(self) -> None:
        """Suspend until the peer sends more or closes, or the deadline
        passes (:class:`RequestTimeout`)."""
        if self.expired is not None:
            raise RequestTimeout(self.expired)
        if self._read_paused:
            self._read_paused = False
            self.transport.resume_reading()
        self._waiter = self.loop.create_future()
        try:
            await self._waiter
        finally:
            self._waiter = None

    def expire(self, request: Request) -> None:
        """The round trip of *request* ran out of time: fail its wait."""
        self.expired = f"{request.method} {request.target}"
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_exception(RequestTimeout(self.expired))

    async def receive(
        self, stream: bool = False, max_body: int | None = MAX_BODY_BYTES
    ) -> Request | Response | None:
        """The next message; ``None`` on a clean EOF before its first byte.

        A body that arrived with its head (and fits *max_body*) is set as
        ``.body``.  Otherwise, with ``stream=True``, the message is returned
        with a :class:`BodyStream` over the rest of the body — the caller
        owns draining it before the next ``receive()`` — and without, the
        body is read whole (a declared or decoded size past *max_body*
        raises :class:`BodyTooLarge`).
        """
        while True:
            start = self._start
            end = self._buf.find(b"\r\n\r\n", start, self._end)
            if end >= 0:
                break
            if self._end - start >= MAX_HEADER_BYTES:
                raise HeaderTooLarge("header section exceeds the size limit")
            if self.eof:
                if start == self._end:
                    return None
                raise IncompleteMessage("connection closed mid-header")
            await self._wait()
        end += 4
        if end - start > MAX_HEADER_BYTES:
            raise HeaderTooLarge(f"header section of {end - start} bytes")
        message = self._parse(self._view[start:end])
        self._start = end
        framing = message.framing
        if not framing:
            return message
        if framing > 0 and not stream and max_body is not None and framing > max_body:
            raise BodyTooLarge(f"declared body of {framing} bytes")
        self._chunked = framing == CHUNKED
        self._state, self._remaining = (_SIZE, 0) if self._chunked else (_DATA, framing)
        piece = self._frame_body()
        if self._state == _DONE and (max_body is None or len(piece) <= max_body):
            message.body = piece
            return message
        body_stream = BodyStream(
            self._body_source(piece),
            length=None if self._chunked else framing,
            max_buffer=max_body,
        )
        if stream:
            message.stream = body_stream
        else:
            message.body = await body_stream.read()
        return message

    def _frame_body(self) -> bytes:
        """Decode what the buffer holds of the current body into one piece
        (RFC 7230 §4.1 for chunked: extensions discarded, trailers read and
        ignored): the data of every chunk in it, copied out in one join."""
        views: list[memoryview] = []
        buf, start, end, state = self._buf, self._start, self._end, self._state
        try:
            while state != _DONE:
                if state == _DATA:
                    take = min(self._remaining, end - start)
                    if not take:
                        break
                    views.append(self._view[start : start + take])
                    start += take
                    self._remaining -= take
                    if self._remaining:
                        break
                    state = _CRLF if self._chunked else _DONE
                elif state == _CRLF:
                    if end - start < 2:
                        break
                    if buf[start : start + 2] != b"\r\n":
                        raise ProtocolError("chunk data not CRLF-terminated")
                    start += 2
                    state = _SIZE
                else:  # one CRLF-terminated line: a chunk size or a trailer
                    eol = buf.find(b"\r\n", start, end)
                    if eol < 0:
                        if end - start >= MAX_HEADER_BYTES:
                            raise ProtocolError("chunk-size or trailer line too long")
                        break
                    line, start = buf[start:eol], eol + 2
                    if state == _TRAILER:
                        if not line:
                            state = _DONE
                        continue
                    raw_size = bytes(line.split(b";", 1)[0])
                    if not raw_size or raw_size.translate(None, _HEXDIG):
                        raise ProtocolError(f"bad chunk size: {raw_size!r}")
                    size = int(raw_size, 16)
                    state, self._remaining = (_DATA, size) if size else (_TRAILER, 0)
        finally:
            self._start, self._state = start, state
        return b"".join(views)

    async def _body_source(self, piece: bytes):
        while True:
            if piece:
                yield piece
            if self._state == _DONE:
                return
            piece = self._frame_body()
            while not piece and self._state != _DONE:
                if self.eof:
                    raise IncompleteMessage("connection closed mid-body")
                await self._wait()
                piece = self._frame_body()

    async def settle(self, task: asyncio.Task) -> None:
        """Wait, under the deadline, for a :meth:`pump_done` task to end."""
        while not task.done():
            await self._wait()

    def pump_done(self, task: asyncio.Task) -> None:
        """Done-callback of a task writing a body here: a failed one closes
        the connection (the peer would wait forever for the rest)."""
        if not task.cancelled() and task.exception() is not None:
            self.close()
        self._wake()

    # -- writing -------------------------------------------------------------

    def write(self, data: bytes) -> None:
        self.transport.write(data)

    async def drain(self) -> None:
        """Wait while the transport has paused writing; raise once closed."""
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        if self.write_paused:
            self._drain_waiter = self.loop.create_future()
            await self._drain_waiter

    def close(self) -> None:
        self.transport.close()
