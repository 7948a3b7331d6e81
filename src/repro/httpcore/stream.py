"""Streaming message bodies: chunk iterators, the tee, and the relay.

A :class:`BodyStream` is an async iterator of body chunks decoupled from
how they are framed on the wire: a connection
(:class:`~repro.httpcore.connection.HttpConnection`) frames
``Content-Length`` and chunked bodies into one, and in-memory bytes or an
application async iterable wrap into one too.  Memory stays O(chunk)
whatever the body size unless a caller asks for the whole payload
(:meth:`BodyStream.read`, which enforces a max-buffered bound).

Ownership rules (the proxy relay relies on all three):

* a stream has exactly one consumer — whoever iterates it owns it;
* a kept-alive connection is reusable only once the stream framed off it
  is fully drained (``consumed`` is True);
* :class:`StreamTee` fans one stream out to a primary plus at most one
  bounded branch that never blocks the primary: one more than
  ``capacity`` chunks behind, it is aborted with drop accounting.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Callable, Iterable

from .errors import BodyTooLarge, IncompleteMessage, StreamAborted

#: Default relay chunk size: large enough to amortize event-loop trips,
#: small enough that a handful of in-flight chunks stay cache-friendly.
DEFAULT_CHUNK_SIZE = 64 * 1024

#: Terminator for a chunked body with no trailers.
CHUNKED_EOF = b"0\r\n\r\n"


def encode_chunk(data: bytes) -> bytes:
    """Frame *data* as one RFC 7230 chunk (hex size, CRLF, data, CRLF)."""
    return b"%x\r\n" % len(data) + data + b"\r\n"


async def _iter_bytes(data: bytes) -> AsyncIterator[bytes]:
    for start in range(0, len(data), DEFAULT_CHUNK_SIZE):
        yield data[start : start + DEFAULT_CHUNK_SIZE]


class BodyStream:
    """An async iterator of body chunks with framing metadata.

    ``length`` is the body size when known (``Content-Length`` framing or
    in-memory bytes) and ``None`` for chunked/generated bodies — senders
    use it to pick wire framing.  ``on_complete(clean)`` fires exactly
    once: with ``True`` on full, clean exhaustion (the pooled-connection
    release hook) and ``False`` from :meth:`abort` or a mid-stream error.
    """

    __slots__ = (
        "_source",
        "length",
        "max_buffer",
        "bytes_read",
        "consumed",
        "started",
        "_finalized",
        "_on_complete",
    )

    def __init__(
        self,
        source: AsyncIterator[bytes],
        length: int | None = None,
        max_buffer: int | None = None,
        on_complete: Callable[[bool], None] | None = None,
    ):
        self._source = source
        self.length = length
        #: Cap applied by :meth:`read` (buffering), never by iteration.
        self.max_buffer = max_buffer
        self.bytes_read = 0
        self.consumed = False
        self.started = False
        self._finalized = False
        self._on_complete = on_complete

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "BodyStream":
        """Wrap an in-memory body (length known, split into default chunks)."""
        return cls(_iter_bytes(data), length=len(data))

    @classmethod
    def from_iterable(
        cls,
        chunks: AsyncIterator[bytes] | Iterable[bytes],
        length: int | None = None,
    ) -> "BodyStream":
        """Wrap an application-produced chunk source (length if known)."""
        if hasattr(chunks, "__anext__"):
            return cls(chunks, length=length)  # type: ignore[arg-type]

        async def _iterate() -> AsyncIterator[bytes]:
            for chunk in chunks:  # type: ignore[union-attr]
                yield chunk

        return cls(_iterate(), length=length)

    # -- iteration ---------------------------------------------------------

    def __aiter__(self) -> "BodyStream":
        return self

    async def __anext__(self) -> bytes:
        self.started = True
        try:
            chunk = await self._source.__anext__()
        except StopAsyncIteration:
            self.consumed = True
            self._finalize(True)
            raise
        except BaseException:
            self._finalize(False)
            raise
        self.bytes_read += len(chunk)
        return chunk

    def _finalize(self, clean: bool) -> None:
        if self._finalized:
            return
        self._finalized = True
        if self._on_complete is not None:
            self._on_complete(clean)

    def set_on_complete(self, callback: Callable[[bool], None] | None) -> None:
        """Install (or replace) the completion hook.

        The pooled client uses this to bind connection release to stream
        exhaustion after the connection has already built the stream.
        """
        self._on_complete = callback

    # -- whole-body access -------------------------------------------------

    async def read(self) -> bytes:
        """Buffer the remaining chunks into one ``bytes``.

        Enforces :attr:`max_buffer` — streaming through a relay is
        unbounded in body size, but *materializing* a stream is not.
        """
        limit = self.max_buffer
        parts: list[bytes] = []
        total = 0
        async for chunk in self:
            total += len(chunk)
            if limit is not None and total > limit:
                self.abort()
                raise BodyTooLarge(
                    f"buffered body exceeds {limit} bytes"
                )
            parts.append(chunk)
        return b"".join(parts)

    async def drain(self) -> None:
        """Discard the rest of the stream (keep-alive drain rule)."""
        async for _ in self:
            pass

    def abort(self) -> None:
        """Mark the stream dead without consuming it (connection unusable)."""
        self._finalize(False)


#: Sentinel chunk values on a tee branch queue.
_EOF = object()
_ABORT = object()


class StreamTee:
    """Fan one body stream out to a primary and one bounded branch.

    The primary path **owns** the source: every chunk the primary reads
    is also offered to the branch's bounded queue.  The branch never
    provides backpressure to the primary — if it falls more than
    *capacity* chunks behind, it is aborted (its consumer sees
    :class:`~repro.httpcore.errors.StreamAborted`) and *on_drop* fires
    once.  Memory is therefore O(capacity × chunk size) however large
    the body and however slow the branch consumer.
    """

    __slots__ = ("primary", "branch", "_queue", "_pending", "capacity", "_alive", "_on_drop")

    def __init__(
        self,
        source: BodyStream,
        capacity: int = 16,
        on_drop: Callable[[], None] | None = None,
    ):
        if capacity < 1:
            raise ValueError("tee capacity must be at least 1")
        self.capacity = capacity
        self._alive = True
        self._on_drop = on_drop
        # Unbounded queue, manually counted: overflow must abort the
        # branch immediately (synchronously, from the primary's read),
        # which put_nowait on a bounded queue cannot express.
        self._queue: asyncio.Queue[object] = asyncio.Queue()
        self._pending = 0
        self.primary = BodyStream(
            self._pump(source), length=source.length, max_buffer=source.max_buffer
        )
        self.branch = BodyStream(self._drain_branch(), length=source.length)

    async def _pump(self, source: BodyStream) -> AsyncIterator[bytes]:
        try:
            async for chunk in source:
                self._offer(chunk)
                yield chunk
        except BaseException:
            self._abort_branch()
            raise
        if self._alive:
            self._queue.put_nowait(_EOF)

    def _offer(self, chunk: bytes) -> None:
        if not self._alive:
            return
        if self.branch._finalized:
            # The branch consumer is gone (its duplicate was dropped from
            # the shadow queue): stop buffering, silently.
            self._alive = False
            self._clear()
            return
        if self._pending >= self.capacity:
            self._abort_branch()
            if self._on_drop is not None:
                self._on_drop()
            return
        self._pending += 1
        self._queue.put_nowait(chunk)

    def _clear(self) -> None:
        # Discard queued chunks — the branch is dead, free the memory now.
        while not self._queue.empty():
            self._queue.get_nowait()
        self._pending = 0

    def _abort_branch(self) -> None:
        if not self._alive:
            return
        self._alive = False
        self._clear()
        self._queue.put_nowait(_ABORT)

    async def _drain_branch(self) -> AsyncIterator[bytes]:
        while True:
            item = await self._queue.get()
            if item is _EOF:
                return
            if item is _ABORT:
                raise StreamAborted("shadow tee overflow: branch abandoned")
            self._pending -= 1
            yield item  # type: ignore[misc]


async def relay_body(writer, stream: BodyStream) -> None:
    """Copy *stream* to *writer* (``write()`` plus ``await drain()``, as a
    :class:`~repro.httpcore.connection.HttpConnection` has) in its wire
    framing: raw when the length is known (the head declared it), chunk
    encoded otherwise.  ``drain()`` after every chunk keeps relay memory
    O(chunk).  A known-length stream that yields a different byte count
    raises :class:`IncompleteMessage`: the framing is broken, close.
    """
    chunked = stream.length is None
    sent = 0
    async for chunk in stream:
        if not chunk:
            continue
        writer.write(encode_chunk(chunk) if chunked else chunk)
        sent += len(chunk)
        await writer.drain()
    if chunked:
        writer.write(CHUNKED_EOF)
    elif sent != stream.length:
        raise IncompleteMessage(
            f"stream produced {sent} bytes, Content-Length declared {stream.length}"
        )
    await writer.drain()
