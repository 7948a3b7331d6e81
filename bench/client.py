"""The load generator's HTTP client: raw asyncio streams, stdlib only.

Deliberately not ``repro.httpcore.HttpClient``: the generator's cost must
not move when the system under test changes, and requests are serialized
once in the untimed preparation step so the timed loop is write, read,
check.  It speaks just enough HTTP/1.1 for the stubs and proxies here:
``Content-Length`` and ``chunked`` response framing, keep-alive only.
"""

from __future__ import annotations

import asyncio
import zlib
from typing import Iterable

CHUNK = 64 * 1024


class Reply:
    """Status line, raw head and (buffered) body of one response."""

    __slots__ = ("status", "head", "body", "length", "crc")

    def __init__(self, status: int, head: bytes, body: bytes, length: int, crc: int):
        self.status = status
        self.head = head
        self.body = body
        #: Body size and CRC-32; for drained bodies ``body`` stays empty.
        self.length = length
        self.crc = crc

    def header(self, name: bytes) -> bytes | None:
        """First value of header *name* (given lower-case), or ``None``."""
        return header_value(self.head, name)


def header_value(head: bytes, name: bytes) -> bytes | None:
    lowered = head.lower()
    start = lowered.find(b"\r\n" + name + b":")
    if start < 0:
        return None
    start += len(name) + 3
    end = head.find(b"\r\n", start)
    return head[start:end].strip()


class Connection:
    """One keep-alive client connection."""

    def __init__(self) -> None:
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self, host: str, port: int) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(host, port)
        return self

    async def close(self) -> None:
        if self.writer is None:
            return
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.writer = None

    async def exchange(self, request: bytes) -> Reply:
        """Send pre-serialized *request*, buffer the whole response."""
        self.writer.write(request)
        return await self._read(keep_body=True)

    async def exchange_streamed(self, head: bytes, pieces: Iterable[bytes]) -> Reply:
        """Send *head* then body *pieces* under flow control; read the
        response chunk by chunk, keeping only its length and CRC-32."""
        writer = self.writer
        writer.write(head)
        for piece in pieces:
            writer.write(piece)
            await writer.drain()
        return await self._read(keep_body=False)

    async def _read(self, keep_body: bool) -> Reply:
        reader = self.reader
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        raw_length = header_value(head, b"content-length")
        if raw_length is not None:
            remaining = int(raw_length)
            if keep_body:
                body = await reader.readexactly(remaining) if remaining else b""
                return Reply(status, head, body, remaining, zlib.crc32(body))
            crc = 0
            total = remaining
            while remaining:
                piece = await reader.read(min(CHUNK, remaining))
                if not piece:
                    raise ConnectionError("closed mid-body")
                crc = zlib.crc32(piece, crc)
                remaining -= len(piece)
            return Reply(status, head, b"", total, crc)
        if header_value(head, b"transfer-encoding") != b"chunked":
            return Reply(status, head, b"", 0, 0)
        crc = 0
        total = 0
        parts: list[bytes] = []
        while True:
            size = int((await reader.readuntil(b"\r\n"))[:-2].split(b";", 1)[0], 16)
            if size == 0:
                break
            remaining = size
            while remaining:
                piece = await reader.read(min(CHUNK, remaining))
                if not piece:
                    raise ConnectionError("closed mid-chunk")
                crc = zlib.crc32(piece, crc)
                remaining -= len(piece)
                if keep_body:
                    parts.append(piece)
            total += size
            await reader.readexactly(2)
        while await reader.readuntil(b"\r\n") != b"\r\n":
            pass  # trailers
        return Reply(status, head, b"".join(parts), total, crc)


def chunk_frames(body: bytes, size: int = CHUNK) -> list[bytes]:
    """*body* as RFC 7230 chunk frames plus the terminating zero chunk."""
    frames = [
        b"%x\r\n" % len(body[start : start + size]) + body[start : start + size] + b"\r\n"
        for start in range(0, len(body), size)
    ]
    frames.append(b"0\r\n\r\n")
    return frames


def pieces(body: bytes, size: int = CHUNK) -> list[bytes]:
    """*body* split for a flow-controlled ``Content-Length`` upload."""
    return [body[start : start + size] for start in range(0, len(body), size)]
