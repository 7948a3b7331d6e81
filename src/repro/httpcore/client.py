"""Asyncio HTTP/1.1 client with per-host connection pooling.

Used by the Bifrost proxies to talk to upstream service versions, by the
engine to configure proxies and query metric providers, and by the load
generator to drive the case-study application.  Keep-alive pooling matters
here: the paper's overhead numbers assume warm connections between proxy
and services, and a connect-per-request client would dominate the measured
overhead with TCP setup cost.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any

from .errors import ConnectionClosed, HttpError, RequestTimeout
from .headers import Headers
from .message import MAX_BODY_BYTES, Request, Response, read_response
from .stream import relay_body


class _Pool:
    """Idle keep-alive connections for one ``host:port``.

    Connections are stacked LIFO — the most recently used (and therefore
    least likely to have been closed by the server's keep-alive timer) is
    reused first — with the monotonic instant each one went idle, so both
    ends of the list can be aged out cheaply: stale candidates pop off the
    top on acquire, the oldest idlers fall off the bottom on release.
    """

    __slots__ = ("connections",)

    def __init__(self) -> None:
        self.connections: list[
            tuple[asyncio.StreamReader, asyncio.StreamWriter, float]
        ] = []


class HttpClient:
    """A pooled HTTP client.

    One instance can talk to many hosts; idle connections are kept per
    ``host:port`` up to *pool_size* and at most *idle_timeout* seconds —
    long-idle sockets are the ones a server's keep-alive timer has most
    likely already closed, and retiring them client-side avoids burning
    the stale-connection retry on a request that could have gone straight
    to a fresh socket.  The client is safe for concurrent use from many
    tasks (each in-flight request owns its connection).

    *timeout* is the budget of one whole round trip — writing the request,
    reading the response and, for a streamed request body, finishing the
    body — not of each step.  A request that runs out of it raises
    ``RequestTimeout``, is never retried, and its connection is closed
    rather than pooled.
    """

    def __init__(
        self,
        pool_size: int = 32,
        timeout: float = 30.0,
        idle_timeout: float = 60.0,
        max_body_bytes: int | None = MAX_BODY_BYTES,
    ):
        self.pool_size = pool_size
        self.timeout = timeout
        self.idle_timeout = idle_timeout
        #: Max response body this client will *buffer*; an oversized
        #: buffered response raises ``BodyTooLarge`` (a ProtocolError).
        #: Streamed responses relay without a size bound — only
        #: materializing them (``aread()``) is capped.
        self.max_body_bytes = max_body_bytes
        self._pools: dict[str, _Pool] = {}
        self._closed = False

    async def request(
        self,
        method: str,
        url: str,
        headers: Headers | dict[str, str] | None = None,
        body: bytes = b"",
        json_body: Any = None,
        timeout: float | None = None,
    ) -> Response:
        """Issue one request to an ``http://host:port/path`` URL.

        A request that fails on a reused (possibly stale) connection is
        retried once on a fresh connection; a failure there propagates.
        """
        host, port, target = _split_url(url)
        request_headers = headers.copy() if isinstance(headers, Headers) else Headers(headers)
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            request_headers.setdefault("Content-Type", "application/json")
        request_headers.setdefault("Host", f"{host}:{port}")
        request = Request(method=method.upper(), target=target, headers=request_headers, body=body)
        return await self.send(request, host, port, timeout=timeout)

    async def send(
        self,
        request: Request,
        host: str,
        port: int,
        timeout: float | None = None,
        stream: bool = False,
    ) -> Response:
        """Round-trip a pre-built *request* to ``host:port`` (hot path).

        Unlike :meth:`request`, nothing is copied: the caller transfers
        ownership of the request (headers included) and must have set any
        ``Host`` header it wants — the Bifrost proxy builds its forward
        headers exactly once and hands them straight to the wire.  Retry
        semantics on a stale pooled connection match :meth:`request`,
        except that a request whose body *stream* has already started
        cannot be replayed and fails outright.

        With ``stream=True`` the call returns as soon as the response
        head is parsed; the body arrives through ``response.stream``.
        The connection goes back to the pool only once that stream is
        fully drained (the keep-alive drain rule) — an abandoned or
        broken stream closes the connection instead.
        """
        if self._closed:
            raise ConnectionClosed("client is closed")
        deadline = self.timeout if timeout is None else timeout
        key = f"{host}:{port}"
        reused, connection = await self._acquire(key, host, port)
        try:
            return await self._round_trip(key, connection, request, deadline, stream)
        except (HttpError, ConnectionError, OSError) as exc:
            _close_now(connection[1])
            replayable = request.stream is None or not request.stream.started
            if not reused or isinstance(exc, RequestTimeout) or not replayable:
                raise
            # Stale pooled connection: retry once on a fresh one.
            _, fresh = await self._acquire(key, host, port, force_new=True)
            try:
                return await self._round_trip(key, fresh, request, deadline, stream)
            except (HttpError, ConnectionError, OSError):
                _close_now(fresh[1])
                raise

    async def _round_trip(
        self,
        key: str,
        connection: tuple[asyncio.StreamReader, asyncio.StreamWriter],
        request: Request,
        deadline: float,
        stream: bool = False,
    ) -> Response:
        reader, writer = connection
        pump: asyncio.Task[None] | None = None
        response: Response | None = None
        deferred = False
        try:
            # One scope around the round trip, not a ``wait_for`` per await:
            # those cost a Task each on 3.11 and each got the full deadline.
            async with asyncio.timeout(deadline):
                if request.stream is None:
                    writer.write(request.serialize())
                else:
                    # Streamed request body: the pump task relays chunks
                    # while we wait for the response head, so an upstream
                    # that answers as it reads (a streaming echo, the proxy
                    # relay) overlaps its first response bytes with our
                    # last request bytes.
                    writer.write(request.serialize_head())
                    pump = asyncio.get_running_loop().create_task(
                        relay_body(writer, request.stream)
                    )
                    pump.add_done_callback(_on_pump_done(writer))
                await writer.drain()
                response = await read_response(
                    reader, stream=stream, max_body=self.max_body_bytes
                )
                # A streamed response defers the pool decision to stream
                # exhaustion; otherwise the request body has to finish too.
                deferred = stream and response.stream is not None
                if pump is not None and not deferred:
                    await _settle_pump(pump)
        except TimeoutError as exc:
            await _cancel_pump(pump)
            if response is None:
                raise RequestTimeout(f"{request.method} {request.target}") from exc
        except BaseException as exc:
            await _cancel_pump(pump)
            # A failed body pump closes the connection, which surfaces
            # here as a read error; the pump's own exception (say, a
            # tee abort) is the actual cause — raise that instead.
            if (
                pump is not None
                and pump.done()
                and not pump.cancelled()
                and pump.exception() is not None
                and isinstance(exc, (HttpError, ConnectionError, OSError))
            ):
                raise pump.exception() from exc
            raise
        if deferred:
            # Release on a clean drain, close on abort/error/abandonment.
            response.stream.set_on_complete(
                self._stream_finalizer(key, connection, response, pump)
            )
        elif not _pump_clean(pump) or response.connection_close:
            # A reply whose request body never finished is still valid;
            # the connection is not.
            _close_now(writer)
        else:
            self._release(key, connection)
        return response

    def _stream_finalizer(
        self,
        key: str,
        connection: tuple[asyncio.StreamReader, asyncio.StreamWriter],
        response: Response,
        pump: asyncio.Task[None] | None,
    ):
        """The drain-rule hook for a streamed response body."""

        def finish(clean: bool) -> None:
            if clean and _pump_clean(pump) and not response.connection_close:
                self._release(key, connection)
            else:
                _close_now(connection[1])

        return finish

    async def get(self, url: str, **kwargs: Any) -> Response:
        return await self.request("GET", url, **kwargs)

    async def post(self, url: str, **kwargs: Any) -> Response:
        return await self.request("POST", url, **kwargs)

    async def put(self, url: str, **kwargs: Any) -> Response:
        return await self.request("PUT", url, **kwargs)

    async def delete(self, url: str, **kwargs: Any) -> Response:
        return await self.request("DELETE", url, **kwargs)

    async def _acquire(
        self, key: str, host: str, port: int, force_new: bool = False
    ) -> tuple[bool, tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        """Return ``(reused, connection)``; *reused* drives retry policy."""
        if not force_new:
            pool = self._pools.get(key)
            deadline = time.monotonic() - self.idle_timeout
            while pool and pool.connections:
                reader, writer, released_at = pool.connections.pop()
                if released_at < deadline:
                    # Idle past the keep-alive budget: everything below it
                    # on the LIFO stack is older still, so drain the lot.
                    _close_now(writer)
                    for _, stale_writer, _ in pool.connections:
                        _close_now(stale_writer)
                    pool.connections.clear()
                    break
                if not writer.is_closing() and not reader.at_eof():
                    return True, (reader, writer)
                _close_now(writer)
        reader, writer = await asyncio.open_connection(host, port)
        return False, (reader, writer)

    def _release(
        self, key: str, connection: tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ) -> None:
        if self._closed:
            _close_now(connection[1])
            return
        pool = self._pools.setdefault(key, _Pool())
        now = time.monotonic()
        # Age out the oldest idlers so a burst followed by a quiet period
        # does not pin pool_size sockets open forever.
        deadline = now - self.idle_timeout
        connections = pool.connections
        while connections and connections[0][2] < deadline:
            _close_now(connections.pop(0)[1])
        if len(connections) >= self.pool_size:
            _close_now(connection[1])
        else:
            connections.append((connection[0], connection[1], now))

    def idle_connections(self, key: str | None = None) -> int:
        """How many keep-alive connections are parked (observability)."""
        if key is not None:
            pool = self._pools.get(key)
            return len(pool.connections) if pool else 0
        return sum(len(pool.connections) for pool in self._pools.values())

    async def close(self) -> None:
        """Close all idle pooled connections and reject further use."""
        self._closed = True
        for pool in self._pools.values():
            for _, writer, _ in pool.connections:
                _close_now(writer)
            pool.connections.clear()
        self._pools.clear()

    async def __aenter__(self) -> "HttpClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


def _split_url(url: str) -> tuple[str, int, str]:
    """Split ``http://host:port/path?q`` into (host, port, target)."""
    if url.startswith("http://"):
        url = url[len("http://") :]
    elif "://" in url:
        raise ValueError(f"only http:// URLs are supported: {url!r}")
    slash = url.find("/")
    if slash == -1:
        authority, target = url, "/"
    else:
        authority, target = url[:slash], url[slash:]
    host, _, raw_port = authority.partition(":")
    if not host:
        raise ValueError(f"URL has no host: {url!r}")
    port = int(raw_port) if raw_port else 80
    return host, port, target


def _close_now(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except (ConnectionError, OSError):
        pass


def _on_pump_done(writer: asyncio.StreamWriter):
    """Close the connection as soon as a body pump fails.

    A half-sent request body means the upstream will wait forever for the
    rest; closing the writer turns that into a fast, visible read error
    instead of a timeout.
    """

    def callback(task: "asyncio.Task[None]") -> None:
        if not task.cancelled() and task.exception() is not None:
            _close_now(writer)

    return callback


async def _cancel_pump(pump: "asyncio.Task[None] | None") -> None:
    if pump is None or pump.done():
        return
    pump.cancel()
    try:
        await pump
    except (asyncio.CancelledError, Exception):
        pass


async def _settle_pump(pump: "asyncio.Task[None]") -> None:
    """Wait for the request-body pump to finish, however it ends."""
    try:
        await pump
    except Exception:
        pass


def _pump_clean(pump: "asyncio.Task[None] | None") -> bool:
    """No request-body pump, or one that ran to completion."""
    return pump is None or (
        pump.done() and not pump.cancelled() and pump.exception() is None
    )
