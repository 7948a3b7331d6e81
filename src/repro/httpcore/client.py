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
from typing import Any, AsyncIterator, Sequence

from .connection import HttpConnection
from .errors import ConnectionClosed, HttpError, IncompleteMessage, RequestTimeout
from .headers import Headers
from .message import MAX_BODY_BYTES, Request, Response, read_response
from .stream import relay_body


class HttpClient:
    """A pooled HTTP client.

    One instance can talk to many hosts; idle connections are kept per
    ``host:port`` up to *pool_size* and at most *idle_timeout* seconds —
    long-idle sockets are the ones a server's keep-alive timer has most
    likely already closed, and retiring them client-side avoids burning
    the stale-connection retry on a request that could have gone straight
    to a fresh socket.  The client is safe for concurrent use from many
    tasks: each in-flight request owns its connection, except that the
    GETs of one :meth:`get_many` train share one.

    *timeout* is the budget of one whole round trip — writing the request,
    reading the response and, for a streamed request body, finishing the
    body — not of each step.  A request that runs out of it raises
    ``RequestTimeout``, is never retried, and its connection is closed
    rather than pooled.  One timer per client, at the earliest deadline in
    progress, enforces every budget.
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
        #: ``host:port`` -> idle keep-alive connections with the monotonic
        #: instant each went idle, stacked LIFO: the most recently used
        #: (least likely closed by the server's keep-alive timer) is reused
        #: first, stale candidates pop off the top on acquire and the oldest
        #: idlers fall off the bottom on release.
        self._pools: dict[str, list[tuple[HttpConnection, float]]] = {}
        self._closed = False
        #: The round trips in progress: connection -> (deadline, request).
        self._deadlines: dict[HttpConnection, tuple[float, Request]] = {}
        self._timer: asyncio.TimerHandle | None = None
        self._timer_loop: asyncio.AbstractEventLoop | None = None

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
        head is parsed; the body arrives through ``response.stream``
        unless it came whole with the head (then it is ``.body``).
        The connection goes back to the pool only once that stream is
        fully drained (the keep-alive drain rule) — an abandoned or
        broken stream closes the connection instead.
        """
        if self._closed:
            raise ConnectionClosed("client is closed")
        deadline = self.timeout if timeout is None else timeout
        key = f"{host}:{port}"
        connection = self._idle(key)
        reused = connection is not None
        if connection is None:
            connection = await _open(host, port)
        try:
            return await self._round_trip(key, connection, request, deadline, stream)
        except (HttpError, ConnectionError, OSError) as exc:
            replayable = request.stream is None or not request.stream.started
            if not reused or isinstance(exc, RequestTimeout) or not replayable:
                raise
            # Stale pooled connection: retry once on a fresh one.
            fresh = await _open(host, port)
            return await self._round_trip(key, fresh, request, deadline, stream)

    async def _round_trip(
        self,
        key: str,
        connection: HttpConnection,
        request: Request,
        deadline: float,
        stream: bool = False,
    ) -> Response:
        loop = connection.loop
        # One deadline for the whole round trip, not a scope or ``wait_for``
        # per await: the client's timer fails whatever wait is pending.
        self._track(connection, loop.time() + deadline, request)
        pump: asyncio.Task[None] | None = None
        response: Response | None = None
        try:
            if request.stream is None:
                connection.write(request.serialize())
            else:
                # Streamed request body: the pump task relays chunks
                # while we wait for the response head, so an upstream
                # that answers as it reads (a streaming echo, the proxy
                # relay) overlaps its first response bytes with our
                # last request bytes.
                connection.write(request.serialize_head())
                pump = loop.create_task(relay_body(connection, request.stream))
                pump.add_done_callback(connection.pump_done)
            response = await connection.receive(stream, self.max_body_bytes)
            if response is None:
                raise IncompleteMessage("connection closed before response")
            # A streamed response defers the pool decision to stream
            # exhaustion; otherwise the request body has to finish too.
            if pump is not None and response.stream is None:
                await connection.settle(pump)
        except BaseException as exc:
            # Whatever ends the round trip early — a cancelled caller too —
            # leaves the connection mid-message: it is never reused.
            connection.close()
            if pump is not None and not pump.done():
                pump.cancel()
                await asyncio.gather(pump, return_exceptions=True)
            # The reply is complete, the request body is not: return it.
            if response is None or not isinstance(exc, RequestTimeout):
                failure = _failure(pump)
                # A failed body pump closes the connection, which surfaces
                # here as a read error; the pump's own exception (say, a
                # tee abort) is the actual cause — raise that instead.
                if failure is not None and isinstance(exc, (HttpError, OSError)):
                    raise failure from exc
                raise
        finally:
            self._deadlines.pop(connection, None)

        def finish(clean: bool) -> None:
            # The drain rule: release only once both bodies ended cleanly.
            if clean and _finished(pump) and not response.connection_close:
                self._release(key, connection)
            else:
                connection.close()

        if response.stream is not None:
            response.stream.set_on_complete(finish)
        else:
            finish(True)
        return response

    def _track(self, connection: HttpConnection, expires: float, request: Request) -> None:
        """Put the round trip on *connection* under the deadline timer."""
        self._deadlines[connection] = (expires, request)
        loop, timer = connection.loop, self._timer
        if timer is None or expires < timer.when() or loop is not self._timer_loop:
            self._arm(loop, expires)

    def _arm(self, loop: asyncio.AbstractEventLoop, when: float) -> None:
        """Move the deadline timer to *when* on *loop*."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer, self._timer_loop = loop.call_at(when, self._expire), loop

    def _expire(self) -> None:
        """Fail the round trips that are due; re-arm at the next deadline."""
        loop = self._timer_loop
        now = max(loop.time(), self._timer.when())  # asyncio may fire a tick early
        self._timer = None
        deadlines = self._deadlines
        for connection, (expires, request) in list(deadlines.items()):
            if expires <= now:
                del deadlines[connection]
                connection.expire(request)
        if deadlines:
            self._arm(loop, min(expires for expires, _ in deadlines.values()))

    async def get(self, url: str, **kwargs: Any) -> Response:
        return await self.request("GET", url, **kwargs)

    async def post(self, url: str, **kwargs: Any) -> Response:
        return await self.request("POST", url, **kwargs)

    async def put(self, url: str, **kwargs: Any) -> Response:
        return await self.request("PUT", url, **kwargs)

    async def delete(self, url: str, **kwargs: Any) -> Response:
        return await self.request("DELETE", url, **kwargs)

    async def get_many(
        self, urls: Sequence[str]
    ) -> AsyncIterator[tuple[int, Response | Exception]]:
        """Bodiless, buffered GETs of *urls*, all to one ``host:port``, as
        one pipelined train driven by the caller's own task.

        On one connection, idle or fresh, every request goes out in one
        write, and the responses, which HTTP/1.1 returns in request order
        (RFC 7230 §6.3.2), are yielded as ``(position in urls, response)``
        as each is parsed.  The last one is yielded after the connection
        is back in the pool; a caller that stops before it (closes the
        iterator, or is cancelled) closes the connection.

        Requests left unanswered by a pooled connection that fails, or by
        a ``Connection: close`` response, are re-sent once on a fresh
        connection — :meth:`send`'s stale-connection rule, which a GET,
        being idempotent, may take mid-pipeline.  The client *timeout*
        bounds the train from its start, the caller's time between
        answers included: when it runs out, every request still
        unanswered gets :class:`RequestTimeout`, the connection is closed
        and nothing is re-sent.  A failure that is not re-sent is yielded,
        as the exception, for every request it left unanswered; only
        cancellation propagates.
        """
        host, port, _ = _split_url(urls[0])
        key = f"{host}:{port}"
        origin = f"http://{key}"
        targets = []
        for url in urls:
            if url.startswith(origin) and url.startswith("/", len(origin)):
                targets.append(url[len(origin) :])
                continue
            other_host, other_port, target = _split_url(url)
            if other_host != host or other_port != port:
                raise ValueError(f"one train goes to one host:port: {url!r} is not {key}")
            targets.append(target)
        # What Request.serialize writes for a bodiless GET whose only
        # header is Host, without building a message per request.
        tail = f" HTTP/1.1\r\nHost: {key}\r\nContent-Length: 0\r\n\r\n"
        unanswered = list(range(len(targets)))
        if self._closed:
            closed = ConnectionClosed("client is closed")
            for position in unanswered:
                yield position, closed
            return
        failure: Exception = ConnectionClosed("connection closed before response")
        expires = asyncio.get_running_loop().time() + self.timeout
        connection = self._idle(key)
        reused = connection is not None
        for resend in (False, True):
            if resend or connection is None:
                try:
                    connection = await _open(host, port)
                except (HttpError, ConnectionError, OSError) as exc:
                    failure = exc
                    break
            riding, answered = unanswered, 0
            self._track(connection, expires, Request("GET", targets[riding[0]]))
            try:
                connection.write("".join([f"GET {targets[p]}{tail}" for p in riding]).encode("latin-1"))
                for position in riding:
                    response = await connection.receive(False, self.max_body_bytes)
                    if response is None:
                        raise IncompleteMessage("connection closed before response")
                    answered += 1
                    if answered == len(riding) or response.connection_close:
                        break
                    yield position, response
            except (HttpError, ConnectionError, OSError) as exc:
                connection.close()
                unanswered = riding[answered:]
                if resend or not reused or isinstance(exc, RequestTimeout):
                    failure = exc
                    break
                continue
            except BaseException:
                connection.close()
                raise
            finally:
                self._deadlines.pop(connection, None)
            unanswered = riding[answered:]
            if response.connection_close:
                connection.close()
            else:
                self._release(key, connection)
            yield position, response
            if not unanswered:
                return
        for position in unanswered:
            yield position, failure

    def _idle(self, key: str) -> HttpConnection | None:
        """A live pooled connection to *key*, or ``None``."""
        pool = self._pools.get(key)
        deadline = time.monotonic() - self.idle_timeout
        while pool:
            connection, released_at = pool.pop()
            if released_at < deadline:
                # Idle past the keep-alive budget: everything below it
                # on the LIFO stack is older still, so drain the lot.
                for stale, _ in pool:
                    stale.close()
                pool.clear()
                connection.close()
                break
            if not connection.eof and not connection.transport.is_closing():
                return connection
            connection.close()
        return None

    def _release(self, key: str, connection: HttpConnection) -> None:
        if self._closed or connection.expired is not None:
            connection.close()
            return
        pool = self._pools.setdefault(key, [])
        now = time.monotonic()
        # Age out the oldest idlers so a burst followed by a quiet period
        # does not pin pool_size sockets open forever.
        while pool and pool[0][1] < now - self.idle_timeout:
            pool.pop(0)[0].close()
        if len(pool) >= self.pool_size:
            connection.close()
        else:
            pool.append((connection, now))

    async def close(self) -> None:
        """Close all idle pooled connections and reject further use."""
        self._closed = True
        for pool in self._pools.values():
            for connection, _ in pool:
                connection.close()
        self._pools.clear()
        if self._timer is not None and not self._deadlines:
            self._timer.cancel()  # a round trip in progress keeps its deadline

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


async def _open(host: str, port: int) -> HttpConnection:
    _, connection = await asyncio.get_running_loop().create_connection(
        lambda: HttpConnection(_parse), host, port
    )
    return connection


def _parse(head: memoryview) -> Response:
    # Resolved per call, so the module attribute can be wrapped at run time.
    return read_response(head)


def _failure(pump: "asyncio.Task[None] | None") -> BaseException | None:
    if pump is None or not pump.done() or pump.cancelled():
        return None
    return pump.exception()


def _finished(pump: "asyncio.Task[None] | None") -> bool:
    """No request-body pump, or one that ran to completion."""
    return pump is None or (pump.done() and not pump.cancelled() and not pump.exception())
