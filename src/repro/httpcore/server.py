"""Asyncio HTTP/1.1 server with keep-alive.

``HttpServer`` is the base for every service in the reproduction: the
case-study microservices, the Bifrost proxies, the engine's API, and the
dashboard all subclass or embed it.  It plays the role Node.js' ``http``
module plays in the original prototype: an event-driven, single-threaded
server handling concurrent connections cooperatively.  Each accepted
connection is one :class:`~repro.httpcore.connection.HttpConnection` and
one Task that frames its requests, dispatches them and writes the answers.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Awaitable, Callable

from .connection import HttpConnection
from .errors import BodyTooLarge, HttpError, ProtocolError
from .message import MAX_BODY_BYTES, Request, Response, read_request
from .router import Handler, Router
from .stream import relay_body

logger = logging.getLogger(__name__)

Middleware = Callable[[Request, Handler], Awaitable[Response]]


class HttpServer:
    """An HTTP server bound to ``host:port`` with a :class:`Router`.

    Handlers receive a :class:`Request` and return a :class:`Response`.
    Middleware wraps every handler call (authentication, metrics, ...) in
    registration order, outermost first.

    With ``stream_bodies=True`` (the proxy data plane) requests are
    dispatched as soon as their head is parsed — the body stays on the
    wire as ``request.stream`` — and responses carrying a body stream are
    relayed chunk-by-chunk with bounded buffers.  Keep-alive then follows
    the **drain rule**: a connection is reusable only once the request
    stream is fully drained, so leftover body bytes are discarded (up to
    ``max_body_bytes``) before the next request is read.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "http",
        stream_bodies: bool = False,
        max_body_bytes: int | None = MAX_BODY_BYTES,
    ):
        self.host = host
        self.port = port
        self.name = name
        #: Dispatch on parsed head, body as a chunk stream (proxy mode).
        self.stream_bodies = stream_bodies
        #: Max buffered request body; oversized bodies are answered 413.
        self.max_body_bytes = max_body_bytes
        self.router = Router()
        self._middleware: list[Middleware] = []
        #: handler -> handler inside the whole middleware chain: composed
        #: once (no closure per request), dropped when the chain changes.
        self._composed: dict[Handler, Handler] = {}
        self._server: asyncio.Server | None = None
        #: Open connection -> the Task serving it.
        self._connections: dict[HttpConnection, asyncio.Task[None]] = {}
        #: Count of requests that reached a handler, for tests and metrics.
        self.requests_handled = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections.

        With ``port=0`` the OS picks a free port; :attr:`port` is updated to
        the bound value, which is how the in-process cluster wires service
        endpoints together without a port registry.
        """
        if self._server is not None:
            raise RuntimeError(f"server {self.name!r} already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: HttpConnection(_parse, self._open), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.debug("server %s listening on %s:%d", self.name, self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting connections, close existing ones and wait for
        their Tasks (an in-flight handler is cancelled)."""
        if self._server is None:
            return
        self._server.close()
        current = asyncio.current_task()
        tasks = [task for task in self._connections.values() if task is not current]
        for connection in self._connections:
            connection.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._connections.clear()
        await self._server.wait_closed()
        self._server = None

    @property
    def address(self) -> str:
        """The ``host:port`` string used in deployment configurations."""
        return f"{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._server is not None

    async def __aenter__(self) -> "HttpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- request handling ----------------------------------------------------

    def add_middleware(self, middleware: Middleware) -> None:
        """Wrap all handlers with *middleware* (outermost first), from the
        next request on — also on a running server."""
        self._middleware.append(middleware)
        self._composed.clear()

    def _open(self, connection: HttpConnection) -> None:
        self._connections[connection] = connection.loop.create_task(self._serve(connection))

    async def _serve(self, connection: HttpConnection) -> None:
        try:
            while True:
                try:
                    request = await connection.receive(self.stream_bodies, self.max_body_bytes)
                except ProtocolError as exc:
                    # Nothing after a framing error (an oversized body
                    # still on the wire, a malformed head) can be read
                    # as a request: 413 or 400, and say the close.
                    status = 413 if isinstance(exc, BodyTooLarge) else 400
                    response = Response.text(str(exc), status=status)
                    response.headers.set("Connection", "close")
                    connection.write(response.serialize())
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                if request.connection_close:
                    response.headers.set("Connection", "close")
                if response.stream is None:
                    # One write; await only while the transport is paused.
                    connection.write(response.serialize())
                    if connection.write_paused:
                        await connection.drain()
                else:
                    connection.write(response.serialize_head())
                    try:
                        await relay_body(connection, response.stream)
                    except (HttpError, OSError) as exc:
                        # The wire framing is unrecoverable: close.
                        logger.warning("%s: response stream failed mid-relay: %s", self.name, exc)
                        break
                    finally:
                        # Unless drained, the stream's source (a proxied
                        # upstream connection, say) is dead: release it.
                        response.stream.abort()
                if response.headers.get("Connection", "").lower() == "close":
                    break  # asked for by the request (just set) or the handler
                if request.stream is not None and not await self._drain_request(request):
                    break
        except (ConnectionError, asyncio.CancelledError):
            # The peer went away, or server stop / loop shutdown cancelled
            # us: close quietly instead of propagating, which would make
            # asyncio log a spurious "exception in callback".
            pass
        finally:
            self._connections.pop(connection, None)
            connection.close()

    async def _drain_request(self, request: Request) -> bool:
        """Enforce the keep-alive drain rule; ``False`` closes the connection.

        A handler may answer without consuming the request stream (think
        an early 413 or a shadow-only endpoint); the unread body bytes
        would otherwise be parsed as the next request's head.
        """
        stream = request.stream
        if stream.consumed:
            return True
        limit = self.max_body_bytes
        try:
            async for _ in stream:
                if limit is not None and stream.bytes_read > limit:
                    return False  # refuse to shovel unbounded leftovers
        except HttpError:
            return False
        return True

    async def _dispatch(self, request: Request) -> Response:
        self.requests_handled += 1
        try:
            handler = self.router.resolve(request)
        except HttpError:
            # Unrouted requests still flow through middleware so that
            # logging/metrics layers observe 404s.
            handler = self.handle_not_found

        if self._middleware:
            wrapped = self._composed.get(handler)
            if wrapped is None:
                wrapped = handler
                for middleware in reversed(self._middleware):
                    wrapped = self._bind(middleware, wrapped)
                self._composed[handler] = wrapped
            handler = wrapped
        try:
            return await handler(request)
        except asyncio.CancelledError:
            raise
        except BodyTooLarge as exc:
            # A handler buffered a streamed body past the limit; the
            # unread rest is still on the wire, so close after answering.
            response = Response.text(str(exc), status=413)
            response.headers.set("Connection", "close")
            return response
        except Exception:
            logger.exception(
                "handler error in %s for %s %s", self.name, request.method, request.path
            )
            return await self.handle_error(request)

    @staticmethod
    def _bind(middleware: Middleware, inner: Handler) -> Handler:
        async def bound(request: Request) -> Response:
            return await middleware(request, inner)

        return bound

    async def handle_not_found(self, request: Request) -> Response:
        """Response for unrouted requests; override for custom behaviour."""
        return Response.from_json({"error": "not found", "path": request.path}, 404)

    async def handle_error(self, request: Request) -> Response:
        """Response for handler exceptions; override for custom behaviour."""
        return Response.from_json({"error": "internal server error"}, 500)


def _parse(head: memoryview) -> Request:
    # Resolved per call, so the module attribute can be wrapped at run time.
    return read_request(head)
