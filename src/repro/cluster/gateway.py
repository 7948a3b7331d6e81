"""The nginx stand-in: a path-prefix reverse proxy.

The case-study application uses nginx as "a central entry-point to the
application for users.  It proxies incoming requests to either the
frontend service or to the product service" (section 5.1.1).  This gateway
implements that role: longest-prefix routing of paths to upstream
addresses, with no live-testing logic of its own.
"""

from __future__ import annotations

import logging

from ..httpcore import HttpClient, HttpError, HttpServer, Request, Response
from ..proxy.plan import parse_endpoint

logger = logging.getLogger(__name__)


class Gateway(HttpServer):
    """A reverse proxy with longest-prefix path routing."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        client: HttpClient | None = None,
    ):
        super().__init__(host=host, port=port, name="gateway")
        #: (prefix, upstream address, its host, its port), longest prefix first
        self._routes: list[tuple[str, str, str, int]] = []
        self._client = client or HttpClient(pool_size=64)
        self._owns_client = client is None
        self.router.set_fallback(self._handle)

    def add_route(self, prefix: str, upstream: str) -> None:
        """Route paths starting with *prefix* to *upstream* (host:port);
        a bad *upstream* raises ``ValueError`` here, not per request."""
        if not prefix.startswith("/"):
            raise ValueError(f"prefix must start with '/': {prefix!r}")
        self._routes.append((prefix, upstream, *parse_endpoint(upstream)))
        # Longest prefix first, so "/products" wins over "/".
        self._routes.sort(key=lambda item: len(item[0]), reverse=True)

    def upstream_for(self, path: str) -> tuple[str, str, str, int] | None:
        """The route *path* takes: ``(prefix, upstream, host, port)``."""
        for route in self._routes:
            if path.startswith(route[0]):
                return route
        return None

    async def _handle(self, request: Request) -> Response:
        route = self.upstream_for(request.path)
        if route is None:
            return Response.from_json(
                {"error": "no route", "path": request.path}, status=404
            )
        _, upstream, host, port = route
        headers = request.headers.forward_copy()
        headers.add("Host", upstream)
        try:
            return await self._client.send(
                Request(request.method, request.target, headers, request.body), host, port
            )
        except (HttpError, ConnectionError, OSError) as exc:
            logger.warning("gateway upstream %s failed: %s", upstream, exc)
            return Response.from_json(
                {"error": "bad gateway", "upstream": upstream}, status=502
            )

    async def stop(self) -> None:
        if self._owns_client:
            await self._client.close()
        await super().stop()
