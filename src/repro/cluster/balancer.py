"""Round-robin load balancing over service instances.

The paper notes that "a service acting behind a proxy may run in multiple
instances and multiple versions at the same time" and that Bifrost
proxies "work in combination with load balancers [and] auto-scaling
functionality".  This balancer provides that layer: several instances of
*one* version behind a single address, with failover.
"""

from __future__ import annotations

import itertools
import logging

from ..httpcore import HttpClient, HttpError, HttpServer, Request, Response
from ..proxy.plan import parse_endpoint

logger = logging.getLogger(__name__)


class LoadBalancer(HttpServer):
    """A round-robin balancer with dead-instance failover."""

    def __init__(
        self,
        instances: list[str] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        client: HttpClient | None = None,
    ):
        super().__init__(host=host, port=port, name="balancer")
        self.instances: list[str] = list(instances or [])
        self._cursor = itertools.count()
        self._client = client or HttpClient(pool_size=64)
        self._owns_client = client is None
        #: Requests served per instance address.
        self.served: dict[str, int] = {}
        self.router.set_fallback(self._handle)

    def add_instance(self, address: str) -> None:
        self.instances.append(address)

    def remove_instance(self, address: str) -> None:
        self.instances = [a for a in self.instances if a != address]

    async def _handle(self, request: Request) -> Response:
        if not self.instances:
            return Response.from_json({"error": "no instances"}, status=503)
        start = next(self._cursor)
        attempts = len(self.instances)
        last_error: Exception | None = None
        for offset in range(attempts):
            address = self.instances[(start + offset) % len(self.instances)]
            headers = request.headers.forward_copy()
            headers.add("Host", address)
            try:
                response = await self._client.send(
                    Request(request.method, request.target, headers, request.body),
                    *parse_endpoint(address),
                )
            except (HttpError, ConnectionError, OSError) as exc:
                last_error = exc
                logger.debug("instance %s failed: %s", address, exc)
                continue
            self.served[address] = self.served.get(address, 0) + 1
            return response
        logger.warning("all %d instances failed: %s", attempts, last_error)
        return Response.from_json({"error": "all instances down"}, status=503)

    async def stop(self) -> None:
        if self._owns_client:
            await self._client.close()
        await super().stop()
