"""Engine-side proxy control.

:class:`HttpProxyController` implements the engine's
:class:`~repro.core.engine.ProxyController` seam over the proxies' HTTP
admin API — the same network path the Node.js engine uses to configure its
proxies.  :class:`LocalProxyController` skips HTTP for single-process
deployments (and for scalability experiments where proxy configuration is
not the variable under test).
"""

from __future__ import annotations

from ..core.engine import ProxyController
from ..core.routing import RoutingConfig
from ..httpcore import HttpClient
from .server import BifrostProxy


class ProxyUnreachable(Exception):
    """A proxy could not be configured."""


class HttpProxyController(ProxyController):
    """Configures proxies over their ``/bifrost/config`` admin endpoint."""

    def __init__(self, proxies: dict[str, str], client: HttpClient | None = None):
        """*proxies* maps service name → proxy ``host:port``."""
        self.proxies = dict(proxies)
        self._client = client or HttpClient(timeout=10.0)
        self._owns_client = client is None

    def register(self, service: str, address: str) -> None:
        self.proxies[service] = address

    async def apply(
        self, service: str, config: RoutingConfig, endpoints: dict[str, str]
    ) -> None:
        address = self.proxies.get(service)
        if address is None:
            raise ProxyUnreachable(
                f"no proxy registered for service {service!r}; "
                f"known: {sorted(self.proxies)}"
            )
        try:
            response = await self._client.put(
                f"http://{address}/bifrost/config",
                json_body={"routing": config.to_wire(), "endpoints": endpoints},
            )
        except Exception as exc:
            raise ProxyUnreachable(f"proxy for {service!r} unreachable: {exc}") from exc
        if response.status != 200:
            raise ProxyUnreachable(
                f"proxy for {service!r} rejected config: {response.body[:200]!r}"
            )

    async def close(self) -> None:
        if self._owns_client:
            await self._client.close()


class LocalProxyController(ProxyController):
    """Configures in-process proxy objects directly (no HTTP hop)."""

    def __init__(self, proxies: dict[str, BifrostProxy] | None = None):
        self.proxies: dict[str, BifrostProxy] = dict(proxies or {})

    async def apply(
        self, service: str, config: RoutingConfig, endpoints: dict[str, str]
    ) -> None:
        proxy = self.proxies.get(service)
        if proxy is None:
            raise ProxyUnreachable(
                f"no proxy registered for service {service!r}; "
                f"known: {sorted(self.proxies)}"
            )
        proxy.apply_config(config, endpoints)
