"""The Bifrost proxy.

One proxy fronts one service ("one-proxy-per-service", section 4.1).  It
intercepts every incoming request, runs the filter chain to pick a
version, optionally duplicates traffic to shadow versions, forwards the
request to the chosen version's endpoint, and relays the response —
issuing the client-identifying cookie when cookie routing demands it.

Admin endpoints (under ``/bifrost/``, configured by the engine):

* ``PUT /bifrost/config`` — apply a routing configuration + endpoints
* ``GET /bifrost/config`` — current configuration
* ``GET /bifrost/stats`` — per-version forward counters, shadow counters
* ``GET /bifrost/healthz`` — liveness

Without an applied configuration the proxy forwards everything to its
*default upstream* — the "Bifrost inactive" deployment mode measured in
the paper's overhead experiment.
"""

from __future__ import annotations

import logging
import random
import time

from ..core.routing import RoutingConfig, RoutingError
from ..httpcore import (
    Headers,
    HttpClient,
    HttpError,
    HttpServer,
    ProtocolError,
    Request,
    Response,
    SetCookie,
)
from ..metrics import Registry, render_exposition_lines
from .filters import CLIENT_COOKIE, FilterChain, RoutingDecision
from .plan import EndpointRing, normalize_endpoints
from .shadow import Shadower
from .sticky import StickyStore

logger = logging.getLogger(__name__)


async def read_config(
    request: Request,
) -> tuple[RoutingConfig, dict[str, str | list[str]]]:
    """The routing config and endpoints of a ``PUT /bifrost/config`` body.

    Anything that is not a JSON object with an object ``routing`` and a
    mapping ``endpoints`` of strings or lists raises :class:`RoutingError`,
    which every admin handler answers with 400 before touching its
    installed plan.
    """
    # Buffered outside the try: a body past the size limit stays a 413.
    await request.aread()
    try:
        payload = request.json()
    except ProtocolError as exc:
        raise RoutingError(str(exc)) from None
    if not isinstance(payload, dict):
        raise RoutingError("config body must be a JSON object")
    routing = payload.get("routing", {})
    if not isinstance(routing, dict):
        raise RoutingError("routing must be an object")
    endpoints = payload.get("endpoints", {})
    if not isinstance(endpoints, dict):
        raise RoutingError("endpoints must be a mapping")
    config = RoutingConfig.from_wire(routing)
    for version, value in endpoints.items():
        # Refused, not coerced: ``str(5)`` would name host "5".
        if not isinstance(value, (str, list)):
            raise RoutingError(
                f"endpoint of version {version!r} must be a string or a list"
            )
    return config, endpoints


class BifrostProxy(HttpServer):
    """A reverse proxy enforcing one service's dynamic routing state."""

    def __init__(
        self,
        service: str,
        default_upstream: str,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: str = "bifrost",
        rng: random.Random | None = None,
        sticky_capacity: int = 100_000,
    ):
        # Always streaming: a handler sees the request at head time, its
        # body still on the wire, and no buffered-body cap applies.
        super().__init__(host, port, f"proxy-{service}", True, None)
        self.service = service
        self.default_upstream = default_upstream
        self.seed = seed
        self.rng = rng or random.Random()
        self._client = HttpClient(pool_size=64)
        self.sticky_store = StickyStore(capacity=sticky_capacity)
        self._chain: FilterChain | None = None
        self._endpoints: dict[str, list[str]] = {}
        self._rings: dict[str, EndpointRing] = {}
        self._default_ring = EndpointRing([default_upstream])
        #: Monotonic configuration counter, reported by the admin API:
        #: every successful apply or clear advances it by one.
        self.config_version = 0
        #: Forwarded requests per version name (plus "default").
        self.forwarded: dict[str, int] = {}
        self.upstream_errors = 0
        # Bound label children of the forward counter, memoized per version
        # so the hot path skips the label-validation dict dance.
        self._forward_counters: dict[str, object] = {}

        # Self-instrumentation: proxies expose their own metrics like any
        # other service, so the engine (or an operator) can put checks on
        # the middleware itself.
        self.registry = Registry()
        # Built after the registry so the shadower's adaptive-backpressure
        # metrics ride the same /metrics exposition.
        self.shadower = Shadower(self._client, registry=self.registry)
        self._m_forwarded = self.registry.counter(
            "proxy_requests_total",
            "Requests forwarded, by version served",
            label_names=("version",),
        )
        self._m_upstream_errors = self.registry.counter(
            "proxy_upstream_errors_total", "Upstream connect/read failures"
        )
        self._m_forward_seconds = self.registry.histogram(
            "proxy_forward_seconds", "Time spent per forwarded request"
        )
        self._m_shadow_sent = self.registry.counter(
            "proxy_shadow_requests_total", "Shadow requests dispatched"
        )
        self._m_sticky = self.registry.gauge(
            "proxy_sticky_sessions", "Sticky assignments currently held"
        )
        self._m_shadow_dropped = self.registry.gauge(
            "proxy_shadow_dropped_total",
            "Shadow requests dropped by queue backpressure",
        )
        self._m_sticky_evicted = self.registry.gauge(
            "proxy_sticky_evictions_total",
            "Sticky assignments evicted to stay within capacity",
        )

        self.router.put("/bifrost/config")(self._handle_put_config)
        self.router.get("/metrics")(self._handle_metrics)
        self.router.get("/bifrost/config")(self._handle_get_config)
        self.router.delete("/bifrost/config")(self._handle_delete_config)
        self.router.get("/bifrost/stats")(self._handle_stats)
        self.router.get("/bifrost/healthz")(self._handle_health)
        self.router.set_fallback(self._handle_proxy)

    # -- configuration ------------------------------------------------------

    def apply_config(
        self, config: RoutingConfig, endpoints: dict[str, str | list[str]]
    ) -> None:
        """Install a routing configuration (validated) and its endpoints.

        An endpoint value may be a single ``host:port`` or a list of them:
        "a service acting behind a proxy may run in multiple instances and
        multiple versions at the same time" (paper section 4.1) — lists
        are balanced round-robin per version.

        Everything is validated and compiled before anything is swapped,
        and the swap itself has no awaits: under asyncio's single thread
        every in-flight request sees either the old state or the new,
        never a mix.  Advances :attr:`config_version`.
        """
        normalized = normalize_endpoints(config, endpoints)
        chain = FilterChain(
            config, sticky_store=self.sticky_store, seed=self.seed, rng=self.rng
        )
        # Endpoint rings are part of the compiled plan: host:port parsed
        # once per configuration, not once per request.
        rings = {
            version: EndpointRing(instances)
            for version, instances in normalized.items()
        }
        self._chain = chain
        self._endpoints = normalized
        self._rings = rings
        self.config_version += 1

    def clear_config(self) -> None:
        """Fall back to default-upstream passthrough (strategy finished).

        Advances :attr:`config_version` like an apply does.
        """
        self._chain = None
        self._endpoints = {}
        self._rings = {}
        self.config_version += 1

    @property
    def active_config(self) -> RoutingConfig | None:
        return self._chain.config if self._chain else None

    # -- proxying ---------------------------------------------------------

    async def _handle_proxy(self, request: Request) -> Response:
        if self._chain is None:
            headers = self._forward_headers(request, None)
            return await self._forward(
                request, headers, self._default_ring.next(), "default"
            )

        decision = self._chain.decide(request)
        # One overlay per request: every shadow copies it, then the
        # primary takes it over.
        headers = self._forward_headers(request, decision.client_id)
        if decision.shadows:
            self._dispatch_shadows(request, headers, decision)

        response = await self._forward(
            request, headers, self._rings[decision.version].next(), decision.version
        )
        if decision.set_cookie and decision.client_id:
            response.headers.add(
                "Set-Cookie", SetCookie(CLIENT_COOKIE, decision.client_id).format()
            )
        return response

    def _forward_headers(self, request: Request, client_id: str | None) -> Headers:
        """What every upstream copy of *request* carries, before its own
        ``Host``: :meth:`Headers.forward_copy` minus a previous hop's
        ``X-Forwarded-By``, with the proxy-issued client cookie spliced
        into the ``Cookie`` header (or appended) when the client does not
        carry it yet.  The incoming request is never mutated."""
        headers = request.headers.forward_copy()
        headers.remove("X-Forwarded-By")
        if client_id is not None and CLIENT_COOKIE not in request.cookies:
            headers.merge("Cookie", f"{CLIENT_COOKIE}={client_id}", "; ")
        return headers

    def _dispatch_shadows(
        self, request: Request, headers: Headers, decision: RoutingDecision
    ) -> None:
        shadows = decision.shadows
        if request.stream is None:
            for shadow in shadows:
                self._dispatch_shadow(request, headers, shadow)
            return
        # A streamed body can be teed exactly once without double-buffering:
        # the primary keeps stream ownership (its reads drive the tee), the
        # first shadow rides the bounded branch, and any further shadows for
        # the same request are dropped with accounting rather than buffered.
        tee = self.shadower.tee(request.stream)
        request.stream = tee.primary
        self._dispatch_shadow(request, headers, shadows[0], stream=tee.branch)
        for _ in shadows[1:]:
            self.shadower.note_drop()

    def _dispatch_shadow(self, request, headers, shadow, stream=None) -> None:
        """Duplicate *request* to the shadow target's next instance.

        Builds a dedicated request sharing the (immutable) body bytes with
        the primary — the only allocation is the copied header list.  A
        streamed duplicate instead carries a tee *branch* as its body.
        """
        endpoint, host, port = self._rings[shadow.target_version].next()
        headers = headers.copy()
        headers.add("Host", endpoint)
        headers.add("X-Forwarded-By", self.name)
        headers.add("X-Bifrost-Shadow", "true")
        shadow_request = Request(
            method=request.method,
            target=request.target,
            headers=headers,
            body=request.body,
            stream=stream,
        )
        if self.shadower.shadow(shadow_request, endpoint, host, port):
            self._m_shadow_sent.inc()

    async def _forward(
        self,
        request: Request,
        headers: Headers,
        destination: tuple[str, str, int],
        version: str,
    ) -> Response:
        """Send *request* upstream under *headers*, which this call takes over."""
        endpoint, host, port = destination
        headers.add("Host", endpoint)
        headers.add("X-Forwarded-By", self.name)
        upstream_request = Request(
            method=request.method,
            target=request.target,
            headers=headers,
            body=request.body,
            stream=request.stream,
        )
        started = time.monotonic()
        try:
            # An end-to-end relay: the request body streams up as it
            # arrives and the response returns at head-parse time, its body
            # flowing back through ``response.stream`` — first upstream
            # bytes can reach the client before the last client bytes
            # arrive.
            response = await self._client.send(
                upstream_request, host, port, stream=True
            )
        except (HttpError, ConnectionError, OSError) as exc:
            self.upstream_errors += 1
            self._m_upstream_errors.inc()
            logger.warning("upstream %s (%s) failed: %s", endpoint, version, exc)
            return Response.from_json(
                {"error": "bad gateway", "upstream": endpoint}, status=502
            )
        self._m_forward_seconds.observe(time.monotonic() - started)
        self.forwarded[version] = self.forwarded.get(version, 0) + 1
        counter = self._forward_counters.get(version)
        if counter is None:
            counter = self._m_forwarded.labels(version=version)
            self._forward_counters[version] = counter
        counter.inc()
        # Relay in place: the response object is exclusively ours (it was
        # parsed off our upstream connection), so no defensive copy.
        response.headers.set("X-Bifrost-Version", version)
        return response

    # -- admin API ---------------------------------------------------------

    async def _handle_put_config(self, request: Request) -> Response:
        try:
            self.apply_config(*await read_config(request))
        except RoutingError as exc:
            return Response.from_json({"status": "error", "error": str(exc)}, 400)
        return Response.from_json(
            {
                "status": "ok",
                "service": self.service,
                "config_version": self.config_version,
            }
        )

    async def _handle_get_config(self, request: Request) -> Response:
        if self._chain is None:
            return Response.from_json(
                {"service": self.service, "active": False,
                 "config_version": self.config_version,
                 "default_upstream": self.default_upstream}
            )
        return Response.from_json(
            {
                "service": self.service,
                "active": True,
                "config_version": self.config_version,
                "routing": self._chain.config.to_wire(),
                "endpoints": self._endpoints,
            }
        )

    async def _handle_delete_config(self, request: Request) -> Response:
        self.clear_config()
        return Response.from_json(
            {
                "status": "ok",
                "active": False,
                "config_version": self.config_version,
            }
        )

    def stats_snapshot(self) -> dict:
        """The counters behind ``/bifrost/stats``, as plain data."""
        return {
            "service": self.service,
            "config_version": self.config_version,
            "forwarded": dict(self.forwarded),
            "shadow_sent": self.shadower.sent,
            "shadow_failed": self.shadower.failed,
            "shadow_dropped": self.shadower.dropped,
            "shadow_in_flight": self.shadower.in_flight,
            "shadow_effective_pending": self.shadower.effective_pending,
            "upstream_errors": self.upstream_errors,
            "sticky_sessions": len(self.sticky_store),
            "sticky_evictions": self.sticky_store.evictions,
        }

    async def _handle_stats(self, request: Request) -> Response:
        return Response.from_json(self.stats_snapshot())

    async def _handle_health(self, request: Request) -> Response:
        return Response.from_json(
            {
                "status": "up",
                "service": self.service,
                "caches": {
                    "sticky": {
                        "size": len(self.sticky_store),
                        "capacity": self.sticky_store.capacity,
                        "evictions": self.sticky_store.evictions,
                    },
                    "shadow": {
                        "max_pending": self.shadower.max_pending,
                        "effective_pending": self.shadower.effective_pending,
                        "target_delay": self.shadower.target_delay,
                        "latency_ewma": self.shadower.latency_ewma,
                        "queue_delay_ewma": self.shadower.queue_delay_ewma,
                        "in_flight": self.shadower.in_flight,
                        "dropped": self.shadower.dropped,
                    },
                },
            }
        )

    def _refresh_gauges(self) -> None:
        """Refresh the point-in-time gauges before a registry collection."""
        self._m_sticky.set(float(len(self.sticky_store)))
        self._m_shadow_dropped.set(float(self.shadower.dropped))
        self._m_sticky_evicted.set(float(self.sticky_store.evictions))

    async def _handle_metrics(self, request: Request) -> Response:
        self._refresh_gauges()
        # Streamed render: large registries never build one giant string.
        body = bytearray()
        for line in render_exposition_lines(self.registry):
            body += line.encode("utf-8")
        response = Response(status=200, body=bytes(body))
        response.headers.set("Content-Type", "text/plain; charset=utf-8")
        return response

    async def stop(self) -> None:
        await self.shadower.close()
        await self._client.close()
        await super().stop()
