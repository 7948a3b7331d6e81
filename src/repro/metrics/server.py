"""The metrics server: our in-process "Prometheus".

Combines a :class:`~repro.metrics.store.MetricStore`, a
:class:`~repro.metrics.scraper.Scraper`, and an HTTP query API:

* ``GET /api/v1/query?query=...`` — instant query, returns
  ``{"status": "success", "data": {"value": <scalar|null>, "vector": [...]}}``
* ``POST /api/v1/ingest`` — push-style ingestion (JSON list of samples),
  used by components that prefer push over scrape
* ``GET /api/v1/series`` — list known series, for the dashboard
* ``GET /healthz`` — liveness

The scalar in ``data.value`` is the sum over the result vector (matching
:func:`repro.metrics.query.evaluate_scalar`); the raw vector is included
for clients that need per-instance values.
"""

from __future__ import annotations

from ..clock import Clock, RealClock
from ..httpcore import HttpClient, HttpServer, ProtocolError, Request, Response
from .aggregate import cache_info as aggregate_cache_info
from .compile import cache_info as compiled_query_cache_info
from .exposition import render_lines
from .plan import planner_for
from .query import QueryError, layout_cache_info
from .registry import Registry
from .scraper import Scraper
from .store import MetricStore


class MetricsServer(HttpServer):
    """HTTP facade over a metric store + scraper."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scrape_interval: float = 1.0,
        clock: Clock | None = None,
        retention: float | None = 3600.0,
        client: HttpClient | None = None,
    ):
        super().__init__(host=host, port=port, name="prometheus")
        self.clock = clock or RealClock()
        self.store = MetricStore(retention=retention)
        self.scraper = Scraper(
            self.store, interval=scrape_interval, clock=self.clock, client=client
        )
        self.router.get("/api/v1/query")(self._handle_query)
        self.router.post("/api/v1/ingest")(self._handle_ingest)
        self.router.get("/api/v1/series")(self._handle_series)
        self.router.get("/healthz")(self._handle_health)
        self.router.get("/metrics")(self._handle_self_metrics)
        # Self-instrumentation: the query-path caches surface as gauges so
        # their effectiveness can itself be scraped and checked.
        self.registry = Registry()
        self._m_cache = self.registry.gauge(
            "metrics_cache_events_total",
            "Query-path cache hits and misses",
            label_names=("cache", "event"),
        )
        #: Per-(tick, generation) memo of rendered query responses.  The
        #: plan nodes below it share the same stamp and already evaluate
        #: once; what this layer saves is rendering the JSON body again
        #: when N parallel strategies ask the same query in one tick.
        self._query_cache: dict[str, bytes] = {}
        self._query_cache_key: tuple[float, int] | None = None
        #: Memo hit/miss tallies, exposed on ``/healthz`` for operators.
        self.query_cache_hits = 0
        self.query_cache_misses = 0
        #: Circuit breakers surfaced on ``/healthz`` — anything with a
        #: ``snapshot()`` (see ``CircuitBreaker.snapshot``).
        self.breakers: dict[str, object] = {}

    def register_breaker(self, name: str, breaker) -> None:
        """Expose *breaker*'s state + transition counters on ``/healthz``."""
        self.breakers[name] = breaker

    async def start(self, scrape: bool = True) -> None:
        await super().start()
        if scrape:
            self.scraper.start()

    async def stop(self) -> None:
        await self.scraper.stop()
        await super().stop()

    async def _handle_query(self, request: Request) -> Response:
        query = request.query.get("query")
        if not query:
            return Response.from_json(
                {"status": "error", "error": "missing query parameter"}, 400
            )
        now = self.clock.now()
        cache_key = (now, self.store.generation)
        if cache_key != self._query_cache_key:
            self._query_cache_key = cache_key
            self._query_cache.clear()
        body = self._query_cache.get(query)
        if body is None:
            self.query_cache_misses += 1
            try:
                # Shared-plan evaluation: distinct subexpressions across
                # every query hitting this server (and any local provider
                # on the same store) evaluate once per tick.
                vector = planner_for(self.store).evaluate(self.store, query, now)
            except QueryError as exc:
                return Response.from_json(
                    {"status": "error", "error": str(exc)}, 400
                )
            scalar = sum(sample.value for sample in vector) if vector else None
            response = Response.from_json(
                {
                    "status": "success",
                    "data": {
                        "value": scalar,
                        "vector": [
                            {"labels": sample.labels, "value": sample.value}
                            for sample in vector
                        ],
                    },
                }
            )
            self._query_cache[query] = response.body
            return response
        self.query_cache_hits += 1
        response = Response(status=200, body=body)
        response.headers.setdefault("Content-Type", "application/json")
        return response

    async def _handle_ingest(self, request: Request) -> Response:
        """Push-style ingestion: the whole batch lands, or none of it does.

        Every sample is validated — shape and types here; the name and
        label values of any series it would create, and timestamp ordering
        against both the store's current series and earlier samples in the
        same batch, in the store's plan phase — *before* anything is
        recorded, so a bad sample mid-list cannot leave a partial ingest
        behind the 400.  No await separates validation from recording;
        under asyncio's single thread the batch is atomic.
        """
        try:
            samples = request.json()
        except ProtocolError as exc:
            return Response.from_json(
                {"status": "error", "error": str(exc)}, 400
            )
        if not isinstance(samples, list):
            return Response.from_json(
                {"status": "error", "error": "expected a JSON list"}, 400
            )
        now = self.clock.now()
        batch: list[tuple[str, float, float, dict]] = []
        for sample in samples:
            try:
                name = sample["name"]
                labels = sample.get("labels") or {}
                if not isinstance(labels, dict):
                    raise TypeError(f"labels must be an object, got {labels!r}")
                value = float(sample["value"])
                timestamp = float(sample.get("timestamp", now))
            except (KeyError, TypeError, ValueError) as exc:
                return Response.from_json(
                    {"status": "error", "error": f"bad sample {sample!r}: {exc}"}, 400
                )
            batch.append((name, value, timestamp, labels))
        try:
            # record_batch plans (validating each timestamp, their ordering
            # against both store floors and earlier samples in this batch,
            # and the identity of every series it would create) before
            # applying anything, giving the all-or-nothing guarantee.
            ingested = self.store.record_batch(batch)
        except ValueError as exc:
            return Response.from_json(
                {"status": "error", "error": str(exc)}, 400
            )
        return Response.from_json({"status": "success", "ingested": ingested})

    async def _handle_series(self, request: Request) -> Response:
        names = sorted(self.store.names())
        return Response.from_json({"status": "success", "data": names})

    async def _handle_self_metrics(self, request: Request) -> Response:
        compiled = compiled_query_cache_info()
        layout = layout_cache_info()
        planner = planner_for(self.store)
        aggregates = aggregate_cache_info()
        tallies = {
            ("query_memo", "hit"): self.query_cache_hits,
            ("query_memo", "miss"): self.query_cache_misses,
            ("compiled_query", "hit"): compiled.hits,
            ("compiled_query", "miss"): compiled.misses,
            ("histogram_layout", "hit"): layout["hits"],
            ("histogram_layout", "miss"): layout["misses"],
            ("evaluation_plan", "hit"): planner.node_hits,
            ("evaluation_plan", "miss"): planner.node_misses,
            ("window_aggregate", "hit"): aggregates["hits"],
            ("window_aggregate", "miss"): aggregates["fallbacks"],
        }
        for (cache, event), value in tallies.items():
            self._m_cache.labels(cache=cache, event=event).set(float(value))
        body = bytearray()
        for line in render_lines(self.registry):
            body += line.encode("utf-8")
        response = Response(status=200, body=bytes(body))
        response.headers.set("Content-Type", "text/plain; charset=utf-8")
        return response

    async def _handle_health(self, request: Request) -> Response:
        compiled = compiled_query_cache_info()
        layout = layout_cache_info()
        planner = planner_for(self.store)
        return Response.from_json(
            {
                "status": "up",
                "series": len(self.store),
                "breakers": {
                    name: breaker.snapshot()
                    for name, breaker in self.breakers.items()
                },
                "caches": {
                    "query_memo": {
                        "hits": self.query_cache_hits,
                        "misses": self.query_cache_misses,
                        "size": len(self._query_cache),
                    },
                    "compiled_query": {
                        "hits": compiled.hits,
                        "misses": compiled.misses,
                        "size": compiled.currsize,
                    },
                    "histogram_layout": layout,
                    "evaluation_plan": planner.cache_info(),
                    "window_aggregates": aggregate_cache_info(),
                },
                "plan_shared_nodes": planner.shared_nodes,
                "plan_evaluations_saved": planner.evaluations_saved,
            }
        )
