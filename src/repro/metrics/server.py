"""The metrics server: our in-process "Prometheus".

Combines a :class:`~repro.metrics.store.MetricStore`, a
:class:`~repro.metrics.scraper.Scraper` of in-process registries, and an
HTTP API:

* ``GET /api/v1/query?query=...`` — instant query, returns
  ``{"status": "success", "data": {"value": <scalar|null>, "vector": [...]}}``
* ``POST /api/v1/ingest`` — push-style ingestion (JSON list of samples),
  how components in another process reach the store
* ``GET /api/v1/series`` — list known series, for the dashboard
* ``GET /healthz`` — liveness, series count and cache tallies
* ``GET /metrics`` — the server's own cache tallies, as exposition text

The scalar in ``data.value`` is the sum over the result vector (matching
:func:`repro.metrics.query.evaluate_scalar`); the raw vector is included
for clients that need per-instance values.  JSON has no number for a
value that is not finite: it is written ``"+Inf"``, ``"-Inf"`` or ``"NaN"``,
as Prometheus does.
"""

from __future__ import annotations

import math

from ..clock import Clock, RealClock
from ..httpcore import HttpServer, ProtocolError, Request, Response
from .exposition import render_lines
from .plan import planner_for
from .query import QueryError, VectorSample, compile_cache_info, layout_cache_info
from .registry import Registry
from .scraper import Scraper
from .store import CACHE_ENTRIES, RETAIN_LIMIT, MetricStore


def _prometheus_number(value: float) -> str:
    """*value* in JSON; one that is not finite is a string, as Prometheus writes it."""
    if math.isfinite(value):
        return repr(value)
    return '"NaN"' if math.isnan(value) else '"+Inf"' if value > 0 else '"-Inf"'


def render_answer(vector: list[VectorSample]) -> bytes:
    """The answer body for *vector*, byte for byte what ``json`` writes for
    its payload, from each sample's pre-rendered label text and
    ``float.__repr__``, which is how ``json`` writes a finite float."""
    if not vector:
        return b'{"status": "success", "data": {"value": null, "vector": []}}'
    scalar = sum([sample.value for sample in vector])
    number = repr if math.isfinite(scalar) else _prometheus_number  # all finite, or not
    samples = ", ".join([
        f'{{"labels": {labels.json}, "value": {number(value)}}}' for labels, value in vector
    ])
    text = f'{{"status": "success", "data": {{"value": {number(scalar)}, "vector": [{samples}]}}}}'
    return text.encode()


class MetricsServer(HttpServer):
    """HTTP facade over a metric store + scraper.

    The query route decodes a request target once (``/healthz``'s
    ``query_memo.size`` counts the targets it keeps) and serves its body
    again while ``(now, store.generation)`` holds (``query_cache_hits``);
    only bodies written under the current stamp are kept.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scrape_interval: float = 1.0,
        clock: Clock | None = None,
        retention: float | None = 3600.0,
    ):
        super().__init__(host=host, port=port, name="prometheus")
        self.clock = clock or RealClock()
        self.store = MetricStore(retention=retention)
        self.scraper = Scraper(self.store, interval=scrape_interval, clock=self.clock)
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
        #: Raw target -> decoded query (oldest first), and -> body written under
        #: ``_stamp``; a target longer than RETAIN_LIMIT is kept by neither.
        self._targets: dict[str, str] = {}
        self._bodies: dict[str, bytes] = {}
        self._stamp: tuple[float, int] | None = None
        #: Memo hit/miss tallies, exposed on ``/healthz`` for operators.
        self.query_cache_hits = 0
        self.query_cache_misses = 0

    async def start(self, scrape: bool = True) -> None:
        await super().start()
        if scrape:
            self.scraper.start()

    async def stop(self) -> None:
        await self.scraper.stop()
        await super().stop()

    async def _handle_query(self, request: Request) -> Response:
        now = self.clock.now()
        stamp = (now, self.store.generation)
        if stamp != self._stamp:
            self._stamp = stamp
            self._bodies = {}
        # Keyed on the raw target: a known one decodes nothing.  Two
        # encodings of one query are two entries, one plan root.
        target = request.target
        body = self._bodies.get(target)
        if body is not None:
            self.query_cache_hits += 1
            response = Response(status=200, body=body)
            response.headers.setdefault("Content-Type", "application/json")
            return response
        query = self._targets.get(target)
        if query is None:
            query = request.query.get("query")
            if not query:
                return Response.from_json(
                    {"status": "error", "error": "missing query parameter"}, 400
                )
        self.query_cache_misses += 1
        try:
            # Shared-plan evaluation: distinct subexpressions across every
            # query hitting this server (and any local provider on the same
            # store) evaluate once per tick.  It is handed the text, so the
            # compiled-query cache sees every query.
            vector = planner_for(self.store).evaluate(self.store, query, now)
        except QueryError as exc:
            return Response.from_json({"status": "error", "error": str(exc)}, 400)
        body = render_answer(vector)
        if len(target) <= RETAIN_LIMIT:
            if target not in self._targets and len(self._targets) >= CACHE_ENTRIES:
                del self._targets[next(iter(self._targets))]
            self._targets[target] = query
            if len(self._bodies) < CACHE_ENTRIES:
                self._bodies[target] = body
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
        add = batch.append
        try:
            for sample in samples:
                # Indexing the name first rejects a sample that is no object.
                name = sample["name"]
                labels = sample.get("labels") or {}
                if not isinstance(labels, dict):
                    raise TypeError(f"labels must be an object, got {labels!r}")
                value = sample["value"]
                timestamp = sample.get("timestamp", now)
                # float() takes a JSON true or false as 1.0 or 0.0; neither
                # is a number here (nor to HttpPrometheusProvider).
                if value is True or value is False or timestamp is True or timestamp is False:
                    raise TypeError("a boolean is not a number")
                add((name, float(value), float(timestamp), labels))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            return Response.from_json(
                {"status": "error", "error": f"bad sample {sample!r}: {exc}"}, 400
            )
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
        compiled = compile_cache_info()
        layout = layout_cache_info()
        planner = planner_for(self.store)
        tallies = {
            ("query_memo", "hit"): self.query_cache_hits,
            ("query_memo", "miss"): self.query_cache_misses,
            ("compiled_query", "hit"): compiled.hits,
            ("compiled_query", "miss"): compiled.misses,
            ("histogram_layout", "hit"): layout["hits"],
            ("histogram_layout", "miss"): layout["misses"],
            ("evaluation_plan", "hit"): planner.node_hits,
            ("evaluation_plan", "miss"): planner.node_misses,
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
        compiled = compile_cache_info()
        layout = layout_cache_info()
        planner = planner_for(self.store)
        return Response.from_json(
            {
                "status": "up",
                "series": len(self.store),
                "caches": {
                    "query_memo": {
                        "hits": self.query_cache_hits,
                        "misses": self.query_cache_misses,
                        "size": len(self._targets),
                    },
                    "compiled_query": {
                        "hits": compiled.hits,
                        "misses": compiled.misses,
                        "size": compiled.currsize,
                    },
                    "histogram_layout": layout,
                    "evaluation_plan": planner.cache_info(),
                },
                "plan_shared_nodes": planner.shared_nodes,
                "plan_evaluations_saved": planner.node_hits,
            }
        )
