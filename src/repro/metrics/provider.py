"""Metric providers: what the engine queries for check evaluation.

The paper's DSL names a provider per metric (Listing 1: ``prometheus``)
and the engine "continuously queries and observes monitoring data collected
by metrics providers or external services".  This module defines that
seam:

* :class:`MetricsProvider` — the interface (async ``query`` returning a
  scalar or ``None`` when no data exists yet, and ``ask``, many queries
  in one call, answered as each answer arrives),
* :class:`LocalPrometheusProvider` — evaluates against an in-process store,
* :class:`HttpPrometheusProvider` — queries a metrics server over HTTP
  (:mod:`repro.metrics.server`), exercising the same network path as the
  original engine→Prometheus integration,
* :class:`StaticProvider` — canned values for tests and examples.
"""

from __future__ import annotations

import asyncio
from contextlib import aclosing
from functools import lru_cache
from typing import AsyncIterator, Awaitable, Sequence
from urllib.parse import quote

from ..clock import Clock, RealClock
from ..httpcore import HttpClient, ProtocolError, Response
from . import plan
from .query import QueryError, compile_query
from .store import MetricStore


class ProviderError(Exception):
    """The provider could not answer (unreachable, bad query, ...)."""


#: One answer from :meth:`MetricsProvider.ask`: the query's position and
#: its value, or the exception asking it raised.
Asked = tuple[int, float | None | Exception]


class MetricsProvider:
    """Interface between the engine and a monitoring backend."""

    name = "abstract"

    async def query(self, query: str) -> float | None:
        """Evaluate *query* now; ``None`` means "no data"."""
        raise NotImplementedError

    def ask(self, queries: Sequence[str]) -> AsyncIterator[Asked]:
        """Ask every query in *queries* in one call.

        The iterator yields ``(position, value)`` as each answer arrives,
        with the exception a failed query raised as its value; only
        cancellation propagates.  Closing it (``aclose``) gives up the
        queries still out.

        Here a single query is one :meth:`query` call, awaited inline
        when the iterator is first read.  Several start now, one
        :meth:`query` in a task each, and are answered in completion
        order, so a slow or hung query delays only itself.
        """
        if len(queries) == 1:
            return self._ask_one(queries[0])
        return _EachInATask(self, queries)

    async def _ask_one(self, query: str) -> AsyncIterator[Asked]:
        try:
            value = await self.query(query)
        except Exception as exc:
            value = exc
        yield 0, value

    async def close(self) -> None:
        """Release any resources (HTTP connections)."""


class _EachInATask:
    """The default :meth:`MetricsProvider.ask` of several queries: one
    :meth:`~MetricsProvider.query` task each, answers in completion order."""

    def __init__(self, provider: MetricsProvider, queries: Sequence[str]):
        loop = asyncio.get_running_loop()
        self._arrived: asyncio.Queue[Asked] = asyncio.Queue()
        self._left = len(queries)
        self._tasks = [
            loop.create_task(self._answer(provider.query(query), position))
            for position, query in enumerate(queries)
        ]

    async def _answer(self, asking: Awaitable[float | None], position: int) -> None:
        try:
            value = await asking
        except Exception as exc:
            value = exc
        self._arrived.put_nowait((position, value))

    def __aiter__(self) -> "_EachInATask":
        return self

    async def __anext__(self) -> Asked:
        if not self._left:
            raise StopAsyncIteration
        self._left -= 1
        return await self._arrived.get()

    async def aclose(self) -> None:
        for task in self._tasks:
            task.cancel()


class LocalPrometheusProvider(MetricsProvider):
    """Evaluates mini-PromQL against an in-process store.

    Every query goes through the store's shared evaluation plan
    (:mod:`repro.metrics.plan`), whose nodes are memoized per
    ``(now, store.generation)``: when parallel strategies issue the same
    query at the same clock tick against an unchanged store, the
    expression evaluates once.  Under a real clock ``now()`` differs
    between calls, so the memo only shares work inside one virtual tick.
    """

    name = "prometheus"

    def __init__(self, store: MetricStore, clock: Clock | None = None):
        self.store = store
        self.clock = clock or RealClock()

    def subscribe(self, query: str) -> None:
        """Pre-register *query* with the shared evaluation plan.

        Called by the check scheduler when a check is armed
        (:meth:`~repro.core.checks.MetricCondition.subscribe`): the query's
        subexpressions are interned into the store's plan DAG, so the first
        tick already shares them with every other subscribed check.  A
        malformed query is ignored here — evaluation surfaces the error
        through the normal no-data path.
        """
        try:
            expression = compile_query(query)
        except QueryError:
            return
        plan.subscribe(self.store, expression)

    async def query(self, query: str) -> float | None:
        return plan.planner_for(self.store).evaluate_scalar(
            self.store, query, self.clock.now()
        )


@lru_cache(maxsize=4096)
def _query_target(query: str) -> str:
    """The ``/api/v1/query`` request target for *query*, percent-encoded
    once per distinct query string (the same bound as ``compile_query``):
    a check asks the same text on every tick."""
    return "/api/v1/query?query=" + quote(query)


class HttpPrometheusProvider(MetricsProvider):
    """Queries a metrics server's ``/api/v1/query`` endpoint.

    :meth:`ask` sends its queries as one :meth:`HttpClient.get_many`
    train, driven from the asking task: one write on one connection, and
    each answer yielded as its response is parsed.  :meth:`query` is a
    train of one.

    Identical :meth:`query` calls issued concurrently are
    *single-flighted*: the first caller performs the HTTP request and
    every overlapping caller awaits the same in-flight result.  A
    follower whose leader was cancelled, but which was not cancelled
    itself, asks again.  No engine reaches this: the check scheduler
    calls :meth:`ask`, with each in-flight question once, so
    ``coalesced`` reads 0 under an engine.  It serves only callers of
    :meth:`query` outside an engine, and stays while ``bench/`` patches
    :meth:`query` and reads ``coalesced``.
    """

    name = "prometheus"

    def __init__(self, base_url: str, client: HttpClient | None = None):
        self.base_url = base_url.rstrip("/")
        self._client = client or HttpClient(timeout=10.0)
        self._owns_client = client is None
        self._inflight: dict[str, asyncio.Future[float | None]] = {}
        #: How many calls were answered by piggybacking on an in-flight
        #: request (observability for tests and benchmarks).
        self.coalesced = 0

    async def ask(self, queries: Sequence[str]) -> AsyncIterator[Asked]:
        base = self.base_url
        responses = self._client.get_many([base + _query_target(query) for query in queries])
        async with aclosing(responses):
            async for position, response in responses:
                yield position, _answer(response)

    async def query(self, query: str) -> float | None:
        while (existing := self._inflight.get(query)) is not None:
            # Shield: one cancelled follower must not cancel the shared
            # fetch out from under the leader and the other followers.
            try:
                value = await asyncio.shield(existing)
            except asyncio.CancelledError:
                if asyncio.current_task().cancelling():
                    raise
                # The leader was cancelled, not this caller: ask again.
                continue
            self.coalesced += 1
            return value
        future: asyncio.Future[float | None] = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[query] = future
        try:
            async for _, value in self.ask([query]):
                pass  # a train of one: read to its end, which pools the connection
            if isinstance(value, Exception):
                raise value
        except asyncio.CancelledError:
            if not future.done():
                future.cancel()
            raise
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
                # Followers hold their own reference; mark the exception
                # retrieved so a follower-less failure does not warn.
                future.exception()
            raise
        else:
            future.set_result(value)
            return value
        finally:
            self._inflight.pop(query, None)

    async def close(self) -> None:
        if self._owns_client:
            await self._client.close()


def _answer(response: Response | Exception) -> float | None | ProviderError:
    """What one ``/api/v1/query`` response, or the failure that took its
    place, says: a number, ``None``, or the :class:`ProviderError` it is."""
    if isinstance(response, Exception):
        return ProviderError(f"metrics server unreachable: {response}")
    if response.status != 200:
        return ProviderError(
            f"metrics server returned {response.status}: {response.body[:200]!r}"
        )
    try:
        payload = response.json()
        if payload["status"] != "success":
            return ProviderError(f"query failed: {payload.get('error')}")
        value = payload["data"]["value"]
    except (ProtocolError, TypeError, KeyError):
        return ProviderError(f"not a query answer: {response.body[:200]!r}")
    if value in ("+Inf", "-Inf", "NaN"):  # how JSON carries them (Prometheus)
        return float(value)
    # Only a number or null is an answer; a bool is not a number here.
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
        return ProviderError(f"data.value is not a number: {value!r:.200}")
    return value


class HealthProvider(MetricsProvider):
    """Availability checks: probes a service's ``/healthz`` endpoint.

    The paper's scalability experiment runs checks that "target the
    availability of the product service" alongside Prometheus queries.
    The query string is the probed ``host:port`` (optionally with a path);
    the result is 1.0 when the service answers 200, else 0.0.
    """

    name = "health"

    def __init__(self, client: HttpClient | None = None):
        self._client = client or HttpClient(timeout=5.0)
        self._owns_client = client is None

    async def query(self, query: str) -> float | None:
        target = query if "/" in query.split(":", 1)[-1] else f"{query}/healthz"
        try:
            response = await self._client.get(f"http://{target}")
        except Exception:
            return 0.0
        return 1.0 if response.status == 200 else 0.0

    async def close(self) -> None:
        if self._owns_client:
            await self._client.close()


class StaticProvider(MetricsProvider):
    """Returns canned values, for unit tests and documentation examples.

    Values may be scalars (returned every time) or lists (consumed one per
    query, repeating the last element when exhausted).  Every check that
    asks a query while the check scheduler's fetch of it is in flight
    shares that fetch, so a list is consumed once per fetch, not once per
    check asking.
    """

    name = "static"

    def __init__(self, values: dict[str, float | list[float] | None]):
        self._values = dict(values)
        self._cursors: dict[str, int] = {}
        #: Every query string seen, in order — lets tests assert scheduling.
        self.query_log: list[str] = []

    async def query(self, query: str) -> float | None:
        self.query_log.append(query)
        if query not in self._values:
            raise ProviderError(f"no canned value for query {query!r}")
        value = self._values[query]
        if isinstance(value, list):
            if not value:
                return None
            index = self._cursors.get(query, 0)
            self._cursors[query] = index + 1
            return value[min(index, len(value) - 1)]
        return value
