"""Shared-nothing proxy worker pools.

One ``BifrostProxy`` is a single-threaded asyncio server.  To scale the
data plane past one core (or past one event loop's scheduling capacity),
a pool runs N *workers* — each a full ``BifrostProxy`` with its own
sticky store, endpoint-ring cursors, metric registry, and upstream
connection pool.  Workers share **nothing mutable**; the only replicated
state is the compiled, immutable :class:`~repro.proxy.plan.RoutingPlan`.

Two deployments of the same idea:

* :class:`ProxyWorkerPool` — N workers inside one event loop, fronted by
  a dispatching listener.  Client affinity is cookie-pinned: every
  request carrying client ``c`` lands on worker
  ``worker_index(c, N, seed)``, so a client's sticky assignment lives in
  exactly one worker's store and never needs cross-worker coordination.
* :class:`ReuseportProxyPool` — N workers, each with its **own thread and
  event loop**, all bound to one port with ``SO_REUSEPORT`` so the kernel
  balances accepted connections between them.  True multi-loop scale-out
  on platforms that support it.

Both enact configuration through the **versioned plan-swap protocol**:
the pool compiles and validates once, allocates the next monotonic
version, and installs the (plan, endpoints, version) triple on every
worker.  Installs are synchronous with respect to each worker's loop
(no awaits inside the swap), so a worker atomically serves either the
old config or the new one; stale versions are rejected by
``BifrostProxy.install_plan``, making fan-out safe to replay.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import hashlib
import logging
import random
import threading
import uuid

from ..core.routing import FilterKind, RoutingConfig, RoutingError
from ..httpcore import HttpClient, HttpServer, Request, Response, SetCookie
from ..metrics import MetricPoint, render_exposition_lines
from .filters import CLIENT_COOKIE
from .plan import RoutingPlan, normalize_endpoints
from .server import BifrostProxy, read_config

logger = logging.getLogger(__name__)


def worker_index(client_id: str, count: int, seed: str = "bifrost") -> int:
    """Deterministic worker affinity for *client_id* in a pool of *count*.

    Uses BLAKE2b (not ``hash()``) so the mapping is stable across
    processes and runs — any worker, restart, or test can derive the same
    assignment.  Independent of the traffic-split hash
    (:func:`~repro.core.selection.stable_fraction`), so pinning a client
    to a worker does not bias which *version* serves it.
    """
    if count < 1:
        raise ValueError("worker count must be at least 1")
    if count == 1:
        return 0
    digest = hashlib.blake2b(
        f"{seed}:{client_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % count


def merge_metric_points(collections: list[list[MetricPoint]]) -> list[MetricPoint]:
    """Sum per-worker metric points into one exposition view.

    Points with the same ``(name, labels)`` are summed — correct for
    counters, histogram bucket counts/sums, and the additive gauges the
    proxy exposes (sticky sessions, drops, evictions).  Order follows
    first appearance, so the merged exposition stays grouped by metric.
    """
    merged: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    order: list[tuple[str, tuple[tuple[str, str], ...], dict[str, str]]] = []
    for points in collections:
        for point in points:
            key = (point.name, tuple(sorted(point.labels.items())))
            if key in merged:
                merged[key] += point.value
            else:
                merged[key] = point.value
                order.append((point.name, key[1], point.labels))
    return [
        MetricPoint(name, labels, merged[(name, key)])
        for name, key, labels in order
    ]


class ProxyWorkerPool(HttpServer):
    """N shared-nothing proxy workers behind one dispatching listener.

    The pool is the only listening socket; each incoming request is
    dispatched to one member :class:`BifrostProxy` (never started as a
    server — its handler coroutines are invoked directly).  Dispatch is
    cookie-pinned when a cookie-mode configuration is active and
    round-robin otherwise, so per-client state (sticky assignments) is
    partitioned across workers with zero shared mutable structures.

    For clients arriving **without** a cookie under cookie routing, the
    pool — not the worker — mints the client id, so it can pin the
    request to ``worker_index(client_id)`` immediately; later requests
    with that cookie hash back to the same worker and hit its sticky
    memo.  Responses carry ``X-Bifrost-Worker`` naming the serving
    worker, which is what the affinity property suite asserts on.
    """

    def __init__(
        self,
        service: str,
        default_upstream: str,
        workers: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        client: HttpClient | None = None,
        seed: str = "bifrost",
        rng: random.Random | None = None,
        sticky_capacity: int = 100_000,
        sticky_ttl: float | None = None,
        shadow_max_pending: int = 1024,
        stream_bodies: bool = True,
        max_body_bytes: int | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        super().__init__(
            host=host,
            port=port,
            name=f"proxy-pool-{service}",
            stream_bodies=stream_bodies,
            max_body_bytes=max_body_bytes,
        )
        self.service = service
        self.default_upstream = default_upstream
        self.seed = seed
        self.config_version = 0
        #: Circuit breakers surfaced on ``/bifrost/healthz`` — anything
        #: with a ``snapshot()`` (see ``CircuitBreaker.snapshot``).
        self.breakers: dict[str, object] = {}
        members = []
        for index in range(workers):
            member = BifrostProxy(
                service,
                default_upstream,
                client=client,
                seed=seed,
                rng=rng,
                sticky_capacity=sticky_capacity,
                sticky_ttl=sticky_ttl,
                shadow_max_pending=shadow_max_pending,
                stream_bodies=stream_bodies,
                max_body_bytes=max_body_bytes,
            )
            member.name = f"proxy-{service}-w{index}"
            members.append(member)
        self.workers: tuple[BifrostProxy, ...] = tuple(members)
        self._round_robin = 0

        self.router.put("/bifrost/config")(self._handle_put_config)
        self.router.get("/bifrost/config")(self._handle_get_config)
        self.router.delete("/bifrost/config")(self._handle_delete_config)
        self.router.get("/bifrost/stats")(self._handle_stats)
        self.router.get("/bifrost/healthz")(self._handle_health)
        self.router.get("/metrics")(self._handle_metrics)
        self.router.set_fallback(self._handle_proxy)

    # -- configuration ------------------------------------------------------

    def apply_config(
        self, config: RoutingConfig, endpoints: dict[str, str | list[str]]
    ) -> int:
        """Compile once, fan out to every worker at the next version.

        The loop over workers contains no awaits: under asyncio's single
        thread the whole fan-out is one atomic step — no request can
        observe worker 0 on the new config while worker 3 still runs the
        old one.  Returns the installed version.
        """
        normalized = normalize_endpoints(config, endpoints)
        plan = RoutingPlan(config, seed=self.seed)  # validates the config
        version = self.config_version + 1
        for member in self.workers:
            member.install_plan(plan, normalized, version)
        self.config_version = version
        return version

    def clear_config(self) -> int:
        """Clear every worker back to passthrough at the next version."""
        version = self.config_version + 1
        for member in self.workers:
            member.clear_config(version)
        self.config_version = version
        return version

    @property
    def active_config(self) -> RoutingConfig | None:
        return self.workers[0].active_config

    # -- dispatch -----------------------------------------------------------

    def _pinned_dispatch(self) -> bool:
        """Whether requests should be pinned by client cookie right now."""
        config = self.workers[0].active_config
        return config is not None and config.filter_kind is FilterKind.COOKIE

    def _with_cookie(self, request: Request, client_id: str) -> Request:
        """A copy of *request* carrying the freshly minted client cookie."""
        headers = request.headers.copy()
        headers.add("Cookie", f"{CLIENT_COOKIE}={client_id}")
        return Request(
            method=request.method,
            target=request.target,
            headers=headers,
            body=request.body,
            stream=request.stream,
        )

    async def _handle_proxy(self, request: Request) -> Response:
        issued: str | None = None
        if self._pinned_dispatch():
            client_id = request.cookies.get(CLIENT_COOKIE)
            if not client_id:
                # Mint the id here so the very first request is already
                # pinned to the worker all its successors will hash to.
                client_id = str(uuid.uuid4())
                issued = client_id
                request = self._with_cookie(request, client_id)
            index = worker_index(client_id, len(self.workers), self.seed)
        else:
            index = self._round_robin
            self._round_robin = (index + 1) % len(self.workers)
        response = await self.workers[index]._handle_proxy(request)
        if issued is not None:
            # The worker saw the cookie as client-sent, so the pool owns
            # issuing it back.
            response.headers.add(
                "Set-Cookie", SetCookie(CLIENT_COOKIE, issued).format()
            )
        response.headers.set("X-Bifrost-Worker", str(index))
        return response

    # -- admin --------------------------------------------------------------

    async def _handle_put_config(self, request: Request) -> Response:
        try:
            installed = self.apply_config(*await read_config(request))
        except RoutingError as exc:
            return Response.from_json({"status": "error", "error": str(exc)}, 400)
        return Response.from_json(
            {
                "status": "ok",
                "service": self.service,
                "config_version": installed,
                "workers": len(self.workers),
            }
        )

    async def _handle_get_config(self, request: Request) -> Response:
        config = self.active_config
        if config is None:
            return Response.from_json(
                {
                    "service": self.service,
                    "active": False,
                    "config_version": self.config_version,
                    "workers": len(self.workers),
                    "default_upstream": self.default_upstream,
                }
            )
        return Response.from_json(
            {
                "service": self.service,
                "active": True,
                "config_version": self.config_version,
                "workers": len(self.workers),
                "routing": config.to_wire(),
                "endpoints": self.workers[0]._endpoints,
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
        """Worker snapshots merged into one pool-wide view."""
        per_worker = [member.stats_snapshot() for member in self.workers]
        forwarded: dict[str, int] = {}
        for snapshot in per_worker:
            for version, count in snapshot["forwarded"].items():
                forwarded[version] = forwarded.get(version, 0) + count
        summed = {
            field: sum(snapshot[field] for snapshot in per_worker)
            for field in (
                "shadow_sent",
                "shadow_failed",
                "shadow_dropped",
                "shadow_in_flight",
                "upstream_errors",
                "sticky_sessions",
                "sticky_evictions",
                "sticky_expirations",
            )
        }
        return {
            "service": self.service,
            "config_version": self.config_version,
            "workers": len(per_worker),
            "forwarded": forwarded,
            **summed,
            "per_worker": per_worker,
        }

    async def _handle_stats(self, request: Request) -> Response:
        return Response.from_json(self.stats_snapshot())

    def register_breaker(self, name: str, breaker) -> None:
        """Expose *breaker*'s state + transition counters on ``/healthz``."""
        self.breakers[name] = breaker

    async def _handle_health(self, request: Request) -> Response:
        return Response.from_json(
            {
                "status": "up",
                "service": self.service,
                "workers": len(self.workers),
                "config_version": self.config_version,
                "worker_versions": [
                    member.config_version for member in self.workers
                ],
                "breakers": {
                    name: breaker.snapshot()
                    for name, breaker in self.breakers.items()
                },
            }
        )

    async def _handle_metrics(self, request: Request) -> Response:
        for member in self.workers:
            member._refresh_gauges()
        points = merge_metric_points(
            [member.registry.collect() for member in self.workers]
        )
        body = bytearray()
        for line in render_exposition_lines(points):
            body += line.encode("utf-8")
        response = Response(status=200, body=bytes(body))
        response.headers.set("Content-Type", "text/plain; charset=utf-8")
        return response

    async def stop(self) -> None:
        for member in self.workers:
            # Members were never started as servers; this closes their
            # shadowers and owned upstream clients.
            await member.stop()
        await super().stop()


class _PoolMemberProxy(BifrostProxy):
    """A ``ReuseportProxyPool`` member: any member can take admin calls.

    The kernel balances connections across members, so an admin ``PUT``
    may land on any worker.  The member must not apply the change only to
    itself — it offloads the pool-wide fan-out to an executor thread,
    keeping its **own** event loop free to run the ``call_soon_threadsafe``
    install callback the fan-out will send it (running the fan-out inline
    would deadlock on its own acknowledgement).
    """

    def __init__(self, pool: "ReuseportProxyPool", index: int, **kwargs):
        super().__init__(**kwargs)
        self._pool = pool
        self.name = f"{self.name}-w{index}"
        self.worker_id = index

    async def _handle_put_config(self, request: Request) -> Response:
        try:
            config, endpoints = await read_config(request)
        except RoutingError as exc:
            return Response.from_json({"status": "error", "error": str(exc)}, 400)
        loop = asyncio.get_running_loop()
        try:
            installed = await loop.run_in_executor(
                None, self._pool.apply_config, config, endpoints
            )
        except RoutingError as exc:
            return Response.from_json({"status": "error", "error": str(exc)}, 400)
        return Response.from_json(
            {
                "status": "ok",
                "service": self.service,
                "config_version": installed,
                "workers": len(self._pool.workers),
            }
        )

    async def _handle_delete_config(self, request: Request) -> Response:
        loop = asyncio.get_running_loop()
        cleared = await loop.run_in_executor(None, self._pool.clear_config)
        return Response.from_json(
            {"status": "ok", "active": False, "config_version": cleared}
        )


class ReuseportProxyPool:
    """N proxy workers on one ``SO_REUSEPORT`` port, one event loop each.

    The closest shape to "run one worker per core": every worker owns a
    thread, an event loop, a listening socket bound to the shared port
    with ``SO_REUSEPORT``, and a full shared-nothing ``BifrostProxy``.
    The kernel's reuseport balancing replaces the dispatching listener of
    :class:`ProxyWorkerPool`.

    Lifecycle (``start``/``stop``) and configuration (``apply_config`` /
    ``clear_config``) are synchronous, thread-safe methods.  Config
    fan-out posts the install to each worker loop with
    ``call_soon_threadsafe`` and blocks on per-worker acknowledgement
    futures, so when ``apply_config`` returns, **every** worker serves
    the new version.
    """

    def __init__(
        self,
        service: str,
        default_upstream: str,
        workers: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: str = "bifrost",
        sticky_capacity: int = 100_000,
        sticky_ttl: float | None = None,
        shadow_max_pending: int = 1024,
        stream_bodies: bool = True,
        max_body_bytes: int | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.service = service
        self.default_upstream = default_upstream
        self.worker_count = workers
        self.host = host
        self.port = port
        self.seed = seed
        self.config_version = 0
        self._member_kwargs = dict(
            sticky_capacity=sticky_capacity,
            sticky_ttl=sticky_ttl,
            shadow_max_pending=shadow_max_pending,
            stream_bodies=stream_bodies,
            max_body_bytes=max_body_bytes,
        )
        self.workers: list[_PoolMemberProxy] = []
        self._loops: list[asyncio.AbstractEventLoop] = []
        self._threads: list[threading.Thread] = []
        self._version_lock = threading.Lock()
        self._running = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._running

    # -- lifecycle ----------------------------------------------------------

    def _thread_main(
        self, index: int, port: int, started: "concurrent.futures.Future[int]"
    ) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        member = _PoolMemberProxy(
            self,
            index,
            service=self.service,
            default_upstream=self.default_upstream,
            host=self.host,
            port=port,
            seed=self.seed,
            reuse_port=True,
            **self._member_kwargs,
        )
        try:
            loop.run_until_complete(member.start())
        except BaseException as exc:  # bind failures must reach start()
            started.set_exception(exc)
            loop.close()
            return
        self.workers.append(member)
        self._loops.append(loop)
        started.set_result(member.port)
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(member.stop())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def start(self) -> None:
        """Boot every worker thread; returns once all listen on the port.

        The first worker may bind port 0; the OS-assigned port is then
        shared (via ``SO_REUSEPORT``) by the remaining workers.
        """
        if self._running:
            raise RuntimeError("pool already started")
        self._running = True
        port = self.port
        for index in range(self.worker_count):
            started: concurrent.futures.Future[int] = concurrent.futures.Future()
            thread = threading.Thread(
                target=self._thread_main,
                args=(index, port, started),
                name=f"proxy-{self.service}-w{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            port = started.result(timeout=10)
        self.port = port

    def stop(self) -> None:
        """Stop every worker loop and join the threads."""
        if not self._running:
            return
        self._running = False
        for loop in self._loops:
            loop.call_soon_threadsafe(loop.stop)
        for thread in self._threads:
            thread.join(timeout=10)
        self.workers = []
        self._loops = []
        self._threads = []

    # -- configuration ------------------------------------------------------

    def _fan_out(self, callback, version: int) -> None:
        """Run *callback(member, version, ack)* on every worker's loop."""
        acks: list[concurrent.futures.Future[bool]] = []
        for member, loop in zip(self.workers, self._loops):
            ack: concurrent.futures.Future[bool] = concurrent.futures.Future()
            loop.call_soon_threadsafe(callback, member, version, ack)
            acks.append(ack)
        for ack in acks:
            ack.result(timeout=10)

    def apply_config(
        self, config: RoutingConfig, endpoints: dict[str, str | list[str]]
    ) -> int:
        """Compile once; install on every worker loop; wait for acks."""
        normalized = normalize_endpoints(config, endpoints)
        plan = RoutingPlan(config, seed=self.seed)  # validates the config
        with self._version_lock:
            version = self.config_version + 1

            def install(member, target_version, ack):
                try:
                    ack.set_result(
                        member.install_plan(plan, normalized, target_version)
                    )
                except BaseException as exc:
                    ack.set_exception(exc)

            self._fan_out(install, version)
            self.config_version = version
        return version

    def clear_config(self) -> int:
        with self._version_lock:
            version = self.config_version + 1

            def clear(member, target_version, ack):
                try:
                    ack.set_result(member.clear_config(target_version))
                except BaseException as exc:
                    ack.set_exception(exc)

            self._fan_out(clear, version)
            self.config_version = version
        return version
