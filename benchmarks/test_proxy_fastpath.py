"""Micro-benchmark of the proxy data plane (seed path vs fast path).

Reconstructs the seed code path — per-request interpreted routing
(known-version set and cumulative thresholds rebuilt each decision),
``headers.copy()`` + five ``remove()`` rebuilds per forward, a second
header copy inside the client, string-list serialization, a fresh cookie
parse per access, and ``response.copy()`` on relay — and races it against
the shipped fast path (compiled :class:`RoutingPlan`, header-delta
overlay, ownership-transfer ``client.send``, bytearray serialization,
per-request parse caches, in-place relay).

The upstream round-trip is stubbed to constant in-process work on both
sides (serialize + canned response), so the measured difference is pure
proxy data-plane overhead — the component the paper's Table 1 / Figure 6
overhead experiment attributes to Bifrost itself.

Modes mirror the paper's deployment modes: ``inactive`` (no config,
default passthrough), ``active`` (cookie-based canary split), ``shadow``
(100% dark-launch duplication).

Artifacts: ``benchmarks/output/proxy_fastpath.json`` plus the tracked
repo-root ``BENCH_proxy_fastpath.json``.

Environment knobs: ``BIFROST_BENCH_PROXY_REQUESTS`` overrides the
requests per timed run (CI smoke uses a reduced count).
"""

import asyncio
import json
import os
import time
from pathlib import Path

from repro.core import RoutingConfig, ShadowRoute, TrafficSplit, canary_split
from repro.httpcore import Headers, Request, Response
from repro.httpcore.client import _split_url
from repro.httpcore.cookies import parse_cookie_header
from repro.metrics import Registry
from repro.proxy import CLIENT_COOKIE, BifrostProxy, FilterChain

#: The static hop-by-hop tuple the seed proxy removed field by field.
_HOP_BY_HOP = ("connection", "keep-alive", "te", "transfer-encoding", "upgrade")

REPO_ROOT = Path(__file__).resolve().parent.parent

REQUESTS = int(os.environ.get("BIFROST_BENCH_PROXY_REQUESTS", "4000"))
CLIENT_POOL = [f"11111111-2222-3333-4444-{i:012d}" for i in range(100)]
REQUEST_BODY = b'{"query": "live-testing"}'
RESPONSE_BODY = b'{"version": "stable", "items": [1, 2, 3]}'


def _incoming(index: int) -> Request:
    """A realistic inbound request: several headers plus the client cookie."""
    client = CLIENT_POOL[index % len(CLIENT_POOL)]
    return Request(
        "GET",
        "/items?page=2",
        Headers.from_raw(
            [
                ("Host", "shop.example"),
                ("User-Agent", "bench/1.0"),
                ("Accept", "application/json"),
                ("Accept-Encoding", "gzip"),
                ("Cookie", f"session=abc123; {CLIENT_COOKIE}={client}"),
                ("X-Request-Id", f"req-{index}"),
            ]
        ),
        body=REQUEST_BODY,
    )


RESPONSE_FIELDS = (
    ("Content-Type", "application/json"),
    ("Server", "echo/1.0"),
    ("X-Upstream-Instance", "inst-0"),
)


def _upstream_reply_seed() -> Response:
    """Fresh response headers built the way the seed wire parse did:
    one ``Headers.add`` (two str coercions + append) per field."""
    headers = Headers()
    for name, value in RESPONSE_FIELDS:
        headers.add(name, value)
    return Response(status=200, headers=headers, body=RESPONSE_BODY)


def _upstream_reply_fast() -> Response:
    """Fresh response headers built the way the shipped wire parse does:
    fields appended straight onto the raw list."""
    return Response(
        status=200, headers=Headers.from_raw(list(RESPONSE_FIELDS)), body=RESPONSE_BODY
    )


# -- seed path reconstruction -------------------------------------------------


def _seed_serialize(request: Request) -> bytes:
    """Seed ``Request.serialize``: header copy + string-list build."""
    headers = request.headers.copy()
    headers.set("Content-Length", str(len(request.body)))
    lines = [f"{request.method} {request.target} {request.http_version}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + request.body


class SeedStubClient:
    """Replays seed ``HttpClient.request()`` build work, round-trip stubbed."""

    async def request(self, method, url, headers=None, body=b""):
        host, port, target = _split_url(url)
        request_headers = (
            headers.copy() if isinstance(headers, Headers) else Headers(headers)
        )
        request_headers.setdefault("Host", f"{host}:{port}")
        request = Request(
            method=method.upper(), target=target, headers=request_headers, body=body
        )
        _seed_serialize(request)
        return _upstream_reply_seed()


class SeedShadower:
    """Seed shadower: one fire-and-forget task and a request copy per shadow."""

    def __init__(self, client):
        self._client = client
        self._tasks = set()
        self.sent = 0

    def shadow(self, request, endpoint):
        copy = request.copy()
        copy.headers.set("Host", endpoint)
        copy.headers.set("X-Bifrost-Shadow", "true")
        task = asyncio.get_running_loop().create_task(self._send(copy, endpoint))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _send(self, request, endpoint):
        await self._client.request(
            request.method,
            f"http://{endpoint}{request.target}",
            headers=request.headers,
            body=request.body,
        )
        self.sent += 1

    async def drain(self):
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


class SeedProxy:
    """The seed data plane, verbatim: interpreted decisions, copy-heavy relay."""

    def __init__(self, default_upstream: str):
        self.name = "proxy-bench"
        self.default_upstream = default_upstream
        self._client = SeedStubClient()
        self.shadower = SeedShadower(self._client)
        self._chain = None
        self._endpoints = {}
        self._cursors = {}
        self.forwarded = {}
        self.upstream_errors = 0
        self.registry = Registry()
        self._m_forwarded = self.registry.counter(
            "proxy_requests_total", label_names=("version",)
        )
        self._m_forward_seconds = self.registry.histogram("proxy_forward_seconds")
        self._m_shadow_sent = self.registry.counter("proxy_shadow_requests_total")

    def apply_config(self, config, endpoints):
        self._chain = FilterChain(config)
        self._endpoints = {
            version: [value] if isinstance(value, str) else list(value)
            for version, value in endpoints.items()
        }
        self._cursors = {version: 0 for version in self._endpoints}

    def _pick_endpoint(self, version):
        instances = self._endpoints[version]
        cursor = self._cursors.get(version, 0)
        self._cursors[version] = cursor + 1
        return instances[cursor % len(instances)]

    async def handle(self, request: Request) -> Response:
        if self._chain is None:
            return await self._forward(request, self.default_upstream, "default")
        # Seed decisions re-interpreted the config per request.
        decision = self._chain.decide_interpreted(request)
        for shadow in decision.shadows or []:
            target_endpoint = self._pick_endpoint(shadow.target_version)
            shadow_request = request.copy()
            if decision.client_id:
                self._ensure_client_cookie(shadow_request, decision.client_id)
            self.shadower.shadow(shadow_request, target_endpoint)
            self._m_shadow_sent.inc()
        endpoint = self._pick_endpoint(decision.version)
        if decision.client_id:
            self._ensure_client_cookie(request, decision.client_id)
        return await self._forward(request, endpoint, decision.version)

    @staticmethod
    def _ensure_client_cookie(request, client_id):
        # Seed Request.cookies had no cache: fresh parse per access.
        cookies = parse_cookie_header(request.headers.get("Cookie"))
        if CLIENT_COOKIE not in cookies:
            existing = request.headers.get("Cookie")
            pair = f"{CLIENT_COOKIE}={client_id}"
            request.headers.set(
                "Cookie", f"{existing}; {pair}" if existing else pair
            )

    async def _forward(self, request, endpoint, version):
        headers = request.headers.copy()
        for name in _HOP_BY_HOP:
            headers.remove(name)
        headers.set("Host", endpoint)
        headers.set("X-Forwarded-By", self.name)
        started = time.monotonic()
        response = await self._client.request(
            request.method,
            f"http://{endpoint}{request.target}",
            headers=headers,
            body=request.body,
        )
        self._m_forward_seconds.observe(time.monotonic() - started)
        self.forwarded[version] = self.forwarded.get(version, 0) + 1
        self._m_forwarded.labels(version=version).inc()
        relayed = response.copy()
        relayed.headers.set("X-Bifrost-Version", version)
        return relayed


# -- fast path stub -----------------------------------------------------------


class FastStubClient:
    """Stub for the shipped ``send()`` hot path, round-trip stubbed."""

    async def send(self, request, host, port, timeout=None, stream=False):
        request.serialize()
        return _upstream_reply_fast()

    async def close(self):
        pass


def _fast_proxy() -> BifrostProxy:
    return BifrostProxy(
        "bench",
        default_upstream="upstream-default:8000",
        client=FastStubClient(),
        shadow_max_pending=REQUESTS + 16,
    )


# -- the benchmark ------------------------------------------------------------


MODES = {
    "inactive": None,
    "active": canary_split("stable", "canary", 20.0),
    "shadow": RoutingConfig(
        splits=[TrafficSplit("stable", 100.0), TrafficSplit("canary", 0.0)],
        shadows=[ShadowRoute("stable", "canary", 100.0)],
    ),
}
ENDPOINTS = {"stable": "upstream-a:8001", "canary": "upstream-b:8002"}


async def _drive_seed(config) -> float:
    proxy = SeedProxy("upstream-default:8000")
    if config is not None:
        proxy.apply_config(config, ENDPOINTS)
    start = time.perf_counter()
    for i in range(REQUESTS):
        await proxy.handle(_incoming(i))
    await proxy.shadower.drain()
    return time.perf_counter() - start


async def _drive_fast(config) -> float:
    proxy = _fast_proxy()
    if config is not None:
        proxy.apply_config(config, ENDPOINTS)
    start = time.perf_counter()
    for i in range(REQUESTS):
        await proxy._handle_proxy(_incoming(i))
    await proxy.shadower.drain()
    return time.perf_counter() - start


def test_proxy_fastpath_speedup(artifact_writer, history_appender):
    # Equivalence spot-check before timing: both planes route the request
    # to the same version and relay the upstream payload unchanged.
    async def spot_check():
        seed = SeedProxy("upstream-default:8000")
        seed.apply_config(MODES["active"], ENDPOINTS)
        fast = _fast_proxy()
        fast.apply_config(MODES["active"], ENDPOINTS)
        for i in range(50):
            seed_response = await seed.handle(_incoming(i))
            fast_response = await fast._handle_proxy(_incoming(i))
            assert seed_response.headers.get("X-Bifrost-Version") == (
                fast_response.headers.get("X-Bifrost-Version")
            )
            assert seed_response.body == fast_response.body
        assert seed.forwarded == fast.forwarded

    asyncio.run(spot_check())

    results = {}
    for mode, config in MODES.items():
        asyncio.run(_drive_fast(config))  # warm-up allocates rings/plan once
        fast_s = asyncio.run(_drive_fast(config))
        asyncio.run(_drive_seed(config))
        seed_s = asyncio.run(_drive_seed(config))
        results[mode] = {
            "requests": REQUESTS,
            "seed_rps": round(REQUESTS / seed_s),
            "fastpath_rps": round(REQUESTS / fast_s),
            "speedup": round(seed_s / fast_s, 2),
        }

    rendered = json.dumps(
        {
            "benchmark": "proxy_fastpath",
            "workload": {
                "requests_per_run": REQUESTS,
                "distinct_clients": len(CLIENT_POOL),
                "modes": list(MODES),
            },
            "modes": results,
            "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        indent=2,
    )
    artifact_writer("proxy_fastpath.json", rendered)
    (REPO_ROOT / "BENCH_proxy_fastpath.json").write_text(
        rendered + "\n", encoding="utf-8"
    )
    history_appender(
        "proxy_fastpath",
        {mode: entry["speedup"] for mode, entry in results.items()},
    )

    active = results["active"]["speedup"]
    assert active >= 2.0, f"active-mode fast path only {active:.2f}x (need >= 2x)"
    for mode in ("inactive", "shadow"):
        assert results[mode]["speedup"] >= 1.0, (mode, results[mode])
