"""proxy_active_small: small requests through gateway -> Bifrost proxy -> stub.

Table 1 "active": the proxy holds an installed sticky 50/50 A/B split and
duplicates every request to a dark version.  Bodies are 200-800 B, so the
per-message cost (parse, route, sticky lookup, shadow enqueue, serialize,
three hops) dominates and per-byte cost is negligible.
"""

from __future__ import annotations

import json
import uuid
import zlib
from dataclasses import dataclass

from repro.cluster import Gateway
from repro.core.routing import RoutingConfig, ShadowRoute, TrafficSplit
from repro.httpcore import HttpServer, Request, Response
from repro.proxy import CLIENT_COOKIE, BifrostProxy, RoutingPlan

from ..client import Connection
from ..stats import fingerprint
from .base import Outcome, Workload, closed_loop
from .fixtures import proxy_counters

#: Cookie clients in the returning population; > STICKY_CAPACITY so sticky
#: lookup, eviction and re-bucketing all run.
POPULATION = 20_000
STICKY_CAPACITY = 8192
OPS_PER_WINDOW = 600
#: Exact per-window shares, so windows differ in order and identity only.
NEW_CLIENT_SHARE = 0.10
POST_SHARE = 0.20
#: Body sizes (bytes): GET response bodies and POST request bodies.
SIZES = tuple(range(200, 801, 50))
#: The A/B split must come out 50 +- 3 % over the run's returning clients.
SPLIT_TOLERANCE = 0.03


def _document(size: int, salt: int) -> bytes:
    """A JSON object of exactly *size* bytes."""
    frame = json.dumps({"id": salt, "kind": "item", "pad": ""}).encode()
    return frame[:-2] + b"x" * (size - len(frame)) + b'"}'


class StubUpstream(HttpServer):
    """A service version that answers immediately from a fixed table."""

    def __init__(self, name: str, documents: dict[int, bytes]):
        super().__init__(name=name)
        self.documents = documents
        self.shadow_received = 0
        self.router.set_fallback(self._handle)

    async def _handle(self, request: Request) -> Response:
        if request.headers.get("X-Bifrost-Shadow") is not None:
            self.shadow_received += 1
        if request.method == "POST":
            body = request.body
            response = Response(
                body=b'{"len":%d,"crc":%d}' % (len(body), zlib.crc32(body))
            )
        else:
            size = int(request.path.rsplit("/", 1)[1])
            response = Response(body=self.documents[size])
        response.headers.add("Content-Type", "application/json")
        return response


@dataclass
class Op:
    op_id: str
    request: bytes
    client: str | None  # cookie client id; None for a first-time client
    expect_crc: int
    expect_length: int


class ProxyActiveSmall(Workload):
    name = "proxy_active_small"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng("population")
        self.population = [
            str(uuid.UUID(int=rng.getrandbits(128), version=4))
            for _ in range(POPULATION)
        ]
        self.documents = {size: _document(size, size) for size in SIZES}
        self.config = RoutingConfig(
            splits=[TrafficSplit("a", 50.0), TrafficSplit("b", 50.0)],
            shadows=[ShadowRoute("a", "dark", 100.0), ShadowRoute("b", "dark", 100.0)],
            sticky=True,
        )
        #: client id -> version first seen (the stickiness oracle).
        self.seen: dict[str, str] = {}
        self.version_counts = {"a": 0, "b": 0}

    def fingerprint(self) -> str:
        first = self.prepare(0)
        return fingerprint(
            {
                "population": self.population,
                "window0": [op.request.decode("latin-1") for op in first],
            }
        )

    # -- fixture -----------------------------------------------------------

    async def setup(self) -> None:
        self.stub_a = StubUpstream("stub-a", self.documents)
        self.stub_b = StubUpstream("stub-b", self.documents)
        await self.stub_a.start()
        await self.stub_b.start()
        self.proxy = BifrostProxy(
            "shop", self.stub_a.address, sticky_capacity=STICKY_CAPACITY
        )
        await self.proxy.start()
        self.proxy.apply_config(
            self.config,
            {
                "a": self.stub_a.address,
                "b": self.stub_b.address,
                "dark": self.stub_b.address,
            },
        )
        # Steady state: the sticky table starts full, holding what the
        # proxy itself would have assigned to the last clients seen.
        plan = RoutingPlan(self.config, seed=self.proxy.seed)
        warm = self.rng("sticky").sample(self.population, STICKY_CAPACITY)
        for client in warm:
            self.proxy.sticky_store.assign(client, plan.bucket(client))
        self.gateway = Gateway()
        self.gateway.add_route("/", self.proxy.address)
        await self.gateway.start()
        self.conns = [
            await Connection().open(self.gateway.host, self.gateway.port)
            for _ in range(self.connections)
        ]
        first = Outcome()
        op = self._ops(self.rng("first-op"), "setup", 1)[0]
        if not await self._perform(self.conns[0], op, first):
            raise RuntimeError(f"first op failed: {first.errors}")
        await self.proxy.shadower.drain()

    async def teardown(self) -> None:
        for connection in self.conns:
            await connection.close()
        await self.gateway.stop()
        await self.proxy.stop()
        await self.stub_a.stop()
        await self.stub_b.stop()

    def servers(self) -> dict[str, list]:
        return {
            "cluster.gateway": [self.gateway],
            "proxy.handler": [self.proxy],
            "upstream.handler": [self.stub_a, self.stub_b],
        }

    def counters(self) -> dict[str, float]:
        return proxy_counters(self.proxy)

    # -- windows -----------------------------------------------------------

    def _ops(self, rng, label: str, count: int) -> list[Op]:
        new_clients = round(count * NEW_CLIENT_SHARE)
        posts = round(count * POST_SHARE)
        clients: list[str | None] = [None] * new_clients + [
            rng.choice(self.population) for _ in range(count - new_clients)
        ]
        methods = ["POST"] * posts + ["GET"] * (count - posts)
        sizes = [SIZES[i % len(SIZES)] for i in range(count)]
        rng.shuffle(clients)
        rng.shuffle(methods)
        rng.shuffle(sizes)
        ops = []
        for index, (client, method, size) in enumerate(zip(clients, methods, sizes)):
            op_id = f"{label}-{index}"
            cookie = (
                f"Cookie: theme=dark; {CLIENT_COOKIE}={client}\r\n" if client else ""
            )
            common = (
                "Host: shop.example\r\nUser-Agent: bench/1\r\n"
                f"Accept: application/json\r\n{cookie}X-Bench-Op: {op_id}\r\n"
            )
            if method == "GET":
                head = f"GET /shop/items/{size} HTTP/1.1\r\n{common}\r\n"
                request = head.encode("latin-1")
                expected = self.documents[size]
            else:
                body = _document(size, rng.getrandbits(24))
                head = (
                    f"POST /shop/orders HTTP/1.1\r\n{common}"
                    f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
                )
                request = head.encode("latin-1") + body
                expected = b'{"len":%d,"crc":%d}' % (len(body), zlib.crc32(body))
            ops.append(Op(op_id, request, client, zlib.crc32(expected), len(expected)))
        return ops

    def prepare(self, index: int) -> list[Op]:
        return self._ops(self.rng("window", index), f"w{index}", OPS_PER_WINDOW)

    async def _perform(self, connection: Connection, op: Op, outcome: Outcome) -> bool:
        reply = await connection.exchange(op.request)
        if reply.status != 200 or reply.length != op.expect_length or reply.crc != op.expect_crc:
            outcome.fail(f"{op.op_id}: status {reply.status}, {reply.length} B")
            return False
        version = (reply.header(b"x-bifrost-version") or b"").decode()
        issued = reply.header(b"set-cookie")
        if op.client is None:
            if issued is None or not issued.startswith(CLIENT_COOKIE.encode()):
                outcome.fail(f"{op.op_id}: no cookie issued to a first-time client")
                return False
            return version in self.version_counts
        if issued is not None:
            outcome.fail(f"{op.op_id}: cookie re-issued to a returning client")
            return False
        remembered = self.seen.setdefault(op.client, version)
        if remembered != version or version not in self.version_counts:
            outcome.fail(f"{op.op_id}: client moved {remembered!r} -> {version!r}")
            return False
        self.version_counts[version] += 1
        return True

    async def run(self, plan: list[Op]) -> Outcome:
        outcome = await closed_loop(self, self.conns, plan, self._perform)
        await self.proxy.shadower.drain()
        return outcome

    async def verify(self, plan: list[Op], outcome: Outcome) -> None:
        stats = self.proxy.stats_snapshot()
        received = self.stub_b.shadow_received
        # Everything the proxy forwarded was shadowed exactly once.
        forwarded = sum(stats["forwarded"].values())
        if not (stats["shadow_sent"] == received == forwarded) or stats["shadow_dropped"]:
            outcome.fail(
                f"shadow accounting: forwarded {forwarded}, sent "
                f"{stats['shadow_sent']}, received {received}, "
                f"dropped {stats['shadow_dropped']}"
            )

    def finish(self) -> list[str]:
        total = sum(self.version_counts.values())
        share = self.version_counts["a"] / total if total else 0.0
        if total >= 2000 and abs(share - 0.5) > SPLIT_TOLERANCE:
            return [f"A/B split {share:.3f} outside 50 +- 3 % over {total} requests"]
        return []
