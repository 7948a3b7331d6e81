"""proxy_stream_large: 512 KiB bodies streamed through the Bifrost proxy.

Per-byte cost dominates here and the routing decision is one header
lookup, so this is the bypass workload for every change to the proxy's
decision path and the target for ``httpcore/stream`` and relay changes.
Half the ops upload (teed to one shadow), half download, and half of each
use chunked framing; ``peak_rss_mb`` guards the bounded-buffer relay.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.core.routing import FilterKind, RoutingConfig, ShadowRoute, TrafficSplit
from repro.httpcore import BodyStream, HttpServer, Request, Response
from repro.proxy import BifrostProxy

from ..client import CHUNK, Connection, chunk_frames, pieces
from ..stats import fingerprint
from .base import Outcome, Workload, closed_loop
from .fixtures import proxy_counters

BODY_BYTES = 512 * 1024
BLOBS = 8
OPS_PER_WINDOW = 200


class BlobStub(HttpServer):
    """Digests uploads chunk by chunk; serves blobs as streamed bodies."""

    def __init__(self, name: str, blobs: list[bytes]):
        super().__init__(name=name, stream_bodies=True, max_body_bytes=None)
        self.blobs = blobs
        #: op id -> (length, crc) of every upload received (shadow oracle).
        self.uploads: dict[str, tuple[int, int]] = {}
        self.router.set_fallback(self._handle)

    async def _handle(self, request: Request) -> Response:
        if request.method == "POST":
            crc = 0
            length = 0
            async for chunk in request.iter_body():
                crc = zlib.crc32(chunk, crc)
                length += len(chunk)
            self.uploads[request.headers.get("X-Bench-Op", "")] = (length, crc)
            return Response(body=b'{"len":%d,"crc":%d}' % (length, crc))
        _, _, blob, framing = request.path.split("/")
        data = self.blobs[int(blob)]
        if framing == "chunked":
            chunks = [data[start : start + CHUNK] for start in range(0, len(data), CHUNK)]
            return Response.streaming(BodyStream.from_iterable(chunks))
        return Response.streaming(BodyStream.from_bytes(data))


@dataclass
class Op:
    op_id: str
    head: bytes
    body: list[bytes]  # upload pieces/frames; empty for downloads
    upload: bool
    blob: int
    expect_length: int
    expect_crc: int  # of the response body


class ProxyStreamLarge(Workload):
    name = "proxy_stream_large"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng("blobs")
        self.blobs = [rng.randbytes(BODY_BYTES) for _ in range(BLOBS)]
        self.blob_crcs = [zlib.crc32(blob) for blob in self.blobs]
        # Framed once: the timed loop only writes.
        self.blob_pieces = [pieces(blob) for blob in self.blobs]
        self.blob_frames = [chunk_frames(blob) for blob in self.blobs]
        self.config = RoutingConfig(
            splits=[TrafficSplit("up", 50.0), TrafficSplit("down", 50.0)],
            shadows=[ShadowRoute("up", "dark", 100.0)],
            filter_kind=FilterKind.HEADER,
        )
        self._sent_before = 0

    def fingerprint(self) -> str:
        return fingerprint(
            {
                "blob_crcs": self.blob_crcs,
                "window0": [op.head.decode("latin-1") for op in self.prepare(0)],
            }
        )

    async def setup(self) -> None:
        self.primary = BlobStub("blob-primary", self.blobs)
        self.shadow = BlobStub("blob-shadow", self.blobs)
        await self.primary.start()
        await self.shadow.start()
        self.proxy = BifrostProxy("files", self.primary.address)
        await self.proxy.start()
        self.proxy.apply_config(
            self.config,
            {
                "up": self.primary.address,
                "down": self.primary.address,
                "dark": self.shadow.address,
            },
        )
        self.conns = [
            await Connection().open(self.proxy.host, self.proxy.port)
            for _ in range(self.connections)
        ]
        first = Outcome()
        for op in self._ops(self.rng("first-op"), "setup", 4):
            if not await self._perform(self.conns[0], op, first):
                raise RuntimeError(f"first op failed: {first.errors}")
        await self.proxy.shadower.drain()

    async def teardown(self) -> None:
        for connection in self.conns:
            await connection.close()
        await self.proxy.stop()
        await self.primary.stop()
        await self.shadow.stop()

    def servers(self) -> dict[str, list]:
        return {
            "proxy.handler": [self.proxy],
            "upstream.handler": [self.primary, self.shadow],
        }

    def counters(self) -> dict[str, float]:
        return proxy_counters(self.proxy)

    def _ops(self, rng, label: str, count: int) -> list[Op]:
        # Exactly a quarter each: upload/download x length/chunked framing.
        kinds = [(index % 2 == 0, index % 4 < 2) for index in range(count)]
        rng.shuffle(kinds)
        ops = []
        for index, (upload, chunked) in enumerate(kinds):
            op_id = f"{label}-{index}"
            blob = rng.randrange(BLOBS)
            common = f"Host: files.example\r\nUser-Agent: bench/1\r\nX-Bench-Op: {op_id}\r\n"
            if upload:
                framing = (
                    "Transfer-Encoding: chunked"
                    if chunked
                    else f"Content-Length: {BODY_BYTES}"
                )
                head = (
                    f"POST /blobs HTTP/1.1\r\n{common}X-Bifrost-Group: up\r\n"
                    f"Content-Type: application/octet-stream\r\n{framing}\r\n\r\n"
                )
                body = self.blob_frames[blob] if chunked else self.blob_pieces[blob]
                expected = b'{"len":%d,"crc":%d}' % (BODY_BYTES, self.blob_crcs[blob])
                ops.append(
                    Op(op_id, head.encode("latin-1"), body, True, blob,
                       len(expected), zlib.crc32(expected))
                )
            else:
                framing = "chunked" if chunked else "length"
                head = (
                    f"GET /blobs/{blob}/{framing} HTTP/1.1\r\n{common}"
                    "X-Bifrost-Group: down\r\n\r\n"
                )
                ops.append(
                    Op(op_id, head.encode("latin-1"), [], False, blob,
                       BODY_BYTES, self.blob_crcs[blob])
                )
        return ops

    def prepare(self, index: int) -> list[Op]:
        return self._ops(self.rng("window", index), f"w{index}", OPS_PER_WINDOW)

    async def _perform(self, connection: Connection, op: Op, outcome: Outcome) -> bool:
        reply = await connection.exchange_streamed(op.head, op.body)
        version = reply.header(b"x-bifrost-version")
        if (
            reply.status != 200
            or reply.length != op.expect_length
            or reply.crc != op.expect_crc
            or version != (b"up" if op.upload else b"down")
        ):
            outcome.fail(
                f"{op.op_id}: status {reply.status}, {reply.length} B, version {version!r}"
            )
            return False
        return True

    async def run(self, plan: list[Op]) -> Outcome:
        self._sent_before = self.proxy.stats_snapshot()["shadow_sent"]
        outcome = await closed_loop(self, self.conns, plan, self._perform)
        await self.proxy.shadower.drain()
        return outcome

    async def verify(self, plan: list[Op], outcome: Outcome) -> None:
        # Both directions byte-identical: downloads were checked per op;
        # every upload must have reached primary and shadow unchanged.
        uploads = 0
        for op in plan:
            if not op.upload:
                continue
            uploads += 1
            expected = (BODY_BYTES, self.blob_crcs[op.blob])
            for stub in (self.primary, self.shadow):
                received = stub.uploads.pop(op.op_id, None)
                if received != expected:
                    outcome.fail(f"{op.op_id}: {stub.name} received {received}")
        stats = self.proxy.stats_snapshot()
        sent = stats["shadow_sent"] - self._sent_before
        if sent != uploads or stats["shadow_dropped"]:
            outcome.fail(
                f"shadow accounting: {uploads} uploads, sent {sent}, "
                f"dropped {stats['shadow_dropped']}"
            )
