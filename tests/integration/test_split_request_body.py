"""A request body that arrives in more than one read.

Over a socket, whether a small body comes with its head or in a later
read depends on timing.  Here the metrics server's connection is driven
from memory instead: the head and half the body first, the rest only once
the server is waiting for it, so the server reads the body as a stream.
"""

import asyncio
import json

from repro.httpcore import HttpConnection, read_request
from repro.metrics import MetricsServer
from tests.httpcore.wire import MemoryTransport


async def test_an_ingest_body_split_across_reads_lands_whole():
    server = MetricsServer()
    samples = [{"name": "m", "value": float(i), "labels": {"i": str(i)}} for i in range(4)]
    body = json.dumps(samples).encode()
    head = b"POST /api/v1/ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
    half = len(body) // 2
    transport = MemoryTransport(HttpConnection(read_request, server._open), head + body[:half])
    transport.eof_pending = False  # the peer is still sending
    for _ in range(10):
        await asyncio.sleep(0)
    assert not transport.written  # the server is waiting for the rest
    transport.pieces.append(body[half:])
    transport.eof_pending = True
    transport.deliver()
    await asyncio.gather(*server._connections.values())
    status, _, response_body = bytes(transport.written).partition(b"\r\n\r\n")
    assert status.startswith(b"HTTP/1.1 200 ")
    assert json.loads(response_body) == {"status": "success", "ingested": 4}
    assert len(server.store.select("m")) == 4
