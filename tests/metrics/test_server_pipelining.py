"""The metrics server answers a pipelined write in order, over a real socket.

``HttpPrometheusProvider`` sends the questions one scheduler dispatch asks
of it as one pipelined write (``HttpClient.get_many``); this pins what that
relies on from the server: one response per request, in request order,
whatever each one costs (memo hit, miss, error), on a connection that stays
usable.
"""

import asyncio
from urllib.parse import quote

from repro.clock import VirtualClock
from repro.httpcore import HttpConnection, read_response
from repro.metrics import MetricsServer


def get(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: metrics\r\n\r\n".encode()


def query(text: str) -> str:
    return "/api/v1/query?query=" + quote(text)


async def test_one_pipelined_write_is_answered_in_order_and_keeps_the_connection():
    server = MetricsServer(clock=VirtualClock(start=50.0))
    server.store.record("hits", 7.0, 49.0, {"instance": "a"})
    server.store.record("hits", 3.0, 49.0, {"instance": "b"})
    server.store.record("errors", 2.0, 49.0, {"instance": "a"})
    await server.start(scrape=False)
    try:
        _, connection = await asyncio.get_running_loop().create_connection(
            lambda: HttpConnection(read_response), server.host, server.port
        )
        try:
            connection.write(b"".join([
                get(query("sum(hits)")),           # miss
                get(query("sum(hits)")),           # hit
                get("/api/v1/query"),              # 400: no query=
                get("/no/such/route"),             # 404
                get(query("errors / sum(hits)")),  # miss
                get(query("sum(hits)")),           # hit
            ]))
            responses = [await connection.receive() for _ in range(6)]
            assert [response.status for response in responses] == [200, 200, 400, 404, 200, 200]
            assert [response.json()["data"]["value"] for response in responses[:2]] == [10.0, 10.0]
            assert responses[2].json()["error"] == "missing query parameter"
            assert responses[3].json()["path"] == "/no/such/route"
            assert responses[4].json()["data"]["value"] == 0.2
            assert responses[5].body == responses[0].body
            assert (server.query_cache_hits, server.query_cache_misses) == (2, 2)
            # Nothing else was queued: the next request on the same
            # connection gets its own answer.
            connection.write(get(query("errors")))
            follow_up = await connection.receive()
            assert follow_up.status == 200
            assert follow_up.json()["data"]["value"] == 2.0
            assert not connection.eof
        finally:
            connection.close()
    finally:
        await server.stop()
