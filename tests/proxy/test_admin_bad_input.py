"""``PUT /bifrost/config`` answers malformed bodies with 400, state untouched.

The table runs against every proxy kind that serves the admin API: a
standalone :class:`BifrostProxy`, the dispatching worker pool, and a
``SO_REUSEPORT`` pool whose members take admin calls themselves.
"""

import asyncio
import socket

import pytest

from repro.core import single_version
from repro.httpcore import HttpClient
from repro.proxy import BifrostProxy, ProxyWorkerPool, ReuseportProxyPool

UPSTREAM = "127.0.0.1:1"  # never contacted: only admin calls are made
GOOD = {
    "routing": single_version("stable").to_wire(),
    "endpoints": {"stable": UPSTREAM},
}

BAD_BODIES = [
    ("not-json", b"{not json"),
    ("json-list", b'[{"routing": {}}]'),
    ("json-string", b'"routing"'),
    ("routing-not-an-object", b'{"routing": [1], "endpoints": {"stable": "127.0.0.1:1"}}'),
    (
        "endpoints-not-a-mapping",
        b'{"routing": {"splits": [{"version": "stable", "percentage": 100}]},'
        b' "endpoints": ["127.0.0.1:1"]}',
    ),
]

KINDS = [
    "proxy",
    "worker-pool",
    pytest.param(
        "reuseport-pool",
        marks=pytest.mark.skipif(
            not hasattr(socket, "SO_REUSEPORT"), reason="platform lacks SO_REUSEPORT"
        ),
    ),
]


async def _start(kind):
    """The server under test and a coroutine function that stops it."""
    if kind == "proxy":
        proxy = BifrostProxy("product", default_upstream=UPSTREAM)
        await proxy.start()
        return proxy, proxy.stop
    if kind == "worker-pool":
        pool = ProxyWorkerPool("product", default_upstream=UPSTREAM, workers=2)
        await pool.start()
        return pool, pool.stop
    pool = ReuseportProxyPool("product", default_upstream=UPSTREAM, workers=2)
    await asyncio.to_thread(pool.start)
    return pool, lambda: asyncio.to_thread(pool.stop)


def _installed(server):
    members = getattr(server, "workers", [server])
    return server.config_version, [
        (member.config_version, member.active_config) for member in members
    ]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "body", [row[1] for row in BAD_BODIES], ids=[row[0] for row in BAD_BODIES]
)
async def test_bad_config_is_400_and_leaves_the_plan_untouched(kind, body):
    server, stop = await _start(kind)
    url = f"http://{server.address}/bifrost/config"
    try:
        async with HttpClient() as client:
            assert (await client.put(url, json_body=GOOD)).status == 200
            before = _installed(server)
            response = await client.put(url, body=body)
        after = _installed(server)
    finally:
        await stop()
    assert response.status == 400, response.body
    assert response.json()["status"] == "error"
    assert after == before
    assert before[0] == 1
