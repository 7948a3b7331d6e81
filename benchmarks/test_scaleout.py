"""Proxy pool concurrency-slot model (a model on one CPU, not throughput).

Upstream round-trips are modelled by a stub client with latency L and a
bounded connection pool of C concurrent requests — the shape of a real
``HttpClient`` against a real upstream.  One worker can therefore sustain
at most ``C/L`` requests per second no matter how fast its event loop is.
A shared-nothing pool of W workers owns W independent connection pools,
so the same I/O-bound workload drains through ``W*C`` concurrent slots.

What the curve shows is that slot arithmetic: ``rps ≈ W*C/L`` until the
single event loop saturates.  The container has one CPU and every worker
shares it, so the "speedup" here says nothing about scaling over cores;
it only bounds the dispatch overhead the pool adds.  A throughput claim
needs a measurement on real cores or processes (ROADMAP, open item 1).

Artifacts: ``benchmarks/output/scaleout.json``, a run record in
``benchmarks/output/history.jsonl``, plus the tracked repo-root
``BENCH_scaleout.json``.

Environment knob: ``BIFROST_BENCH_SCALEOUT_REQUESTS`` (proxy requests per
run) — CI smoke reduces it.
"""

import asyncio
import json
import os
import time
from pathlib import Path

from repro.core import canary_split
from repro.httpcore import Headers, Request, Response
from repro.proxy import CLIENT_COOKIE, ProxyWorkerPool, worker_index

REPO_ROOT = Path(__file__).resolve().parent.parent

REQUESTS = int(os.environ.get("BIFROST_BENCH_SCALEOUT_REQUESTS", "320"))
WORKER_COUNTS = (1, 2, 4)
UPSTREAM_CAPACITY = 8  # concurrent requests one worker's client sustains
UPSTREAM_LATENCY = 0.025  # seconds per upstream round-trip
ENDPOINTS = {"stable": "upstream-a:8001", "canary": "upstream-b:8002"}
RESPONSE_BODY = b'{"version": "stable", "ok": true}'


def _balanced_clients(per_class: int = 16) -> list[str]:
    """Client ids spread evenly over worker classes mod 4 (hence mod 2/1).

    ``n mod 2 == (n mod 4) mod 2``, so ids balanced across the four
    4-worker classes are also balanced for 2 workers and (trivially) 1 —
    the sweep compares capacity, not hash luck.
    """
    buckets: dict[int, list[str]] = {0: [], 1: [], 2: [], 3: []}
    index = 0
    while any(len(bucket) < per_class for bucket in buckets.values()):
        client = f"22222222-3333-4444-5555-{index:012d}"
        bucket = buckets[worker_index(client, 4)]
        if len(bucket) < per_class:
            bucket.append(client)
        index += 1
    interleaved = []
    for position in range(per_class):
        for cls in range(4):
            interleaved.append(buckets[cls][position])
    return interleaved


CLIENTS = _balanced_clients()


class CapacityStubClient:
    """Upstream stub: latency ``UPSTREAM_LATENCY``, at most
    ``UPSTREAM_CAPACITY`` requests in flight — a connection pool in
    miniature.  One instance per worker, like the real owned client."""

    def __init__(self):
        self._slots = asyncio.Semaphore(UPSTREAM_CAPACITY)
        self.sent = 0

    async def send(self, request, host, port, timeout=None, stream=False):
        async with self._slots:
            await asyncio.sleep(UPSTREAM_LATENCY)
        self.sent += 1
        return Response(
            status=200,
            headers=Headers.from_raw([("Content-Type", "application/json")]),
            body=RESPONSE_BODY,
        )

    async def close(self):
        pass


def _incoming(index: int) -> Request:
    client = CLIENTS[index % len(CLIENTS)]
    return Request(
        "GET",
        "/items?page=1",
        Headers.from_raw(
            [
                ("Host", "shop.example"),
                ("Accept", "application/json"),
                ("Cookie", f"session=abc123; {CLIENT_COOKIE}={client}"),
                ("X-Request-Id", f"req-{index}"),
            ]
        ),
        body=b"",
    )


async def _drive_pool(workers: int) -> dict:
    pool = ProxyWorkerPool("bench", "upstream-default:8000", workers=workers)
    stubs = []
    for member in pool.workers:
        stub = CapacityStubClient()
        member._client = stub
        member._owns_client = False
        stubs.append(stub)
    pool.apply_config(canary_split("stable", "canary", 20.0), ENDPOINTS)

    requests = [_incoming(i) for i in range(REQUESTS)]
    start = time.perf_counter()
    responses = await asyncio.gather(
        *(pool._handle_proxy(request) for request in requests)
    )
    wall = time.perf_counter() - start

    assert sum(stub.sent for stub in stubs) == REQUESTS
    workers_seen = {
        response.headers.get("X-Bifrost-Worker") for response in responses
    }
    assert len(workers_seen) == workers
    for response in responses:
        assert response.headers.get("X-Bifrost-Version") in ("stable", "canary")
    await pool.stop()
    return {
        "workers": workers,
        "requests": REQUESTS,
        "wall_s": round(wall, 4),
        "rps": round(REQUESTS / wall),
    }


def test_scaleout(artifact_writer, history_appender):
    pool_points = {}
    for workers in WORKER_COUNTS:
        asyncio.run(_drive_pool(workers))  # warm-up
        pool_points[workers] = asyncio.run(_drive_pool(workers))
    pool_speedup = {
        workers: round(
            pool_points[1]["wall_s"] / pool_points[workers]["wall_s"], 2
        )
        for workers in WORKER_COUNTS
    }

    results = {
        "benchmark": "scaleout",
        "proxy_pool": {
            "kind": (
                "W x C concurrency-slot model on one CPU: rps is bounded by "
                "workers * upstream_capacity_per_worker / upstream_latency_s; "
                "not a throughput or core-scaling measurement"
            ),
            "workload": {
                "requests_per_run": REQUESTS,
                "distinct_clients": len(CLIENTS),
                "upstream_capacity_per_worker": UPSTREAM_CAPACITY,
                "upstream_latency_s": UPSTREAM_LATENCY,
            },
            "points": {str(w): p for w, p in pool_points.items()},
            "speedup": {str(w): s for w, s in pool_speedup.items()},
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    rendered = json.dumps(results, indent=2)
    artifact_writer("scaleout.json", rendered)
    (REPO_ROOT / "BENCH_scaleout.json").write_text(rendered + "\n", encoding="utf-8")
    history_appender(
        "scaleout",
        {
            "proxy_rps": {str(w): p["rps"] for w, p in pool_points.items()},
            "proxy_speedup": {str(w): s for w, s in pool_speedup.items()},
        },
    )

    assert pool_speedup[4] >= 2.5, (
        f"4-worker pool only {pool_speedup[4]:.2f}x over one worker "
        f"(need >= 2.5x): {pool_points}"
    )
    assert pool_speedup[2] >= 1.5, pool_points
