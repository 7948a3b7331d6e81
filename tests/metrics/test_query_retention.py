"""A long query is answered, and nothing on the query path keeps it.

Every cache on the answer path is bounded by count (the compiled-query
LRU, the planner's roots, the server's per-target table, the store's
resolved selectors and histogram layouts), so one that kept a 64 KiB text
per entry would hold gigabytes that anonymous requests chose, and short
distinct queries cannot grow one without limit.  A text longer than
``RETAIN_LIMIT`` is compiled and evaluated but not retained.
"""

import gc
import tracemalloc
from urllib.parse import quote

from repro.clock import VirtualClock
from repro.httpcore import HttpClient
from repro.metrics import MetricsServer, planner_for
from repro.metrics.query import _LAYOUT_CACHES, compile_cache_info
from repro.metrics.store import CACHE_ENTRIES, RETAIN_LIMIT

#: Bytes that 500 long requests may leave allocated: each one retained
#: would keep more than RETAIN_LIMIT bytes, so 500 would keep over 2 MB.
RETENTION_BOUND = 256 * 1024


def long_query(index: int) -> tuple[str, int]:
    """A query longer than ``RETAIN_LIMIT``, and the status it is answered with."""
    value = f"{index}-" + "x" * (RETAIN_LIMIT + 1000)
    ident = f"x{index}_" + "x" * (RETAIN_LIMIT + 1000)
    return (
        (f'up{{job="{value}"}}', 200),
        # A cache key holds the metric name and each label name too, and
        # every matcher costs something even when its value is empty.
        (f"histogram_quantile(0.5, {ident})", 200),
        (f'up{{{ident}="a"}}', 200),
        ("up{" + ",".join([f'a{index}=""'] * 1000) + "}", 200),
        (f'rate(up{{job="{value}"}}[1m])', 200),
        (f'histogram_quantile(0.5, latency_bucket{{job="{value}"}})', 200),
        (f'sum(up{{job!="{value}"}}) * 2', 200),
        # A regex that long is refused: its compiled form would be kept.
        (f'up{{job=~"{value}"}}', 400),
    )[index % 8]


def cache_sizes(server: MetricsServer) -> dict[str, int]:
    store = server.store
    planner = planner_for(store)
    return {
        "targets": len(server._targets),
        "compiled": compile_cache_info().currsize,
        "roots": planner.cache_info()["roots"],
        "nodes": planner.cache_info()["interned_nodes"],
        "selectors": len(store._selector_cache),
        "layouts": len(_LAYOUT_CACHES.get(store, {})),
    }


async def test_long_queries_are_answered_but_not_retained():
    server = MetricsServer(clock=VirtualClock(start=10.0))
    server.store.record("up", 1.0, 9.0, {"job": "a"})
    server.store.record("latency_bucket", 1.0, 9.0, {"job": "a", "le": "+Inf"})
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            base = f"http://{server.address}/api/v1/query?query="
            # Warm the connection, the parser and each shape's short form.
            for query in ("up", "rate(up[1m])", "histogram_quantile(0.5, latency_bucket)"):
                assert (await client.get(base + quote(query))).status == 200
            for index in range(10):
                query, status = long_query(index)
                assert (await client.get(base + quote(query))).status == status
            sizes = cache_sizes(server)
            gc.collect()
            tracemalloc.start()
            try:
                for index in range(10, 510):
                    query, status = long_query(index)
                    response = await client.get(base + quote(query))
                    assert response.status == status
                gc.collect()
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    finally:
        await server.stop()
    assert retained < RETENTION_BOUND
    assert cache_sizes(server) == sizes
    assert server.query_cache_misses == 513


async def test_bodies_of_a_past_stamp_are_released():
    """Within one stamp every distinct target keeps its body; once the stamp
    moves none of them is kept, however many targets asked."""
    clock = VirtualClock(start=10.0)
    server = MetricsServer(clock=clock)
    for index in range(200):
        server.store.record("up", 1.0, 9.0, {"instance": f"instance-{index:04d}"})
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            base = f"http://{server.address}/api/v1/query?query=up&pad="
            assert (await client.get(base + "warm")).status == 200
            gc.collect()
            tracemalloc.start()
            try:
                for index in range(300):
                    response = await client.get(f"{base}{index}")
                    assert response.status == 200
                within_stamp, _ = tracemalloc.get_traced_memory()
                await clock.advance(1.0)
                assert (await client.get(base + "warm")).status == 200
                gc.collect()
                after_stamp, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    finally:
        await server.stop()
    body = len(response.body)
    assert body > 8 * 1024
    assert within_stamp > 300 * body  # the bodies of this stamp are kept
    assert after_stamp < 300 * body // 20  # and released when it passes
    assert len(server._targets) == 301


async def test_short_distinct_queries_do_not_grow_the_caches_past_their_bound():
    """20,000 distinct short queries, each resolving two selectors and one
    histogram layout: every cache stops at ``CACHE_ENTRIES``."""
    server = MetricsServer(clock=VirtualClock(start=10.0))
    server.store.record("up", 1.0, 9.0, {"job": "a"})
    server.store.record("latency_bucket", 1.0, 9.0, {"job": "a", "le": "+Inf"})
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            base = f"http://{server.address}/api/v1/query?query="
            for index in range(20_000):
                query = f'histogram_quantile(0.5, latency_bucket{{job="{index}"}}) + up{{job="{index}"}}'
                assert (await client.get(base + quote(query))).status == 200
    finally:
        await server.stop()
    sizes = cache_sizes(server)
    assert sizes["targets"] == sizes["selectors"] == sizes["layouts"] == CACHE_ENTRIES, sizes
    assert sizes["compiled"] <= CACHE_ENTRIES and sizes["roots"] <= CACHE_ENTRIES, sizes
