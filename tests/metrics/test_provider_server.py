"""Tests for the metrics server and the provider implementations."""

from urllib.parse import quote

import pytest

from repro.clock import VirtualClock
from repro.httpcore import HttpClient
from repro.metrics import (
    HttpPrometheusProvider,
    LocalPrometheusProvider,
    MetricsServer,
    MetricStore,
    ProviderError,
    StaticProvider,
)


async def test_local_provider_queries_store():
    clock = VirtualClock(start=10.0)
    store = MetricStore()
    store.record("errors", 3.0, 9.0, {"instance": "search:80"})
    provider = LocalPrometheusProvider(store, clock=clock)
    assert await provider.query('errors{instance="search:80"}') == 3.0
    assert await provider.query("missing") is None


async def test_static_provider_scalar_and_sequence():
    provider = StaticProvider({"a": 1.0, "b": [1.0, 2.0], "c": None})
    assert await provider.query("a") == 1.0
    assert await provider.query("a") == 1.0
    assert await provider.query("b") == 1.0
    assert await provider.query("b") == 2.0
    assert await provider.query("b") == 2.0  # repeats last
    assert await provider.query("c") is None
    assert provider.query_log == ["a", "a", "b", "b", "b", "c"]
    with pytest.raises(ProviderError):
        await provider.query("unknown")


async def test_metrics_server_query_endpoint():
    clock = VirtualClock(start=50.0)
    server = MetricsServer(clock=clock)
    server.store.record("hits", 7.0, 49.0, {"instance": "a"})
    server.store.record("hits", 3.0, 49.0, {"instance": "b"})
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.get(
                f"http://{server.address}/api/v1/query?query=hits"
            )
            payload = response.json()
            assert payload["status"] == "success"
            assert payload["data"]["value"] == 10.0
            assert len(payload["data"]["vector"]) == 2
    finally:
        await server.stop()


async def test_metrics_server_ingest_and_series():
    clock = VirtualClock(start=5.0)
    server = MetricsServer(clock=clock)
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.post(
                f"http://{server.address}/api/v1/ingest",
                json_body=[
                    {"name": "sales", "value": 12, "labels": {"version": "a"}},
                    {"name": "sales", "value": 8, "labels": {"version": "b"}},
                ],
            )
            assert response.json() == {"status": "success", "ingested": 2}
            response = await client.get(f"http://{server.address}/api/v1/series")
            assert response.json()["data"] == ["sales"]
            response = await client.get(
                f"http://{server.address}/api/v1/query?query=sum%28sales%29"
            )
            assert response.json()["data"]["value"] == 20.0
    finally:
        await server.stop()


# -- bad input: 4xx, state untouched ----------------------------------------------

INGEST = "/api/v1/ingest"

#: (case, method, target, raw body) — every row must answer 4xx with
#: ``{"status": "error", ...}`` and leave the store exactly as it was.
BAD_REQUESTS = [
    ("query-missing", "GET", "/api/v1/query", b""),
    ("query-empty", "GET", "/api/v1/query?query=", b""),
    ("query-unparseable", "GET", "/api/v1/query?query=" + quote("sum((("), b""),
    ("query-range-function-on-instant", "GET", "/api/v1/query?query=" + quote("rate(m)"), b""),
    ("query-bare-range-selector", "GET", "/api/v1/query?query=" + quote("m[30s]"), b""),
    ("query-invalid-regex", "GET", "/api/v1/query?query=" + quote('m{a=~"("}'), b""),
    ("query-invalid-negated-regex", "GET", "/api/v1/query?query=" + quote('sum(m{a!~"[z"})'), b""),
    ("ingest-not-json", "POST", INGEST, b"{not json"),
    ("ingest-not-utf8", "POST", INGEST, b"\xff\xfe"),
    ("ingest-not-a-list", "POST", INGEST, b'{"not": "a list"}'),
    ("ingest-empty-body", "POST", INGEST, b""),
    ("ingest-sample-not-an-object", "POST", INGEST, b"[1]"),
    ("ingest-missing-name", "POST", INGEST, b'[{"value": 1}]'),
    ("ingest-missing-value", "POST", INGEST, b'[{"name": "m"}]'),
    ("ingest-name-not-a-string", "POST", INGEST, b'[{"name": 5, "value": 1}]'),
    ("ingest-labels-not-an-object", "POST", INGEST, b'[{"name": "m", "value": 1, "labels": [1]}]'),
    (
        "ingest-bad-value-mid-batch", "POST", INGEST,
        b'[{"name": "m", "value": 2}, {"name": "m", "value": "x"}, {"name": "m", "value": 3}]',
    ),
    ("ingest-timestamp-nan", "POST", INGEST, b'[{"name": "m", "value": 2, "timestamp": "nan"}]'),
    ("ingest-timestamp-inf", "POST", INGEST, b'[{"name": "m", "value": 2, "timestamp": "inf"}]'),
    (
        "ingest-nan-timestamp-mid-batch", "POST", INGEST,
        b'[{"name": "fresh", "value": 1}, {"name": "fresh", "value": 2, "timestamp": NaN}]',
    ),
    (
        "ingest-behind-the-store", "POST", INGEST,
        b'[{"name": "m", "value": 2, "labels": {"a": "b"}, "timestamp": 1.0}]',
    ),
    (
        "ingest-out-of-order-in-batch", "POST", INGEST,
        b'[{"name": "fresh", "value": 1, "timestamp": 9.0},'
        b' {"name": "fresh", "value": 2, "timestamp": 8.0}]',
    ),
    # A series no string matcher could select is refused when it would be
    # created: an empty name, a non-string label value, an empty label name.
    ("ingest-empty-name", "POST", INGEST, b'[{"name": "", "value": 1}]'),
    ("ingest-label-value-list", "POST", INGEST, b'[{"name": "m", "value": 1, "labels": {"a": [1]}}]'),
    (
        "ingest-label-value-object", "POST", INGEST,
        b'[{"name": "m", "value": 1, "labels": {"a": {"b": "c"}}}]',
    ),
    ("ingest-label-value-number", "POST", INGEST, b'[{"name": "m", "value": 1, "labels": {"a": 1}}]'),
    ("ingest-label-value-null", "POST", INGEST, b'[{"name": "m", "value": 1, "labels": {"a": null}}]'),
    ("ingest-label-name-empty", "POST", INGEST, b'[{"name": "m", "value": 1, "labels": {"": "b"}}]'),
    (
        "ingest-bad-label-after-a-new-series", "POST", INGEST,
        b'[{"name": "fresh", "value": 1}, {"name": "m", "value": 2, "labels": {"a": 7}}]',
    ),
]


@pytest.mark.parametrize(
    "method, target, body",
    [row[1:] for row in BAD_REQUESTS],
    ids=[row[0] for row in BAD_REQUESTS],
)
async def test_bad_input_is_4xx_and_leaves_the_store_untouched(method, target, body):
    server = MetricsServer(clock=VirtualClock(start=10.0))
    server.store.record("m", 1.0, 5.0, {"a": "b"})
    store = server.store
    before = (len(store), store.generation, store.series_generation)
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.request(
                method, f"http://{server.address}{target}", body=body
            )
    finally:
        await server.stop()
    assert 400 <= response.status < 500, response.body
    assert response.json()["status"] == "error"
    assert (len(store), store.generation, store.series_generation) == before
    assert server.store.select("m")[0].latest().value == 1.0


async def test_metrics_server_health():
    server = MetricsServer(clock=VirtualClock())
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{server.address}/healthz")
            assert response.json()["status"] == "up"
    finally:
        await server.stop()


async def test_http_provider_end_to_end():
    clock = VirtualClock(start=100.0)
    server = MetricsServer(clock=clock)
    server.store.record("request_errors", 4.0, 99.0, {"instance": "search:80"})
    await server.start(scrape=False)
    provider = HttpPrometheusProvider(f"http://{server.address}")
    try:
        value = await provider.query('request_errors{instance="search:80"}')
        assert value == 4.0
        assert await provider.query("no_such_metric") is None
        with pytest.raises(ProviderError):
            await provider.query("rate(m)")  # 400 from server
    finally:
        await provider.close()
        await server.stop()


async def test_http_provider_unreachable_raises():
    provider = HttpPrometheusProvider("http://127.0.0.1:1")
    try:
        with pytest.raises(ProviderError):
            await provider.query("up")
    finally:
        await provider.close()


# -- atomic ingest ----------------------------------------------------------------


async def test_ingest_bad_sample_mid_batch_records_nothing():
    """A 400 batch is all-or-nothing: valid leading samples must not land."""
    clock = VirtualClock(start=5.0)
    server = MetricsServer(clock=clock)
    server.store.record("sales", 1.0, 1.0, {"version": "a"})
    generation = server.store.generation
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.post(
                f"http://{server.address}/api/v1/ingest",
                json_body=[
                    {"name": "sales", "value": 2.0, "labels": {"version": "a"}},
                    {"name": "sales", "value": "not-a-number"},
                    {"name": "sales", "value": 3.0, "labels": {"version": "a"}},
                ],
            )
            assert response.status == 400
            assert "bad sample" in response.json()["error"]
    finally:
        await server.stop()
    # The leading valid sample was not recorded behind the 400.
    assert server.store.generation == generation
    series = server.store.select("sales")[0]
    assert series.latest().value == 1.0


async def test_ingest_rejects_out_of_order_against_store_atomically():
    clock = VirtualClock(start=50.0)
    server = MetricsServer(clock=clock)
    server.store.record("m", 1.0, 40.0)
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.post(
                f"http://{server.address}/api/v1/ingest",
                json_body=[
                    {"name": "m", "value": 2.0, "timestamp": 45.0},
                    {"name": "m", "value": 3.0, "timestamp": 30.0},  # behind 45
                ],
            )
            assert response.status == 400
            assert "out-of-order" in response.json()["error"]
    finally:
        await server.stop()
    assert len(server.store.select("m")[0]) == 1  # neither sample landed


async def test_ingest_out_of_order_within_batch_same_series():
    """Ordering is validated against earlier samples in the same batch too."""
    server = MetricsServer(clock=VirtualClock(start=10.0))
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.post(
                f"http://{server.address}/api/v1/ingest",
                json_body=[
                    {"name": "fresh", "value": 1.0, "timestamp": 9.0},
                    {"name": "fresh", "value": 2.0, "timestamp": 8.0},
                ],
            )
            assert response.status == 400
    finally:
        await server.stop()
    assert server.store.select("fresh") == []


async def test_ingest_same_timestamp_is_accepted():
    """Non-decreasing, not strictly increasing: duplicates must pass."""
    server = MetricsServer(clock=VirtualClock(start=10.0))
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.post(
                f"http://{server.address}/api/v1/ingest",
                json_body=[
                    {"name": "m", "value": 1.0, "timestamp": 9.0},
                    {"name": "m", "value": 2.0, "timestamp": 9.0},
                ],
            )
            assert response.json() == {"status": "success", "ingested": 2}
    finally:
        await server.stop()
    assert len(server.store.select("m")[0]) == 2


# -- server-side query cache ------------------------------------------------------


class _CountingStore(MetricStore):
    """MetricStore that counts selector evaluations."""

    def __init__(self):
        super().__init__()
        self.select_calls = 0

    def select(self, name, matchers=None):
        self.select_calls += 1
        return super().select(name, matchers)


async def test_server_query_cache_collapses_identical_queries_per_tick():
    clock = VirtualClock(start=10.0)
    server = MetricsServer(clock=clock)
    server.store = _CountingStore()
    server.store.record("hits", 7.0, 9.0, {"instance": "a"})
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            url = f"http://{server.address}/api/v1/query?query=hits"
            first = await client.get(url)
            calls_after_first = server.store.select_calls
            second = await client.get(url)
            # Same tick, unchanged store: the second response is served
            # from the rendered-body memo without touching the store.
            assert server.store.select_calls == calls_after_first
            assert second.json() == first.json()
            assert second.headers.get("Content-Type") == "application/json"
    finally:
        await server.stop()


async def test_server_query_cache_invalidated_by_mutation_and_tick():
    clock = VirtualClock(start=10.0)
    server = MetricsServer(clock=clock)
    server.store.record("hits", 1.0, 9.0)
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            url = f"http://{server.address}/api/v1/query?query=hits"
            assert (await client.get(url)).json()["data"]["value"] == 1.0
            server.store.record("hits", 5.0, 10.0)  # same tick, store changed
            assert (await client.get(url)).json()["data"]["value"] == 5.0
            await clock.advance(400.0)  # past staleness: cache must not mask it
            assert (await client.get(url)).json()["data"]["value"] is None
    finally:
        await server.stop()


async def test_metrics_server_health_reports_cache_counters():
    clock = VirtualClock(start=50.0)
    server = MetricsServer(clock=clock)
    server.store.record("hits_total", 1.0, 49.0, {"instance": "a:80"})
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            base = f"http://{server.address}"
            # Same query at the same tick: second hit lands in the memo.
            await client.get(f"{base}/api/v1/query?query=hits_total")
            await client.get(f"{base}/api/v1/query?query=hits_total")
            payload = (await client.get(f"{base}/healthz")).json()
            caches = payload["caches"]
            assert caches["query_memo"]["hits"] >= 1
            assert caches["query_memo"]["misses"] >= 1
            assert set(caches) == {
                "query_memo",
                "compiled_query",
                "histogram_layout",
                "evaluation_plan",
                "window_aggregates",
            }
            assert {"hits", "misses"} <= set(caches["histogram_layout"])
            assert "plan_shared_nodes" in payload
            assert "plan_evaluations_saved" in payload
    finally:
        await server.stop()


async def test_metrics_server_scrapes_own_cache_gauges():
    from repro.metrics import parse_exposition

    server = MetricsServer(clock=VirtualClock())
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{server.address}/metrics")
            points = parse_exposition(response.body.decode())
            labelled = {
                (point.labels["cache"], point.labels["event"])
                for point in points
                if point.name == "metrics_cache_events_total"
            }
            assert ("query_memo", "hit") in labelled
            assert ("histogram_layout", "miss") in labelled
            assert ("compiled_query", "hit") in labelled
    finally:
        await server.stop()
