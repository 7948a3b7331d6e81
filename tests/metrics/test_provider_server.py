"""Tests for the metrics server and the provider implementations."""

import json
import math
from urllib.parse import quote

import pytest

from repro.clock import VirtualClock
from repro.core.outcome import Validator
from repro.httpcore import HttpClient, HttpServer, Request, Response
from repro.metrics import (
    HttpPrometheusProvider,
    LocalPrometheusProvider,
    MetricsServer,
    MetricStore,
    ProviderError,
    StaticProvider,
)
from tests.core.fetching import fetch_answer


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
    # Nested past MAX_QUERY_DEPTH: a QueryError, not a RecursionError.
    ("query-deep-parentheses", "GET", "/api/v1/query?query=" + quote("(" * 3000 + "m" + ")" * 3000), b""),
    ("query-deep-aggregations", "GET", "/api/v1/query?query=" + quote("sum(" * 400 + "m" + ")" * 400), b""),
    ("query-long-binary-chain", "GET", "/api/v1/query?query=" + quote(" + ".join(["m"] * 1000)), b""),
    ("ingest-not-json", "POST", INGEST, b"{not json"),
    ("ingest-not-utf8", "POST", INGEST, b"\xff\xfe"),
    ("ingest-not-a-list", "POST", INGEST, b'{"not": "a list"}'),
    ("ingest-empty-body", "POST", INGEST, b""),
    # Deeper than the JSON decoder can recurse: a RecursionError, not JSON.
    ("ingest-nested-past-the-decoder", "POST", INGEST, b"[" * 100_000 + b"]" * 100_000),
    ("ingest-sample-not-an-object", "POST", INGEST, b"[1]"),
    ("ingest-missing-name", "POST", INGEST, b'[{"value": 1}]'),
    ("ingest-missing-value", "POST", INGEST, b'[{"name": "m"}]'),
    # float() would take JSON true as 1.0; a bool is no sample number.
    ("ingest-value-bool", "POST", INGEST, b'[{"name": "m", "value": true}]'),
    ("ingest-timestamp-bool", "POST", INGEST, b'[{"name": "fresh", "value": 1, "timestamp": true}]'),
    ("ingest-name-not-a-string", "POST", INGEST, b'[{"name": 5, "value": 1}]'),
    ("ingest-labels-not-an-object", "POST", INGEST, b'[{"name": "m", "value": 1, "labels": [1]}]'),
    (
        "ingest-bad-value-mid-batch", "POST", INGEST,
        b'[{"name": "m", "value": 2}, {"name": "m", "value": "x"}, {"name": "m", "value": 3}]',
    ),
    # A JSON integer no float can hold.
    ("ingest-value-overflows", "POST", INGEST, b'[{"name": "m", "value": 1' + b"0" * 400 + b"}]"),
    (
        "ingest-timestamp-overflows", "POST", INGEST,
        b'[{"name": "m", "value": 2, "timestamp": 1' + b"0" * 400 + b"}]",
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
    (
        "ingest-out-of-order-across-label-orders", "POST", INGEST,
        b'[{"name": "fresh", "value": 1, "labels": {"a": "1", "b": "2"}, "timestamp": 9.0},'
        b' {"name": "fresh", "value": 2, "labels": {"b": "2", "a": "1"}, "timestamp": 8.0}]',
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
    assert server.store.select("m")[0].value_at(float("inf")) == 1.0


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


#: (case, 200 body) — none is an answer, so ``fetch_answer`` must give
#: no data with the reason and log no traceback.
NOT_AN_ANSWER = [
    ("string-value", b'{"status": "success", "data": {"value": "abc"}}'),
    ("numeric-string-value", b'{"status": "success", "data": {"value": "1e3"}}'),
    # Only Prometheus' own spellings stand for a value that is not finite.
    ("inf-string-value", b'{"status": "success", "data": {"value": "inf"}}'),
    ("infinity-string-value", b'{"status": "success", "data": {"value": "Infinity"}}'),
    ("nan-string-value", b'{"status": "success", "data": {"value": "nan"}}'),
    ("bool-value", b'{"status": "success", "data": {"value": true}}'),
    ("list-value", b'{"status": "success", "data": {"value": [1]}}'),
    ("object-value", b'{"status": "success", "data": {"value": {}}}'),
    ("no-value", b'{"status": "success", "data": {}}'),
    ("missing-data", b'{"status": "success"}'),
    ("list-body", b'[{"status": "success", "data": {"value": 1}}]'),
    ("not-json", b"<html>ok</html>"),
    ("nested-past-the-decoder", b"[" * 100_000 + b"]" * 100_000),
]


def canned_metrics_server(body: bytes) -> HttpServer:
    server = HttpServer(name="canned-metrics")

    async def answer(request):
        return Response(body=body)

    server.router.set_fallback(answer)
    return server


@pytest.mark.parametrize(
    "body", [row[1] for row in NOT_AN_ANSWER], ids=[row[0] for row in NOT_AN_ANSWER]
)
async def test_a_body_that_is_not_an_answer_is_no_data(body, caplog):
    async with canned_metrics_server(body) as server:
        provider = HttpPrometheusProvider(f"http://{server.address}")
        try:
            value, error = await fetch_answer(provider, "up")
        finally:
            await provider.close()
    assert value is None
    assert error
    assert not [record for record in caplog.records if record.exc_info]


@pytest.mark.parametrize(
    "body, value",
    [(b"null", None), (b"3", 3), (b"2.5", 2.5), (b"-0.0", 0.0)],
)
async def test_a_number_or_null_is_the_answer(body, value):
    payload = b'{"status": "success", "data": {"value": %s}}' % body
    async with canned_metrics_server(payload) as server:
        provider = HttpPrometheusProvider(f"http://{server.address}")
        try:
            assert await fetch_answer(provider, "up") == (value, None)
        finally:
            await provider.close()


async def test_a_success_ratio_over_zero_traffic_fails_its_check():
    """0/0 is NaN, not +Inf: a ">0.99" success-ratio check with no traffic
    must not pass."""
    server = MetricsServer(clock=VirtualClock(start=100.0))
    for t in (80.0, 90.0, 99.0):
        server.store.record("ok_total", 5.0, t)
        server.store.record("all_total", 5.0, t)
    await server.start(scrape=False)
    provider = HttpPrometheusProvider(f"http://{server.address}")
    try:
        value = await provider.query(
            "sum(rate(ok_total[30s])) / sum(rate(all_total[30s]))"
        )
        assert math.isnan(value)
        assert Validator.parse(">0.99").check(value) == 0
    finally:
        await provider.close()
        await server.stop()


#: (query, the provider's value, the body's data.value and vector values):
#: JSON has no number for these, so the server writes Prometheus' strings.
NON_FINITE = [
    ("x / 0", math.inf, "+Inf", ["+Inf", "+Inf"]),
    ("(0 - x) / 0", -math.inf, "-Inf", ["-Inf", "-Inf"]),
    ("0 / 0", math.nan, "NaN", ["NaN"]),
    ("z / 0", math.nan, "NaN", ["NaN"]),
    ("x / y", math.inf, "+Inf", ["+Inf", 3.0]),
]


def strict_json(body: bytes):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(body, parse_constant=refuse)


@pytest.mark.parametrize(
    "query, value, scalar, vector", NON_FINITE, ids=[row[0] for row in NON_FINITE]
)
async def test_a_value_that_is_not_finite_is_still_json(query, value, scalar, vector):
    server = MetricsServer(clock=VirtualClock(start=100.0))
    for instance, x, y in (("a", 2.0, 0.0), ("b", 3.0, 1.0)):
        server.store.record("x", x, 99.0, {"i": instance})
        server.store.record("y", y, 99.0, {"i": instance})
    server.store.record("z", 0.0, 99.0)
    await server.start(scrape=False)
    provider = HttpPrometheusProvider(f"http://{server.address}")
    try:
        async with HttpClient() as client:
            response = await client.get(
                f"http://{server.address}/api/v1/query?query={quote(query)}"
            )
        data = strict_json(response.body)["data"]
        assert data["value"] == scalar
        assert [sample["value"] for sample in data["vector"]] == vector
        answered = await provider.query(query)
    finally:
        await provider.close()
        await server.stop()
    assert answered == value or (math.isnan(answered) and math.isnan(value))
    if math.isnan(value):
        assert Validator.parse("<0.05").check(answered) == 0


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
    assert series.value_at(float("inf")) == 1.0


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
    # Neither sample landed.
    assert list(server.store.select("m")[0].window_arrays(0.0, 99.0)[0]) == [40.0]


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
    assert list(server.store.select("m")[0].window_arrays(0.0, 99.0)[1]) == [1.0, 2.0]


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


async def test_server_query_cache_hit_decodes_nothing(monkeypatch):
    clock = VirtualClock(start=10.0)
    server = MetricsServer(clock=clock)
    server.store = _CountingStore()
    server.store.record("hits", 7.0, 9.0, {"instance": "a"})
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            url = f"http://{server.address}/api/v1/query?query=" + quote("sum(hits)")
            first = await client.get(url)
            calls_after_first = server.store.select_calls

            def refuse(request):
                raise AssertionError("a memo hit decoded the query string")

            monkeypatch.setattr(Request, "query", property(refuse))
            second = await client.get(url)
            calls_after_second = server.store.select_calls
            # Past its stamp the body is evaluated again; the target is
            # still not decoded again.
            await clock.advance(1.0)
            third = await client.get(url)
    finally:
        await server.stop()
    # The memo is keyed on the raw target: a hit neither decodes it nor
    # reaches the store.
    assert first.status == second.status == third.status == 200
    assert second.body == first.body == third.body
    assert calls_after_second == calls_after_first
    assert server.store.select_calls > calls_after_first
    assert (server.query_cache_hits, server.query_cache_misses) == (1, 2)


async def test_server_query_cache_keeps_each_encoding_of_a_query_apart():
    clock = VirtualClock(start=10.0)
    server = MetricsServer(clock=clock)
    server.store.record("hits", 7.0, 9.0, {"instance": "a"})
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            base = f"http://{server.address}/api/v1/query"
            plain = await client.get(f"{base}?query=hits")
            escaped = await client.get(f"{base}?query=%68its")
    finally:
        await server.stop()
    assert plain.status == escaped.status == 200
    assert plain.body == escaped.body
    assert (server.query_cache_hits, server.query_cache_misses) == (0, 2)


@pytest.mark.parametrize(
    "target",
    ["/api/v1/query", "/api/v1/query?query=", "/api/v1/query?query=" + quote("sum(((")],
    ids=["missing", "empty", "unparseable"],
)
async def test_server_query_cache_never_serves_a_400(target):
    server = MetricsServer(clock=VirtualClock(start=10.0))
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            url = f"http://{server.address}{target}"
            statuses = [(await client.get(url)).status for _ in range(2)]
    finally:
        await server.stop()
    assert statuses == [400, 400]
    assert server.query_cache_hits == 0
    assert server._targets == {} and server._bodies == {}


async def test_a_target_starting_with_two_slashes_is_not_the_query_api():
    # RFC 7230 §5.3.1: in origin form "//evil/api/v1/query" is the path;
    # "evil" is no authority to strip.
    server = MetricsServer(clock=VirtualClock(start=10.0))
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.get(
                f"http://{server.address}//evil/api/v1/query?query=up"
            )
    finally:
        await server.stop()
    assert response.status == 404
    assert server.query_cache_misses == 0


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
            }
            assert {"hits", "misses"} <= set(caches["histogram_layout"])
            assert "plan_shared_nodes" in payload
            assert "plan_evaluations_saved" in payload
    finally:
        await server.stop()


async def test_metrics_server_scrapes_own_cache_gauges():
    from tests.metrics.exposition_reference import parse_exposition

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
