"""End-to-end proxy tests: real upstream servers behind a BifrostProxy."""

import asyncio

from repro.core import (
    RoutingConfig,
    ShadowRoute,
    TrafficSplit,
    ab_split,
    canary_split,
    single_version,
)
from repro.httpcore import HttpClient, HttpServer, Response
from repro.proxy import BifrostProxy


class EchoVersion(HttpServer):
    """Upstream that reports which version it is."""

    def __init__(self, version: str):
        super().__init__(name=version)
        self.version = version
        self.seen_requests = []

        async def handler(request):
            self.seen_requests.append(request)
            return Response.from_json(
                {"version": self.version, "path": request.path}
            )

        self.router.set_fallback(handler)


async def proxy_setup(*versions: str):
    upstreams = {name: EchoVersion(name) for name in versions}
    for upstream in upstreams.values():
        await upstream.start()
    proxy = BifrostProxy("product", default_upstream=upstreams[versions[0]].address)
    await proxy.start()
    client = HttpClient()
    endpoints = {name: server.address for name, server in upstreams.items()}
    return proxy, upstreams, endpoints, client


async def teardown(proxy, upstreams, client):
    await client.close()
    await proxy.stop()
    for upstream in upstreams.values():
        await upstream.stop()


async def test_unconfigured_proxy_uses_default_upstream():
    proxy, upstreams, endpoints, client = await proxy_setup("stable")
    try:
        response = await client.get(f"http://{proxy.address}/items")
        assert response.json()["version"] == "stable"
        assert response.headers.get("X-Bifrost-Version") == "default"
    finally:
        await teardown(proxy, upstreams, client)


async def test_single_version_routing():
    proxy, upstreams, endpoints, client = await proxy_setup("stable", "canary")
    try:
        proxy.apply_config(single_version("canary"), endpoints)
        response = await client.get(f"http://{proxy.address}/items")
        assert response.json()["version"] == "canary"
        assert response.headers.get("X-Bifrost-Version") == "canary"
    finally:
        await teardown(proxy, upstreams, client)


async def test_split_routing_distribution():
    proxy, upstreams, endpoints, client = await proxy_setup("stable", "canary")
    try:
        proxy.apply_config(canary_split("stable", "canary", 30.0), endpoints)
        # Each request without a cookie is a new client.
        versions = []
        for _ in range(300):
            response = await client.get(f"http://{proxy.address}/x")
            versions.append(response.json()["version"])
        canary_share = versions.count("canary") / len(versions)
        assert 0.2 < canary_share < 0.4
    finally:
        await teardown(proxy, upstreams, client)


async def test_cookie_issued_and_respected():
    proxy, upstreams, endpoints, client = await proxy_setup("a", "b")
    try:
        proxy.apply_config(ab_split("a", "b"), endpoints)
        first = await client.get(f"http://{proxy.address}/x")
        set_cookie = first.headers.get("Set-Cookie")
        assert set_cookie and "bifrost_client=" in set_cookie
        cookie_pair = set_cookie.split(";")[0]
        first_version = first.json()["version"]
        # Same cookie -> same version, no new Set-Cookie.
        for _ in range(5):
            again = await client.get(
                f"http://{proxy.address}/x", headers={"Cookie": cookie_pair}
            )
            assert again.json()["version"] == first_version
            assert again.headers.get("Set-Cookie") is None
    finally:
        await teardown(proxy, upstreams, client)


async def test_client_uuid_propagated_upstream():
    proxy, upstreams, endpoints, client = await proxy_setup("a")
    try:
        proxy.apply_config(single_version("a"), endpoints)
        await client.get(f"http://{proxy.address}/x")
        request = upstreams["a"].seen_requests[-1]
        assert "bifrost_client" in request.cookies
    finally:
        await teardown(proxy, upstreams, client)


async def test_header_based_routing():
    from repro.core import FilterKind

    proxy, upstreams, endpoints, client = await proxy_setup("a", "b")
    try:
        config = RoutingConfig(
            splits=[TrafficSplit("a", 50.0), TrafficSplit("b", 50.0)],
            filter_kind=FilterKind.HEADER,
            header_name="X-Bifrost-Group",
        )
        proxy.apply_config(config, endpoints)
        response = await client.get(
            f"http://{proxy.address}/x", headers={"X-Bifrost-Group": "b"}
        )
        assert response.json()["version"] == "b"
        response = await client.get(f"http://{proxy.address}/x")
        assert response.json()["version"] == "a"
    finally:
        await teardown(proxy, upstreams, client)


async def test_dark_launch_duplicates_traffic():
    proxy, upstreams, endpoints, client = await proxy_setup("stable", "shadow")
    try:
        config = RoutingConfig(
            splits=[TrafficSplit("stable", 100.0)],
            shadows=[ShadowRoute("stable", "shadow", 100.0)],
        )
        proxy.apply_config(config, endpoints)
        for _ in range(10):
            response = await client.get(f"http://{proxy.address}/x")
            # The user always sees the primary version's response.
            assert response.json()["version"] == "stable"
        await proxy.shadower.drain()
        assert len(upstreams["shadow"].seen_requests) == 10
        assert len(upstreams["stable"].seen_requests) == 10
        shadow_request = upstreams["shadow"].seen_requests[0]
        assert shadow_request.headers.get("X-Bifrost-Shadow") == "true"
    finally:
        await teardown(proxy, upstreams, client)


async def test_shadow_failure_does_not_affect_user():
    proxy, upstreams, endpoints, client = await proxy_setup("stable")
    try:
        endpoints = dict(endpoints)
        endpoints["dead"] = "127.0.0.1:1"
        config = RoutingConfig(
            splits=[TrafficSplit("stable", 100.0)],
            shadows=[ShadowRoute("stable", "dead", 100.0)],
        )
        proxy.apply_config(config, endpoints)
        response = await client.get(f"http://{proxy.address}/x")
        assert response.status == 200
        await proxy.shadower.drain()
        assert proxy.shadower.failed == 1
    finally:
        await teardown(proxy, upstreams, client)


async def test_post_bodies_forwarded_both_ways():
    proxy, upstreams, endpoints, client = await proxy_setup("stable", "shadow")
    try:
        config = RoutingConfig(
            splits=[TrafficSplit("stable", 100.0)],
            shadows=[ShadowRoute("stable", "shadow", 100.0)],
        )
        proxy.apply_config(config, endpoints)
        await client.post(f"http://{proxy.address}/buy", json_body={"item": "tv"})
        await proxy.shadower.drain()
        assert upstreams["stable"].seen_requests[-1].json() == {"item": "tv"}
        assert upstreams["shadow"].seen_requests[-1].json() == {"item": "tv"}
    finally:
        await teardown(proxy, upstreams, client)


async def test_dead_upstream_returns_502():
    proxy, upstreams, endpoints, client = await proxy_setup("stable")
    try:
        proxy.apply_config(single_version("stable"), {"stable": "127.0.0.1:1"})
        response = await client.get(f"http://{proxy.address}/x")
        assert response.status == 502
        assert proxy.upstream_errors == 1
    finally:
        await teardown(proxy, upstreams, client)


async def test_admin_config_api_round_trip():
    proxy, upstreams, endpoints, client = await proxy_setup("stable", "canary")
    try:
        payload = {
            "routing": canary_split("stable", "canary", 5.0).to_wire(),
            "endpoints": endpoints,
        }
        response = await client.put(
            f"http://{proxy.address}/bifrost/config", json_body=payload
        )
        assert response.status == 200
        assert response.json()["config_version"] == 1
        response = await client.get(f"http://{proxy.address}/bifrost/config")
        body = response.json()
        assert body["active"]
        assert body["config_version"] == 1
        assert body["routing"]["splits"][1]["percentage"] == 5.0
        response = await client.delete(f"http://{proxy.address}/bifrost/config")
        assert response.json()["active"] is False
        assert response.json()["config_version"] == 2
        response = await client.get(f"http://{proxy.address}/bifrost/config")
        assert response.json()["active"] is False
        assert response.json()["config_version"] == 2
    finally:
        await teardown(proxy, upstreams, client)


async def test_admin_rejects_invalid_config():
    proxy, upstreams, endpoints, client = await proxy_setup("stable")
    try:
        response = await client.put(
            f"http://{proxy.address}/bifrost/config",
            json_body={"routing": {"splits": [{"version": "x", "percentage": 50}]}},
        )
        assert response.status == 400
        # Config referencing a version without an endpoint is rejected too.
        response = await client.put(
            f"http://{proxy.address}/bifrost/config",
            json_body={
                "routing": {"splits": [{"version": "x", "percentage": 100}]},
                "endpoints": {},
            },
        )
        assert response.status == 400
        assert proxy.config_version == 0
        assert proxy.active_config is None
    finally:
        await teardown(proxy, upstreams, client)


async def test_stats_endpoint():
    proxy, upstreams, endpoints, client = await proxy_setup("stable")
    try:
        proxy.apply_config(single_version("stable"), endpoints)
        for _ in range(3):
            await client.get(f"http://{proxy.address}/x")
        response = await client.get(f"http://{proxy.address}/bifrost/stats")
        stats = response.json()
        assert stats["forwarded"] == {"stable": 3}
        assert stats["shadow_sent"] == 0
    finally:
        await teardown(proxy, upstreams, client)


async def test_health_endpoint():
    proxy, upstreams, endpoints, client = await proxy_setup("stable")
    try:
        response = await client.get(f"http://{proxy.address}/bifrost/healthz")
        payload = response.json()
        assert payload["status"] == "up"
        assert payload["service"] == "product"
        caches = payload["caches"]
        # The proxy compiles no query: the metrics server reports that cache.
        assert set(caches) == {"sticky", "shadow"}
        assert caches["sticky"] == {
            "size": 0, "capacity": proxy.sticky_store.capacity, "evictions": 0
        }
        assert caches["shadow"]["max_pending"] == proxy.shadower.max_pending
    finally:
        await teardown(proxy, upstreams, client)


async def test_multi_instance_version_round_robins():
    """A version backed by several instances is balanced round-robin."""
    proxy, upstreams, endpoints, client = await proxy_setup("i1", "i2")
    try:
        multi = {"pooled": [upstreams["i1"].address, upstreams["i2"].address]}
        proxy.apply_config(single_version("pooled"), multi)
        served = []
        for _ in range(6):
            response = await client.get(f"http://{proxy.address}/x")
            served.append(response.json()["version"])
        assert served.count("i1") == 3
        assert served.count("i2") == 3
        # All were accounted to the *version*, not the instances.
        assert proxy.forwarded == {"pooled": 6}
    finally:
        await teardown(proxy, upstreams, client)


async def test_multi_instance_via_admin_api():
    proxy, upstreams, endpoints, client = await proxy_setup("i1", "i2")
    try:
        payload = {
            "routing": single_version("pooled").to_wire(),
            "endpoints": {
                "pooled": [upstreams["i1"].address, upstreams["i2"].address]
            },
        }
        response = await client.put(
            f"http://{proxy.address}/bifrost/config", json_body=payload
        )
        assert response.status == 200
        versions = {
            (await client.get(f"http://{proxy.address}/x")).json()["version"]
            for _ in range(4)
        }
        assert versions == {"i1", "i2"}
    finally:
        await teardown(proxy, upstreams, client)


async def test_empty_instance_list_rejected():
    proxy, upstreams, endpoints, client = await proxy_setup("a")
    try:
        import pytest

        from repro.core import RoutingError

        with pytest.raises(RoutingError):
            proxy.apply_config(single_version("v"), {"v": []})
    finally:
        await teardown(proxy, upstreams, client)


async def test_proxy_exposes_own_metrics():
    proxy, upstreams, endpoints, client = await proxy_setup("stable", "shadow")
    try:
        config = RoutingConfig(
            splits=[TrafficSplit("stable", 100.0)],
            shadows=[ShadowRoute("stable", "shadow", 100.0)],
        )
        proxy.apply_config(config, endpoints)
        for _ in range(3):
            await client.get(f"http://{proxy.address}/x")
        await proxy.shadower.drain()
        response = await client.get(f"http://{proxy.address}/metrics")
        text = response.body.decode()
        assert 'proxy_requests_total{version="stable"} 3' in text
        assert "proxy_shadow_requests_total 3" in text
        assert "proxy_forward_seconds_count 3" in text
        assert "proxy_sticky_sessions" in text
    finally:
        await teardown(proxy, upstreams, client)


async def test_sticky_store_shared_across_config_changes():
    """Regression: the proxy's (initially empty) sticky store must be the
    one the filter chain writes to, and assignments must survive a
    reconfiguration — otherwise A/B stickiness breaks on phase changes."""
    proxy, upstreams, endpoints, client = await proxy_setup("a", "b")
    try:
        proxy.apply_config(ab_split("a", "b"), endpoints)
        first = await client.get(f"http://{proxy.address}/x")
        cookie = first.headers.get("Set-Cookie").split(";")[0]
        version = first.json()["version"]
        assert len(proxy.sticky_store) == 1
        # Reconfigure with skewed percentages; the client must stay put.
        proxy.apply_config(
            RoutingConfig(
                splits=[TrafficSplit("a", 1.0), TrafficSplit("b", 99.0)],
                sticky=True,
            ),
            endpoints,
        )
        again = await client.get(
            f"http://{proxy.address}/x", headers={"Cookie": cookie}
        )
        assert again.json()["version"] == version
    finally:
        await teardown(proxy, upstreams, client)


async def test_concurrent_proxying():
    proxy, upstreams, endpoints, client = await proxy_setup("a", "b")
    try:
        proxy.apply_config(canary_split("a", "b", 50.0), endpoints)
        responses = await asyncio.gather(
            *[client.get(f"http://{proxy.address}/x") for _ in range(50)]
        )
        assert all(r.status == 200 for r in responses)
        total = sum(proxy.forwarded.values())
        assert total == 50
    finally:
        await teardown(proxy, upstreams, client)


async def test_connection_nominated_headers_stripped():
    """RFC 7230 section 6.1: headers listed in ``Connection`` are hop-by-hop
    and must not be forwarded, in addition to the static set."""
    proxy, upstreams, endpoints, client = await proxy_setup("stable")
    try:
        proxy.apply_config(single_version("stable"), endpoints)
        await client.get(
            f"http://{proxy.address}/x",
            headers={
                "Connection": "X-Internal-Token, Keep-Alive",
                "X-Internal-Token": "secret",
                "Keep-Alive": "timeout=5",
                "X-App": "kept",
            },
        )
        seen = upstreams["stable"].seen_requests[-1]
        assert seen.headers.get("Connection") is None
        assert seen.headers.get("X-Internal-Token") is None
        assert seen.headers.get("Keep-Alive") is None
        assert seen.headers.get("X-App") == "kept"
    finally:
        await teardown(proxy, upstreams, client)


async def test_sticky_store_bounded_at_proxy_level():
    """More distinct clients than sticky_capacity must evict, not grow."""
    upstream = EchoVersion("a")
    await upstream.start()
    proxy = BifrostProxy(
        "product", default_upstream=upstream.address, sticky_capacity=10
    )
    await proxy.start()
    client = HttpClient()
    try:
        config = RoutingConfig(splits=[TrafficSplit("a", 100.0)], sticky=True)
        proxy.apply_config(config, {"a": upstream.address})
        for i in range(25):
            await client.get(
                f"http://{proxy.address}/x",
                headers={"Cookie": f"bifrost_client=client-{i}"},
            )
        assert len(proxy.sticky_store) == 10
        assert proxy.sticky_store.evictions == 15
        stats = (await client.get(f"http://{proxy.address}/bifrost/stats")).json()
        assert stats["sticky_sessions"] == 10
        assert stats["sticky_evictions"] == 15
    finally:
        await teardown(proxy, {"a": upstream}, client)


async def test_metrics_scrape_exposes_backpressure_counters():
    from tests.metrics.exposition_reference import parse_exposition

    proxy, upstreams, endpoints, client = await proxy_setup("stable")
    try:
        proxy.apply_config(single_version("stable"), endpoints)
        await client.get(f"http://{proxy.address}/x")
        response = await client.get(f"http://{proxy.address}/metrics")
        names = {point.name for point in parse_exposition(response.body.decode())}
        assert "proxy_shadow_dropped_total" in names
        assert "proxy_sticky_evictions_total" in names
        assert "proxy_requests_total" in names
    finally:
        await teardown(proxy, upstreams, client)
