"""Circuit-breaker state surfaced on /healthz (proxy, metrics)."""

from repro.clock import VirtualClock
from repro.httpcore import HttpClient
from repro.metrics import MetricsServer
from repro.proxy import BifrostProxy
from repro.resilience import BreakerState, CircuitBreaker


def tripped_breaker(clock):
    breaker = CircuitBreaker(clock, window=4, min_calls=2, cooldown=60.0)
    breaker.record_failure()
    breaker.record_failure()
    return breaker


async def test_proxy_healthz_reports_breakers():
    clock = VirtualClock()
    proxy = BifrostProxy("svc", default_upstream="127.0.0.1:1")
    proxy.register_breaker("provider:prometheus", tripped_breaker(clock))
    await proxy.start()
    try:
        async with HttpClient() as client:
            response = await client.get(
                f"http://{proxy.address}/bifrost/healthz"
            )
        body = response.json()
        snapshot = body["breakers"]["provider:prometheus"]
        assert snapshot["state"] == BreakerState.OPEN.value
        assert snapshot["forced"] is False
        assert snapshot["transitions_total"] == 1
        assert snapshot["transitions"] == {"closed": 0, "open": 1, "half_open": 0}
        assert snapshot["failure_fraction"] == 1.0
    finally:
        await proxy.stop()


async def test_metrics_server_healthz_reports_breakers():
    server = MetricsServer()
    server.register_breaker("scrape:cadvisor", tripped_breaker(server.clock))
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            response = await client.get(f"http://{server.address}/healthz")
        body = response.json()
        assert body["breakers"]["scrape:cadvisor"]["state"] == "open"
        assert body["breakers"]["scrape:cadvisor"]["transitions_total"] == 1
    finally:
        await server.stop()


async def test_healthz_breakers_empty_by_default():
    proxy = BifrostProxy("svc", default_upstream="127.0.0.1:1")
    await proxy.start()
    try:
        async with HttpClient() as client:
            response = await client.get(
                f"http://{proxy.address}/bifrost/healthz"
            )
        assert response.json()["breakers"] == {}
    finally:
        await proxy.stop()
