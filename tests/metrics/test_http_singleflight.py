"""Single-flight batching of concurrent identical HTTP provider queries."""

import asyncio
import json

import pytest

from repro.metrics import HttpPrometheusProvider
from repro.metrics.provider import ProviderError


class FakeResponse:
    def __init__(self, payload, status=200):
        self.status = status
        self.body = json.dumps(payload)

    def json(self):
        return json.loads(self.body)


class CountingClient:
    """Stands in for HttpClient: counts requests, serves canned payloads."""

    def __init__(self, value=42.0, fail=False, delay=0.0):
        self.value = value
        self.fail = fail
        self.delay = delay
        self.requests = []

    async def get(self, url):
        self.requests.append(url)
        if self.delay:
            await asyncio.sleep(self.delay)
        else:
            await asyncio.sleep(0)  # force overlap between concurrent callers
        if self.fail:
            raise ConnectionError("backend down")
        return FakeResponse({"status": "success", "data": {"value": self.value}})

    async def get_pipelined(self, url):
        return await self.get(url)

    async def close(self):
        pass


async def test_concurrent_identical_queries_coalesce_to_one_request():
    client = CountingClient()
    provider = HttpPrometheusProvider("http://metrics:9090", client=client)
    values = await asyncio.gather(*(provider.query("up_metric") for _ in range(10)))
    assert values == [42.0] * 10
    assert len(client.requests) == 1
    assert provider.coalesced == 9


async def test_distinct_queries_do_not_coalesce():
    client = CountingClient()
    provider = HttpPrometheusProvider("http://metrics:9090", client=client)
    await asyncio.gather(provider.query("a"), provider.query("b"))
    assert len(client.requests) == 2
    assert provider.coalesced == 0


async def test_sequential_queries_hit_the_backend_each_time():
    """Single-flight shares *in-flight* requests only — no stale caching."""
    client = CountingClient()
    provider = HttpPrometheusProvider("http://metrics:9090", client=client)
    await provider.query("m")
    await provider.query("m")
    assert len(client.requests) == 2


async def test_leader_failure_propagates_to_all_followers():
    client = CountingClient(fail=True)
    provider = HttpPrometheusProvider("http://metrics:9090", client=client)
    results = await asyncio.gather(
        *(provider.query("m") for _ in range(5)), return_exceptions=True
    )
    assert len(client.requests) == 1
    assert all(isinstance(result, ProviderError) for result in results)


async def test_failure_with_no_followers_does_not_warn(recwarn):
    client = CountingClient(fail=True)
    provider = HttpPrometheusProvider("http://metrics:9090", client=client)
    with pytest.raises(ProviderError):
        await provider.query("m")
    import gc

    gc.collect()
    assert not [w for w in recwarn if "never retrieved" in str(w.message)]


async def test_follower_of_a_cancelled_leader_asks_again():
    client = CountingClient(delay=0.01)
    provider = HttpPrometheusProvider("http://metrics:9090", client=client)
    leader = asyncio.ensure_future(provider.query("m"))
    await asyncio.sleep(0)
    follower = asyncio.ensure_future(provider.query("m"))
    await asyncio.sleep(0)
    leader.cancel()
    assert await follower == 42.0
    assert leader.cancelled()
    assert len(client.requests) <= 2
    # The follower shared no fetch: it asked again on its own.
    assert provider.coalesced == 0


async def test_cancelled_follower_still_raises_cancelled():
    client = CountingClient(delay=0.01)
    provider = HttpPrometheusProvider("http://metrics:9090", client=client)
    leader = asyncio.ensure_future(provider.query("m"))
    await asyncio.sleep(0)
    follower = asyncio.ensure_future(provider.query("m"))
    await asyncio.sleep(0)
    follower.cancel()
    leader.cancel()
    with pytest.raises(asyncio.CancelledError):
        await follower
    assert len(client.requests) == 1
