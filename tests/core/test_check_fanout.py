"""Concurrent fan-out of multi-query conditions.

The reference fetch (``tests/core/fetching.py``) asks a condition's
several metric queries with ``asyncio.gather``, so one execution costs
~max(query latencies) instead of their sum.  Verified against the virtual clock with a provider that sleeps
before answering.
"""

import asyncio

import pytest

from repro.clock import VirtualClock
from repro.core import CheckError, MetricCondition, MetricQuery
from repro.metrics import StaticProvider
from tests.core.fetching import evaluate


class SlowStaticProvider(StaticProvider):
    """A StaticProvider that sleeps (on the given clock) before answering."""

    def __init__(self, values, clock, latencies):
        super().__init__(values)
        self.clock = clock
        self._latencies = latencies

    async def query(self, query: str) -> float | None:
        await self.clock.sleep(self._latencies.get(query, 0.0))
        return await super().query(query)


def _three_query_condition() -> MetricCondition:
    return MetricCondition(
        queries=(
            MetricQuery("a", "qa", "static"),
            MetricQuery("b", "qb", "static"),
            MetricQuery("c", "qc", "static"),
        ),
        predicate=lambda values: all(v is not None for v in values.values()),
    )


async def test_multi_query_condition_completes_in_max_latency():
    clock = VirtualClock()
    provider = SlowStaticProvider(
        {"qa": 1.0, "qb": 2.0, "qc": 3.0},
        clock,
        latencies={"qa": 1.0, "qb": 2.0, "qc": 3.0},
    )
    task = asyncio.create_task(evaluate(_three_query_condition(), {"static": provider}))
    # Strictly less than the slowest query: not done yet.
    await clock.advance(2.5)
    assert not task.done()
    # At max(latencies) = 3.0 all three fetches have resolved.  A
    # sequential fetch loop would need sum(latencies) = 6.0 virtual
    # seconds and three separate advances to get there.
    await clock.advance(0.5)
    assert task.done()
    assert task.result().result == 1
    assert clock.now() == 3.0
    assert sorted(provider.query_log) == ["qa", "qb", "qc"]


async def test_fanout_is_not_sequential_sum():
    clock = VirtualClock()
    provider = SlowStaticProvider(
        {"qa": 1.0, "qb": 1.0, "qc": 1.0},
        clock,
        latencies={"qa": 1.0, "qb": 1.0, "qc": 1.0},
    )
    task = asyncio.create_task(evaluate(_three_query_condition(), {"static": provider}))
    # One advance of the common latency finishes the whole condition:
    # all three sleeps were pending concurrently.
    await clock.advance(1.0)
    assert task.done()
    assert task.result().result == 1


async def test_fanout_missing_provider_raises_before_fetching():
    clock = VirtualClock()
    provider = SlowStaticProvider({"qa": 1.0}, clock, latencies={})
    condition = MetricCondition(
        queries=(MetricQuery("a", "qa", "static"), MetricQuery("b", "qb", "nope")),
        predicate=lambda values: True,
    )
    with pytest.raises(CheckError):
        await evaluate(condition, {"static": provider})
    assert provider.query_log == []  # resolution failed before any fetch


async def test_fanout_provider_error_counts_as_no_data():
    clock = VirtualClock()
    # "qb" has no canned value -> StaticProvider raises ProviderError.
    provider = SlowStaticProvider({"qa": 1.0, "qc": 2.0}, clock, latencies={})
    condition = MetricCondition(
        queries=(
            MetricQuery("a", "qa", "static"),
            MetricQuery("b", "qb", "static"),
            MetricQuery("c", "qc", "static"),
        ),
        predicate=lambda values: values["b"] is None and values["a"] == 1.0,
    )
    assert (await evaluate(condition, {"static": provider})).result == 1
