"""Unit tests for ResilientProvider."""

import asyncio

import pytest

from repro.clock import VirtualClock
from repro.core import EventBus, EventKind
from repro.metrics import StaticProvider
from repro.metrics.provider import ProviderError
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    ErrorFault,
    FaultSchedule,
    FaultyProvider,
    ResilientProvider,
    RetryPolicy,
    Timeout,
)


async def drive(clock, awaitable, step=1.0, limit=500):
    """Advance the virtual clock until the awaitable resolves."""
    task = asyncio.ensure_future(awaitable)
    for _ in range(limit):
        if task.done():
            break
        await clock.advance(step)
    assert task.done(), "task did not finish within the drive limit"
    return task.result()


def resilient(inner, clock, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(attempts=3, base_delay=1.0, seed=1))
    return ResilientProvider(inner, clock, **kwargs)


async def test_provider_retries_transient_failures():
    clock = VirtualClock()
    flaky = FaultyProvider(
        StaticProvider({"m": 3.0}), FaultSchedule.calls({1, 2}), clock
    )
    bus = EventBus()
    provider = resilient(flaky, clock, bus=bus)
    assert await drive(clock, provider.query("m")) == 3.0
    assert flaky.calls == 3
    retries = bus.of_kind(EventKind.PROVIDER_RETRY)
    assert len(retries) == 2
    assert retries[0].strategy == "provider:static"
    assert retries[0].data["query"] == "m"


async def test_provider_exhausted_retries_raise_provider_error():
    clock = VirtualClock()
    dead = FaultyProvider(StaticProvider({"m": 1.0}), FaultSchedule.always(), clock)
    provider = resilient(dead, clock)
    with pytest.raises(ProviderError):
        await drive(clock, provider.query("m"))
    assert dead.calls == 3


async def test_provider_wraps_unexpected_exception_types():
    clock = VirtualClock()
    weird = FaultyProvider(
        StaticProvider({"m": 1.0}),
        FaultSchedule.always(ErrorFault("refused", ConnectionError)),
        clock,
    )
    provider = resilient(weird, clock)
    with pytest.raises(ProviderError) as excinfo:
        await drive(clock, provider.query("m"))
    assert isinstance(excinfo.value.__cause__, ConnectionError)


async def test_provider_breaker_short_circuits_calls():
    clock = VirtualClock()
    dead = FaultyProvider(StaticProvider({"m": 1.0}), FaultSchedule.always(), clock)
    bus = EventBus()
    breaker = CircuitBreaker(
        clock, window=10, failure_rate=0.5, min_calls=3, cooldown=60.0
    )
    provider = resilient(dead, clock, breaker=breaker, bus=bus)
    with pytest.raises(ProviderError):
        await drive(clock, provider.query("m"))
    assert breaker.state is BreakerState.OPEN
    assert len(bus.of_kind(EventKind.CIRCUIT_OPENED)) == 1
    calls_before = dead.calls
    with pytest.raises(ProviderError):
        await drive(clock, provider.query("m"))
    assert dead.calls == calls_before  # refused without touching the backend


async def test_provider_breaker_recovers_through_half_open():
    clock = VirtualClock()
    # Down for the first 3 calls, healthy afterwards.
    flaky = FaultyProvider(StaticProvider({"m": 9.0}), FaultSchedule.calls({1, 2, 3}), clock)
    bus = EventBus()
    breaker = CircuitBreaker(
        clock, window=10, failure_rate=0.5, min_calls=3, cooldown=30.0
    )
    provider = resilient(flaky, clock, breaker=breaker, bus=bus)
    with pytest.raises(ProviderError):
        await drive(clock, provider.query("m"))
    assert breaker.state is BreakerState.OPEN
    await clock.advance(30.0)  # cool-down elapses
    assert await drive(clock, provider.query("m")) == 9.0
    assert breaker.state is BreakerState.CLOSED
    kinds = [event.kind for event in bus.history]
    assert EventKind.CIRCUIT_HALF_OPEN in kinds
    assert EventKind.CIRCUIT_CLOSED in kinds


async def test_provider_timeout_bounds_hung_backend():
    clock = VirtualClock()

    class Hung(StaticProvider):
        def __init__(self):
            super().__init__({"m": 1.0})
            self.clock = clock

        async def query(self, query):
            await self.clock.sleep(10_000.0)
            return await super().query(query)

    provider = ResilientProvider(
        Hung(),
        clock,
        retry=RetryPolicy(attempts=2, base_delay=1.0, seed=0),
        timeout=Timeout(5.0),
    )
    with pytest.raises(ProviderError):
        await drive(clock, provider.query("m"))

