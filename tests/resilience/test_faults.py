"""Unit tests for the deterministic fault-injection toolkit."""

import asyncio

import pytest

from repro.clock import VirtualClock
from repro.core import RecordingController, single_version
from repro.metrics import StaticProvider
from repro.metrics.provider import ProviderError
from repro.resilience import (
    ErrorFault,
    FaultSchedule,
    FaultyController,
    FaultyProvider,
    LatencyFault,
)


def test_schedule_every_matches_one_in_n():
    schedule = FaultSchedule.every(3)
    fired = [index for index in range(1, 10) if schedule.fault_for(index, 0.0)]
    assert fired == [3, 6, 9]


def test_schedule_shapes():
    assert FaultSchedule.never().fault_for(1, 0.0) is None
    assert FaultSchedule.always().fault_for(999, 0.0) is not None
    calls = FaultSchedule.calls({2, 5})
    assert [i for i in range(1, 7) if calls.fault_for(i, 0.0)] == [2, 5]
    outage = FaultSchedule.during(10.0, 20.0)
    assert outage.fault_for(1, 9.9) is None
    assert outage.fault_for(1, 10.0) is not None
    assert outage.fault_for(1, 20.0) is None


def test_schedule_first_matching_rule_wins():
    schedule = FaultSchedule()
    schedule.add(lambda index, now: index == 1, ErrorFault("first"))
    schedule.add(lambda index, now: True, ErrorFault("rest"))
    assert schedule.fault_for(1, 0.0).message == "first"
    assert schedule.fault_for(2, 0.0).message == "rest"


async def test_faulty_provider_injects_on_schedule():
    clock = VirtualClock()
    provider = FaultyProvider(
        StaticProvider({"m": 1.0}), FaultSchedule.every(2), clock
    )
    assert await provider.query("m") == 1.0
    with pytest.raises(ProviderError):
        await provider.query("m")
    assert await provider.query("m") == 1.0
    assert provider.calls == 3
    assert [index for index, _ in provider.injected] == [2]


async def test_faulty_provider_can_raise_arbitrary_exception_types():
    provider = FaultyProvider(
        StaticProvider({"m": 1.0}),
        FaultSchedule.always(ErrorFault("refused", ConnectionError)),
        VirtualClock(),
    )
    with pytest.raises(ConnectionError):
        await provider.query("m")


async def test_latency_fault_delays_by_clock_time():
    clock = VirtualClock()
    provider = FaultyProvider(
        StaticProvider({"m": 2.0}),
        FaultSchedule.always(LatencyFault(7.5)),
        clock,
    )
    task = asyncio.ensure_future(provider.query("m"))
    await clock.advance(7.4)
    assert not task.done()
    await clock.advance(0.1)
    assert await task == 2.0


async def test_faulty_controller_defaults_to_runtime_error():
    clock = VirtualClock()
    controller = FaultyController(
        RecordingController(), FaultSchedule.calls({1}), clock
    )
    with pytest.raises(RuntimeError):
        await controller.apply("svc", single_version("stable"), {"stable": "h:1"})
    await controller.apply("svc", single_version("stable"), {"stable": "h:1"})
    assert controller.calls == 2


async def test_outage_window_under_virtual_clock_is_deterministic():
    clock = VirtualClock()
    provider = FaultyProvider(
        StaticProvider({"m": 1.0}),
        FaultSchedule.during(5.0, 10.0),
        clock,
    )
    assert await provider.query("m") == 1.0
    await clock.advance(5.0)
    with pytest.raises(ProviderError):
        await provider.query("m")
    await clock.advance(5.0)
    assert await provider.query("m") == 1.0
