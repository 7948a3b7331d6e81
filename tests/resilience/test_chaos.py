"""Chaos campaigns: target grammar, enactment, game days, abort paths."""

import asyncio

import pytest

from repro.clock import VirtualClock
from repro.core import (
    EventKind,
    RecordingController,
    StrategyBuilder,
    canary_split,
    simple_basic_check,
    single_version,
)
from repro.core.engine import Engine, ExecutionStatus
from repro.metrics import StaticProvider
from repro.metrics.provider import LocalPrometheusProvider
from repro.metrics.store import MetricStore
from repro.proxy import BifrostProxy
from repro.resilience import (
    BreakerState,
    ChaosCampaign,
    ChaosError,
    CircuitBreaker,
    FaultSpec,
    FaultyUpstream,
    ResilientProvider,
    parse_target,
    run_game_day,
)


def canary_strategy(check_validator="< 50", interval=5.0, repetitions=3):
    builder = StrategyBuilder("chaos-test")
    builder.service("svc", {"v1": "127.0.0.1:8081", "v2": "127.0.0.1:8082"})
    builder.state("canary").route("svc", canary_split("v1", "v2", 10.0)).check(
        simple_basic_check(
            "errors_ok",
            "errors_total",
            check_validator,
            interval,
            repetitions,
            provider="prometheus",
        )
    ).transitions([0.5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("v2")).final()
    builder.state("rollback").route("svc", single_version("v1")).final(
        rollback=True
    )
    return builder.build()


def steady_check(interval=4.0, repetitions=2):
    return simple_basic_check(
        "steady_errors", "errors_total", "< 50", interval, repetitions,
        provider="prometheus",
    )


def campaign(specs, steady=None, seed=7):
    return ChaosCampaign(
        name="test-chaos",
        specs=specs,
        steady_state=steady if steady is not None else [steady_check()],
        seed=seed,
    )


def engine_with_metrics(value=3.0):
    clock = VirtualClock()
    store = MetricStore()
    for second in range(0, 600, 2):
        store.record("errors_total", value, float(second))
    engine = Engine(controller=RecordingController(), clock=clock)
    engine.register_provider("prometheus", LocalPrometheusProvider(store, clock))
    return engine, clock, store


# -- target grammar ---------------------------------------------------------


def test_parse_target_grammar():
    assert parse_target("provider:prometheus") == ("provider", "prometheus")
    assert parse_target("controller") == ("controller", "")
    assert parse_target("upstream:search") == ("upstream", "search")
    assert parse_target("endpoint:search/v2") == ("endpoint", "search/v2")
    # Breaker labels may themselves contain colons.
    assert parse_target("breaker:provider:prometheus") == (
        "breaker",
        "provider:prometheus",
    )


@pytest.mark.parametrize(
    "bad",
    ["", "provider:", "controller:extra", "endpoint:search", "widget:x"],
)
def test_parse_target_rejects_malformed(bad):
    with pytest.raises(ChaosError):
        parse_target(bad)


def test_fault_spec_validation():
    with pytest.raises(ChaosError):
        FaultSpec(name="f", target="provider:p", mode="explode", phases=("a",))
    with pytest.raises(ChaosError):
        FaultSpec(name="f", target="provider:p", rate=1.5, phases=("a",))
    with pytest.raises(ChaosError):
        # 'open' only makes sense for breaker targets.
        FaultSpec(name="f", target="provider:p", mode="open", phases=("a",))
    with pytest.raises(ChaosError):
        # latency mode needs a positive latency.
        FaultSpec(name="f", target="provider:p", mode="latency", phases=("a",))


def test_campaign_validate_against_strategy():
    strategy = canary_strategy()
    spec = FaultSpec(name="f", target="provider:p", phases=("canary",))
    campaign([spec]).validate(strategy)  # fine
    with pytest.raises(ChaosError, match="unknown phase"):
        campaign(
            [FaultSpec(name="f", target="provider:p", phases=("warp",))]
        ).validate(strategy)
    with pytest.raises(ChaosError, match="no steady-state"):
        campaign([spec], steady=[]).validate(strategy)
    with pytest.raises(ChaosError, match="duplicate"):
        campaign([spec, spec]).validate(strategy)
    with pytest.raises(ChaosError, match="not scoped"):
        campaign(
            [FaultSpec(name="f", target="provider:p", phases=())]
        ).validate(strategy)


# -- game days under the virtual clock --------------------------------------


async def test_latency_chaos_campaign_completes():
    """Latency faults slow checks down but the rollout still lands."""
    engine, clock, _store = engine_with_metrics()
    spec = FaultSpec(
        name="slow-metrics",
        target="provider:prometheus",
        mode="latency",
        latency=1.5,
        rate=0.5,
        phases=("canary",),
    )
    report = await run_game_day(canary_strategy(), campaign([spec]), engine)
    assert report.status == "completed"
    assert report.execution.path == ["canary", "done"]
    assert report.injections and not report.aborted
    await engine.shutdown()
    assert clock.pending_sleepers == 0
    assert engine.scheduler.pending_checks == 0


async def test_faults_fire_only_during_declared_phase():
    """CHAOS_INJECTED events all land inside the armed phase window."""
    engine, clock, _store = engine_with_metrics()
    spec = FaultSpec(
        name="slow-metrics",
        target="provider:prometheus",
        mode="latency",
        latency=0.5,
        rate=1.0,
        phases=("canary",),
    )
    await run_game_day(canary_strategy(), campaign([spec]), engine)
    kinds = [event.kind for event in engine.bus.history]
    armed = kinds.index(EventKind.CHAOS_ARMED)
    disarmed = kinds.index(EventKind.CHAOS_DISARMED)
    injected = [
        index
        for index, kind in enumerate(kinds)
        if kind is EventKind.CHAOS_INJECTED
    ]
    assert injected, "no injections recorded"
    assert all(armed < index < disarmed for index in injected)
    await engine.shutdown()


async def test_steady_state_violation_aborts_and_restores_safe_routing():
    """The acceptance path: outage -> hypothesis falsified -> abort ->
    safe routing lands the touched service back on stable."""
    engine, clock, _store = engine_with_metrics()
    spec = FaultSpec(
        name="metrics-outage",
        target="provider:prometheus",
        mode="error",
        rate=0.4,
        phases=("canary",),
    )
    report = await run_game_day(canary_strategy(), campaign([spec]), engine)
    assert report.aborted
    assert report.violations and report.violations[0]["check"] == "steady_errors"
    assert report.execution.status is ExecutionStatus.FAILED
    kinds = [event.kind for event in engine.bus.history]
    for kind in (
        EventKind.CHAOS_CAMPAIGN_STARTED,
        EventKind.CHAOS_ARMED,
        EventKind.CHAOS_INJECTED,
        EventKind.CHAOS_STEADY_STATE_VIOLATED,
        EventKind.CHAOS_ABORTED,
        EventKind.SAFE_ROUTING_APPLIED,
        EventKind.CHAOS_CAMPAIGN_FINISHED,
    ):
        assert kind in kinds, f"missing {kind}"
    # The violation disarms before recovery, so the safe-routing apply
    # ran un-faulted and the service ended on the stable version.
    assert engine.controller.latest_for("svc") == single_version("v1")
    await engine.shutdown()
    assert clock.pending_sleepers == 0
    assert engine.scheduler.pending_checks == 0


async def test_fetch_parked_by_a_fault_is_not_joined_after_disarm():
    """A hang armed in one phase parks the steady-state check's fetch.  A
    check of the next phase, where the fault is disarmed, asks the same
    query: it must make its own un-faulted call, not wait on the parked
    one for the rest of the campaign."""
    engine, clock, _store = engine_with_metrics()
    engine.register_provider("aux", StaticProvider({"ready": 1.0}))
    builder = StrategyBuilder("chaos-phases")
    builder.service("svc", {"v1": "127.0.0.1:8081", "v2": "127.0.0.1:8082"})
    builder.state("probe").route("svc", canary_split("v1", "v2", 10.0)).check(
        simple_basic_check("ready", "ready", "> 0", 10.0, 1, provider="aux")
    ).transitions([0.5], ["rollback", "verify"])
    builder.state("verify").route("svc", canary_split("v1", "v2", 50.0)).check(
        simple_basic_check("errors_ok", "errors_total", "< 50", 2.0, 2)
    ).transitions([0.5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("v2")).final()
    builder.state("rollback").route("svc", single_version("v1")).final(
        rollback=True
    )
    spec = FaultSpec(
        name="hang-metrics",
        target="provider:prometheus",
        mode="hang",
        phases=("probe",),
    )
    # The hypothesis asks errors_total during probe, and its call hangs
    # (lint's BF605 flags exactly that, so it is waved through here).
    report = await run_game_day(
        builder.build(),
        campaign([spec], steady=[steady_check(4.0, 2)]),
        engine,
        allow_findings=True,
        drive_limit=200,
    )
    assert report.status == "completed"
    assert report.execution.path == ["probe", "verify", "done"]
    assert [(i.fault, i.at) for i in report.injections] == [("HangFault", 4.0)]
    # verify's two ticks at 12 and 14 saw no injected delay.
    assert clock.now() <= 15.0
    await engine.shutdown()
    assert clock.pending_sleepers == 0
    assert engine.scheduler.pending_checks == 0


async def test_game_day_is_deterministic_per_seed():
    async def trace(seed):
        engine, _clock, _store = engine_with_metrics()
        spec = FaultSpec(
            name="outage",
            target="provider:prometheus",
            mode="error",
            rate=0.4,
            phases=("canary",),
        )
        report = await run_game_day(
            canary_strategy(), campaign([spec], seed=seed), engine
        )
        await engine.shutdown()
        return [(i.spec, i.call_index, i.fault, i.at) for i in report.injections]

    assert await trace(7) == await trace(7)
    assert await trace(7) != await trace(8)


async def test_controller_fault_fails_execution_but_recovers_routing():
    engine, clock, _store = engine_with_metrics()
    spec = FaultSpec(
        name="flaky-control-plane",
        target="controller",
        mode="error",
        rate=1.0,
        phases=("canary",),
    )
    report = await run_game_day(canary_strategy(), campaign([spec]), engine)
    assert report.status == "failed"
    # A rate-1.0 control-plane outage is total: even the safe-routing
    # recovery attempt faults, and the engine says so instead of
    # pretending the rollback landed.
    kinds = [event.kind for event in engine.bus.history]
    assert EventKind.SAFE_ROUTING_FAILED in kinds
    # The campaign still tore down cleanly: the wrapper is gone.
    assert isinstance(engine.controller, RecordingController)
    await engine.shutdown()


async def test_breaker_fault_forces_open_then_restores():
    engine, clock, _store = engine_with_metrics()
    breaker = CircuitBreaker(clock, window=8, min_calls=3, cooldown=30.0)
    inner = engine.providers["prometheus"]
    engine.register_provider(
        "prometheus", ResilientProvider(inner, clock, bus=engine.bus, breaker=breaker)
    )
    spec = FaultSpec(
        name="trip-breaker",
        target="breaker:provider:prometheus",
        mode="open",
        phases=("canary",),
    )
    # Tolerant hypothesis: the campaign itself should survive the forcing.
    report = await run_game_day(
        canary_strategy(), campaign([spec], steady=[steady_check(20.0, 40)]), engine
    )
    assert any(
        old is BreakerState.CLOSED and new is BreakerState.OPEN
        for _at, old, new in breaker.transitions
    )
    # Torn down: unforced and CLOSED again, whatever the outcome was.
    assert not breaker.forced
    assert breaker.state is BreakerState.CLOSED
    assert report.status in ("completed", "rolled_back", "failed")
    await engine.shutdown()


async def test_unbound_targets_are_tolerated_and_reported():
    engine, _clock, _store = engine_with_metrics()
    specs = [
        FaultSpec(
            name="ghost-upstream", target="upstream:svc", phases=("canary",)
        ),
        FaultSpec(
            name="ghost-breaker",
            target="breaker:nope",
            mode="open",
            phases=("canary",),
        ),
    ]
    report = await run_game_day(canary_strategy(), campaign(specs), engine)
    assert set(report.unbound_targets) == {"upstream:svc", "breaker:nope"}
    assert report.status in ("completed", "rolled_back")
    await engine.shutdown()


# -- the upstream shim ------------------------------------------------------


class _ScriptedClient:
    def __init__(self):
        self.sent = []

    async def send(self, request, host, port, timeout=None, stream=False):
        self.sent.append((host, port))
        return "ok"

    async def close(self):
        pass


async def test_faulty_upstream_injects_and_filters_endpoints():
    from repro.resilience import ErrorFault, FaultSchedule

    clock = VirtualClock()
    inner = _ScriptedClient()
    shim = FaultyUpstream(
        inner,
        FaultSchedule.always(),
        clock,
        endpoints=frozenset({"10.0.0.2:80"}),
    )
    # Non-matching endpoint: passes straight through.
    assert await shim.send(None, "10.0.0.1", 80) == "ok"
    # Matching endpoint: the default ErrorFault surfaces as the
    # connection-level failure the proxy data plane turns into a 502.
    with pytest.raises(ConnectionError):
        await shim.send(None, "10.0.0.2", 80)
    assert inner.sent == [("10.0.0.1", 80)]
    assert [index for index, _fault in shim.injected] == [2]


async def test_chaos_binds_and_restores_proxy_upstream_client():
    engine, _clock, _store = engine_with_metrics()
    proxy = BifrostProxy("svc", default_upstream="127.0.0.1:1")
    original = proxy._client
    spec = FaultSpec(name="kill-upstream", target="upstream:svc", phases=("canary",))
    report = await run_game_day(
        canary_strategy(),
        campaign([spec]),
        engine,
        proxies={"svc": proxy},
    )
    assert report.unbound_targets == []
    # Torn down: the shim is gone, the original client is back.
    assert proxy._client is original
    await engine.shutdown()
