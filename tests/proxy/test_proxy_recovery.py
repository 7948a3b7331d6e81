"""Safe-routing recovery against one BifrostProxy.

After an abort, a cancellation or a normal finish, the proxy must hold
the expected config, and ``config_version`` must count every push the
engine made — nothing left serving the abandoned canary split.
"""

import asyncio

from repro.clock import VirtualClock
from repro.core import (
    EventKind,
    StrategyBuilder,
    canary_split,
    simple_basic_check,
    single_version,
)
from repro.core.engine import Engine
from repro.metrics.provider import LocalPrometheusProvider
from repro.metrics.store import MetricStore
from repro.proxy import BifrostProxy, LocalProxyController
from repro.resilience import ChaosCampaign, FaultSpec, run_game_day


def canary_strategy():
    builder = StrategyBuilder("proxy-recovery")
    builder.service("svc", {"v1": "127.0.0.1:8081", "v2": "127.0.0.1:8082"})
    builder.state("canary").route("svc", canary_split("v1", "v2", 25.0)).check(
        simple_basic_check(
            "errors_ok", "errors_total", "< 50", 5.0, 3, provider="prometheus"
        )
    ).transitions([0.5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("v2")).final()
    builder.state("rollback").route("svc", single_version("v1")).final(
        rollback=True
    )
    return builder.build()


def engine_with_proxy():
    clock = VirtualClock()
    store = MetricStore()
    for second in range(0, 600, 2):
        store.record("errors_total", 3.0, float(second))
    proxy = BifrostProxy("svc", "127.0.0.1:1")
    engine = Engine(controller=LocalProxyController({"svc": proxy}), clock=clock)
    engine.register_provider("prometheus", LocalPrometheusProvider(store, clock))
    return engine, clock, proxy


async def test_cancel_mid_phase_recovers_the_proxy():
    engine, clock, proxy = engine_with_proxy()
    execution_id = engine.enact(canary_strategy())
    await asyncio.sleep(0)
    await clock.advance(2.0)  # mid-canary: the proxy holds the 25% split
    assert proxy.config_version == 1
    assert proxy.active_config == canary_split("v1", "v2", 25.0)
    await engine.cancel(execution_id)
    report = await engine.wait_report(execution_id)
    assert report.status.value == "failed"
    applied = engine.bus.of_kind(EventKind.SAFE_ROUTING_APPLIED)
    assert [event.data["service"] for event in applied] == ["svc"]
    assert proxy.config_version == 2
    assert proxy.active_config == single_version("v1")
    await engine.shutdown()


async def test_chaos_abort_lands_recovery_config_on_the_proxy():
    engine, clock, proxy = engine_with_proxy()
    campaign = ChaosCampaign(
        name="proxy-chaos",
        specs=[
            FaultSpec(
                name="outage",
                target="provider:prometheus",
                mode="error",
                rate=0.6,
                phases=("canary",),
            )
        ],
        steady_state=[
            simple_basic_check(
                "steady", "errors_total", "< 50", 4.0, 2, provider="prometheus"
            )
        ],
        seed=7,
    )
    report = await run_game_day(canary_strategy(), campaign, engine)
    assert report.aborted
    # The canary push, then the recovery push.
    assert proxy.config_version == 2
    assert proxy.active_config == single_version("v1")
    await engine.shutdown()


async def test_completed_strategy_leaves_the_proxy_on_final_routing():
    engine, clock, proxy = engine_with_proxy()
    execution_id = engine.enact(canary_strategy())
    await asyncio.sleep(0)
    task = engine._tasks[execution_id]
    for _ in range(1000):
        if task.done():
            break
        await clock.advance(0.5)
    report = await engine.wait_report(execution_id)
    assert report.status.value == "completed"
    assert proxy.config_version == 2
    assert proxy.active_config == single_version("v2")
    await engine.shutdown()
