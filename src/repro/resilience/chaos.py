"""Chaos campaigns: declared fault schedules enacted alongside a strategy.

The paper's thesis is that live testing should be *declared* and enacted
automatically; chaos engineering says the same about failure.  A
:class:`ChaosCampaign` packages both halves:

* :class:`FaultSpec`s — what to break (a metrics provider, the proxy
  controller, a service's upstream path, one version's endpoints, a
  circuit breaker), how (errors, latency, hangs, breaker-forcing), at
  what deterministic seeded rate, and **during which phases** of the
  strategy's automaton.
* ``steady_state`` hypotheses — ordinary metric/exception checks that
  must keep passing while the faults fire.  A violated hypothesis aborts
  the campaign: faults disarm, the enactment is cancelled, and the
  engine's safe-routing recovery drives every touched service back to a
  consistent config.

:class:`ChaosController` is the runtime: attached by the engine before an
enactment starts, it wraps the engine's dependencies in the
``Faulty*`` wrappers from :mod:`repro.resilience.faults`, arms and
disarms each spec on ``STATE_ENTERED`` transitions, publishes ``CHAOS_*``
events into the same bus as the execution, and runs the steady-state
watch on the engine's shared check scheduler.

Determinism: every schedule is derived from ``(campaign.seed,
spec.name)`` via the blake2b-fraction idiom, so a campaign replayed under
a :class:`~repro.clock.VirtualClock` injects on exactly the same call
indices — game days are reproducible test runs, not one-off incidents.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..core.checks import BasicCheck, Check, ExceptionTriggered
from ..core.events import Event, EventKind
from ..metrics.provider import MetricsProvider
from .faults import (
    ErrorFault,
    Fault,
    FaultSchedule,
    FaultScheduleError,
    FaultyController,
    FaultyProvider,
    FaultyUpstream,
    HangFault,
    LatencyFault,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import Engine, ExecutionReport
    from ..core.model import Strategy


class ChaosError(ValueError):
    """A chaos campaign is malformed or cannot bind to its targets."""


#: target kinds a fault spec may name, and whether they take an argument.
TARGET_KINDS = ("provider", "controller", "upstream", "endpoint", "breaker")

#: fault modes; "open" is only meaningful for breaker targets.
FAULT_MODES = ("error", "latency", "hang", "open")


def parse_target(target: str) -> tuple[str, str]:
    """Split ``"kind:name"`` into its parts, validating the kind.

    ``controller`` stands alone; ``breaker`` labels may themselves
    contain colons (e.g. ``breaker:provider:prometheus``), so only the
    first colon splits.
    """
    kind, _, name = target.partition(":")
    if kind not in TARGET_KINDS:
        raise ChaosError(
            f"unknown fault target kind {kind!r} in {target!r}; "
            f"expected one of {', '.join(TARGET_KINDS)}"
        )
    if kind == "controller":
        if name:
            raise ChaosError(
                f"target 'controller' takes no name, got {target!r}"
            )
        return kind, ""
    if not name:
        raise ChaosError(f"fault target {target!r} needs a name after the colon")
    if kind == "endpoint" and "/" not in name:
        raise ChaosError(
            f"endpoint target must be 'endpoint:service/version', got {target!r}"
        )
    return kind, name


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: what to break, how, and during which phases."""

    name: str
    target: str
    mode: str = "error"
    phases: tuple[str, ...] = ()
    rate: float = 1.0
    latency: float = 0.0
    message: str = "chaos: injected fault"

    def __post_init__(self) -> None:
        kind, _ = parse_target(self.target)
        if self.mode not in FAULT_MODES:
            raise ChaosError(
                f"fault {self.name!r}: unknown mode {self.mode!r}; "
                f"expected one of {', '.join(FAULT_MODES)}"
            )
        if (self.mode == "open") != (kind == "breaker"):
            raise ChaosError(
                f"fault {self.name!r}: mode 'open' is required for breaker "
                f"targets and invalid elsewhere (target {self.target!r}, "
                f"mode {self.mode!r})"
            )
        if self.mode == "latency" and self.latency <= 0:
            raise ChaosError(
                f"fault {self.name!r}: latency mode needs latency > 0"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ChaosError(
                f"fault {self.name!r}: rate must be in (0, 1], got {self.rate}"
            )

    @property
    def target_kind(self) -> str:
        return parse_target(self.target)[0]

    @property
    def target_name(self) -> str:
        return parse_target(self.target)[1]

    def build_fault(self) -> Fault | None:
        if self.mode == "error":
            return ErrorFault(self.message)
        if self.mode == "latency":
            return LatencyFault(self.latency)
        if self.mode == "hang":
            return HangFault()
        return None  # breaker-forcing injects no per-call fault

    def build_schedule(self, seed: int) -> FaultSchedule:
        """The spec's deterministic schedule: pure in (seed, spec.name)."""
        fault = self.build_fault()
        if fault is None:
            return FaultSchedule.never()
        return FaultSchedule.seeded(self.rate, seed, key=self.name, fault=fault)


@dataclass
class ChaosCampaign:
    """A named set of fault specs plus steady-state hypotheses."""

    name: str
    specs: list[FaultSpec] = field(default_factory=list)
    steady_state: list[Check] = field(default_factory=list)
    steady_weights: dict[str, int] = field(default_factory=dict)
    seed: int = 0

    def validate(self, strategy: "Strategy") -> None:
        """Campaign ↔ strategy coherence; raises :class:`ChaosError`."""
        automaton = strategy.automaton
        known_states = set(automaton.states) if automaton is not None else set()
        seen: set[str] = set()
        for spec in self.specs:
            if spec.name in seen:
                raise ChaosError(f"duplicate fault name {spec.name!r}")
            seen.add(spec.name)
            if not spec.phases:
                raise ChaosError(
                    f"fault {spec.name!r} is not scoped to any phase"
                )
            for phase in spec.phases:
                if phase not in known_states:
                    raise ChaosError(
                        f"fault {spec.name!r} is scheduled during unknown "
                        f"phase {phase!r}; known: {sorted(known_states)}"
                    )
            kind, name = parse_target(spec.target)
            if kind in ("upstream", "endpoint"):
                service = name.split("/", 1)[0]
                if service not in strategy.services:
                    raise ChaosError(
                        f"fault {spec.name!r} targets unknown service "
                        f"{service!r}"
                    )
                if kind == "endpoint":
                    version = name.split("/", 1)[1]
                    if version not in strategy.services[service].versions:
                        raise ChaosError(
                            f"fault {spec.name!r} targets unknown version "
                            f"{version!r} of service {service!r}"
                        )
        if self.specs and not self.steady_state:
            raise ChaosError(
                f"campaign {self.name!r} declares faults but no steady-state "
                "hypothesis; a game day without a hypothesis is just an outage"
            )


class _Gate:
    """A switchable schedule: delegates to the spec's schedule while armed.

    Duck-types ``FaultSchedule.fault_for`` for the ``Faulty*`` wrappers.
    The call counter keeps advancing while disarmed (the wrapper owns
    it), so arming windows don't shift earlier injections' indices.
    """

    __slots__ = ("schedule", "armed")

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.armed = False

    def fault_for(self, index: int, now: float) -> Fault | None:
        if not self.armed:
            return None
        return self.schedule.fault_for(index, now)


class _ArmingPeriod(MetricsProvider):
    """The face a faulted provider shows the engine for one arming period.

    The check scheduler lets a check join a fetch of the same
    ``(provider, query)`` that is still in flight, telling providers
    apart by identity.  With a fresh face per arming change, a fetch
    that one arming period's faults delayed or parked is a different
    question from the same query asked after the change, so no check
    inherits another period's injected delay or hang.
    """

    def __init__(self, inner: MetricsProvider):
        self.inner = inner
        self.name = inner.name

    async def query(self, query: str) -> float | None:
        return await self.inner.query(query)

    def ask(self, queries):
        return self.inner.ask(queries)

    async def close(self) -> None:
        await self.inner.close()


@dataclass
class _Binding:
    """One spec wired to its live target(s)."""

    spec: FaultSpec
    gate: _Gate
    breakers: list = field(default_factory=list)
    bound: bool = True
    #: The engine provider name a ``provider:`` spec wraps.
    provider: str | None = None

    @property
    def armed(self) -> bool:
        return self.gate.armed


@dataclass
class Injection:
    """One recorded fault injection, for reports and assertions."""

    spec: str
    target: str
    call_index: int
    fault: str
    at: float


@dataclass
class GameDayReport:
    """Everything measured about one chaos campaign enactment."""

    campaign: str
    execution: "ExecutionReport"
    injections: list[Injection] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    aborted: bool = False
    unbound_targets: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return self.execution.status.value


class ChaosController:
    """Arms/disarms a campaign's fault schedules as a strategy runs.

    Lifecycle (driven by :meth:`~repro.core.engine.Engine.enact` when
    given a ``chaos=`` campaign):

    1. :meth:`attach` — before the execution exists: validate the
       campaign against the strategy, wrap the engine's providers /
       controller / proxy upstream clients in ``Faulty*`` wrappers gated
       on per-spec :class:`_Gate`s, and subscribe to the event bus.
    2. ``STATE_ENTERED`` events arm every spec whose ``phases`` include
       the new state and disarm the rest (``CHAOS_ARMED`` /
       ``CHAOS_DISARMED``); breaker targets are forced open/closed, and
       a provider target shows the engine a fresh :class:`_ArmingPeriod`
       face, so no fetch is shared across an arming change.
    3. ``STRATEGY_STARTED`` starts one watch task per steady-state
       check on the engine's shared scheduler; a violated hypothesis
       (exception check triggered, or a basic check mapping to outcome
       0) publishes ``CHAOS_STEADY_STATE_VIOLATED``, disarms everything,
       publishes ``CHAOS_ABORTED``, and cancels the execution — the
       engine's safe-routing recovery then lands every touched service
       on a consistent config.
    4. :meth:`deactivate` (engine task-done callback) — restore every
       wrapped seam and cancel the watch tasks.

    Upstream/endpoint targets bind only when the engine was handed the
    in-process :class:`~repro.proxy.BifrostProxy` objects via ``chaos_proxies``;
    unbound targets are tolerated and surfaced on the report, so a
    rehearsal without live proxies still runs the provider/controller/
    breaker parts of the campaign.
    """

    def __init__(
        self,
        campaign: ChaosCampaign,
        engine: "Engine",
        proxies: dict[str, object] | None = None,
    ):
        self.campaign = campaign
        self.engine = engine
        self.proxies = dict(proxies or {})
        self.clock = engine.clock
        self.bus = engine.bus
        self.strategy_name: str | None = None
        self.execution_id: str | None = None
        self.injections: list[Injection] = []
        self.violations: list[dict] = []
        self.aborted = False
        self.unbound_targets: list[str] = []
        self._bindings: list[_Binding] = []
        self._restores: list[Callable[[], None]] = []
        self._steady_tasks: list[asyncio.Task] = []
        self._steady_futures: list[asyncio.Future] = []
        self._attached = False
        self._finished = False

    # -- wiring -----------------------------------------------------------

    def attach(self, strategy: "Strategy") -> None:
        if self._attached:
            raise ChaosError("chaos controller is already attached")
        self.campaign.validate(strategy)
        self.strategy_name = strategy.name
        for spec in self.campaign.specs:
            self._bindings.append(self._bind(spec, strategy))
        self.bus.subscribe(self._on_event)
        self._restores.append(lambda: self.bus.unsubscribe(self._on_event))
        self._attached = True

    def _bind(self, spec: FaultSpec, strategy: "Strategy") -> _Binding:
        gate = _Gate(spec.build_schedule(self.campaign.seed))
        kind, name = parse_target(spec.target)
        hook = self._injection_hook(spec)
        if kind == "provider":
            original = self.engine.providers.get(name)
            if original is None:
                self.unbound_targets.append(spec.target)
                return _Binding(spec, gate, bound=False)
            wrapped = FaultyProvider(original, gate, self.clock, on_inject=hook)
            self.engine.providers[name] = wrapped
            self._restores.append(
                lambda n=name, o=original: self.engine.providers.__setitem__(n, o)
            )
            return _Binding(spec, gate, provider=name)
        if kind == "controller":
            original = self.engine.controller
            self.engine.controller = FaultyController(
                original, gate, self.clock, on_inject=hook
            )
            self._restores.append(
                lambda o=original: setattr(self.engine, "controller", o)
            )
            return _Binding(spec, gate)
        if kind in ("upstream", "endpoint"):
            service = name.split("/", 1)[0]
            proxy = self.proxies.get(service)
            if proxy is None:
                self.unbound_targets.append(spec.target)
                return _Binding(spec, gate, bound=False)
            endpoints: frozenset[str] | None = None
            if kind == "endpoint":
                version = name.split("/", 1)[1]
                endpoints = frozenset(
                    {strategy.services[service].versions[version].endpoint}
                )
            original = proxy._client
            proxy._client = FaultyUpstream(
                original, gate, self.clock, endpoints=endpoints, on_inject=hook
            )
            self._restores.append(
                lambda p=proxy, o=original: setattr(p, "_client", o)
            )
            return _Binding(spec, gate)
        # kind == "breaker"
        breakers = self._resolve_breakers(name)
        if not breakers:
            self.unbound_targets.append(spec.target)
            return _Binding(spec, gate, bound=False)
        return _Binding(spec, gate, breakers=breakers)

    def _resolve_breakers(self, label: str) -> list:
        found = []
        candidates = list(self.engine.providers.values())
        candidates.append(self.engine.controller)
        for candidate in candidates:
            breaker = getattr(candidate, "breaker", None)
            if breaker is None:
                continue
            if getattr(candidate, "label", None) == label and breaker not in found:
                found.append(breaker)
        return found

    def _injection_hook(self, spec: FaultSpec):
        async def on_inject(index: int, fault: Fault) -> None:
            injection = Injection(
                spec=spec.name,
                target=spec.target,
                call_index=index,
                fault=type(fault).__name__,
                at=self.clock.now(),
            )
            self.injections.append(injection)
            await self._publish(
                EventKind.CHAOS_INJECTED,
                {
                    "spec": spec.name,
                    "target": spec.target,
                    "call_index": index,
                    "fault": injection.fault,
                },
            )

        return on_inject

    def deactivate(self) -> None:
        """Synchronously restore every wrapped seam and stop watching."""
        for binding in self._bindings:
            if binding.armed:
                binding.gate.armed = False
                for breaker in binding.breakers:
                    breaker.force_close()
        for future in self._steady_futures:
            if not future.done():
                future.cancel()
        self._steady_futures.clear()
        for task in self._steady_tasks:
            if not task.done():
                task.cancel()
        self._steady_tasks.clear()
        while self._restores:
            self._restores.pop()()

    # -- event handling ----------------------------------------------------

    async def _on_event(self, event: Event) -> None:
        if event.strategy != self.strategy_name:
            return
        if event.kind is EventKind.STRATEGY_STARTED:
            self.execution_id = event.data.get("execution", self.execution_id)
            await self._publish(
                EventKind.CHAOS_CAMPAIGN_STARTED,
                {
                    "campaign": self.campaign.name,
                    "seed": self.campaign.seed,
                    "faults": [spec.name for spec in self._bound_specs()],
                    "unbound": list(self.unbound_targets),
                },
            )
            self._start_steady_watch()
        elif event.kind is EventKind.STATE_ENTERED:
            await self._sync_phase(event.data.get("state", ""))
        elif event.kind in (
            EventKind.STRATEGY_COMPLETED,
            EventKind.STRATEGY_FAILED,
        ):
            await self._finish(event.kind.value)

    def _bound_specs(self) -> list[FaultSpec]:
        return [binding.spec for binding in self._bindings if binding.bound]

    async def _sync_phase(self, state_name: str) -> None:
        for binding in self._bindings:
            if not binding.bound:
                continue
            should_arm = state_name in binding.spec.phases
            if should_arm == binding.armed:
                continue
            binding.gate.armed = should_arm
            if binding.provider is not None:
                self._new_arming_period(binding.provider)
            for breaker in binding.breakers:
                if should_arm:
                    breaker.force_open()
                else:
                    breaker.force_close()
            await self._publish(
                EventKind.CHAOS_ARMED if should_arm else EventKind.CHAOS_DISARMED,
                {
                    "spec": binding.spec.name,
                    "target": binding.spec.target,
                    "state": state_name,
                },
            )

    def _new_arming_period(self, name: str) -> None:
        """Show the engine a fresh face of provider *name*; see
        :class:`_ArmingPeriod`."""
        current = self.engine.providers[name]
        if isinstance(current, _ArmingPeriod):
            current = current.inner
        self.engine.providers[name] = _ArmingPeriod(current)

    async def _finish(self, reason: str) -> None:
        if self._finished:
            return
        self._finished = True
        await self._sync_phase("")  # disarm everything still armed
        for future in self._steady_futures:
            if not future.done():
                future.cancel()
        for task in self._steady_tasks:
            if not task.done():
                task.cancel()
        await self._publish(
            EventKind.CHAOS_CAMPAIGN_FINISHED,
            {
                "campaign": self.campaign.name,
                "reason": reason,
                "injections": len(self.injections),
                "violations": len(self.violations),
                "aborted": self.aborted,
            },
        )

    # -- steady state ------------------------------------------------------

    def _start_steady_watch(self) -> None:
        if self._steady_tasks:
            return
        loop = asyncio.get_running_loop()
        for check in self.campaign.steady_state:
            self._steady_tasks.append(loop.create_task(self._steady_loop(check)))

    async def _steady_loop(self, check: Check) -> None:
        """Repeatedly run one hypothesis check until violated or stopped."""
        while not self._finished and not self.aborted:
            future = self.engine.scheduler.schedule(check, self.engine.providers)
            self._steady_futures.append(future)
            try:
                result = await future
            except asyncio.CancelledError:
                return
            except ExceptionTriggered as triggered:
                await self._violated(check, f"exception check triggered: {triggered}")
                return
            finally:
                if future in self._steady_futures:
                    self._steady_futures.remove(future)
            if isinstance(check, BasicCheck) and result.mapped == 0:
                await self._violated(
                    check,
                    f"basic check mapped outcome 0 "
                    f"(aggregated {result.aggregated})",
                )
                return

    async def _violated(self, check: Check, detail: str) -> None:
        if self.aborted or self._finished:
            return
        self.aborted = True
        violation = {
            "check": check.name,
            "detail": detail,
            "at": self.clock.now(),
        }
        self.violations.append(violation)
        await self._publish(EventKind.CHAOS_STEADY_STATE_VIOLATED, violation)
        await self._sync_phase("")  # disarm so recovery runs un-faulted
        await self._publish(
            EventKind.CHAOS_ABORTED,
            {"campaign": self.campaign.name, "check": check.name},
        )
        if self.execution_id is not None:
            await self.engine.cancel(self.execution_id)
        await self._finish("steady_state_violated")

    async def _publish(self, kind: EventKind, data: dict) -> None:
        await self.bus.publish(
            Event(
                kind=kind,
                strategy=self.strategy_name or self.campaign.name,
                at=self.clock.now(),
                data=data,
            )
        )


async def run_game_day(
    strategy: "Strategy",
    campaign: ChaosCampaign,
    engine: "Engine",
    *,
    proxies: dict[str, object] | None = None,
    safe_routing=None,
    max_visits: int | None = None,
    allow_findings: bool = False,
    drive_step: float = 0.5,
    drive_limit: int = 100_000,
) -> GameDayReport:
    """Enact *strategy* under *campaign* and wait for the outcome.

    Under a :class:`~repro.clock.VirtualClock` the helper drives the
    clock itself, so a multi-hour game day completes in milliseconds of
    wall time; under a real clock it simply waits.
    """
    from ..clock import VirtualClock

    execution_id = engine.enact(
        strategy,
        max_visits=max_visits,
        safe_routing=safe_routing,
        allow_findings=allow_findings,
        chaos=campaign,
        chaos_proxies=proxies,
    )
    controller = engine.chaos_controller(execution_id)
    assert controller is not None
    clock = engine.clock
    if isinstance(clock, VirtualClock):
        task = engine._tasks[execution_id]
        for _ in range(drive_limit):
            if task.done():
                break
            await clock.advance(drive_step)
        if not task.done():  # pragma: no cover - defensive
            raise ChaosError(
                f"game day did not finish within {drive_limit} clock steps"
            )
    report = await engine.wait_report(execution_id)
    return GameDayReport(
        campaign=campaign.name,
        execution=report,
        injections=list(controller.injections),
        violations=list(controller.violations),
        aborted=controller.aborted,
        unbound_targets=list(controller.unbound_targets),
    )
