"""The Bifrost engine: automated enactment of live testing strategies.

The engine "executes the state machine of the formal release model ...
continuously queries and observes monitoring data collected by metrics
providers ... and enacts appropriate actions (i.e., state changes).
Whenever a state change happens during the rollout process, the engine
updates the affected proxies" (paper section 4.1).

Key pieces:

* :class:`ProxyController` — the engine→proxy seam.  The HTTP
  implementation lives in :mod:`repro.proxy.admin`;
  :class:`RecordingController` is the in-memory test double.
* :class:`StrategyExecution` — one enactment of one strategy: walks the
  automaton, runs each state's checks on their own timers, computes the
  weighted outcome, and transitions.
* :class:`Engine` — runs many executions in parallel (the paper
  demonstrates >100 on a single core) against shared providers/controller.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import logging
from dataclasses import dataclass, field
from typing import Awaitable

from ..clock import Clock, RealClock
from ..metrics.provider import MetricsProvider
from .automaton import State
from .checks import CheckResult, ExceptionTriggered
from .events import Event, EventBus, EventKind
from .model import ModelError, Strategy
from .outcome import weighted_outcome
from .routing import RoutingConfig, single_version
from .scheduler import CheckScheduler

logger = logging.getLogger(__name__)


class StrategyRejectedError(Exception):
    """The lint engine found blocking ERROR diagnostics in a strategy.

    Raised by :meth:`Engine.enact` unless ``allow_findings=True``; the
    offending diagnostics are on :attr:`diagnostics`.
    """

    def __init__(self, strategy: str, diagnostics):
        self.diagnostics = list(diagnostics)
        details = "; ".join(
            f"{d.code} ({d.name}): {d.message}" for d in self.diagnostics
        )
        super().__init__(
            f"strategy {strategy!r} has {len(self.diagnostics)} blocking "
            f"lint finding(s): {details}"
        )


class ServiceClaimedError(Exception):
    """A strategy touches a service another execution holds exclusively."""


class ExecutionEndedError(Exception):
    """Pause or resume asked of an execution that has already ended."""


class ProxyController:
    """Applies routing configurations to the proxy fronting a service."""

    async def apply(
        self, service: str, config: RoutingConfig, endpoints: dict[str, str]
    ) -> None:
        """Reconfigure the proxy for *service*.

        *endpoints* maps each version named in *config* to its host:port
        (the versions' static configuration sc_i), so the proxy can open
        upstream connections without consulting the engine again.
        """
        raise NotImplementedError


class RecordingController(ProxyController):
    """Test double: records every applied configuration."""

    def __init__(self) -> None:
        self.applied: list[tuple[str, RoutingConfig, dict[str, str]]] = []

    async def apply(
        self, service: str, config: RoutingConfig, endpoints: dict[str, str]
    ) -> None:
        self.applied.append((service, config, dict(endpoints)))

    def latest_for(self, service: str) -> RoutingConfig | None:
        for applied_service, config, _ in reversed(self.applied):
            if applied_service == service:
                return config
        return None


class ExecutionStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    PAUSED = "paused"
    COMPLETED = "completed"
    ROLLED_BACK = "rolled_back"
    FAILED = "failed"


_ENDED = frozenset(
    {ExecutionStatus.COMPLETED, ExecutionStatus.ROLLED_BACK, ExecutionStatus.FAILED}
)


@dataclass
class StateVisit:
    """One traversal of one state, for the execution report."""

    state: str
    entered_at: float
    left_at: float = 0.0
    outcome: int | None = None
    next_state: str | None = None
    via_exception: bool = False


@dataclass
class ExecutionReport:
    """Everything measured about one strategy enactment."""

    strategy: str
    execution_id: str
    status: ExecutionStatus
    started_at: float
    ended_at: float
    visits: list[StateVisit] = field(default_factory=list)
    error: str | None = None

    @property
    def duration(self) -> float:
        """Raw enactment duration: end time − start time."""
        return self.ended_at - self.started_at

    @property
    def path(self) -> list[str]:
        return [visit.state for visit in self.visits]

    def specified_duration(self, strategy: Strategy) -> float:
        """Nominal duration of the traversed path (per state timers)."""
        assert strategy.automaton is not None
        return strategy.automaton.nominal_path_duration(self.path)

    def delay(self, strategy: Strategy) -> float:
        """Enactment delay: measured − specified (Figures 8 and 10)."""
        return self.duration - self.specified_duration(strategy)


class StrategyExecution:
    """One run of one strategy's automaton."""

    #: Safety valve against strategies that loop forever on "stay" edges.
    DEFAULT_MAX_VISITS = 10_000

    def __init__(
        self,
        strategy: Strategy,
        execution_id: str,
        providers: dict[str, MetricsProvider],
        controller: ProxyController,
        bus: EventBus,
        clock: Clock,
        max_visits: int | None = None,
        safe_routing: dict[str, RoutingConfig] | None = None,
        scheduler: CheckScheduler | None = None,
    ):
        if strategy.automaton is None:
            raise ModelError(f"strategy {strategy.name!r} has no automaton")
        self.strategy = strategy
        self.execution_id = execution_id
        self.providers = providers
        self.controller = controller
        self.bus = bus
        self.clock = clock
        #: Shared timer heap for every check tick; engine executions all
        #: dispatch through the engine's scheduler so N parallel strategies
        #: with M checks each cost one pending timer, not N·M.
        self.scheduler = scheduler or CheckScheduler(clock)
        self.max_visits = max_visits or self.DEFAULT_MAX_VISITS
        self.safe_routing = dict(safe_routing or {})
        self.status = ExecutionStatus.PENDING
        self.current_state: str | None = None
        self.visits: list[StateVisit] = []
        self._started_at = 0.0
        #: First routing config this execution applied per service — the
        #: entry state, used to infer a safe fallback (its majority-share
        #: version is the pre-rollout stable).
        self._entry_configs: dict[str, RoutingConfig] = {}
        #: Last routing config successfully applied per service.
        self._last_applied: dict[str, RoutingConfig] = {}
        # Operator pause gate: checked between states, so the in-flight
        # phase always completes before the execution holds.
        self._gate = asyncio.Event()
        self._gate.set()

    async def run(self) -> ExecutionReport:
        """Enact the strategy to completion and return the report."""
        automaton = self.strategy.automaton
        assert automaton is not None
        self.status = ExecutionStatus.RUNNING
        self._started_at = self.clock.now()
        await self._publish(
            EventKind.STRATEGY_STARTED, {"execution": self.execution_id}
        )
        state_name = automaton.start
        try:
            for _ in range(self.max_visits):
                if not self._gate.is_set():
                    self.status = ExecutionStatus.PAUSED
                    await self._publish(
                        EventKind.STRATEGY_PAUSED, {"before_state": state_name}
                    )
                    await self._gate.wait()
                    self.status = ExecutionStatus.RUNNING
                    await self._publish(
                        EventKind.STRATEGY_RESUMED, {"next_state": state_name}
                    )
                state = automaton.state(state_name)
                visit = await self._execute_state(state)
                self.visits.append(visit)
                if state.final:
                    is_rollback = state.rollback or state.name in self._rollback_states()
                    self.status = (
                        ExecutionStatus.ROLLED_BACK
                        if is_rollback
                        else ExecutionStatus.COMPLETED
                    )
                    await self._publish(
                        EventKind.STRATEGY_COMPLETED,
                        {"final_state": state.name, "status": self.status.value},
                    )
                    return self._report()
                assert visit.next_state is not None
                state_name = visit.next_state
            raise ModelError(
                f"strategy {self.strategy.name!r} exceeded {self.max_visits} "
                "state visits; aborting enactment"
            )
        except asyncio.CancelledError:
            self.status = ExecutionStatus.FAILED
            await self._recover_after_cancel()
            raise
        except Exception as exc:
            self.status = ExecutionStatus.FAILED
            logger.exception("enactment of %s failed", self.strategy.name)
            try:
                await self._restore_safe_routing("failed")
            except asyncio.CancelledError:
                raise
            except Exception:
                logger.exception(
                    "safe-routing recovery for %s failed", self.strategy.name
                )
            await self._publish(EventKind.STRATEGY_FAILED, {"error": str(exc)})
            return self._report(error=str(exc))

    def pause(self) -> None:
        """Hold the execution before its *next* state transition.

        The phase currently executing (its checks, timers, routing) always
        completes; pausing mid-check would corrupt timer semantics.  While
        held, time keeps passing — a long pause shows up as enactment
        delay in the report.
        """
        self._require_live("pause")
        self._gate.clear()

    def resume(self) -> None:
        """Release a paused execution (idempotent)."""
        self._require_live("resume")
        self._gate.set()

    def _require_live(self, action: str) -> None:
        if self.status in _ENDED:
            raise ExecutionEndedError(
                f"cannot {action} {self.execution_id}: it has {self.status.value}"
            )

    @property
    def paused(self) -> bool:
        return not self._gate.is_set()

    def _rollback_states(self) -> set[str]:
        """Final states reachable via exception-check fallbacks.

        Used only to classify the terminal status; the model itself does
        not distinguish "good" from "bad" final states.
        """
        automaton = self.strategy.automaton
        assert automaton is not None
        fallbacks = set()
        for state in automaton.states.values():
            for check in state.checks:
                fallback = getattr(check, "fallback_state", None)
                if fallback is not None:
                    fallbacks.add(fallback)
        return fallbacks

    # -- safe-routing recovery -------------------------------------------

    def _safe_config_for(self, service: str) -> RoutingConfig | None:
        """The routing this service should hold if the enactment dies.

        Precedence: an explicit ``safe_routing`` entry, then the first
        rollback final state that routes the service (the strategy's own
        declared safe harbor), then 100% to the majority-share version of
        the config the execution *entered* with (the pre-rollout stable).
        """
        explicit = self.safe_routing.get(service)
        if explicit is not None:
            return explicit
        automaton = self.strategy.automaton
        assert automaton is not None
        fallbacks = self._rollback_states()
        for state in automaton.states.values():
            if not state.final:
                continue
            if (state.rollback or state.name in fallbacks) and service in state.routing:
                return state.routing[service]
        entry = self._entry_configs.get(service)
        if entry is None or not entry.splits:
            return None
        majority = max(entry.splits, key=lambda split: split.percentage)
        return single_version(majority.version)

    async def _restore_safe_routing(self, reason: str) -> None:
        """Drive every touched service to its safe routing, best effort.

        Called when an enactment fails or is cancelled, so a crash never
        strands a half-applied canary split.  Each service is attempted
        independently: one dead proxy must not keep the others stranded.
        """
        for service in list(self._entry_configs):
            config = self._safe_config_for(service)
            if config is None or self._last_applied.get(service) == config:
                continue
            try:
                endpoints = self._endpoints_for(service, config)
                await self.controller.apply(service, config, endpoints)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                await self._publish(
                    EventKind.SAFE_ROUTING_FAILED,
                    {"service": service, "reason": reason, "error": str(exc)},
                )
                continue
            self._last_applied[service] = config
            await self._publish(
                EventKind.SAFE_ROUTING_APPLIED,
                {"service": service, "reason": reason, "config": config.to_wire()},
            )

    async def _recover_after_cancel(self) -> None:
        """Run safe-routing recovery from inside a CancelledError handler.

        The engine's ``cancel`` may re-issue ``task.cancel()`` while this
        runs (the Python 3.11 swallowed-cancellation workaround), so the
        recovery is shielded and re-awaited a bounded number of times; if
        cancellation keeps landing, the recovery itself is abandoned.
        """
        recovery = asyncio.ensure_future(self._restore_safe_routing("cancelled"))
        try:
            for _ in range(32):
                try:
                    await asyncio.shield(recovery)
                    return
                except asyncio.CancelledError:
                    if recovery.done():
                        return
        finally:
            if not recovery.done():
                recovery.cancel()

    async def _execute_state(self, state: State) -> StateVisit:
        visit = StateVisit(state=state.name, entered_at=self.clock.now())
        self.current_state = state.name
        await self._publish(EventKind.STATE_ENTERED, {"state": state.name})
        await self._apply_routing(state)

        try:
            results = await self._run_checks(state)
        except ExceptionTriggered as trigger:
            visit.left_at = self.clock.now()
            visit.via_exception = True
            visit.next_state = trigger.check.fallback_state
            await self._publish(
                EventKind.EXCEPTION_TRIGGERED,
                {
                    "state": state.name,
                    "check": trigger.check.name,
                    "fallback": trigger.check.fallback_state,
                },
            )
            return visit

        outcome = weighted_outcome(
            [result.mapped for result in results], state.weights
        )
        visit.outcome = outcome
        visit.left_at = self.clock.now()
        if state.transitions is not None:
            visit.next_state = state.transitions.next_state(outcome)
        await self._publish(
            EventKind.STATE_COMPLETED,
            {
                "state": state.name,
                "outcome": outcome,
                "next": visit.next_state,
                "checks": {
                    result.check.name: result.mapped for result in results
                },
            },
        )
        return visit

    async def _apply_routing(self, state: State) -> None:
        for service_name, config in state.routing.items():
            endpoints = self._endpoints_for(service_name, config)
            # Count the service as touched *before* applying: a crash
            # mid-apply may have left the proxy in either config.
            self._entry_configs.setdefault(service_name, config)
            await self.controller.apply(service_name, config, endpoints)
            self._last_applied[service_name] = config
            await self._publish(
                EventKind.ROUTING_APPLIED,
                {
                    "state": state.name,
                    "service": service_name,
                    "config": config.to_wire(),
                },
            )

    def _endpoints_for(self, service_name: str, config: RoutingConfig) -> dict[str, str]:
        service = self.strategy.service(service_name)
        names = {split.version for split in config.splits}
        for shadow in config.shadows:
            names.add(shadow.source_version)
            names.add(shadow.target_version)
        return {name: service.version(name).endpoint for name in names}

    async def _run_checks(self, state: State) -> list[CheckResult]:
        """Run all checks in parallel; dwell at least the explicit duration.

        Every check is dispatched through the shared
        :class:`~repro.core.scheduler.CheckScheduler` — one heap entry per
        check instead of one task per check.  An exception check failure
        cancels every other scheduled check and propagates
        :class:`ExceptionTriggered` — the immediate-rollback semantics of
        the model.
        """
        futures = [
            self.scheduler.schedule(
                check,
                self.providers,
                observer=self._check_observer,
                on_complete=self._check_completed,
            )
            for check in state.checks
        ]
        awaitables: list[asyncio.Future] = list(futures)
        if state.duration is not None:
            awaitables.append(
                asyncio.ensure_future(self.clock.sleep(state.duration))
            )
        try:
            results = await asyncio.gather(*awaitables)
        except BaseException:
            # gather does not cancel siblings on a plain exception; tear
            # down every still-scheduled check (and the dwell sleep), and
            # retrieve losers' exceptions so none goes unobserved when two
            # checks trigger on the same tick.
            for waiter in awaitables:
                if waiter.done():
                    if not waiter.cancelled():
                        waiter.exception()
                else:
                    waiter.cancel()
            raise
        return list(results[: len(futures)])

    # Plain methods returning the bus's awaitable: the scheduler awaits it
    # only when it is a coroutine, so a tick with sync subscribers has none.

    def _check_observer(self, check, execution) -> Awaitable[None]:
        return self._publish(
            EventKind.CHECK_EXECUTED,
            {
                "state": self.current_state,
                "check": check.name,
                "result": execution.result,
            },
        )

    def _check_completed(self, result: CheckResult) -> Awaitable[None]:
        return self._publish(
            EventKind.CHECK_COMPLETED,
            {
                "state": self.current_state,
                "check": result.check.name,
                "aggregated": result.aggregated,
                "mapped": result.mapped,
            },
        )

    def _publish(self, kind: EventKind, data: dict) -> Awaitable[None]:
        return self.bus.publish(Event(kind, self.strategy.name, self.clock.now(), data))

    def _report(self, error: str | None = None) -> ExecutionReport:
        return ExecutionReport(
            strategy=self.strategy.name,
            execution_id=self.execution_id,
            status=self.status,
            started_at=self._started_at,
            ended_at=self.clock.now(),
            visits=self.visits,
            error=error,
        )


class Engine:
    """Runs many strategy executions in parallel.

    One engine owns the provider registry, the proxy controller, the
    event bus, and the clock.  ``enact`` schedules an execution as an
    asyncio task; ``wait`` or ``wait_all`` collect reports.
    """

    def __init__(
        self,
        controller: ProxyController | None = None,
        clock: Clock | None = None,
        bus: EventBus | None = None,
    ):
        self.controller = controller or RecordingController()
        self.clock = clock or RealClock()
        self.bus = bus or EventBus()
        #: One timer heap shared by every execution this engine runs.
        self.scheduler = CheckScheduler(self.clock)
        self.providers: dict[str, MetricsProvider] = {}
        self._executions: dict[str, StrategyExecution] = {}
        self._tasks: dict[str, asyncio.Task[ExecutionReport]] = {}
        self._chaos: dict[str, object] = {}
        self._counter = itertools.count(1)
        #: Exclusive service claims: service name -> holding execution id.
        self._claims: dict[str, str] = {}

    def register_provider(self, name: str, provider: MetricsProvider) -> None:
        self.providers[name] = provider

    def enact(
        self,
        strategy: Strategy,
        max_visits: int | None = None,
        delay: float = 0.0,
        exclusive: bool = False,
        safe_routing: dict[str, RoutingConfig] | None = None,
        allow_findings: bool = False,
        chaos=None,
        chaos_proxies: dict[str, object] | None = None,
    ) -> str:
        """Validate and start enacting *strategy*; returns an execution id.

        With *delay*, enactment is scheduled for later (the CLI's "as part
        of release scripts" use case: submit now, roll out tonight).  A
        scheduled execution can be cancelled while still pending.

        With *exclusive*, the execution claims every service its strategy
        routes: until it finishes, enacting any other strategy touching
        one of those services raises :class:`ServiceClaimedError`.  Two
        teams reconfiguring the same proxy would silently fight over the
        routing; claims turn that into an explicit scheduling decision.
        (The paper's scalability experiment deliberately runs identical
        strategies against one proxy, so sharing stays the default.)

        With *safe_routing* (service name → config), a failed or cancelled
        enactment drives those services to the given configs instead of the
        inferred safe state (rollback-state routing, else single-version
        stable).

        With *allow_findings*, enactment proceeds even when the lint
        engine reports blocking ERROR diagnostics (a strategy that cannot
        finish, a metric query that cannot compile, ...); by default such
        strategies are rejected with :class:`StrategyRejectedError`.

        With *chaos* (a :class:`~repro.resilience.chaos.ChaosCampaign`),
        a :class:`~repro.resilience.chaos.ChaosController` is attached
        before the execution starts: it wraps the engine's providers,
        controller, and (via *chaos_proxies*, service name → in-process
        proxy) upstream clients, arms the campaign's fault
        schedules on phase transitions, and aborts the enactment if a
        steady-state hypothesis is violated.
        """
        strategy.validate()
        if not allow_findings:
            from ..lint import lint_strategy

            blocking = lint_strategy(
                strategy, safe_routing=safe_routing, campaign=chaos
            ).blocking()
            if blocking:
                raise StrategyRejectedError(strategy.name, blocking)
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        routed_services = self._routed_services(strategy)
        for service in sorted(routed_services):
            holder = self._claims.get(service)
            if holder is not None:
                raise ServiceClaimedError(
                    f"service {service!r} is exclusively claimed by "
                    f"execution {holder!r}"
                )
        execution_id = f"{strategy.name}#{next(self._counter)}"
        chaos_controller = None
        if chaos is not None:
            from ..resilience.chaos import ChaosController

            chaos_controller = ChaosController(chaos, self, proxies=chaos_proxies)
            # Attach before the execution captures self.controller, so the
            # faulty wrappers sit on every seam the run will use.
            chaos_controller.attach(strategy)
            chaos_controller.execution_id = execution_id
            self._chaos[execution_id] = chaos_controller
        execution = StrategyExecution(
            strategy=strategy,
            execution_id=execution_id,
            providers=self.providers,
            controller=self.controller,
            bus=self.bus,
            clock=self.clock,
            max_visits=max_visits,
            safe_routing=safe_routing,
            scheduler=self.scheduler,
        )
        self._executions[execution_id] = execution

        async def run_after_delay() -> ExecutionReport:
            if delay > 0:
                await self.clock.sleep(delay)
            return await execution.run()

        task = asyncio.get_running_loop().create_task(
            run_after_delay() if delay > 0 else execution.run()
        )
        if exclusive:
            # Claimed only now that nothing above can raise: a chaos attach
            # that fails must not leave claims no task will ever release.
            for service in routed_services:
                self._claims[service] = execution_id
            task.add_done_callback(
                lambda _task, eid=execution_id: self._release_claims(eid)
            )
        if chaos_controller is not None:
            task.add_done_callback(
                lambda _task, ctrl=chaos_controller: ctrl.deactivate()
            )
        self._tasks[execution_id] = task
        return execution_id

    @staticmethod
    def _routed_services(strategy: Strategy) -> set[str]:
        assert strategy.automaton is not None
        services: set[str] = set()
        for state in strategy.automaton.states.values():
            services.update(state.routing)
        return services

    def _release_claims(self, execution_id: str) -> None:
        for service in [s for s, holder in self._claims.items() if holder == execution_id]:
            del self._claims[service]

    def execution(self, execution_id: str) -> StrategyExecution:
        try:
            return self._executions[execution_id]
        except KeyError:
            raise KeyError(f"unknown execution {execution_id!r}") from None

    @property
    def executions(self) -> dict[str, StrategyExecution]:
        return dict(self._executions)

    def pause(self, execution_id: str) -> None:
        """Hold an execution before its next state transition."""
        self.execution(execution_id).pause()

    def resume(self, execution_id: str) -> None:
        """Release a paused execution."""
        self.execution(execution_id).resume()

    async def wait(self, execution_id: str) -> ExecutionReport:
        return await self._tasks[execution_id]

    async def wait_report(self, execution_id: str) -> ExecutionReport:
        """Like :meth:`wait`, but a cancelled execution yields its report.

        A chaos abort (or operator cancel) ends the run by cancellation,
        which :meth:`wait` re-raises; game-day callers want the report of
        what happened instead.
        """
        task = self._tasks[execution_id]
        try:
            return await task
        except asyncio.CancelledError:
            if task.cancelled():
                return self._executions[execution_id]._report(error="cancelled")
            raise

    def chaos_controller(self, execution_id: str):
        """The :class:`~repro.resilience.chaos.ChaosController` attached to
        *execution_id*, or ``None`` when it was enacted without a campaign."""
        return self._chaos.get(execution_id)

    async def wait_all(self) -> list[ExecutionReport]:
        if not self._tasks:
            return []
        return list(await asyncio.gather(*self._tasks.values()))

    #: How many times ``cancel`` re-issues ``task.cancel()`` before giving
    #: up; the workaround for asyncio.wait_for swallowing a cancellation
    #: that races with the inner future's completion on Python 3.11.
    MAX_CANCEL_ATTEMPTS = 25

    async def cancel(self, execution_id: str) -> None:
        task = self._tasks.get(execution_id)
        if task is None:
            return
        for _ in range(self.MAX_CANCEL_ATTEMPTS):
            if task.done():
                break
            task.cancel()
            # Give the loop a chance to deliver the cancellation (and let
            # safe-routing recovery finish) via plain yields first: under a
            # VirtualClock no wall time ever needs to pass, and a real-time
            # wait per spin would stall virtual-clock test suites.
            for _ in range(20):
                if task.done():
                    break
                await asyncio.sleep(0)
            if task.done():
                break
            await asyncio.wait([task], timeout=0.05)
        if task.done():
            try:
                task.result()
            except (asyncio.CancelledError, Exception):
                pass
        else:
            logger.warning(
                "execution %r still running after %d cancel attempts",
                execution_id,
                self.MAX_CANCEL_ATTEMPTS,
            )
        execution = self._executions.get(execution_id)
        if execution is not None and execution.status in (
            ExecutionStatus.PENDING,
            ExecutionStatus.RUNNING,
            ExecutionStatus.PAUSED,
        ):
            # A cancel that landed before/around run() never reached the
            # execution's own CancelledError handler.
            execution.status = ExecutionStatus.FAILED

    async def shutdown(self) -> None:
        """Cancel every running execution and close providers."""
        for execution_id in list(self._tasks):
            await self.cancel(execution_id)
        await self.scheduler.close()
        for provider in self.providers.values():
            await provider.close()
