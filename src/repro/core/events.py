"""Event stream from the engine to CLI, dashboard, and tests.

The paper's engine pushes "status updates" to the Bifrost CLI and
dashboard over Socket.IO.  Here, an :class:`EventBus` carries typed
:class:`Event` records to any number of in-process subscribers (tests,
the CLI's event stream) and keeps the history the engine API serves.

Delivery is plain calls: :meth:`EventBus.publish` records the event and
calls the subscribers in order before it returns.  A subscriber is a
plain function; :meth:`EventBus.subscribe` rejects a coroutine function,
whose events would otherwise be dropped unawaited.
"""

from __future__ import annotations

import enum
import inspect
import logging
from dataclasses import dataclass, field
from typing import Any, Callable

logger = logging.getLogger(__name__)


class EventKind(enum.Enum):
    STRATEGY_STARTED = "strategy_started"
    STATE_ENTERED = "state_entered"
    ROUTING_APPLIED = "routing_applied"
    CHECK_EXECUTED = "check_executed"
    CHECK_COMPLETED = "check_completed"
    EXCEPTION_TRIGGERED = "exception_triggered"
    STATE_COMPLETED = "state_completed"
    STRATEGY_PAUSED = "strategy_paused"
    STRATEGY_RESUMED = "strategy_resumed"
    STRATEGY_COMPLETED = "strategy_completed"
    STRATEGY_FAILED = "strategy_failed"
    # Safe-routing recovery after an enactment fails or is cancelled.
    SAFE_ROUTING_APPLIED = "safe_routing_applied"
    SAFE_ROUTING_FAILED = "safe_routing_failed"

    # Chaos campaigns: a ChaosController arms fault schedules on phase
    # transitions and judges steady-state hypotheses while the strategy
    # runs.  ``strategy`` carries the strategy name so chaos events
    # interleave with the execution's own history.
    CHAOS_CAMPAIGN_STARTED = "chaos_campaign_started"
    CHAOS_ARMED = "chaos_armed"
    CHAOS_DISARMED = "chaos_disarmed"
    CHAOS_INJECTED = "chaos_injected"
    CHAOS_STEADY_STATE_VIOLATED = "chaos_steady_state_violated"
    CHAOS_ABORTED = "chaos_aborted"
    CHAOS_CAMPAIGN_FINISHED = "chaos_campaign_finished"


@dataclass(slots=True)
class Event:
    """One engine occurrence, timestamped with the engine's clock.

    Subscribers share one instance and must treat it as read-only.  It is
    not frozen: ``data`` is a dict, so freezing never made an event
    immutable, and a frozen ``__init__`` is the dearer one per check tick.
    """

    kind: EventKind
    strategy: str
    at: float
    data: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        """The event's JSON form, as ``/api/events`` serves it and the
        CLI's event stream prints it."""
        return {
            "kind": self.kind.value,
            "strategy": self.strategy,
            "at": self.at,
            "data": self.data,
        }


Subscriber = Callable[[Event], None]


class EventBus:
    """Fan-out of engine events to callbacks.

    Subscriber exceptions are logged and skipped: a broken dashboard must
    never stall a rollout.
    """

    def __init__(self) -> None:
        #: Replaced, never mutated, so ``publish`` iterates it uncopied.
        self._subscribers: tuple[Subscriber, ...] = ()
        #: Full in-memory history; experiments read this after a run.
        self.history: list[Event] = []

    def subscribe(self, callback: Subscriber) -> None:
        if inspect.iscoroutinefunction(callback):
            raise TypeError(f"an event subscriber must be a plain callable, not {callback!r}")
        self._subscribers += (callback,)

    def unsubscribe(self, callback: Subscriber) -> None:
        if callback in self._subscribers:
            index = self._subscribers.index(callback)
            self._subscribers = self._subscribers[:index] + self._subscribers[index + 1 :]

    def publish(self, event: Event) -> None:
        """Record *event* and call every subscriber, in order."""
        self.history.append(event)
        for callback in self._subscribers:
            try:
                callback(event)
            except Exception:
                # Observability must not break enactment.
                logger.exception("event subscriber failed")

    def of_kind(self, kind: EventKind) -> list[Event]:
        """History filter used heavily by tests and experiment analysis."""
        return [event for event in self.history if event.kind == kind]
