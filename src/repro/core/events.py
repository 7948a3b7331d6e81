"""Event stream from the engine to CLI, dashboard, and tests.

The paper's engine pushes "status updates" to the Bifrost CLI and
dashboard over Socket.IO.  Here, an :class:`EventBus` carries typed
:class:`Event` records to any number of in-process subscribers (tests,
the dashboard's feed, the enactment journal).

Delivery is sync-first: :meth:`EventBus.publish` calls the subscribers in
order before it returns, and while none returns a coroutine it returns
the already-done :data:`DELIVERED`.  The first coroutine hands the rest
of delivery, in the same order, to the coroutine ``publish`` returns, so
``await bus.publish(event)`` is always correct.
"""

from __future__ import annotations

import asyncio
import enum
import json
import logging
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

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
    # Resilience: degradation of the engine's own dependencies.  These
    # carry a dependency label (e.g. "provider:prometheus") in the
    # ``strategy`` field when emitted by wrappers rather than executions.
    PROVIDER_RETRY = "provider_retry"
    CIRCUIT_OPENED = "circuit_opened"
    CIRCUIT_HALF_OPEN = "circuit_half_open"
    CIRCUIT_CLOSED = "circuit_closed"
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "strategy": self.strategy,
                "at": self.at,
                "data": self.data,
            }
        )

    @classmethod
    def from_json(cls, raw: str) -> "Event":
        payload = json.loads(raw)
        return cls(
            kind=EventKind(payload["kind"]),
            strategy=payload["strategy"],
            at=float(payload["at"]),
            data=payload.get("data", {}),
        )


Subscriber = Callable[[Event], Awaitable[None] | None]


class _Delivered:
    """An already-done awaitable: awaiting it never suspends."""

    def __await__(self):
        return iter(())


#: What :meth:`EventBus.publish` returns once every subscriber has run.
DELIVERED = _Delivered()


class EventBus:
    """Fan-out of engine events to callbacks.

    Subscriber exceptions are logged and skipped: a broken dashboard must
    never stall a rollout.
    """

    def __init__(self) -> None:
        self._subscribers: list[Subscriber] = []
        #: Full in-memory history; experiments read this after a run.
        self.history: list[Event] = []

    def subscribe(self, callback: Subscriber) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Subscriber) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def publish(self, event: Event) -> Awaitable[None]:
        """Record and deliver *event*; await the result to finish delivery."""
        self.history.append(event)
        subscribers = list(self._subscribers)
        for index, callback in enumerate(subscribers):
            try:
                outcome = callback(event)
            except Exception:
                # Observability must not break enactment.
                logger.exception("event subscriber failed")
                continue
            if outcome is not None and asyncio.iscoroutine(outcome):
                return self._deliver_rest(event, outcome, subscribers, index + 1)
        return DELIVERED

    async def _deliver_rest(
        self, event: Event, pending, subscribers: list[Subscriber], start: int
    ) -> None:
        """The coroutine path: finish *pending*, then the subscribers after it."""
        try:
            await pending
        except Exception:
            logger.exception("event subscriber failed")
        for callback in subscribers[start:]:
            try:
                outcome = callback(event)
                if asyncio.iscoroutine(outcome):
                    await outcome
            except Exception:
                logger.exception("event subscriber failed")

    def of_kind(self, kind: EventKind) -> list[Event]:
        """History filter used heavily by tests and experiment analysis."""
        return [event for event in self.history if event.kind == kind]


class JsonlEventWriter:
    """Persists every event as one JSON line — the enactment journal.

    Release engineering wants an audit trail ("which rollout changed the
    routing at 03:12, and why?"); subscribe a writer to the engine's bus
    and every state change, check execution, and transition lands in an
    append-only file that :meth:`read` can replay.
    """

    def __init__(self, path):
        from pathlib import Path

        self.path = Path(path)
        self._handle = self.path.open("a", encoding="utf-8")

    def __call__(self, event: Event) -> None:
        self._handle.write(event.to_json() + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    @classmethod
    def read(cls, path) -> list[Event]:
        """Replay a journal file back into events."""
        from pathlib import Path

        events = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                events.append(Event.from_json(line))
        return events
