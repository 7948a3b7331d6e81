"""A resilient wrapper around the engine's metrics provider seam.

:class:`ResilientProvider` decorates any
:class:`~repro.metrics.provider.MetricsProvider` with the policies from
:mod:`repro.resilience.policy`.  It publishes degradation events on the
engine's :class:`~repro.core.events.EventBus` (``PROVIDER_RETRY``,
``CIRCUIT_*``) so the dashboard and CLI can show a dependency limping
before it takes a rollout down with it.

Since events carry a ``strategy`` field, wrapper events use a *label*
(``provider:prometheus``) as their scope instead — they describe a
shared dependency, not one enactment.
"""

from __future__ import annotations

import asyncio

from ..clock import Clock, RealClock
from ..core.events import Event, EventBus, EventKind
from ..metrics.provider import MetricsProvider, ProviderError
from .policy import BreakerState, CircuitBreaker, RetryPolicy, Timeout

_CIRCUIT_EVENTS = {
    BreakerState.OPEN: EventKind.CIRCUIT_OPENED,
    BreakerState.HALF_OPEN: EventKind.CIRCUIT_HALF_OPEN,
    BreakerState.CLOSED: EventKind.CIRCUIT_CLOSED,
}


class ResilientProvider(MetricsProvider):
    """Retry/timeout/circuit-break any metrics provider.

    Exhausted retries (and a refused open circuit) surface as
    :class:`~repro.metrics.provider.ProviderError`, so checks see the same
    failure type they already handle — resilience changes *when* a query
    fails, never *how*.
    """

    def __init__(
        self,
        inner: MetricsProvider,
        clock: Clock | None = None,
        *,
        retry: RetryPolicy | None = None,
        timeout: Timeout | float | None = None,
        breaker: CircuitBreaker | None = None,
        bus: EventBus | None = None,
        label: str | None = None,
    ):
        self.label = label or f"provider:{inner.name}"
        self.clock = clock or RealClock()
        self.retry = retry or RetryPolicy()
        self.timeout = Timeout(timeout) if isinstance(timeout, (int, float)) else timeout
        self.breaker = breaker
        self.bus = bus
        self.inner = inner
        self.name = inner.name

    async def query(self, query: str) -> float | None:
        seen = 0
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            allowed, seen = await self._check_breaker(seen)
            if not allowed:
                raise ProviderError(
                    f"{self.label}: circuit open, call refused"
                ) from last_error
            try:
                call = self.inner.query(query)
                if self.timeout is not None:
                    value = await self.timeout.guard(self.clock, call)
                else:
                    value = await call
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                last_error = exc
                seen = await self._record(False, seen)
                if attempt >= self.retry.retries:
                    break
                delay = self.retry.delay(attempt, key=query)
                await self._publish(
                    EventKind.PROVIDER_RETRY,
                    {
                        "query": query,
                        "attempt": attempt + 1,
                        "delay": delay,
                        "error": str(exc),
                    },
                )
                await self.clock.sleep(delay)
            else:
                await self._record(True, seen)
                return value
        assert last_error is not None
        if isinstance(last_error, ProviderError):
            raise last_error
        raise ProviderError(
            f"{self.label}: query failed after {self.retry.attempts} attempts: "
            f"{last_error}"
        ) from last_error

    async def close(self) -> None:
        await self.inner.close()

    async def _publish(self, kind: EventKind, data: dict) -> None:
        if self.bus is None:
            return
        await self.bus.publish(
            Event(kind=kind, strategy=self.label, at=self.clock.now(), data=data)
        )

    async def _publish_breaker_transitions(self, seen: int) -> int:
        """Publish any breaker transitions recorded past index *seen*."""
        if self.breaker is None:
            return seen
        transitions = self.breaker.transitions
        for at, old, new in transitions[seen:]:
            await self._publish(
                _CIRCUIT_EVENTS[new],
                {"from": old.value, "to": new.value, "at": at},
            )
        return len(transitions)

    async def _check_breaker(self, seen: int) -> tuple[bool, int]:
        if self.breaker is None:
            return True, seen
        allowed = self.breaker.allow()
        seen = await self._publish_breaker_transitions(seen)
        return allowed, seen

    async def _record(self, success: bool, seen: int) -> int:
        if self.breaker is None:
            return seen
        if success:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        return await self._publish_breaker_transitions(seen)

