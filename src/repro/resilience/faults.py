"""Deterministic fault injection for providers, controllers, and upstreams.

Resilience code is only trustworthy if its failure paths are exercised,
and failure paths are only testable if failures happen *on schedule*.
This toolkit wraps the three seams the middleware talks to the world
through:

* :class:`FaultSchedule` — decides, per call, whether a fault fires.
  Rules are pure functions of ``(call_index, clock_now)``, so a given
  schedule against a given workload always injects the same faults.
  Probabilistic rules (:meth:`FaultSchedule.seeded`) hash
  ``(seed, key, call_index)`` instead of drawing from shared RNG state,
  so they stay deterministic across runs *and* across shard/worker
  counts.  Declarative outage windows are validated at construction:
  unsorted or overlapping windows raise :class:`FaultScheduleError`
  instead of silently resolving by match order.
* :class:`ErrorFault` / :class:`LatencyFault` / :class:`HangFault` — what
  firing means: raise (any exception type — ``ProviderError``, raw
  ``ConnectionError``, ...), delay by clock time, or park ~forever (to be
  killed by a :class:`~repro.resilience.policy.Timeout` or cancellation).
* :class:`FaultyProvider` / :class:`FaultyController` /
  :class:`FaultyUpstream` — the wrappers, recording every injection for
  assertions and reporting each one to an optional ``on_inject`` hook
  (the chaos controller publishes ``CHAOS_INJECTED`` events from it).

Everything sleeps on the injected clock, so a "30 s outage" costs a
virtual-clock test nothing.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Iterable

from ..clock import Clock, RealClock
from ..core.engine import ProxyController
from ..core.routing import RoutingConfig
from ..metrics.provider import MetricsProvider, ProviderError


class FaultScheduleError(ValueError):
    """A fault schedule is malformed (bad window list, bad rate, ...)."""


@dataclass(frozen=True)
class ErrorFault:
    """Raise *exception*(*message*) instead of performing the call."""

    message: str = "injected fault"
    exception: type[Exception] = ProviderError

    async def apply(self, clock: Clock) -> None:
        raise self.exception(self.message)


@dataclass(frozen=True)
class LatencyFault:
    """Delay the call by *seconds* of clock time, then let it proceed."""

    seconds: float

    async def apply(self, clock: Clock) -> None:
        await clock.sleep(self.seconds)


@dataclass(frozen=True)
class HangFault:
    """Park the call for effectively forever (default ~32 clock-years).

    Intended to be ended by a timeout policy or task cancellation; if the
    sleep somehow completes, the call still fails loudly.
    """

    seconds: float = 1e9

    async def apply(self, clock: Clock) -> None:
        await clock.sleep(self.seconds)
        raise ProviderError(f"hung call woke up after {self.seconds}s")


Fault = ErrorFault | LatencyFault | HangFault

#: (call_index starting at 1, clock now) -> does this rule's fault fire?
FaultRule = Callable[[int, float], bool]


def _seeded_fraction(seed: int, key: str, index: int) -> float:
    """Deterministic pseudo-random fraction in [0, 1) for one call.

    Hashes ``(seed, key, index)`` instead of drawing from shared RNG
    state, so injection decisions do not depend on how calls interleave
    across shards, workers, or event-loop scheduling.
    """
    digest = hashlib.blake2b(
        f"{seed}:{key}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass
class FaultSchedule:
    """An ordered list of (rule, fault) pairs; first matching rule wins.

    Clock-window rules added through :meth:`add_window` (and the
    ``during`` constructor) are validated eagerly: windows
    must be well-formed (``start < end``), added in ascending order, and
    non-overlapping.  Before this check existed a mis-declared overlap
    silently resolved by rule order, which made "which fault fired?"
    depend on construction order rather than the declared schedule.
    """

    rules: list[tuple[FaultRule, Fault]] = field(default_factory=list)
    #: validated (start, end) clock windows, ascending and disjoint.
    windows: list[tuple[float, float]] = field(default_factory=list)

    def add(self, rule: FaultRule, fault: Fault | None = None) -> "FaultSchedule":
        self.rules.append((rule, fault or ErrorFault()))
        return self

    def add_window(
        self, start: float, end: float, fault: Fault | None = None
    ) -> "FaultSchedule":
        """Add a clock-time outage window, validated at construction."""
        if not (start < end):
            raise FaultScheduleError(
                f"fault window must have start < end, got [{start}, {end})"
            )
        if self.windows:
            last_start, last_end = self.windows[-1]
            if start < last_start:
                raise FaultScheduleError(
                    f"fault windows must be sorted: [{start}, {end}) "
                    f"starts before [{last_start}, {last_end})"
                )
            if start < last_end:
                raise FaultScheduleError(
                    f"fault windows must not overlap: [{start}, {end}) "
                    f"overlaps [{last_start}, {last_end})"
                )
        self.windows.append((start, end))
        return self.add(lambda index, now: start <= now < end, fault)

    def fault_for(self, index: int, now: float) -> Fault | None:
        for rule, fault in self.rules:
            if rule(index, now):
                return fault
        return None

    # -- common shapes ----------------------------------------------------

    @classmethod
    def never(cls) -> "FaultSchedule":
        return cls()

    @classmethod
    def always(cls, fault: Fault | None = None) -> "FaultSchedule":
        """A dead dependency: every call faults."""
        return cls().add(lambda index, now: True, fault)

    @classmethod
    def every(cls, n: int, fault: Fault | None = None) -> "FaultSchedule":
        """Fail 1 of every *n* calls (call numbers n, 2n, 3n, ...)."""
        if n < 1:
            raise ValueError(f"every() needs n >= 1, got {n}")
        return cls().add(lambda index, now: index % n == 0, fault)

    @classmethod
    def first(cls, n: int, fault: Fault | None = None) -> "FaultSchedule":
        """A dependency that is down at startup: the first *n* calls fault."""
        return cls().add(lambda index, now: index <= n, fault)

    @classmethod
    def calls(cls, indices: Iterable[int], fault: Fault | None = None) -> "FaultSchedule":
        """Fault exactly the given 1-based call numbers."""
        frozen = frozenset(indices)
        return cls().add(lambda index, now: index in frozen, fault)

    @classmethod
    def during(
        cls, start: float, end: float, fault: Fault | None = None
    ) -> "FaultSchedule":
        """An outage window on the clock: faults while start <= now < end."""
        return cls().add_window(start, end, fault)

    @classmethod
    def seeded(
        cls,
        rate: float,
        seed: int,
        key: str = "fault",
        fault: Fault | None = None,
    ) -> "FaultSchedule":
        """Fault a deterministic pseudo-random *rate* fraction of calls.

        The decision for call *n* is a pure function of
        ``(seed, key, n)``; two wrappers built from the same parameters
        inject on exactly the same call indices regardless of timing.
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultScheduleError(f"fault rate must be in [0, 1], got {rate}")
        if rate == 0.0:
            return cls()
        if rate == 1.0:
            return cls.always(fault)
        return cls().add(
            lambda index, now: _seeded_fraction(seed, key, index) < rate, fault
        )


#: Called with (call_index, fault) each time a wrapper injects.
InjectionHook = Callable[[int, Fault], Awaitable[None] | None]


async def _notify(hook: InjectionHook | None, index: int, fault: Fault) -> None:
    if hook is None:
        return
    result = hook(index, fault)
    if asyncio.iscoroutine(result):
        await result


class FaultyProvider(MetricsProvider):
    """Injects scheduled faults in front of any metrics provider."""

    def __init__(
        self,
        inner: MetricsProvider,
        schedule: FaultSchedule,
        clock: Clock | None = None,
        on_inject: InjectionHook | None = None,
    ):
        self.inner = inner
        self.schedule = schedule
        self.clock = clock or RealClock()
        self.name = inner.name
        self.calls = 0
        self.on_inject = on_inject
        #: (call_index, fault) for every injection, for test assertions.
        self.injected: list[tuple[int, Fault]] = []

    async def query(self, query: str) -> float | None:
        self.calls += 1
        fault = self.schedule.fault_for(self.calls, self.clock.now())
        if fault is not None:
            self.injected.append((self.calls, fault))
            await _notify(self.on_inject, self.calls, fault)
            await fault.apply(self.clock)
        return await self.inner.query(query)

    async def close(self) -> None:
        await self.inner.close()


class FaultyController(ProxyController):
    """Injects scheduled faults in front of any proxy controller.

    Controller faults default to ``RuntimeError`` rather than
    ``ProviderError`` — a crashing proxy admin endpoint is not a metrics
    failure, and the engine's recovery paths must cope with either.
    """

    def __init__(
        self,
        inner: ProxyController,
        schedule: FaultSchedule,
        clock: Clock | None = None,
        on_inject: InjectionHook | None = None,
    ):
        self.inner = inner
        self.schedule = schedule
        self.clock = clock or RealClock()
        self.calls = 0
        self.on_inject = on_inject
        self.injected: list[tuple[int, Fault]] = []

    async def apply(
        self, service: str, config: RoutingConfig, endpoints: dict[str, str]
    ) -> None:
        self.calls += 1
        fault = self.schedule.fault_for(self.calls, self.clock.now())
        if fault is not None:
            if isinstance(fault, ErrorFault) and fault.exception is ProviderError:
                fault = ErrorFault(fault.message, RuntimeError)
            self.injected.append((self.calls, fault))
            await _notify(self.on_inject, self.calls, fault)
            await fault.apply(self.clock)
        await self.inner.apply(service, config, endpoints)


class FaultyUpstream:
    """Injects scheduled faults in the proxy's upstream client path.

    Wraps the ``HttpClient`` a :class:`~repro.proxy.server.BifrostProxy`
    uses to reach service endpoints (duck-typing its
    ``send(request, host, port)`` seam).  Error faults surface as
    ``ConnectionError`` so the proxy's normal upstream-failure handling
    (502 + ``upstream_errors`` counter) takes over — exactly what a
    flapping or dead endpoint looks like from the data plane.

    *endpoints* optionally restricts injection to a set of
    ``"host:port"`` strings, which is how endpoint flaps (one version's
    backends misbehaving) differ from service-wide upstream spikes.
    """

    def __init__(
        self,
        inner,
        schedule: FaultSchedule,
        clock: Clock | None = None,
        endpoints: frozenset[str] | None = None,
        on_inject: InjectionHook | None = None,
    ):
        self.inner = inner
        self.schedule = schedule
        self.clock = clock or RealClock()
        self.endpoints = endpoints
        self.on_inject = on_inject
        self.calls = 0
        self.injected: list[tuple[int, Fault]] = []

    def _matches(self, host: str, port: int) -> bool:
        return self.endpoints is None or f"{host}:{port}" in self.endpoints

    async def send(self, request, host: str, port: int, **kwargs):
        self.calls += 1
        if self._matches(host, port):
            fault = self.schedule.fault_for(self.calls, self.clock.now())
            if fault is not None:
                if isinstance(fault, ErrorFault) and fault.exception is ProviderError:
                    fault = ErrorFault(fault.message, ConnectionError)
                self.injected.append((self.calls, fault))
                await _notify(self.on_inject, self.calls, fault)
                await fault.apply(self.clock)
        # kwargs (timeout, stream) pass through untouched: the wrapper must
        # not change how a streaming proxy talks to its upstream.
        return await self.inner.send(request, host, port, **kwargs)

    async def close(self) -> None:
        await self.inner.close()

    def __getattr__(self, name: str):
        # transparently expose anything else the proxy pokes at
        # (idle_connections(), counters, ...) on the wrapped client.
        return getattr(self.inner, name)
