"""Time sources for timers, metrics, and experiments.

Bifrost is essentially a timed system: checks re-execute on intervals,
phases last for configured durations, and the evaluation measures *delay*
between specified and actual execution time.  All time-dependent components
therefore take a :class:`Clock` so that:

* production code uses :class:`RealClock` (monotonic time, the event
  loop's own timers);
* unit tests use :class:`VirtualClock` and advance time manually, making
  timer semantics testable in microseconds instead of real minutes.

A clock offers two ways to wait: ``sleep`` suspends a task, and
``call_at`` runs a plain callback at a deadline (the check scheduler's
one timer) and returns a handle whose ``cancel()`` withdraws it.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from typing import Callable


class Clock:
    """Abstract time source used across the middleware."""

    def now(self) -> float:
        """Current time in seconds (monotonic; epoch is arbitrary)."""
        raise NotImplementedError

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling task for *seconds* of this clock's time."""
        raise NotImplementedError

    def call_at(self, when: float, callback: Callable[[], None]):
        """Call *callback* once this clock reads *when*; returns a handle
        with ``cancel()``."""
        raise NotImplementedError


class RealClock(Clock):
    """Wall-clock time backed by ``time.monotonic`` and the event loop."""

    #: The C function itself, so a clock read runs no Python frame.
    now = staticmethod(time.monotonic)

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    def call_at(self, when: float, callback: Callable[[], None]) -> asyncio.TimerHandle:
        # The loop's clock is ``time.monotonic`` too, so *when* needs no
        # translation.
        return asyncio.get_running_loop().call_at(when, callback)


class _Timer:
    """A :class:`VirtualClock` timer; ``cancel()`` withdraws its callback."""

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[[], None]):
        self.callback = callback

    def cancel(self) -> None:
        self.callback = None


class VirtualClock(Clock):
    """A manually advanced clock for deterministic tests.

    Every timer, a ``sleep`` included, is one handle on a heap of
    deadlines; :meth:`advance` moves time forward and fires every handle
    whose deadline passed, yielding to the event loop between firings so
    woken tasks run in deadline order before later ones fire.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._timers: list[tuple[float, int, _Timer]] = []
        self._sequence = itertools.count()

    def now(self) -> float:
        return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> _Timer:
        timer = _Timer(callback)
        heapq.heappush(self._timers, (when, next(self._sequence), timer))
        return timer

    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        future: asyncio.Future[None] = asyncio.get_running_loop().create_future()
        timer = self.call_at(self._now + seconds, lambda: future.done() or future.set_result(None))
        try:
            await future
        finally:
            timer.cancel()

    async def advance(self, seconds: float) -> None:
        """Advance time by *seconds*, firing timers in deadline order.

        The loop is *settled* (yielded to repeatedly) before time moves and
        after every firing, so tasks that need several scheduler hops to
        reach their next ``sleep`` — e.g. an engine spawning check tasks
        through a TaskGroup — get to park before time passes them by.
        """
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        target = self._now + seconds
        await self._settle()
        while self._timers and self._timers[0][0] <= target:
            deadline, _, timer = heapq.heappop(self._timers)
            if timer.callback is None:
                continue  # cancelled
            self._now = max(self._now, deadline)
            timer.callback()
            await self._settle()
        self._now = target
        await self._settle()

    @staticmethod
    async def _settle(rounds: int = 50) -> None:
        """Yield enough times for ready callback/task chains to drain."""
        for _ in range(rounds):
            await asyncio.sleep(0)

    @property
    def pending_sleepers(self) -> int:
        """How many timers (sleeping tasks among them) are still to fire."""
        return sum(1 for _, _, timer in self._timers if timer.callback is not None)
