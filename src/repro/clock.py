"""Time sources for timers, metrics, and experiments.

Bifrost is essentially a timed system: checks re-execute on intervals,
phases last for configured durations, and the evaluation measures *delay*
between specified and actual execution time.  All time-dependent components
therefore take a :class:`Clock` so that:

* production code uses :class:`RealClock` (monotonic time + asyncio sleep);
* unit tests use :class:`VirtualClock` and advance time manually, making
  timer semantics testable in microseconds instead of real minutes.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time


class Clock:
    """Abstract time source used across the middleware."""

    def now(self) -> float:
        """Current time in seconds (monotonic; epoch is arbitrary)."""
        raise NotImplementedError

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling task for *seconds* of this clock's time."""
        raise NotImplementedError


class RealClock(Clock):
    """Wall-clock time backed by ``time.monotonic`` and ``asyncio.sleep``."""

    #: The C function itself, so a clock read runs no Python frame.
    now = staticmethod(time.monotonic)

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)


class VirtualClock(Clock):
    """A manually advanced clock for deterministic tests.

    ``sleep`` parks the caller on a heap of deadlines; :meth:`advance`
    moves time forward and releases every sleeper whose deadline passed,
    yielding to the event loop between releases so woken tasks run in
    deadline order before later ones are released.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._sleepers: list[tuple[float, int, asyncio.Future[None]]] = []
        self._sequence = itertools.count()

    def now(self) -> float:
        return self._now

    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        future: asyncio.Future[None] = asyncio.get_running_loop().create_future()
        heapq.heappush(self._sleepers, (self._now + seconds, next(self._sequence), future))
        await future

    async def advance(self, seconds: float) -> None:
        """Advance time by *seconds*, waking sleepers in deadline order.

        The loop is *settled* (yielded to repeatedly) before time moves and
        after every wake, so tasks that need several scheduler hops to
        reach their next ``sleep`` — e.g. an engine spawning check tasks
        through a TaskGroup — get to park before time passes them by.
        """
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        target = self._now + seconds
        await self._settle()
        while self._sleepers and self._sleepers[0][0] <= target:
            deadline, _, future = heapq.heappop(self._sleepers)
            self._now = max(self._now, deadline)
            if not future.done():
                future.set_result(None)
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
        """How many tasks are currently parked on this clock."""
        return sum(1 for _, _, future in self._sleepers if not future.done())
