"""Shared check scheduler: one timer heap for every check tick.

The historical engine paid one asyncio task plus one pending ``clock.sleep``
per check — the paper's Figure 9/10 sweep (hundreds to thousands of
parallel checks) therefore meant hundreds to thousands of parked tasks,
each woken individually per tick.  :class:`CheckScheduler` replaces that
with a single heap-driven driver task: every scheduled check contributes
one heap entry, the driver sleeps until the earliest deadline, and the
checks due together are evaluated as one *wave*.  Each distinct
``(provider, query)`` in flight is fetched once, by one short-lived task,
and its answer is handed to every check that asked: the checks of one
wave, and any check of a later wave that asked while it was in flight.

Tick semantics — exception-check preemption, ``onProviderError``
hold/tolerate handling, observer callbacks — live in
:class:`~repro.core.checks.CheckProgress`.  A property test holds the
scheduler to a one-loop-per-check oracle folding ticks through the same
object, under a :class:`~repro.clock.VirtualClock`.

Cost model: N checks waiting for their next tick cost one parked timer
(the driver's sleep) and zero dedicated tasks; a wave costs one task per
question not already in flight, none per check.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import logging

from ..clock import Clock
from ..metrics.provider import MetricsProvider
from .checks import (
    Answer,
    Check,
    CheckError,
    CheckProgress,
    CheckResult,
    ExceptionTriggered,
    ExecutionObserver,
    fetch_answer,
)

logger = logging.getLogger(__name__)


class _Fetch:
    """One provider call, owned by the checks still waiting for it,
    whichever dispatch asked."""

    __slots__ = ("key", "provider", "query", "askers", "waiting", "task")

    def __init__(self, key: tuple[int, str], provider: MetricsProvider, query: str):
        self.key = key
        self.provider = provider
        self.query = query
        #: (entry, position of the question among the entry's queries)
        self.askers: list[tuple[_Entry, int]] = []
        self.waiting = 0
        self.task: asyncio.Task[None] | None = None


class _Entry:
    """One scheduled check: its progress, remaining ticks, and result future."""

    __slots__ = (
        "check",
        "providers",
        "observer",
        "on_complete",
        "progress",
        "remaining",
        "future",
        "answers",
        "fetches",
    )

    def __init__(
        self,
        check: Check,
        providers: dict[str, MetricsProvider],
        observer: ExecutionObserver | None,
        on_complete,
        future: "asyncio.Future[CheckResult]",
    ):
        self.check = check
        self.providers = providers
        self.observer = observer
        self.on_complete = on_complete
        self.progress = CheckProgress(check)
        self.remaining = check.timer.repetitions
        self.future = future
        #: This tick's answers, one slot per query, and the fetches it
        #: asked whose answer has not arrived yet.
        self.answers: list[Answer | None] = []
        self.fetches: list[_Fetch] = []


class CheckScheduler:
    """Runs many checks' timed loops off one heap and one driver task.

    ``schedule`` arms a check and returns a future resolving to its
    :class:`CheckResult` (or raising :class:`ExceptionTriggered` /
    whatever the evaluation raised).  Cancelling the future deschedules
    the check and withdraws it from the fetches it waits on — a fetch
    nobody waits on any more is cancelled, one somebody does is not —
    which is how the engine implements exception-check preemption: the
    first triggered check fails its future, and the state executor
    cancels the rest.

    The driver starts lazily on the first ``schedule`` and exits on its
    own once no checks remain, so a scheduler needs no explicit lifecycle
    management; ``close`` exists for eager teardown (engine shutdown).
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self._heap: list[tuple[float, int, _Entry]] = []
        self._sequence = itertools.count()
        self._active: set[_Entry] = set()
        self._wake = asyncio.Event()
        self._driver: asyncio.Task[None] | None = None
        self._fetching: set[asyncio.Task[None]] = set()
        #: Every fetch whose answer has not been handed out, by
        #: ``(id(provider), query)``: a due check joins the one it finds.
        self._inflight: dict[tuple[int, str], _Fetch] = {}
        #: How many dispatches grouped 2+ same-deadline checks into one
        #: evaluation wave, and the size of the latest wave (observability
        #: for the shared-evaluation-plan path).
        self.tick_waves = 0
        self.last_wave_size = 0

    def schedule(
        self,
        check: Check,
        providers: dict[str, MetricsProvider],
        observer: ExecutionObserver | None = None,
        on_complete=None,
    ) -> "asyncio.Future[CheckResult]":
        """Arm *check*'s timer loop; returns a future for its final result.

        *observer* is invoked after every recorded execution.
        *on_complete*, when given, is awaited with the final
        :class:`CheckResult` right before the future resolves successfully
        (the engine publishes CHECK_COMPLETED there without needing a
        dedicated awaiting task per check).
        """
        future: asyncio.Future[CheckResult] = (
            asyncio.get_running_loop().create_future()
        )
        entry = _Entry(check, providers, observer, on_complete, future)
        # Arming a check subscribes its queries to any plan-aware provider:
        # subexpressions shared with other scheduled checks intern into one
        # evaluation-plan node before the first tick fires.
        check.condition.subscribe(providers)
        self._active.add(entry)
        future.add_done_callback(
            lambda done, entry=entry: self._on_future_done(entry, done)
        )
        self._arm(entry, self.clock.now() + check.timer.interval)
        self._ensure_driver()
        return future

    # -- internal machinery ------------------------------------------------

    def _arm(self, entry: _Entry, deadline: float) -> None:
        heapq.heappush(self._heap, (deadline, next(self._sequence), entry))
        self._wake.set()

    def _ensure_driver(self) -> None:
        if self._driver is None or self._driver.done():
            self._driver = asyncio.get_running_loop().create_task(self._drive())

    async def _drive(self) -> None:
        while True:
            self._dispatch_due()
            if not self._active:
                return
            # Drop dead entries from the heap top so their stale deadlines
            # cannot stretch the next sleep.
            while self._heap and self._heap[0][2].future.done():
                heapq.heappop(self._heap)
            if not self._heap:
                # Every live check is mid-evaluation; its completion will
                # re-arm the heap (or finish) and set the wake event.
                await self._wait_for_wake(None)
                continue
            deadline = self._heap[0][0]
            now = self.clock.now()
            if deadline > now:
                await self._wait_for_wake(deadline - now)

    def _dispatch_due(self) -> None:
        """Dispatch every due check as one evaluation wave.

        Due entries are drained from the heap *before* any task is
        created.  Each ``(provider, query)`` they ask joins the fetch
        already in flight for it, from this dispatch or an earlier one,
        or becomes a new fetch: a question costs one task and one provider
        call however many checks ask it while it is out, and checks that
        share a fetch decide on the same evidence.  Providers are told
        apart by identity, so a wrapper around a provider is a different
        one.
        """
        now = self.clock.now()
        heap = self._heap
        due: list[_Entry] = []
        while heap and heap[0][0] <= now:
            _, _, entry = heapq.heappop(heap)
            if not entry.future.done():
                due.append(entry)
        if not due:
            return
        if len(due) > 1:
            self.tick_waves += 1
            self.last_wave_size = len(due)
        inflight = self._inflight
        issued: list[_Fetch] = []
        for entry in due:
            try:
                asked = entry.check.condition.questions(entry.providers)
            except CheckError as exc:
                self._finish(entry, error=exc)
                continue
            entry.answers = [None] * len(asked)
            for position, (provider, query) in enumerate(asked):
                key = (id(provider), query)
                fetch = inflight.get(key)
                if fetch is None:
                    fetch = inflight[key] = _Fetch(key, provider, query)
                    issued.append(fetch)
                fetch.askers.append((entry, position))
                fetch.waiting += 1
                entry.fetches.append(fetch)
        loop = asyncio.get_running_loop()
        for fetch in issued:
            fetch.task = loop.create_task(self._fetch(fetch))
            self._fetching.add(fetch.task)
            fetch.task.add_done_callback(self._fetching.discard)

    async def _wait_for_wake(self, timeout: float | None) -> None:
        """Park until the next deadline or until new/changed work arrives."""
        if self._wake.is_set():
            self._wake.clear()
            return
        waker = asyncio.ensure_future(self._wake.wait())
        if timeout is None:
            try:
                await waker
            finally:
                waker.cancel()
            self._wake.clear()
            return
        sleeper = asyncio.ensure_future(self.clock.sleep(timeout))
        try:
            await asyncio.wait(
                (waker, sleeper), return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            waker.cancel()
            sleeper.cancel()
        self._wake.clear()

    async def _fetch(self, fetch: _Fetch) -> None:
        """Ask one question, then fold every check whose last answer it was."""
        answer = await fetch_answer(fetch.provider, fetch.query)
        # Leave the table before anything is folded, so no check joins a
        # fetch that has answered: the next tick asks afresh.
        self._leave_table(fetch)
        # Hand the answer out before folding anything: from here on no
        # entry lists this fetch, so a check cancelled while a peer's
        # observer runs cannot cancel the task out from under the rest.
        complete: list[_Entry] = []
        for entry, position in fetch.askers:
            if entry.future.done():
                continue
            entry.answers[position] = answer
            entry.fetches.remove(fetch)
            if not entry.fetches:
                complete.append(entry)
        for entry in complete:
            if not entry.future.done():
                await self._fold(entry)

    async def _fold(self, entry: _Entry) -> None:
        """One tick: decide on the wave's answers, fold in, re-arm or finish."""
        try:
            evaluation = await entry.check.condition.evaluate_detailed(
                entry.providers, entry.answers
            )
            at = self.clock.now()
            outcome = entry.progress.apply(evaluation, at)
            if outcome.execution is not None and entry.observer is not None:
                seen = entry.observer(entry.check, outcome.execution)
                if seen is not None and asyncio.iscoroutine(seen):
                    await seen
            if outcome.triggered:
                self._finish(entry, error=ExceptionTriggered(entry.check, at))
                return
            entry.remaining -= 1
            if entry.remaining <= 0:
                await self._finish_result(entry)
            elif not entry.future.done():
                self._arm(entry, self.clock.now() + entry.check.timer.interval)
        except Exception as exc:  # defensive: a broken observer or callback
            self._finish(entry, error=exc)

    async def _finish_result(self, entry: _Entry) -> None:
        result = entry.progress.result()
        on_complete = entry.on_complete
        if on_complete is not None and not entry.future.done():
            try:
                outcome = on_complete(result)
                if outcome is not None and asyncio.iscoroutine(outcome):
                    await outcome
            except asyncio.CancelledError:
                raise
            except Exception:
                logger.exception(
                    "check %r completion callback failed", entry.check.name
                )
        if not entry.future.done():
            entry.future.set_result(result)

    def _finish(self, entry: _Entry, error: BaseException) -> None:
        if not entry.future.done():
            entry.future.set_exception(error)

    def _on_future_done(
        self, entry: _Entry, future: "asyncio.Future[CheckResult]"
    ) -> None:
        self._active.discard(entry)
        # Whatever the check still waited for loses an owner; a fetch
        # without owners leaves the table and is cancelled, not leaked.
        for fetch in entry.fetches:
            fetch.waiting -= 1
            if fetch.waiting == 0 and self._leave_table(fetch):
                fetch.task.cancel()
        entry.fetches = []
        # Wake the driver so it can re-plan (or exit when idle).
        self._wake.set()

    def _leave_table(self, fetch: _Fetch) -> bool:
        """Take *fetch* out of the in-flight table; False if it had left."""
        if self._inflight.get(fetch.key) is not fetch:
            return False
        del self._inflight[fetch.key]
        return True

    @property
    def pending_checks(self) -> int:
        """How many checks are currently scheduled (observability)."""
        return len(self._active)

    async def close(self) -> None:
        """Cancel every scheduled check, its fetches, and the driver."""
        for entry in list(self._active):
            entry.future.cancel()
        stopping = list(self._fetching)
        if self._driver is not None and not self._driver.done():
            stopping.append(self._driver)
        for task in stopping:
            task.cancel()
        self._inflight.clear()
        await asyncio.gather(*stopping, return_exceptions=True)
        self._driver = None
        self._heap.clear()
