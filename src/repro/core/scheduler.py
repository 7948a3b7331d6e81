"""Shared check scheduler: one timer heap for every check tick.

The historical engine paid one asyncio task plus one pending ``clock.sleep``
per check — the paper's Figure 9/10 sweep (hundreds to thousands of
parallel checks) therefore meant hundreds to thousands of parked tasks,
each woken individually per tick.  :class:`CheckScheduler` replaces that
with a single heap-driven driver task: every scheduled check contributes
one heap entry, the driver sleeps until the earliest deadline, and the
checks due together are evaluated as one *wave*.  Each distinct
``(provider, query)`` in flight is fetched once, and its answer is handed
to every check that asked: the checks of one wave, and any check of a
later wave that asked while it was in flight.  The new questions one
dispatch asks of one provider are one short-lived task and one
:meth:`~repro.metrics.provider.MetricsProvider.ask` call, which folds
each check in the step that brought its last answer.

Tick semantics — exception-check preemption, ``onProviderError``
hold/tolerate handling, observer callbacks — live in
:class:`~repro.core.checks.CheckProgress`.  A property test holds the
scheduler to a one-loop-per-check oracle folding ticks through the same
object, under a :class:`~repro.clock.VirtualClock`.

Cost model: N checks waiting for their next tick cost one parked timer
(the driver's sleep) and zero dedicated tasks; a wave costs one task per
provider it asks a question not already in flight, none per check.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import logging
from contextlib import aclosing
from typing import AsyncIterator

from ..clock import Clock
from ..metrics.provider import Asked, MetricsProvider
from .checks import (
    Answer,
    Check,
    CheckError,
    CheckProgress,
    CheckResult,
    ExceptionTriggered,
    ExecutionObserver,
    answer_of,
)

logger = logging.getLogger(__name__)


class _Fetch:
    """One question out to a provider, owned by the checks still waiting
    for it, whichever dispatch asked."""

    __slots__ = ("key", "query", "askers", "waiting", "batch")

    def __init__(self, key: tuple[int, str], query: str, batch: "_Batch"):
        self.key = key
        self.query = query
        #: (entry, position of the question among the entry's queries)
        self.askers: list[tuple[_Entry, int]] = []
        self.waiting = 0
        self.batch = batch


class _Batch:
    """The new questions one dispatch asks of one provider: one task, one
    :meth:`~repro.metrics.provider.MetricsProvider.ask` call."""

    __slots__ = ("provider", "fetches", "live", "folding", "answers", "task")

    def __init__(self, provider: MetricsProvider):
        self.provider = provider
        #: The batch's fetches in ``ask`` order, until its task takes them.
        self.fetches: list[_Fetch] | None = []
        #: How many of the fetches are still in the in-flight table.
        self.live = 0
        self.folding = False
        self.answers: AsyncIterator[Asked] | None = None
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
    the check and withdraws it from the fetches it waits on — a provider
    call none of whose questions anybody waits on any more is cancelled,
    one with a question somebody does is not — which is how the engine
    implements exception-check preemption: the
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
        #: The batches whose task has not finished.
        self._batches: set[_Batch] = set()
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
        or becomes a new fetch: a question is asked once however many
        checks ask it while it is out, and checks that share a fetch
        decide on the same evidence.  The new fetches of one provider
        are one batch: one task and one ``ask`` call.  Providers are told
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
        batches: dict[int, _Batch] = {}
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
                    batch = batches.get(key[0])
                    if batch is None:
                        batch = batches[key[0]] = _Batch(provider)
                    fetch = inflight[key] = _Fetch(key, query, batch)
                    batch.fetches.append(fetch)
                fetch.askers.append((entry, position))
                fetch.waiting += 1
                entry.fetches.append(fetch)
        # ``ask`` is called here, not in the batch task: a provider may
        # start its queries at once (the default ``ask`` does), as early
        # as a task per question used to.
        loop = asyncio.get_running_loop()
        for batch in batches.values():
            batch.live = len(batch.fetches)
            batch.answers = batch.provider.ask([fetch.query for fetch in batch.fetches])
            batch.task = loop.create_task(self._ask(batch))
            self._batches.add(batch)
            batch.task.add_done_callback(
                lambda _, batch=batch: self._batches.discard(batch)
            )

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

    async def _ask(self, batch: _Batch) -> None:
        """Ask one provider a batch; fold each check whose last answer
        arrives in the step that brought it."""
        # The batch lets go of its answers, so they are freed with this
        # frame; close() closes those of a task that never started.
        # Nor does it keep its fetches: each points back at it, and that
        # cycle would wait for the collector.
        fetches, answers = batch.fetches, batch.answers
        batch.fetches = batch.answers = None
        async with aclosing(answers):
            try:
                async for position, value in answers:
                    await self._deliver(fetches[position], value)
                    if not batch.live:
                        return  # the rest has no owner left
            except Exception as exc:  # an ask that raised instead of answering
                for fetch in fetches:
                    if self._inflight.get(fetch.key) is fetch:
                        await self._deliver(fetch, exc)

    async def _deliver(self, fetch: _Fetch, value: float | None | Exception) -> None:
        """Hand *fetch*'s answer out, then fold every check it completed."""
        answer = answer_of(fetch.query, value)
        # Leave the table before anything is folded, so no check joins a
        # fetch that has answered: the next tick asks afresh.
        batch = fetch.batch
        if self._leave_table(fetch):
            batch.live -= 1
        # Hand the answer out before folding anything: from here on no
        # entry lists this fetch, so a check cancelled while a peer's
        # observer runs cannot take the fetch's owners away.
        complete: list[_Entry] = []
        for entry, position in fetch.askers:
            if entry.future.done():
                continue
            entry.answers[position] = answer
            entry.fetches.remove(fetch)
            if not entry.fetches:
                complete.append(entry)
        if complete:
            # While a fold runs, a batch that loses its last owner is not
            # cancelled under it: _ask stops once the fold is done.
            batch.folding = True
            for entry in complete:
                if not entry.future.done():
                    await self._fold(entry)
            batch.folding = False

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
        # without owners leaves the table, and a batch whose fetches all
        # left it is cancelled, not leaked (or, mid-fold, stops after).
        for fetch in entry.fetches:
            fetch.waiting -= 1
            if fetch.waiting == 0 and self._leave_table(fetch):
                batch = fetch.batch
                batch.live -= 1
                if not batch.live and not batch.folding:
                    batch.task.cancel()
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
        """Cancel every scheduled check, its batches, and the driver."""
        for entry in list(self._active):
            entry.future.cancel()
        batches = list(self._batches)
        stopping = [batch.task for batch in batches]
        if self._driver is not None and not self._driver.done():
            stopping.append(self._driver)
        for task in stopping:
            task.cancel()
        self._inflight.clear()
        await asyncio.gather(*stopping, return_exceptions=True)
        for batch in batches:
            if batch.answers is not None:  # its task never started
                await batch.answers.aclose()
        self._driver = None
        self._heap.clear()
