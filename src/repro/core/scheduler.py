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
provider it asks a question not already in flight, none per check.  The
checks scheduled together (a phase's) are one group with one future,
resolved when the last completes: completing a check costs no future, no
callback and no driver wake, only a flag and a counter.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import logging
import math
from contextlib import aclosing
from typing import AsyncIterator, Awaitable

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
from .events import DELIVERED

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
    """One scheduled check: its progress, remaining ticks, and its place
    in its group."""

    __slots__ = (
        "check",
        "group",
        "slot",
        "done",
        "progress",
        "remaining",
        "answers",
        "fetches",
    )

    def __init__(self, check: Check, group: "_Group", slot: int):
        self.check = check
        self.group = group
        #: This check's position among its group's results.
        self.slot = slot
        self.done = False
        self.progress = CheckProgress(check)
        self.remaining = check.timer.repetitions
        #: This tick's answers, one slot per query, and the fetches it
        #: asked whose answer has not arrived yet.
        self.answers: list[Answer | None] = []
        self.fetches: list[_Fetch] = []


class _Group(asyncio.Future):
    """Checks scheduled together (a phase's, or one alone) and the one
    future they share.

    It resolves to the checks' :class:`CheckResult` list, in scheduling
    order, once the last completes (to the result itself for a check
    scheduled alone), or fails with the first exception one of them
    raises.
    """

    __slots__ = (
        "scheduler",
        "providers",
        "observer",
        "on_complete",
        "single",
        "entries",
        "results",
        "left",
    )

    def __init__(self, scheduler: "CheckScheduler", providers, observer, on_complete, single):
        super().__init__(loop=asyncio.get_running_loop())
        self.scheduler = scheduler
        self.providers = providers
        self.observer = observer
        self.on_complete = on_complete
        self.single = single
        #: The checks, in order, until the group is settled: each entry
        #: points back at its group, and that cycle would wait for the
        #: collector.
        self.entries: list[_Entry] | tuple[()] = []
        self.results: list[CheckResult | None] = []
        #: How many of the checks have not completed yet.
        self.left = 0

    def cancel(self, msg=None) -> bool:
        # Cancelling the group, or the task awaiting it, retires its checks
        # in this step: none is folded again, none keeps a fetch.
        if not self.done():
            self.scheduler._retire_group(self)
        return super().cancel(msg)


async def _then(pending: Awaitable[None], step, *args) -> None:
    """Await *pending*, then ``step(*args)`` and the coroutine it returns."""
    await pending
    if (pending := step(*args)) is not None:
        await pending


class CheckScheduler:
    """Runs many checks' timed loops off one heap and one driver task.

    ``schedule_group`` arms a phase's checks as one group and returns one
    future resolving to their :class:`CheckResult` list, in order, once
    the last completes; ``schedule`` arms a check alone, a group of one
    whose future resolves to its result.  The first check to raise
    (:class:`ExceptionTriggered`, or whatever the evaluation raised)
    fails the future and retires every sibling in the same step, which is
    the model's exception-check preemption.  Retiring a check deschedules
    it and withdraws it from the fetches it waits on — a provider call
    none of whose questions anybody waits on any more is cancelled, one
    with a question somebody does is not.  Cancelling the future retires
    every check of the group still scheduled.

    The driver starts lazily on the first ``schedule`` and exits on its
    own once no checks remain, so a scheduler needs no explicit lifecycle
    management; ``close`` exists for eager teardown (engine shutdown).
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self._heap: list[tuple[float, int, _Entry]] = []
        self._sequence = itertools.count()
        #: How many checks are scheduled, and the groups they belong to.
        self._pending = 0
        self._groups: set[_Group] = set()
        self._wake = asyncio.Event()
        #: The parked driver's deadline (``inf``: none; ``-inf``: not parked).
        self._sleep_until = -math.inf
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
        """Arm *check* alone; returns a future for its final result."""
        return self._schedule((check,), providers, observer, on_complete, single=True)

    def schedule_group(
        self,
        checks,
        providers: dict[str, MetricsProvider],
        observer: ExecutionObserver | None = None,
        on_complete=None,
    ) -> "asyncio.Future[list[CheckResult]]":
        """Arm *checks* together; returns one future for their results.

        *observer* is invoked after every recorded execution.
        *on_complete*, when given, is awaited with each check's final
        :class:`CheckResult` before that check counts as complete (the
        engine publishes CHECK_COMPLETED there without needing a
        dedicated awaiting task per check).
        """
        return self._schedule(checks, providers, observer, on_complete, single=False)

    def _schedule(self, checks, providers, observer, on_complete, single) -> _Group:
        # Arming a check subscribes its queries to any plan-aware provider:
        # subexpressions shared with other scheduled checks intern into one
        # evaluation-plan node before the first tick fires.
        for check in checks:
            check.condition.subscribe(providers)
        group = _Group(self, providers, observer, on_complete, single)
        if not checks:
            group.set_result([])
            return group
        now = self.clock.now()
        entries = group.entries
        for slot, check in enumerate(checks):
            entry = _Entry(check, group, slot)
            entries.append(entry)
            self._arm(entry, now + check.timer.interval)
        group.left = len(entries)
        group.results = [None] * len(entries)
        self._pending += len(entries)
        self._groups.add(group)
        self._ensure_driver()
        return group

    # -- internal machinery ------------------------------------------------

    def _arm(self, entry: _Entry, deadline: float) -> None:
        heapq.heappush(self._heap, (deadline, next(self._sequence), entry))
        # Only a parked driver that would sleep past *deadline* needs waking.
        if deadline < self._sleep_until:
            self._wake.set()

    def _ensure_driver(self) -> None:
        if self._driver is None or self._driver.done():
            self._driver = asyncio.get_running_loop().create_task(self._drive())

    async def _drive(self) -> None:
        while True:
            self._dispatch_due()
            if not self._pending:
                return
            # Drop dead entries from the heap top so their stale deadlines
            # cannot stretch the next sleep.
            while self._heap and self._heap[0][2].done:
                heapq.heappop(self._heap)
            if not self._heap:
                # Every live check is mid-evaluation; a re-arm, or the last
                # check retiring, sets the wake event.
                await self._wait_for_wake(math.inf)
                continue
            deadline = self._heap[0][0]
            if deadline > self.clock.now():
                await self._wait_for_wake(deadline)

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
            if not entry.done:
                due.append(entry)
        if not due:
            return
        if len(due) > 1:
            self.tick_waves += 1
            self.last_wave_size = len(due)
        # Every check names its questions before any joins a fetch: one
        # that cannot fails its group, whose due siblings then ask nothing.
        asking: list[tuple[_Entry, list]] = []
        for entry in due:
            if entry.done:
                continue
            try:
                asking.append((entry, entry.check.condition.questions(entry.group.providers)))
            except CheckError as exc:
                self._finish(entry, error=exc)
        inflight = self._inflight
        batches: dict[int, _Batch] = {}
        for entry, asked in asking:
            if entry.done:
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

    async def _wait_for_wake(self, deadline: float) -> None:
        """Park until *deadline* (``inf``: none), an earlier arm or a finish."""
        if self._wake.is_set():
            self._wake.clear()
            return
        self._sleep_until = deadline
        waiting = [asyncio.ensure_future(self._wake.wait())]
        if deadline < math.inf:
            waiting.append(asyncio.ensure_future(self.clock.sleep(deadline - self.clock.now())))
        try:
            await asyncio.wait(waiting, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for waiter in waiting:
                waiter.cancel()
            self._sleep_until = -math.inf
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
            if not batch.live:
                return  # every owner left before the task started
            try:
                async for position, value in answers:
                    if (folding := self._deliver(fetches[position], value)) is not None:
                        await folding
                    if not batch.live:
                        return  # the rest has no owner left
            except Exception as exc:  # an ask that raised instead of answering
                for fetch in fetches:
                    if self._inflight.get(fetch.key) is fetch:
                        if (folding := self._deliver(fetch, exc)) is not None:
                            await folding

    def _deliver(self, fetch: _Fetch, value: float | None | Exception) -> Awaitable[None] | None:
        """Hand *fetch*'s answer out, then fold every check it completed
        (``None``, or a coroutine that finishes the folds)."""
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
            if entry.done:
                continue
            entry.answers[position] = answer
            entry.fetches.remove(fetch)
            if not entry.fetches:
                complete.append(entry)
        return self._fold_each(batch, complete) if complete else None

    def _fold_each(self, batch: _Batch, entries: list[_Entry]) -> Awaitable[None] | None:
        """Fold *entries* in order, up to one that returns a coroutine;
        then a coroutine that awaits it and folds the rest."""
        # While a fold runs or waits, a batch that loses its last owner (a
        # sibling's trigger, an observer cancelling) is not cancelled
        # under it: _ask stops once the fold is done.
        batch.folding = True
        for index, entry in enumerate(entries):
            if not entry.done and (pending := self._fold(entry)) is not None:
                return _then(pending, self._fold_each, batch, entries[index + 1 :])
        batch.folding = False
        return None

    def _fold(self, entry: _Entry) -> Awaitable[None] | None:
        """One tick: decide on the wave's answers, fold in, re-arm or finish;
        a coroutine only if the observer or ``on_complete`` returned one."""
        group = entry.group
        try:
            evaluation = entry.check.condition.evaluate_detailed(
                group.providers, entry.answers
            )
            at = self.clock.now()
            outcome = entry.progress.apply(evaluation, at)
            if outcome.execution is not None and group.observer is not None:
                seen = group.observer(entry.check, outcome.execution)
                if seen is not None and seen is not DELIVERED:
                    return self._fold_after(entry, seen, outcome.triggered, at)
            return self._advance(entry, outcome.triggered, at)
        except Exception as exc:  # defensive: a broken observer or callback
            self._finish(entry, error=exc)
            return None

    async def _fold_after(self, entry: _Entry, seen, triggered: bool, at: float) -> None:
        try:
            await _then(seen, self._advance, entry, triggered, at)
        except Exception as exc:
            self._finish(entry, error=exc)

    def _advance(self, entry: _Entry, triggered: bool, at: float) -> Awaitable[None] | None:
        """Trigger, re-arm at ``at + interval``, or finish (returning
        ``on_complete``'s coroutine, if it returned one)."""
        if triggered:
            self._finish(entry, error=ExceptionTriggered(entry.check, at))
            return None
        entry.remaining -= 1
        if entry.remaining <= 0:
            return self._finish_result(entry)
        if not entry.done:
            self._arm(entry, at + entry.check.timer.interval)
        return None

    def _finish_result(self, entry: _Entry) -> Awaitable[None] | None:
        if entry.done:
            return None
        result = entry.progress.result()
        done = None
        on_complete = entry.group.on_complete
        if on_complete is not None:
            try:
                done = on_complete(result)
            except Exception:
                logger.exception("check %r completion callback failed", entry.check.name)
        if done is not None and done is not DELIVERED:
            return self._complete_after(done, entry, result)
        self._complete(entry, result)
        return None

    async def _complete_after(self, done, entry: _Entry, result: CheckResult) -> None:
        try:
            await done
        except Exception:
            logger.exception("check %r completion callback failed", entry.check.name)
        self._complete(entry, result)

    def _complete(self, entry: _Entry, result: CheckResult) -> None:
        """Record *entry*'s result; the group's last one resolves it."""
        if entry.done:
            return
        group = entry.group
        group.results[entry.slot] = result
        self._retire(entry)
        group.left -= 1
        if not group.left:
            self._retire_group(group)
            group.set_result(group.results[0] if group.single else group.results)

    def _finish(self, entry: _Entry, error: BaseException) -> None:
        """Fail *entry*'s group with *error*, retiring every sibling now."""
        if entry.done:
            return
        group = entry.group
        self._retire_group(group)
        group.set_exception(error)

    def _retire_group(self, group: _Group) -> None:
        """Retire every check of *group* still scheduled, and let go of
        them (before the group is settled or cancelled)."""
        for entry in group.entries:
            if not entry.done:
                self._retire(entry)
        group.entries = ()
        self._groups.discard(group)

    def _retire(self, entry: _Entry) -> None:
        entry.done = True
        self._pending -= 1
        # Whatever the check still waited for loses an owner; a fetch
        # without owners leaves the table, and a batch whose fetches all
        # left it is cancelled, not leaked (or, mid-fold, stops after; or,
        # not started yet while the batch still holds its answers, stops
        # first thing and closes them).
        if entry.fetches:
            for fetch in entry.fetches:
                fetch.waiting -= 1
                if fetch.waiting == 0 and self._leave_table(fetch):
                    batch = fetch.batch
                    batch.live -= 1
                    if not batch.live and not batch.folding and batch.answers is None:
                        batch.task.cancel()
            entry.fetches = []
        # The driver parks with no deadline while every check is
        # mid-evaluation; it needs waking only to exit.
        if not self._pending:
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
        return self._pending

    async def close(self) -> None:
        """Cancel every scheduled check, its batches, and the driver."""
        for group in list(self._groups):
            group.cancel()
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
