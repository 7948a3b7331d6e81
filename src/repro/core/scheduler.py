"""Shared check scheduler: one timer heap for every check tick.

The historical engine paid one asyncio task plus one pending ``clock.sleep``
per check — the paper's Figure 9/10 sweep (hundreds to thousands of
parallel checks) therefore meant hundreds to thousands of parked tasks,
each woken individually per tick.  :class:`CheckScheduler` replaces that
with a single heap and one clock timer (:meth:`~repro.clock.Clock.call_at`):
every scheduled check contributes one heap entry, the timer is set for
the earliest deadline, and the checks due together when it fires are
evaluated as one *wave*.  Each distinct ``(provider, query)`` in flight
is fetched once, and its answer is handed to every check that asked: the
checks of one wave, and any check of a later wave that asked while it
was in flight.  The new questions one dispatch asks of one provider are
one short-lived task and one
:meth:`~repro.metrics.provider.MetricsProvider.ask` call, which folds
each check in the step that brought its last answer.

Tick semantics — exception-check preemption, ``onProviderError``
hold/tolerate handling, observer callbacks — live in
:class:`~repro.core.checks.CheckProgress`.  A property test holds the
scheduler to a one-loop-per-check oracle folding ticks through the same
object, under a :class:`~repro.clock.VirtualClock`.

Cost model: N checks waiting for their next tick cost one clock timer
and zero tasks; a wave costs one task per provider it asks a question
not already in flight, none per check.  A fold is plain calls: the
observer and ``on_complete`` are plain callables.  The checks scheduled
together (a phase's) are one group with one future, resolved when the
last completes: completing a check costs no future and no callback, only
a flag and a counter.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import logging
import math
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
    """One scheduled check: its progress, remaining ticks, and its place
    in its group."""

    __slots__ = (
        "check",
        "group",
        "slot",
        "due",
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
        #: The deadline this check was last armed for.
        self.due = 0.0
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


class CheckScheduler:
    """Runs many checks' timed loops off one heap and one clock timer.

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

    The timer is set by the first ``schedule`` and cancelled once no
    checks remain, so a scheduler needs no explicit lifecycle
    management; ``close`` exists for eager teardown (engine shutdown).
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self._heap: list[tuple[float, int, _Entry]] = []
        self._sequence = itertools.count()
        #: How many checks are scheduled, and the groups they belong to.
        self._pending = 0
        self._groups: set[_Group] = set()
        #: The one clock timer and the deadline it is set for (``inf``:
        #: none set; ``-inf``: a dispatch's re-arm is pending, so an arm
        #: leaves the timer to it).
        self._timer = None
        self._timer_at = math.inf
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

        *observer* is called after every recorded execution.
        *on_complete*, when given, is called with each check's final
        :class:`CheckResult` before that check counts as complete (the
        engine publishes CHECK_COMPLETED there without needing a
        dedicated awaiting task per check).  Both are plain callables.
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
        return group

    # -- internal machinery ------------------------------------------------

    def _arm(self, entry: _Entry, deadline: float) -> None:
        entry.due = deadline
        heapq.heappush(self._heap, (deadline, next(self._sequence), entry))
        # Only a deadline earlier than the timer's moves it.
        if deadline < self._timer_at:
            self._set_timer(deadline)

    def _set_timer(self, deadline: float) -> None:
        """Set the one timer for *deadline* (``inf``: none)."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer_at = deadline
        self._timer = self.clock.call_at(deadline, self._on_timer) if deadline < math.inf else None

    def _on_timer(self) -> None:
        """Dispatch what is due; set the next timer once the batches this
        started have taken their first step, so an answer due at an
        instant lands before a dispatch due at the same instant."""
        self._timer_at = -math.inf
        self._dispatch_due()
        asyncio.get_running_loop().call_soon(self._rearm)

    def _rearm(self) -> None:
        # Unless the last check retired since, or a new one set the timer.
        if self._timer_at == -math.inf:
            # Dead entries on the heap top must not set the timer early; an
            # empty heap means every live check is mid-evaluation, and its
            # re-arm sets the timer.
            heap = self._heap
            while heap and heap[0][2].done:
                heapq.heappop(heap)
            self._set_timer(heap[0][0] if heap else math.inf)

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
                    self._deliver(fetches[position], value)
                    if not batch.live:
                        return  # the rest has no owner left
            except Exception as exc:  # an ask that raised instead of answering
                for fetch in fetches:
                    if self._inflight.get(fetch.key) is fetch:
                        self._deliver(fetch, exc)

    def _deliver(self, fetch: _Fetch, value: float | None | Exception) -> None:
        """Hand *fetch*'s answer out, then fold every check it completed."""
        answer = answer_of(fetch.query, value)
        # Leave the table before anything is folded, so no check joins a
        # fetch that has answered: the next tick asks afresh.
        batch = fetch.batch
        if self._leave_table(fetch):
            batch.live -= 1
        # Hand the answer out before folding anything: from here on no
        # entry lists this fetch, so a check retired by a peer's fold
        # cannot take the fetch's owners away.
        complete: list[_Entry] = []
        for entry, position in fetch.askers:
            if entry.done:
                continue
            entry.answers[position] = answer
            entry.fetches.remove(fetch)
            if not entry.fetches:
                complete.append(entry)
        # While the folds run, a batch that loses its last owner (a
        # sibling's trigger) is not cancelled under them: _ask stops
        # once they are done.
        batch.folding = True
        for entry in complete:
            if not entry.done:
                self._fold(entry)
        batch.folding = False

    def _fold(self, entry: _Entry) -> None:
        """One tick: decide on the wave's answers, fold in, then trigger,
        re-arm at ``at + interval``, or finish."""
        group = entry.group
        check = entry.check
        try:
            evaluation = check.condition.evaluate_detailed(group.providers, entry.answers)
            at = self.clock.now()
            outcome = entry.progress.apply(evaluation, at, entry.due)
            if outcome.execution is not None and group.observer is not None:
                group.observer(check, outcome.execution)
            if outcome.triggered:
                self._finish(entry, error=ExceptionTriggered(check, at))
                return
            entry.remaining -= 1
            if entry.done:
                return  # the observer retired it
            if entry.remaining > 0:
                self._arm(entry, at + check.timer.interval)
                return
            result = entry.progress.result()
            if group.on_complete is not None:
                try:
                    group.on_complete(result)
                except Exception:
                    logger.exception("check %r completion callback failed", check.name)
            self._complete(entry, result)
        except Exception as exc:  # defensive: a broken observer
            self._finish(entry, error=exc)

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
        if not self._pending:
            self._set_timer(math.inf)

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
        """Cancel every scheduled check, its batches, and the timer."""
        for group in list(self._groups):
            group.cancel()
        self._set_timer(math.inf)
        batches = list(self._batches)
        stopping = [batch.task for batch in batches]
        for task in stopping:
            task.cancel()
        self._inflight.clear()
        await asyncio.gather(*stopping, return_exceptions=True)
        for batch in batches:
            if batch.answers is not None:  # its task never started
                await batch.answers.aclose()
        self._heap.clear()
