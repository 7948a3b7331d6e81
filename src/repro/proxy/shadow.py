"""Dark-launch traffic duplication.

"Dark launches are different from all other live testing practices, in
that they duplicate rather than reroute traffic" (section 3.2).  The
shadower fires a copy of the request at the shadow version and discards
the response — the user only ever sees the primary reply.  Duplication is
fire-and-forget: shadow failures are counted, never surfaced.

A duplicate takes one of ``concurrency`` **send slots** (its own Task) or
waits for one in a bounded FIFO.  The bound is no longer a static
``max_pending``: it adapts to what the shadow upstream can actually absorb.

* An EWMA of observed shadow-upstream send latency sizes the wait so
  that the *expected queue delay* stays near ``target_delay``: with
  ``concurrency`` sends in flight, admitting more than
  ``concurrency * target_delay / latency`` duplicates would leave the
  excess waiting longer than the target.
* An AIMD bound backs that up where latency lags reality: every drop
  halves it (multiplicative decrease), every clean send adds one back
  (additive increase), both clamped to ``[1, max_pending]``.
* ``max_pending`` remains the hard ceiling (memory bound); the
  **effective** bound at any instant is the minimum of the three.

When the wait is at the effective bound, the incoming duplicate is
discarded (drop-newest).  Every discarded duplicate increments the visible
``dropped`` counter — overload is observable, never silent — and is
exported as ``bifrost_shadow_dropped_total`` alongside the
``bifrost_shadow_queue_delay_seconds`` histogram, so a strategy check
can gate on the proxy's own shadow capacity.  Shutdown does not wait
for a hung shadow upstream: :meth:`Shadower.close` drops what is left.

**Streamed duplicates** never double-buffer: the primary path owns the
request stream, and a :class:`~repro.httpcore.stream.StreamTee` fans its
chunks into a bounded branch that the shadow send consumes.  A shadow
upstream too slow to keep within the tee's capacity is aborted and
counted as a drop — it can never stall or bloat the primary relay.

The caller transfers ownership of the request it passes to
:meth:`Shadower.shadow`; the shadower does not copy it again.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque

from ..httpcore import HttpClient, Request, StreamAborted
from ..httpcore.stream import BodyStream, StreamTee
from .plan import parse_endpoint

logger = logging.getLogger(__name__)

#: Smoothing factor for the shadow-upstream latency EWMA.
EWMA_ALPHA = 0.2

#: Queue-delay histogram buckets: shadow queues live in the 1 ms – 10 s
#: range; the default request-latency buckets are too fine at the bottom.
QUEUE_DELAY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Shadower:
    """Sends shadow requests through send slots and an adaptively bounded wait."""

    def __init__(
        self,
        client: HttpClient,
        max_pending: int = 1024,
        concurrency: int = 8,
        target_delay: float = 0.25,
        tee_capacity: int = 16,
        registry=None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if target_delay <= 0:
            raise ValueError("target_delay must be positive")
        self._client = client
        self.max_pending = max_pending
        self.concurrency = concurrency
        self.target_delay = target_delay
        self.tee_capacity = tee_capacity
        #: Duplicates waiting for a slot, oldest first, and when each came.
        self._waiting: deque[tuple[Request, str, str, int, float]] = deque()
        #: The send Task of each duplicate holding a slot.
        self._sending: dict[asyncio.Task[None], Request] = {}
        self._closed = False
        #: Counters for observability and tests.
        self.sent = 0
        self.failed = 0
        self.dropped = 0
        #: EWMA of shadow-upstream send latency (seconds); None until the
        #: first completed send.
        self.latency_ewma: float | None = None
        #: EWMA of time duplicates spend waiting for a slot (seconds).
        self.queue_delay_ewma: float | None = None
        self._aimd = max_pending
        # Exported metrics, when a registry is wired in (the proxy passes
        # its own, so these ride the existing /metrics exposition).
        self._m_dropped = None
        self._m_queue_delay = None
        self._m_bound = None
        if registry is not None:
            self._m_dropped = registry.counter(
                "bifrost_shadow_dropped_total",
                "Shadow duplicates dropped by queue or tee backpressure",
            )
            self._m_queue_delay = registry.histogram(
                "bifrost_shadow_queue_delay_seconds",
                "Time shadow duplicates spent queued before dispatch",
                buckets=QUEUE_DELAY_BUCKETS,
            )
            self._m_bound = registry.gauge(
                "bifrost_shadow_effective_pending",
                "Current adaptive bound on queued shadow duplicates",
            )

    # -- adaptive bound ----------------------------------------------------

    @property
    def effective_pending(self) -> int:
        """The adaptive admission bound, recomputed from current signals."""
        bound = self._aimd
        ewma = self.latency_ewma
        if ewma is not None and ewma > 0:
            latency_bound = int(self.concurrency * self.target_delay / ewma)
            bound = min(bound, latency_bound)
        return max(1, min(self.max_pending, bound))

    def note_drop(self) -> None:
        """Account one discarded duplicate and shrink the AIMD bound."""
        self.dropped += 1
        self._aimd = max(1, self.effective_pending // 2)
        if self._m_dropped is not None:
            self._m_dropped.inc()
        if self._m_bound is not None:
            self._m_bound.set(float(self.effective_pending))

    def _note_sent(self, latency: float) -> None:
        """Fold one completed send into the EWMA and recover additively."""
        self.sent += 1
        ewma = self.latency_ewma
        self.latency_ewma = (
            latency
            if ewma is None
            else ewma + EWMA_ALPHA * (latency - ewma)
        )
        self._aimd = min(self.max_pending, self._aimd + 1)
        if self._m_bound is not None:
            self._m_bound.set(float(self.effective_pending))

    # -- dispatch ----------------------------------------------------------

    def tee(self, stream: BodyStream) -> StreamTee:
        """Fan *stream* out for one shadow duplicate (primary keeps owning).

        The returned tee's ``primary`` replaces the caller's stream; its
        ``branch`` becomes the duplicate's body.  Overflow aborts the
        branch and is accounted as a drop here.
        """
        return StreamTee(stream, capacity=self.tee_capacity, on_drop=self.note_drop)

    def shadow(
        self,
        request: Request,
        endpoint: str,
        host: str | None = None,
        port: int | None = None,
    ) -> bool:
        """Start or queue *request* for ``endpoint``; ``False`` if dropped.

        Never blocks and never raises on overload — the proxy's primary
        path must not stall because a shadow target is slow.  Callers that
        already hold the parsed ``host``/``port`` (the proxy's endpoint
        rings) pass them along; otherwise *endpoint* is split here by the
        same parser the rings use.
        """
        waiting = self._waiting
        if self._closed or (waiting and len(waiting) >= self.effective_pending):
            self.note_drop()
            self._discard(request)
            return False
        if host is None or port is None:
            host, port = parse_endpoint(endpoint)
        if request.headers.get("Host") != endpoint:
            request.headers.set("Host", endpoint)
        if request.headers.get("X-Bifrost-Shadow") is None:
            request.headers.set("X-Bifrost-Shadow", "true")
        if len(self._sending) < self.concurrency:
            self._start(request, endpoint, host, port, time.monotonic())
        else:
            waiting.append((request, endpoint, host, port, time.monotonic()))
        return True

    @staticmethod
    def _discard(request: Request) -> None:
        """Release a dropped duplicate's tee branch so it stops buffering."""
        if request.stream is not None:
            request.stream.abort()

    def _start(
        self, request: Request, endpoint: str, host: str, port: int, accepted: float
    ) -> None:
        """Give *request* a send slot: its own send Task."""
        delay = time.monotonic() - accepted
        ewma = self.queue_delay_ewma
        self.queue_delay_ewma = delay if ewma is None else ewma + EWMA_ALPHA * (delay - ewma)
        if self._m_queue_delay is not None:
            self._m_queue_delay.observe(delay)
        task = asyncio.get_running_loop().create_task(self._send(request, endpoint, host, port))
        self._sending[task] = request
        task.add_done_callback(self._finished)

    def _finished(self, task: asyncio.Task[None]) -> None:
        """A send ended: its slot goes to the oldest waiting duplicate."""
        del self._sending[task]
        if self._waiting:
            self._start(*self._waiting.popleft())

    async def _send(
        self, request: Request, endpoint: str, host: str, port: int
    ) -> None:
        started = time.monotonic()
        try:
            # send() adopts the request as-is — the headers built for this
            # duplicate go to the wire without another copy.
            await self._client.send(request, host, port)
            self._note_sent(time.monotonic() - started)
        except StreamAborted:
            # Tee overflow mid-send: already accounted as a drop by the
            # tee's on_drop hook; not an upstream failure.
            logger.debug("shadow duplicate to %s aborted by tee overflow", endpoint)
        except Exception as exc:
            self.failed += 1
            logger.debug("shadow request to %s failed: %s", endpoint, exc)

    @property
    def in_flight(self) -> int:
        """Waiting plus actively-sending shadow requests."""
        return len(self._sending) + len(self._waiting)

    async def drain(self) -> None:
        """Wait until every accepted shadow completed (close() does not)."""
        while self._sending:
            await asyncio.wait(list(self._sending))

    async def close(self) -> None:
        """Stop without waiting: cancel the sends in flight and discard the
        waiting duplicates (aborting their tee branches), each counted once
        as a drop, as is every duplicate offered afterwards."""
        self._closed = True
        abandoned = [item[0] for item in self._waiting]
        self._waiting.clear()
        tasks = list(self._sending)
        abandoned += [self._sending[task] for task in tasks if task.cancel()]
        for request in abandoned:
            self.note_drop()
            self._discard(request)
        await asyncio.gather(*tasks, return_exceptions=True)
