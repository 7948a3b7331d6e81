"""Layer spans taken from outside the program.

The traced pass wraps public callables of ``repro`` from the benchmark's
own files: class attributes are replaced on the class, and a function that
another module imported *by name* is replaced in the importing module
(``repro.httpcore.server.read_request``, not ``repro.httpcore.message``),
because that is the binding the caller resolves.  Nothing under ``src/``
is edited, and the untraced pass never imports this module's patches.

**What a span measures.**  Everything runs on one event-loop thread, so
the wall interval of an ``async`` span contains whatever other tasks did
while it was suspended.  A traced coroutine is therefore driven step by
step (``coro.send``): each resume-to-suspend stretch is timed, nested
traced calls made inside a stretch are its children, and

* ``busy``  = sum of the span's stretches (its time on the CPU),
* ``self``  = busy minus the stretches of its children,
* ``wait``  = (end - start) - busy, the time it was suspended.

At most one stretch runs at a time, so self times add up: over a window,
the self times of all layers plus the time no traced code ran
(``trace.unattributed_us_per_op``: event loop, kernel, harness) equal the
window's wall time.  ``check_identity`` asserts that within 2 %.

Spans of one op share an op id, minted by the load generator (sent as the
``X-Bench-Op`` header, which gateway and proxy forward like any other
header) or, for engine check ticks, by the evaluation wrapper; a context
variable carries it between hops of one task.
"""

from __future__ import annotations

import asyncio
import contextvars
import inspect
import json
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

OP_HEADER = "X-Bench-Op"
IDENTITY_TOLERANCE = 0.02
#: Individual spans are kept (and written out) for the first traced
#: windows only; every traced window feeds the per-layer accumulators.
SPAN_WINDOWS = 2

current_op: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "bench_op", default=None
)


class Span:
    __slots__ = ("id", "name", "op", "parent", "hop", "start", "end", "busy")

    def __init__(self, span_id: int, name: str, op: str | None):
        self.id = span_id
        self.name = name
        self.op = op
        #: Enclosing span on this task's stack; for the first span of a
        #: hop (``hop`` true) the root span of the op that caused it.
        self.parent: int | None = None
        self.hop = False
        self.start = 0.0
        self.end = 0.0
        self.busy = 0.0

    def record(self) -> dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "op_id": self.op,
            "parent": self.parent, "hop": self.hop,
            "start": self.start, "end": self.end, "busy": self.busy,
        }


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Self time per span id: busy minus the busy time of stack children.

    Children linked across a hop ran in another task, concurrently with
    the parent's suspension, and are not subtracted.
    """
    result = {span["id"]: span["busy"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent is not None and not span["hop"] and parent in result:
            result[parent] -= span["busy"]
    return result


class WindowTrace:
    """What the tracer accumulated over one traced window."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        #: Suspended time, keyed by (span name, enclosing span name).
        self.wait_s: dict[tuple[str, str | None], float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tallies: dict[str, float] = defaultdict(float)
        self.attributed_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.window: WindowTrace | None = None
        self.windows: list[WindowTrace] = []
        self._stack: list[list] = []  # [span, resumed_at, child_elapsed]
        self._names: dict[int, str] = {}
        self._roots: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._next_id = 0
        self._ticks = 0
        self._tee_branches: set[int] = set()

    # -- span mechanics ----------------------------------------------------

    def begin(self, name: str, op: str | None = None) -> Span:
        self._next_id += 1
        span = Span(self._next_id, name, op if op is not None else current_op.get())
        if self.window is not None:
            self.window.calls[name] += 1
            self._names[span.id] = name
            if len(self.windows) < SPAN_WINDOWS:
                self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        now = time.perf_counter()
        if span.start == 0.0:
            span.start = now
            if self._stack:
                span.parent = self._stack[-1][0].id
            elif span.op is not None:
                span.parent = self._roots.get(span.op)
                span.hop = span.parent is not None
        self._stack.append([span, now, 0.0])

    def exit(self, span: Span) -> None:
        now = time.perf_counter()
        entry = self._stack.pop()
        if entry[0] is not span:
            raise RuntimeError(f"span stack out of order at {span.name}")
        elapsed = now - entry[1]
        span.busy += elapsed
        span.end = now
        window = self.window
        if self._stack:
            self._stack[-1][2] += elapsed
        elif window is not None:
            window.attributed_s += elapsed
        if window is not None:
            window.self_s[span.name] += elapsed - entry[2]
            window.busy_s[span.name] += elapsed

    def finish(self, span: Span) -> None:
        window = self.window
        if window is None:
            return
        wall = span.end - span.start
        window.wall_s[span.name] += wall
        parent = None if span.hop or span.parent is None else self._names.get(span.parent)
        window.wait_s[(span.name, parent)] += wall - span.busy

    def begin_window(self) -> None:
        self.window = WindowTrace()

    def end_window(self) -> WindowTrace:
        window, self.window = self.window, None
        assert window is not None
        self.windows.append(window)
        self._roots.clear()
        self._names.clear()
        return window

    def tally(self, name: str, amount: float = 1.0) -> None:
        if self.window is not None:
            self.window.tallies[name] += amount

    # -- wrapping ----------------------------------------------------------

    def traced(
        self,
        function: Callable,
        name: str | Callable[..., str],
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """*function* with a span around every call.

        *name* may be computed from the call's arguments.  ``before(span,
        args)`` runs ahead of the call, ``after(span, args, result)`` once
        it returned; neither is inside the span.
        """
        tracer = self
        resolve = name if callable(name) else (lambda *args: name)
        if inspect.iscoroutinefunction(function):

            async def traced_call(*args, **kwargs):
                span = tracer.begin(resolve(*args))
                if before is not None:
                    before(span, args)
                result = await _drive(tracer, function(*args, **kwargs), span)
                if after is not None:
                    after(span, args, result)
                return result

        else:

            def traced_call(*args, **kwargs):
                span = tracer.begin(resolve(*args))
                if before is not None:
                    before(span, args)
                tracer.enter(span)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.exit(span)
                    tracer.finish(span)
                if after is not None:
                    after(span, args, result)
                return result

        traced_call.__wrapped__ = function
        traced_call.__name__ = getattr(function, "__name__", "traced")
        return traced_call

    def patch(self, owner: Any, attribute: str, name, before=None, after=None) -> None:
        """Replace ``owner.attribute`` (a module or class) with its traced form."""
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.traced(original, name, before, after))

    async def run_op(self, name: str, op_id: str, coroutine) -> Any:
        """Run one load-generator op as the root span of *op_id*."""
        current_op.set(op_id)
        span = self.begin(name, op_id)
        self._roots[op_id] = span.id
        return await _drive(self, coroutine, span)

    # -- the patch set -----------------------------------------------------

    def install(self, workload) -> None:
        """Wrap the layer boundaries; middleware on *workload*'s servers."""
        import repro.httpcore.client as http_client
        import repro.httpcore.server as http_server
        import repro.metrics.plan as metrics_plan
        from repro.core.checks import CheckProgress, MetricCondition
        from repro.core.engine import Engine
        from repro.httpcore import HttpClient, Request, Response
        from repro.metrics import HealthProvider, HttpPrometheusProvider, MetricStore
        from repro.metrics.plan import Planner
        from repro.proxy import (
            BifrostProxy, FilterChain, HttpProxyController, Shadower, StickyStore,
        )

        def adopt_op(span, args, request) -> None:
            if request is not None:
                span.op = request.headers.get(OP_HEADER)
                current_op.set(span.op)

        def propagate_op(span, args) -> None:
            request = args[1]
            carried = request.headers.get(OP_HEADER)
            if carried is not None:
                span.op = carried  # a queued shadow copy keeps its own op
            elif span.op is not None:
                request.headers.add(OP_HEADER, span.op)

        def mint_tick(span, args) -> None:
            self._ticks += 1
            span.op = f"tick-{self._ticks}"
            current_op.set(span.op)
            self._roots[span.op] = span.id

        def relay_name(writer, stream, *rest) -> str:
            return "httpcore.tee" if id(stream) in self._tee_branches else "httpcore.relay"

        def relayed(span, args, result) -> None:
            self._tee_branches.discard(id(args[1]))
            self.tally(span.name + ".bytes", args[1].bytes_read)

        def teed(span, args, tee) -> None:
            self._tee_branches.add(id(tee.branch))

        def sticky_lookup(span, args, version) -> None:
            self.tally("sticky.lookups")
            if version is not None:
                self.tally("sticky.hits")

        # httpcore: the by-name imports are patched where they are used.
        self.patch(http_server, "read_request", "httpcore.read_request", after=adopt_op)
        self.patch(http_client, "read_response", "httpcore.read_response")
        self.patch(http_server, "relay_body", relay_name, after=relayed)
        self.patch(http_client, "relay_body", relay_name, after=relayed)
        for message in (Request, Response):
            self.patch(message, "serialize", "httpcore.serialize")
            self.patch(message, "serialize_head", "httpcore.serialize")
        self.patch(HttpClient, "send", "httpcore.client_send", before=propagate_op)
        # proxy
        self.patch(FilterChain, "decide", "proxy.decide")
        self.patch(StickyStore, "get", "proxy.sticky", after=sticky_lookup)
        self.patch(StickyStore, "assign", "proxy.sticky")
        self.patch(Shadower, "shadow", "proxy.shadow_enqueue")
        self.patch(Shadower, "tee", "httpcore.tee", after=teed)
        self.patch(BifrostProxy, "apply_config", "proxy.apply_config")
        # core
        self.patch(Engine, "enact", "core.enact")
        self.patch(MetricCondition, "evaluate_detailed", "core.evaluate", before=mint_tick)
        self.patch(CheckProgress, "apply", "core.progress_apply")
        self.patch(HttpProxyController, "apply", "core.routing_push")
        self.patch(HttpPrometheusProvider, "query", "core.provider.prometheus")
        self.patch(HealthProvider, "query", "core.provider.health")
        # metrics
        self.patch(Planner, "evaluate", "metrics.query_eval")
        self.patch(metrics_plan, "compile_query", "metrics.compile")
        self.patch(
            MetricStore, "record_batch", "metrics.ingest",
            after=lambda span, args, ingested: self.tally("ingest.points", ingested),
        )
        # Connections opened while windows run mean a pool is churning.
        opener = asyncio.open_connection

        async def counting_open_connection(*args, **kwargs):
            self.tally("connections.opened")
            return await opener(*args, **kwargs)

        self._patches.append((asyncio, "open_connection", opener))
        asyncio.open_connection = counting_open_connection

        def middleware(name: str):
            async def handle(request, handler):
                return await handler(request)

            def enter_hop(span, args) -> None:
                span.op = args[0].headers.get(OP_HEADER)
                current_op.set(span.op)

            return self.traced(handle, name, before=enter_hop)

        for name, servers in workload.servers().items():
            for server in servers:
                server.add_middleware(middleware(name))
        workload.tracer = self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """The spans, one JSON object per line (written when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record(), separators=(",", ":")) + "\n")


def check_identity(window: WindowTrace, wall_s: float) -> float:
    """Residual of ``sum(layer self times) + unattributed = wall``, as a
    share of wall; the caller fails the run beyond ``IDENTITY_TOLERANCE``.

    Unattributed time is measured as wall minus the top-level stretches;
    the layer self times are accumulated stretch by stretch with children
    subtracted.  The two agree only if every stretch was closed in order
    and no child was counted twice or dropped.
    """
    unattributed = wall_s - window.attributed_s
    return (sum(window.self_s.values()) + unattributed - wall_s) / wall_s


@types.coroutine
def _drive(tracer: Tracer, coroutine, span: Span):
    """Run *coroutine* to completion, timing each resume-to-suspend stretch."""
    send, throw = coroutine.send, coroutine.throw
    value: Any = None
    error: BaseException | None = None
    while True:
        tracer.enter(span)
        try:
            yielded = send(value) if error is None else throw(error)
        except StopIteration as stop:
            tracer.exit(span)
            tracer.finish(span)
            return stop.value
        except BaseException:
            tracer.exit(span)
            tracer.finish(span)
            raise
        tracer.exit(span)
        try:
            value = yield yielded
            error = None
        except BaseException as exc:  # delivered into the wrapped coroutine
            value = None
            error = exc
