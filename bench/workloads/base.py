"""What a workload is, and the closed loop the request workloads share."""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

from .. import runqueue


@dataclass
class Outcome:
    """What one window did: ops attempted, ops failed, latencies of the rest."""

    ops: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    #: Latencies of successful ops that are not part of the headline
    #: latency (the ingest calls of the metrics workload).
    other_latencies_s: list[float] = field(default_factory=list)
    #: First few failure descriptions, for the operator.
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Workload:
    """One seeded workload: a fixture, and windows of fixed work over it.

    The harness calls ``setup`` (timed: build the fixture through to the
    first successful op), then per window ``prepare`` (untimed: generate
    the window's inputs), ``run`` (timed) and ``verify`` (untimed: the
    part of the output oracle that needs the system idle), and ``finish``
    once at the end for whole-run oracles.
    """

    name = ""
    #: Client connections of the closed loop (<= nproc).
    connections = 2

    def __init__(self, seed: int):
        self.seed = seed
        #: Set by the harness for the traced pass; ``None`` otherwise.
        self.tracer = None

    def rng(self, *scope: object) -> random.Random:
        """A generator for one named stream of this workload's inputs."""
        return random.Random(":".join(str(part) for part in (self.name, self.seed, *scope)))

    def fingerprint(self) -> str:
        """sha256 of the inputs ``--seed`` generated (see ``stats.fingerprint``)."""
        raise NotImplementedError

    async def setup(self) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> Any:
        raise NotImplementedError

    async def run(self, plan: Any) -> Outcome:
        raise NotImplementedError

    async def verify(self, plan: Any, outcome: Outcome) -> None:
        """Idle-system oracle checks; record violations on *outcome*."""

    def finish(self) -> list[str]:
        """Whole-run oracle violations (empty when the run was correct)."""
        return []

    def servers(self) -> dict[str, list]:
        """Span name -> servers whose handlers the traced pass wraps."""
        return {}

    def counters(self) -> dict[str, float]:
        """Cumulative layer counters (``stats_snapshot()``, ``/healthz``,
        ``cache_info()``); the harness records their change per window."""
        return {}

    def gauges(self) -> dict[str, float]:
        """Layer sizes read once, when the run ends."""
        return {}


async def closed_loop(
    workload: Workload,
    connections: Sequence[Any],
    ops: Sequence[Any],
    perform: Callable[[Any, Any, Outcome], Awaitable[bool]],
    timed: Callable[[Any], bool] = lambda op: True,
) -> Outcome:
    """Drain *ops* through *connections*: each takes the next op when its
    previous one completed (closed loop, one shared seeded sequence).

    ``perform(connection, op, outcome)`` returns whether the op succeeded
    with correct output; a failed op has no latency.  Ops for which
    *timed* is false count as attempted; their latencies are kept apart.
    Every op carries an ``op_id``, also sent as its ``X-Bench-Op`` header,
    under which the traced pass files the op's spans.
    """
    outcome = Outcome()
    queue = iter(ops)
    tracer = workload.tracer
    clock = runqueue.clock  # an op is not charged for a core taken from the process

    async def worker(connection: Any) -> None:
        for op in queue:
            outcome.ops += 1
            started = clock()
            try:
                if tracer is None:
                    ok = await perform(connection, op, outcome)
                else:
                    ok = await tracer.run_op(
                        "loadgen.op", op.op_id, perform(connection, op, outcome)
                    )
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as exc:
                outcome.fail(f"{type(exc).__name__}: {exc}")
                continue
            if ok:
                latencies = outcome.latencies_s if timed(op) else outcome.other_latencies_s
                latencies.append(clock() - started)

    await asyncio.gather(*(worker(connection) for connection in connections))
    return outcome
