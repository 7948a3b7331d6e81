"""metrics_ingest_query: a low-sharing query mix against a churning store.

Two connections to ``MetricsServer``: a seeded pool of 256 distinct
queries over 2 000 preloaded series at retention-full steady state, four
queries to one ingest batch.  Every fifth op bumps the store generation
and the server's clock, so the three stacked result caches (server
response memo, plan-node memo, provider memo) almost never hit: this is
the workload where they cost rather than pay, and where a query gain
bought with ingest cost (or the reverse) shows.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from urllib.parse import quote

from repro.metrics import MetricsServer

from ..client import Connection
from ..stats import fingerprint
from .base import Outcome, Workload, closed_loop
from .fixtures import StepClock, metrics_counters

SERVICES = 40
INSTANCES = 10
BUCKETS = ("0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "+Inf")
#: Seconds of samples the store keeps; the ``[300s]`` queries look further
#: back than that and read everything a series retains.
RETENTION = 120.0
BLOCKS = 10  # a regular series is sampled every BLOCKS ingest rounds
QUERIES_PER_WINDOW = 512
INGESTS_PER_WINDOW = 128
POOL = 256
#: (shape, count) - fixed, so seeds change which series are asked about,
#: never how expensive the mix is.
SHAPES = (
    ("instant", 48),
    ("rate30", 48),
    ("avg60", 32),
    ("rate300_wide", 32),
    ("sum_rate30", 40),
    ("error_ratio60", 24),
    ("quantile", 32),
)
ORACLE_QUERIES = (
    "rate(bench_oracle_total[30s])",
    "sum(bench_oracle_gauge)",
    'avg_over_time(bench_oracle_gauge{probe="a"}[30s])',
)


def oracle_values(round_index: int) -> tuple[int, int, int]:
    """(counter, gauge a, gauge b) the harness ingests at *round_index*."""
    return 5 * round_index, (7 * round_index) % 13, (11 * round_index) % 17


@dataclass
class Op:
    op_id: str
    request: bytes
    ingest: bool
    expect: bytes  # exact body for ingest, required prefix for queries


class MetricsIngestQuery(Workload):
    name = "metrics_ingest_query"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng("series")
        pairs = [
            (f"s{service:02d}", f"i{instance}")
            for service in range(SERVICES)
            for instance in range(INSTANCES)
        ]
        #: (name, labels, kind, parameter) for the 2 000 regular series.
        self.series: list[tuple[str, dict[str, str], str, int]] = []
        for name, kind in (
            ("bench_requests_total", "counter"),
            ("bench_errors_total", "counter"),
            ("bench_inflight", "gauge"),
        ):
            for service, instance in pairs:
                self.series.append(
                    (name, {"service": service, "instance": instance}, kind,
                     rng.randrange(1, 50))
                )
        for service in range(SERVICES):
            for instance in range(2):
                cumulative = 0
                for bound in BUCKETS:
                    cumulative += rng.randrange(1, 9)
                    self.series.append(
                        ("bench_latency_seconds_bucket",
                         {"service": f"s{service:02d}", "instance": f"i{instance}", "le": bound},
                         "counter", cumulative)
                    )
        rng.shuffle(self.series)
        self.block_size = len(self.series) // BLOCKS
        # '{"name": ..., "labels": {...}, "value": ' once per series; a
        # batch body is then a join, not a json.dumps of 200 dicts.
        self.prefixes = [
            json.dumps({"name": name, "labels": labels})[:-1] + ', "value": '
            for name, labels, _, _ in self.series
        ]
        self.oracle_prefixes = [
            json.dumps({"name": name, "labels": labels})[:-1] + ', "value": '
            for name, labels in (
                ("bench_oracle_total", {"probe": "counter"}),
                ("bench_oracle_gauge", {"probe": "a"}),
                ("bench_oracle_gauge", {"probe": "b"}),
            )
        ]
        self.pool = self._query_pool(self.rng("pool"))
        self.round = 0  # next ingest round
        self.points_ingested = 0
        #: Set while no ingest is in flight: rounds land one at a time, so
        #: every sample is stamped with its own round's second.
        self._ingest_idle = asyncio.Event()
        self._ingest_idle.set()

    def _query_pool(self, rng) -> list[str]:
        services = [f"s{index:02d}" for index in range(SERVICES)]
        pairs = [(s, f"i{i}") for s in services for i in range(INSTANCES)]
        histograms = [(s, f"i{i}") for s in services for i in range(2)]
        pool = []
        for shape, count in SHAPES:
            if shape in ("instant", "rate30", "avg60"):
                chosen = rng.sample(pairs, count)
            elif shape == "quantile":
                chosen = rng.sample(histograms, count)
            else:
                chosen = [(s, "") for s in rng.sample(services, count)]
            for service, instance in chosen:
                both = f'service="{service}",instance="{instance}"'
                pool.append(
                    {
                        "instant": f"bench_inflight{{{both}}}",
                        "rate30": f"rate(bench_requests_total{{{both}}}[30s])",
                        "avg60": f"avg_over_time(bench_inflight{{{both}}}[60s])",
                        "rate300_wide": f'rate(bench_errors_total{{service="{service}"}}[300s])',
                        "sum_rate30": f'sum(rate(bench_requests_total{{service="{service}"}}[30s]))',
                        "error_ratio60": (
                            f'sum(rate(bench_errors_total{{service="{service}"}}[60s])) / '
                            f'sum(rate(bench_requests_total{{service="{service}"}}[60s]))'
                        ),
                        "quantile": f"histogram_quantile(0.95, bench_latency_seconds_bucket{{{both}}})",
                    }[shape]
                )
        assert len(pool) == POOL == len(set(pool))
        return pool

    def fingerprint(self) -> str:
        return fingerprint(
            {
                "series": [[name, labels, parameter] for name, labels, _, parameter in self.series],
                "pool": self.pool,
            }
        )

    # -- values ------------------------------------------------------------

    @staticmethod
    def _value(kind: str, parameter: int, round_index: int) -> int:
        if kind == "counter":
            return parameter * round_index
        return parameter + (round_index * parameter) % 17

    def _block(self, round_index: int) -> range:
        start = (round_index % BLOCKS) * self.block_size
        return range(start, start + self.block_size)

    # -- fixture -----------------------------------------------------------

    async def setup(self) -> None:
        self.clock = StepClock()
        self.start = self.clock.t
        self.server = MetricsServer(clock=self.clock, retention=RETENTION)
        await self.server.start(scrape=False)
        # Retention-full steady state: as many rounds as the store keeps.
        rounds = int(RETENTION)
        for round_index in range(rounds):
            at = self.start + round_index
            batch = [
                (self.series[i][0], float(self._value(*self.series[i][2:], round_index)),
                 at, self.series[i][1])
                for i in self._block(round_index)
            ]
            counter, a, b = oracle_values(round_index)
            batch += [
                ("bench_oracle_total", float(counter), at, {"probe": "counter"}),
                ("bench_oracle_gauge", float(a), at, {"probe": "a"}),
                ("bench_oracle_gauge", float(b), at, {"probe": "b"}),
            ]
            self.server.store.record_batch(batch)
        self.round = rounds
        self.clock.t = self.start + rounds - 1
        self.conns = [
            await Connection().open(self.server.host, self.server.port)
            for _ in range(self.connections)
        ]
        first = Outcome()
        await self._check_oracle(first)
        if first.failed:
            raise RuntimeError(f"first op failed: {first.errors}")

    async def teardown(self) -> None:
        for connection in self.conns:
            await connection.close()
        await self.server.stop()

    def servers(self) -> dict[str, list]:
        return {"metrics.server": [self.server]}

    def counters(self) -> dict[str, float]:
        return {**metrics_counters(self.server), "points_ingested": self.points_ingested}

    def gauges(self) -> dict[str, float]:
        return {"store_series": len(self.server.store)}

    # -- windows -----------------------------------------------------------

    def _query_request(self, query: str, op_id: str) -> bytes:
        return (
            f"GET /api/v1/query?query={quote(query)} HTTP/1.1\r\n"
            f"Host: metrics.example\r\nAccept: application/json\r\nX-Bench-Op: {op_id}\r\n\r\n"
        ).encode("latin-1")

    def _ingest_request(self, round_index: int, op_id: str) -> bytes:
        series, prefixes = self.series, self.prefixes
        samples = [
            f"{prefixes[i]}{self._value(series[i][2], series[i][3], round_index)}}}"
            for i in self._block(round_index)
        ]
        samples += [
            f"{prefix}{value}}}"
            for prefix, value in zip(self.oracle_prefixes, oracle_values(round_index))
        ]
        body = ("[" + ",".join(samples) + "]").encode("latin-1")
        head = (
            "POST /api/v1/ingest HTTP/1.1\r\nHost: metrics.example\r\n"
            f"Content-Type: application/json\r\nX-Bench-Op: {op_id}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("latin-1") + body

    def prepare(self, index: int) -> list[Op]:
        rng = self.rng("window", index)
        # The whole pool, twice: the mix of shapes is the same in every
        # window and only the order changes.
        queries = self.pool * 2
        rng.shuffle(queries)
        assert len(queries) == QUERIES_PER_WINDOW
        ingested = f'{{"status": "success", "ingested": {self.block_size + 3}}}'.encode()
        ops = []
        total = QUERIES_PER_WINDOW + INGESTS_PER_WINDOW
        next_round = self.round
        for position in range(total):
            op_id = f"w{index}-{position}"
            if position % 5 == 2:
                ops.append(Op(op_id, self._ingest_request(next_round, op_id), True, ingested))
                next_round += 1
            else:
                ops.append(
                    Op(op_id, self._query_request(queries.pop(), op_id), False,
                       b'{"status": "success"')
                )
        return ops

    async def _perform(self, connection: Connection, op: Op, outcome: Outcome) -> bool:
        if op.ingest:
            await self._ingest_idle.wait()
            self._ingest_idle.clear()
            # The round's samples are stamped with the server's new "now".
            self.clock.t = self.start + self.round
            self.round += 1
        try:
            reply = await connection.exchange(op.request)
        finally:
            if op.ingest:
                self._ingest_idle.set()
        ok = reply.status == 200 and (
            reply.body == op.expect if op.ingest else reply.body.startswith(op.expect)
        )
        if not ok:
            outcome.fail(f"{op.op_id}: status {reply.status}, body {reply.body[:80]!r}")
        elif op.ingest:
            self.points_ingested += self.block_size + 3
        return ok

    async def run(self, plan: list[Op]) -> Outcome:
        return await closed_loop(
            self, self.conns, plan, self._perform, timed=lambda op: not op.ingest
        )

    async def verify(self, plan: list[Op], outcome: Outcome) -> None:
        await self._check_oracle(outcome)

    async def _check_oracle(self, outcome: Outcome) -> None:
        """Three fixed queries against values computed from what was ingested."""
        latest = self.round - 1
        gauge_a = [oracle_values(r)[1] for r in range(latest - 29, latest + 1)]
        expected = (
            5.0,
            float(sum(oracle_values(latest)[1:])),
            sum(gauge_a) / len(gauge_a),
        )
        for query, want in zip(ORACLE_QUERIES, expected):
            reply = await self.conns[0].exchange(self._query_request(query, "oracle"))
            got = json.loads(reply.body)["data"]["value"] if reply.status == 200 else None
            if got is None or abs(got - want) > 1e-9 * max(1.0, abs(want)):
                outcome.fail(f"oracle {query}: got {got}, computed {want}")
