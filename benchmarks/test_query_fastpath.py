"""Micro-benchmark of the metrics query fast path (before vs after).

Reconstructs the seed code path — fresh ``parse()`` per evaluation, linear
scan over *all* series with a per-call ``re.compile`` for regex matchers —
and races it against the shipped fast path (compiled-query cache, name
index, selector cache, zero-copy range reads) on the same populated store.

The workload mirrors the paper's scalability experiments: many parallel
strategies each re-evaluating a fixed set of instant queries against a
store holding 1,000+ series across many metric names.

Artifacts: ``benchmarks/output/query_fastpath.json`` plus the tracked
repo-root ``BENCH_query_fastpath.json`` so the perf trajectory is visible
in version control from this change onward.
"""

import json
import re
import time
from pathlib import Path

from repro.metrics import MetricStore, evaluate_scalar, parse
from repro.metrics.query import compile_query

REPO_ROOT = Path(__file__).resolve().parent.parent

NAME_COUNT = 200
INSTANCES_PER_NAME = 12
SAMPLES_PER_SERIES = 30


def _legacy_matches(matcher, labels) -> bool:
    """Seed ``LabelMatcher.matches``: recompiles the regex on every call."""
    actual = labels.get(matcher.label, "")
    if matcher.op == "=":
        return actual == matcher.value
    if matcher.op == "!=":
        return actual != matcher.value
    anchored = re.compile(f"^(?:{matcher.value})$")
    if matcher.op == "=~":
        return bool(anchored.match(actual))
    return not anchored.match(actual)


class LegacySelectStore:
    """Duck-typed store facade replaying the seed's O(total series) select."""

    def __init__(self, store: MetricStore):
        self._store = store

    @property
    def series_generation(self) -> int:
        """The store's shape stamp, which the histogram layout cache keys on."""
        return self._store.series_generation

    def select(self, name, matchers=None):
        matchers = matchers or []
        found = []
        for key, series in self._store._series.items():
            if key.name != name:
                continue
            labels = dict(key.labels)
            if all(_legacy_matches(matcher, labels) for matcher in matchers):
                found.append(series)
        return found


def _populate() -> tuple[MetricStore, float]:
    store = MetricStore()
    at = float(SAMPLES_PER_SERIES - 1)
    for name_index in range(NAME_COUNT):
        name = f"requests_total_{name_index}"
        for instance_index in range(INSTANCES_PER_NAME):
            labels = {
                "instance": f"inst-{instance_index}",
                "zone": f"z{instance_index % 3}",
            }
            for t in range(SAMPLES_PER_SERIES):
                store.record(name, float(t * 2), float(t), labels)
    # One histogram: 5 cumulative buckets on 4 instances.
    for instance_index in range(4):
        for le, count in (("0.1", 5.0), ("0.25", 30.0), ("0.5", 60.0), ("1", 90.0), ("+Inf", 100.0)):
            store.record(
                "latency_bucket",
                count,
                at,
                {"instance": f"inst-{instance_index}", "le": le},
            )
    return store, at


QUERIES = [
    'requests_total_17{instance=~"inst-[0-4]", zone="z1"}',
    'requests_total_42{instance=~"inst-.*"}',
    'sum(rate(requests_total_7{instance=~"inst-1.*"}[60s]))',
    'avg(avg_over_time(requests_total_63{zone=~"z[01]"}[30s]))',
    'histogram_quantile(0.95, latency_bucket{instance=~"inst-.*"})',
    'requests_total_99{zone!~"z2"} * 100',
]


def _time_per_eval(evaluate_once, repetitions: int) -> float:
    start = time.perf_counter()
    for _ in range(repetitions):
        evaluate_once()
    return (time.perf_counter() - start) / (repetitions * len(QUERIES)) * 1e6


def test_query_fastpath_speedup(artifact_writer, history_appender):
    store, at = _populate()
    legacy = LegacySelectStore(store)
    assert len(store) >= 1000

    def run_fast():
        for query in QUERIES:
            evaluate_scalar(store, query, at)

    def run_legacy():
        for query in QUERIES:
            evaluate_scalar(legacy, parse(query), at)

    # Equivalence first: the fast path must compute the same answers.
    for query in QUERIES:
        assert evaluate_scalar(store, query, at) == evaluate_scalar(legacy, parse(query), at)

    run_fast()  # warm the compile + selector caches
    fast_us = _time_per_eval(run_fast, repetitions=200)
    legacy_us = _time_per_eval(run_legacy, repetitions=20)
    speedup = legacy_us / fast_us

    # Component micro-timings: parse vs cached compile, scan vs indexed select.
    query = QUERIES[0]
    reps = 2000
    start = time.perf_counter()
    for _ in range(reps):
        parse(query)
    parse_us = (time.perf_counter() - start) / reps * 1e6
    start = time.perf_counter()
    for _ in range(reps):
        compile_query(query)
    compile_us = (time.perf_counter() - start) / reps * 1e6

    selector = compile_query(query)
    start = time.perf_counter()
    for _ in range(reps):
        store.select(selector.name, selector.matchers)
    indexed_select_us = (time.perf_counter() - start) / reps * 1e6
    scan_reps = 200
    start = time.perf_counter()
    for _ in range(scan_reps):
        legacy.select(selector.name, list(selector.matchers))
    legacy_select_us = (time.perf_counter() - start) / scan_reps * 1e6

    results = {
        "benchmark": "query_fastpath",
        "workload": {
            "series": len(store),
            "metric_names": len(store.names()),
            "samples_per_series": SAMPLES_PER_SERIES,
            "queries": QUERIES,
        },
        "per_evaluation_us": {
            "legacy_fresh_parse_linear_scan": round(legacy_us, 3),
            "fastpath_cached_indexed": round(fast_us, 3),
        },
        "speedup": round(speedup, 1),
        "components_us": {
            "parse": round(parse_us, 3),
            "compile_query_cached": round(compile_us, 3),
            "legacy_select_scan": round(legacy_select_us, 3),
            "indexed_select_cached": round(indexed_select_us, 3),
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    rendered = json.dumps(results, indent=2)
    artifact_writer("query_fastpath.json", rendered)
    (REPO_ROOT / "BENCH_query_fastpath.json").write_text(rendered + "\n", encoding="utf-8")
    history_appender(
        "query_fastpath",
        {
            "speedup": results["speedup"],
            "per_evaluation_us": results["per_evaluation_us"],
        },
    )

    assert speedup >= 5.0, f"fast path only {speedup:.1f}x faster (need >= 5x)"
