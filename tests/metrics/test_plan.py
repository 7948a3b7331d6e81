"""Tests for cross-check evaluation plans (interning + per-tick memo)."""

from repro.clock import VirtualClock
from repro.metrics import (
    LocalPrometheusProvider,
    MetricStore,
    evaluate_scalar,
    planner_for,
)
from repro.metrics.query import compile_query
from repro.metrics.plan import Planner


def _populated():
    store = MetricStore()
    for t in range(30):
        store.record("hits_total", float(t * 2), float(t), {"instance": "a"})
        store.record("errs_total", float(t), float(t), {"instance": "a"})
    return store


def test_structurally_equal_subtrees_intern_once():
    planner = Planner()
    planner.subscribe(compile_query("rate(hits_total[10s]) * 100"))
    planner.subscribe(compile_query("rate(hits_total[10s]) + 1"))
    shared = compile_query("rate(hits_total[10s])")
    node = planner._nodes[shared]
    assert node.uses == 2
    assert planner.shared_nodes >= 1


def test_subscribe_is_idempotent_per_root():
    planner = Planner()
    expression = compile_query("sum(rate(hits_total[10s]))")
    first = planner.subscribe(expression)
    again = planner.subscribe(compile_query("sum(rate(hits_total[10s]))"))
    assert first is again
    assert first.uses == 1


def test_shared_node_evaluates_once_per_tick():
    store = _populated()
    planner = Planner()
    queries = ["rate(hits_total[10s]) * 100", "rate(hits_total[10s]) - 1"]
    for query in queries:
        planner.subscribe(compile_query(query))
    misses_before = planner.node_misses
    results = [planner.evaluate_scalar(store, query, 29.0) for query in queries]
    # 5 distinct nodes exist (2 roots, 1 shared rate, 2 scalars); the
    # second root reuses the shared rate node from the memo.
    assert planner.node_hits >= 1
    assert planner.node_misses - misses_before <= 5
    for query, got in zip(queries, results):
        assert got == evaluate_scalar(store, query, 29.0)


def test_memo_invalidated_by_ingest():
    store = _populated()
    planner = planner_for(store)
    query = "rate(hits_total[10s])"
    first = planner.evaluate_scalar(store, query, 29.0)
    store.record("hits_total", 1000.0, 29.0, {"instance": "a"})
    second = planner.evaluate_scalar(store, query, 29.0)
    assert second != first
    assert second == evaluate_scalar(store, query, 29.0)


def test_planner_fans_out_shared_subexpressions():
    store = _populated()
    planner = Planner()
    queries = {
        "scaled": "rate(hits_total[10s]) * 100",
        "shifted": "rate(hits_total[10s]) + 1",
        "errors": "rate(errs_total[10s])",
    }
    for query in queries.values():
        planner.subscribe(compile_query(query))
    assert planner.cache_info()["roots"] == 3
    assert planner.shared_nodes >= 1
    # One tick: every subscriber's scalar, the shared rate computed once.
    results = {
        name: planner.evaluate_scalar(store, query, 29.0)
        for name, query in queries.items()
    }
    for name, query in queries.items():
        assert results[name] == evaluate_scalar(store, query, 29.0)
    assert planner.cache_info()["plan_evaluations_saved"] >= 1


def test_planner_for_is_one_per_store():
    store_a, store_b = MetricStore(), MetricStore()
    assert planner_for(store_a) is planner_for(store_a)
    assert planner_for(store_a) is not planner_for(store_b)


def test_provider_routes_through_shared_plan():
    clock = VirtualClock(start=29.0)
    store = _populated()
    provider = LocalPrometheusProvider(store, clock=clock)
    provider.subscribe("rate(hits_total[10s]) * 100")
    planner = planner_for(store)
    roots_before = planner.cache_info()["roots"]
    assert roots_before >= 1


def test_malformed_subscription_is_ignored():
    store = MetricStore()
    provider = LocalPrometheusProvider(store, clock=VirtualClock())
    provider.subscribe("not a ((( query")  # must not raise
