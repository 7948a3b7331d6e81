"""The per-layer metrics of the traced pass, by name.

Every time is the layer's *self* time (see ``bench/trace.py``) summed over
the traced windows and divided by what the name says: ops, check ticks,
queries, pushes, MiB or points.  Counts and ratios come from the layers'
own counters (``stats_snapshot()``, ``/healthz`` tallies, ``cache_info()``)
over the same windows.  A layer that does not run in a workload reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from . import stats
from .harness import Measurement, SelfCheckFailed, diagnostics
from .trace import IDENTITY_TOLERANCE, check_identity

MIB = float(1 << 20)

#: Span name -> the per-op self-time metric it is published as.  Self time
#: of any other traced span lands in ``trace.other_self_us_per_op``.
SELF_TIME_METRICS = {
    "httpcore.read_request": "httpcore.read_request_us_per_op",
    "httpcore.read_response": "httpcore.read_response_us_per_op",
    "httpcore.serialize": "httpcore.serialize_us_per_op",
    "httpcore.client_send": "httpcore.client_send_self_us_per_op",
    "proxy.decide": "proxy.decide_us_per_op",
    "proxy.sticky": "proxy.sticky_us_per_op",
    "proxy.shadow_enqueue": "proxy.shadow_enqueue_us_per_op",
    "proxy.handler": "proxy.handler_self_us_per_op",
    "cluster.gateway": "cluster.gateway_self_us_per_op",
    "upstream.handler": "upstream.handler_self_us_per_op",
    "loadgen.op": "loadgen.client_self_us_per_op",
    "core.evaluate": "core.evaluate_us_per_tick",
    "core.progress_apply": "core.progress_apply_us_per_tick",
    "metrics.server": "metrics.server_handler_self_us_per_op",
}

#: name -> unit of every per-layer metric, in reporting order.
PER_LAYER = {
    "httpcore.read_request_us_per_op": "us",
    "httpcore.read_response_us_per_op": "us",
    "httpcore.serialize_us_per_op": "us",
    "httpcore.client_send_self_us_per_op": "us",
    "httpcore.relay_us_per_mib": "us/MiB",
    "httpcore.tee_us_per_mib": "us/MiB",
    "httpcore.connections_opened": "1/window",
    "proxy.decide_us_per_op": "us",
    "proxy.sticky_us_per_op": "us",
    "proxy.sticky_hit_ratio": "ratio",
    "proxy.sticky_evictions_per_op": "1/op",
    "proxy.shadow_enqueue_us_per_op": "us",
    "proxy.shadow_sent_per_op": "1/op",
    "proxy.shadow_dropped_per_op": "1/op",
    "proxy.handler_self_us_per_op": "us",
    "proxy.upstream_wait_us_per_op": "us",
    "proxy.apply_config_us_per_push": "us",
    "cluster.gateway_self_us_per_op": "us",
    "upstream.handler_self_us_per_op": "us",
    "loadgen.client_self_us_per_op": "us",
    "core.enact_admit_ms": "ms",
    "core.enact_delay_ms": "ms",
    "core.evaluate_us_per_tick": "us",
    "core.provider_self_us_per_tick": "us",
    "core.provider_wait_us_per_tick": "us",
    "core.progress_apply_us_per_tick": "us",
    "core.routing_push_ms": "ms",
    "core.wave_size": "count",
    "core.tick_waves": "count",
    "metrics.query_eval_us_per_query": "us",
    "metrics.compile_us_per_query": "us",
    "metrics.server_handler_self_us_per_op": "us",
    "metrics.plan_node_hit_ratio": "ratio",
    "metrics.aggregate_hit_ratio": "ratio",
    "metrics.server_cache_hit_ratio": "ratio",
    "metrics.provider_coalesced_ratio": "ratio",
    "metrics.ingest_us_per_point": "us",
    "metrics.ingest_points_per_s": "1/s",
    "metrics.query_latency_p50_ms": "ms",
    "metrics.ingest_latency_p50_ms": "ms",
    "metrics.store_series": "count",
    "harness.raw_throughput_per_s": "1/s",
    "harness.raw_latency_p50_ms": "ms",
    "harness.latency_p99_ms": "ms",
    "harness.speed_factor_median": "ratio",
    "harness.windows_disturbed_share": "ratio",
    "harness.busy_share": "ratio",
    "harness.queued_share": "ratio",
    "harness.trend_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_us_per_op": "us",
    "trace.other_self_us_per_op": "us",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(counters: dict[str, float], hits: str, misses: str) -> float:
    return _ratio(counters[hits], counters[hits] + counters[misses])


def per_layer(measurement: Measurement, gauges: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, from one run with a traced second half."""
    traced = [w for w in measurement.windows if w.traced]
    untraced = measurement.untraced
    if not traced:
        raise SelfCheckFailed("the traced pass recorded no window")
    ops = sum(w.ops for w in traced)
    wall = sum(w.wall_s for w in traced)
    self_s: dict[str, float] = defaultdict(float)
    busy_s: dict[str, float] = defaultdict(float)
    span_wall_s: dict[str, float] = defaultdict(float)
    wait_s: dict[tuple, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    tallies: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    attributed = 0.0
    for window in traced:
        trace = window.trace
        residual = check_identity(trace, window.wall_s)
        if abs(residual) > IDENTITY_TOLERANCE:
            raise SelfCheckFailed(
                f"layer self times + unattributed miss the window's wall by {residual:+.1%}"
            )
        attributed += trace.attributed_s
        for target, source in (
            (self_s, trace.self_s), (busy_s, trace.busy_s), (span_wall_s, trace.wall_s),
            (wait_s, trace.wait_s), (calls, trace.calls), (tallies, trace.tallies),
            (counters, window.counters),
        ):
            for name, value in source.items():
                target[name] += value

    def per_op_us(seconds: float, count: float = ops) -> float:
        return _ratio(seconds, count) * 1e6

    values = {name: 0.0 for name in PER_LAYER}
    published = 0.0
    for span, metric in SELF_TIME_METRICS.items():
        values[metric] = per_op_us(self_s[span])
        published += self_s[span]
    for span, metric, tally in (
        ("httpcore.relay", "httpcore.relay_us_per_mib", "httpcore.relay.bytes"),
        ("httpcore.tee", "httpcore.tee_us_per_mib", "httpcore.tee.bytes"),
    ):
        values[metric] = per_op_us(self_s[span], tallies[tally] / MIB)
        published += self_s[span]
    providers = ("core.provider.prometheus", "core.provider.health")
    values["core.provider_self_us_per_tick"] = per_op_us(sum(self_s[p] for p in providers))
    values["core.provider_wait_us_per_tick"] = per_op_us(
        sum(wait_s[(p, "core.evaluate")] for p in providers)
    )
    for span, metric, count in (
        ("proxy.apply_config", "proxy.apply_config_us_per_push", calls["proxy.apply_config"]),
        ("metrics.query_eval", "metrics.query_eval_us_per_query", calls["metrics.query_eval"]),
        ("metrics.compile", "metrics.compile_us_per_query", calls["metrics.query_eval"]),
        ("metrics.ingest", "metrics.ingest_us_per_point", tallies["ingest.points"]),
    ):
        values[metric] = per_op_us(self_s[span], count)
        published += self_s[span]
    published += sum(self_s[p] for p in providers)

    values["httpcore.connections_opened"] = _ratio(tallies["connections.opened"], len(traced))
    values["proxy.sticky_hit_ratio"] = _ratio(tallies["sticky.hits"], tallies["sticky.lookups"])
    values["proxy.sticky_evictions_per_op"] = _ratio(counters["sticky_evictions"], ops)
    values["proxy.shadow_sent_per_op"] = _ratio(counters["shadow_sent"], ops)
    values["proxy.shadow_dropped_per_op"] = _ratio(counters["shadow_dropped"], ops)
    values["proxy.upstream_wait_us_per_op"] = per_op_us(
        wait_s[("httpcore.client_send", "proxy.handler")]
    )
    values["core.enact_admit_ms"] = _ratio(busy_s["core.enact"], calls["core.enact"]) * 1e3
    values["core.enact_delay_ms"] = (
        _ratio(counters["enact_delay_sum_s"], counters["enactments"]) * 1e3
    )
    values["core.routing_push_ms"] = (
        _ratio(span_wall_s["core.routing_push"], calls["core.routing_push"]) * 1e3
    )
    values["core.tick_waves"] = _ratio(counters["tick_waves"], len(traced))
    values["core.wave_size"] = _ratio(calls["core.evaluate"], counters["tick_waves"])
    values["metrics.plan_node_hit_ratio"] = _hit_ratio(
        counters, "plan_node_hits", "plan_node_misses")
    values["metrics.aggregate_hit_ratio"] = _hit_ratio(
        counters, "aggregate_hits", "aggregate_fallbacks")
    values["metrics.server_cache_hit_ratio"] = _hit_ratio(
        counters, "server_cache_hits", "server_cache_misses")
    values["metrics.provider_coalesced_ratio"] = _ratio(
        counters["provider_coalesced"], calls["core.provider.prometheus"])
    values["metrics.store_series"] = gauges.get("store_series", 0.0)

    # Untraced, calibrated: what the layer's callers see without tracing.
    if any(w.counters.get("points_ingested") for w in untraced):
        values["metrics.ingest_points_per_s"] = stats.median(
            w.counters["points_ingested"] / w.calibrated_wall_s for w in untraced
        )
        values["metrics.query_latency_p50_ms"] = stats.median(
            w.latency_ms(0.5) for w in untraced
        )
        values["metrics.ingest_latency_p50_ms"] = stats.median(
            stats.percentile(w.other_latencies_s, 0.5) * w.factor * 1e3 for w in untraced
        )

    values.update(diagnostics(measurement))
    values["trace.overhead_ratio"] = _ratio(
        stats.median(w.throughput_per_s for w in untraced),
        stats.median(w.throughput_per_s for w in traced),
    )
    values["trace.unattributed_us_per_op"] = per_op_us(wall - attributed)
    values["trace.other_self_us_per_op"] = per_op_us(sum(self_s.values()) - published)
    return values
