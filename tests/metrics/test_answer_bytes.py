"""Query answers are written byte for byte as the JSON encoder writes them.

``render_answer`` assembles a body from each series' pre-rendered label
text and ``float.__repr__``.  The oracle below is the encoding it replaced:
one ``json.JSONEncoder(allow_nan=False)`` pass over the payload, with a
value that is not finite spelt ``"+Inf"``, ``"-Inf"`` or ``"NaN"``.
"""

import copy
import json
import math
import random
from urllib.parse import quote

import pytest

from repro.clock import VirtualClock
from repro.httpcore import HttpClient
from repro.metrics import MetricsServer, MetricStore, planner_for
from repro.metrics.server import render_answer

_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def oracle_body(vector) -> bytes:
    """The answer body as the server encoded it with ``json``."""
    scalar = sum(sample.value for sample in vector) if vector else None
    samples = [{"labels": dict(sample.labels), "value": sample.value} for sample in vector]
    payload = {"status": "success", "data": {"value": scalar, "vector": samples}}
    try:
        return _STRICT_JSON.encode(payload).encode()
    except ValueError:
        for sample in (payload["data"], *samples):
            value = sample["value"]
            if value is not None and not math.isfinite(value):
                sample["value"] = "NaN" if math.isnan(value) else "+Inf" if value > 0 else "-Inf"
        return _STRICT_JSON.encode(payload).encode()


#: Label text a JSON encoder must escape, or may write as is.
ALPHABET = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "日本", "😀", "a", "b", " ", "/", "'", "{", "}"]
SPECIAL_VALUES = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, 5e-324, 0.1, 1e16, 123456789.0]
BUCKETS = ("0.1", "0.5", "1", "+Inf")


def _label_value(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 6)))


def _value(rng: random.Random, finite: bool) -> float:
    if rng.random() < 0.3:
        value = rng.choice(SPECIAL_VALUES)
        if finite and not math.isfinite(value):
            return 1.0
        return value
    return round(rng.uniform(-1e6, 1e6), rng.randrange(0, 8))


def seeded_store(seed: int, finite: bool) -> tuple[MetricStore, list[str]]:
    """A store of gauges, counters and histograms with awkward labels, and
    the ``instance`` label values it used."""
    rng = random.Random(seed)
    store = MetricStore()
    instances = sorted({_label_value(rng) for _ in range(4)})
    for t in range(1, 11):
        batch = []
        for instance in instances:
            labels = {"instance": instance, "zone": _label_value(rng)} if t == 1 else None
            batch.append(("gauge", _value(rng, finite), float(t), labels or {"instance": instance}))
            batch.append(("requests_total", float(t * rng.randrange(1, 9)), float(t), {"instance": instance}))
            cumulative = 0.0
            for bound in BUCKETS:
                cumulative += rng.randrange(0, 5)
                batch.append(("latency_bucket", cumulative, float(t), {"instance": instance, "le": bound}))
        store.record_batch(batch)
    return store, instances


def queries(instances: list[str]) -> list[str]:
    escaped = [value.replace("\\", "\\\\").replace('"', '\\"') for value in instances]
    one = f'{{instance="{escaped[0]}"}}'
    shapes = [
        "gauge", f"gauge{one}", f'gauge{{instance!="{escaped[-1]}"}}', 'gauge{instance=~".+"}',
        'gauge{instance!~"a.*"}', "missing", "missing * 2",
        "1", "2.5", "1 / 0", "0 / 0", "0 - 1 / 0", "(1 + 2) * 3",
        "gauge * 2", "2 * gauge", "gauge / 0", "0 / gauge", "gauge - gauge",
        "gauge + requests_total", "requests_total / requests_total",
        "histogram_quantile(0.5, latency_bucket)", f"histogram_quantile(0.99, latency_bucket{one})",
        "histogram_quantile(0.5, latency_bucket) * 1000",
    ]
    for function in ("rate", "increase", "avg_over_time", "min_over_time", "max_over_time",
                     "sum_over_time", "count_over_time"):
        shapes.append(f"{function}(requests_total[5s])")
        shapes.append(f"{function}(gauge{one}[30s])")
    for op in ("sum", "avg", "min", "max", "count"):
        shapes.append(f"{op}(gauge)")
        shapes.append(f"{op}(rate(requests_total[5s])) / {op}(gauge)")
    return shapes


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "non-finite"])
@pytest.mark.parametrize("seed", range(12))
def test_rendered_answer_is_the_json_encoding(seed, finite):
    store, instances = seeded_store(seed, finite)
    planner = planner_for(store)
    shapes = queries(instances)
    assert len(shapes) > 40
    for at in (10.0, 10.5, 400.0):
        for query in shapes:
            vector = planner.evaluate(store, query, at)
            assert render_answer(vector) == oracle_body(vector), query


def test_the_corpus_reaches_every_answer_kind():
    """The corpus holds empty answers, scalars, every non-finite value in
    ``data.value`` and in samples, and labels that need escaping."""
    bodies = []
    for seed in range(12):
        store, instances = seeded_store(seed, finite=False)
        for query in queries(instances):
            bodies.append(render_answer(planner_for(store).evaluate(store, query, 10.0)))
    text = b"\n".join(bodies)
    assert b'"vector": []' in text and b'"labels": {}' in text
    for value in (b'"+Inf"', b'"-Inf"', b'"NaN"'):
        assert b'"value": ' + value + b', "vector"' in text
        assert b'"value": ' + value + b"}" in text
    for escaped in (b'\\"', b"\\\\", b"\\n", b"\\u0000", b"\\u00e9", b"\\ud83d\\ude00"):
        assert escaped in text


async def test_the_server_writes_the_oracle_bytes():
    store, instances = seeded_store(3, finite=False)
    server = MetricsServer(clock=VirtualClock(start=10.0))
    server.store = store
    await server.start(scrape=False)
    try:
        async with HttpClient() as client:
            for query in queries(instances):
                response = await client.get(
                    f"http://{server.address}/api/v1/query?query={quote(query)}"
                )
                expected = oracle_body(planner_for(store).evaluate(store, query, 10.0))
                assert response.body == expected, query
    finally:
        await server.stop()


def test_an_answers_labels_cannot_change_a_series_or_a_later_answer():
    store = MetricStore()
    store.record("m", 1.0, 1.0, {"a": "x"})
    for bound, count in (("1", 1.0), ("+Inf", 2.0)):
        store.record("h_bucket", count, 1.0, {"a": "x", "le": bound})
    planner = planner_for(store)
    for query in ("m", "m * 2", "2 * m", "m + m", "histogram_quantile(0.5, h_bucket)"):
        first = render_answer(planner.evaluate(store, query, 1.0))
        sample = planner.evaluate(store, query, 1.0)[0]
        labels = sample.labels
        for mutate in (
            lambda: labels.__setitem__("a", "y"),
            lambda: labels.__delitem__("a"),
            lambda: labels.update(a="y"),
            lambda: labels.pop("a"),
            lambda: labels.popitem(),
            lambda: labels.setdefault("b", "c"),
            lambda: labels.clear(),
            lambda: labels.__ior__({"a": "y"}),
        ):
            with pytest.raises(TypeError):
                mutate()
        with pytest.raises(AttributeError):
            sample.labels = {}
        # A copy is the caller's own to change.
        for mine in (dict(labels), labels.copy(), copy.copy(labels), copy.deepcopy(labels)):
            assert mine == {"a": "x"}
            dict.__setitem__(mine, "a", "y")
        store.record("m", 1.0, 1.0, {"a": "x"})  # a new generation, same value
        assert render_answer(planner.evaluate(store, query, 1.0)) == first
    assert [series.labels for series in store.select("m")] == [{"a": "x"}]
    assert sorted(dict(series.labels)["le"] for series in store.select("h_bucket")) == ["+Inf", "1"]
