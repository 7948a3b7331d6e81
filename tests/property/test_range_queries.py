"""Range queries vs an in-test list model, over random interleavings.

Appends (through ``MetricStore.record``, so retention trims run as on
ingest), explicit trims (``TimeSeries.drop_before``, including past the
newest sample, which empties the series before later appends refill it)
and reads are applied in random order.  Every read evaluates each range
function through :func:`repro.metrics.evaluate_scalar` and must equal, bit
for bit, the same reduction over a plain list of ``(t, v)`` pairs that
mirrors the store.  Windows reach past the retention, reads land behind
the newest sample, and unconstrained values make counter resets common.
"""

from hypothesis import given, settings, strategies as st

from repro.metrics import MetricStore, evaluate_scalar
from repro.metrics.query import RANGE_FUNCTIONS

RETENTION = 20.0
#: Seconds; 25 and 60 are wider than the retention.
WINDOWS = (3, 10, 25, 60)


def _model_value(function, window_samples):
    """The expected answer, computed the way the query language defines it."""
    timestamps = [t for t, _ in window_samples]
    values = [v for _, v in window_samples]
    if not values:
        return None
    if function in ("rate", "increase"):
        if len(values) < 2:
            return None
        increase = 0.0
        for previous, current in zip(values, values[1:]):
            increase += current - previous if current >= previous else current
        elapsed = timestamps[-1] - timestamps[0]
        if elapsed <= 0:
            return None
        rate = increase / elapsed
        return rate if function == "rate" else rate * elapsed
    return {
        "avg_over_time": lambda: sum(values) / len(values),
        "min_over_time": lambda: min(values),
        "max_over_time": lambda: max(values),
        "sum_over_time": lambda: sum(values),
        "count_over_time": lambda: float(len(values)),
    }[function]()


def _seconds(low, high):
    """Whole or half seconds, so samples often sit exactly on a window edge."""
    return st.integers(2 * low, 2 * high).map(lambda halves: halves / 2)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            _seconds(0, 7),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        # Boundary relative to the write head; positive offsets empty the
        # series.
        st.tuples(st.just("trim"), _seconds(-30, 5)),
        # Negative offsets read behind the newest sample.
        st.tuples(st.just("read"), _seconds(-15, 10), st.sampled_from(WINDOWS)),
    ),
    min_size=1,
    max_size=60,
)


def _check(store, model, at, window):
    inside = [(t, v) for t, v in model if at - window < t <= at]
    for function in RANGE_FUNCTIONS:
        got = evaluate_scalar(store, f"{function}(m[{window}s])", at)
        expected = _model_value(function, inside)
        assert got == expected, (function, window, at, got, expected, inside)


@settings(max_examples=300, deadline=None)
@given(ops_list=ops)
def test_range_queries_match_list_model(ops_list):
    store = MetricStore(retention=RETENTION)
    model: list[tuple[float, float]] = []
    now = 0.0
    for op in ops_list:
        if op[0] == "append":
            now += op[1]
            store.record("m", op[2], now)
            model.append((now, op[2]))
            model[:] = [(t, v) for t, v in model if t >= now - RETENTION]
        elif op[0] == "trim":
            series = (store.select("m") or [None])[0]
            if series is not None:
                boundary = now + op[1]
                series.drop_before(boundary)
                model[:] = [(t, v) for t, v in model if t >= boundary]
        else:
            _check(store, model, now + op[1], op[2])
    # Always finish with a read at the head so every interleaving checks one.
    for window in WINDOWS:
        _check(store, model, now, window)


def test_emptied_series_refills():
    store = MetricStore(retention=RETENTION)
    for t in range(5):
        store.record("m", float(t), float(t))
    series = (store.select("m") or [None])[0]
    series.drop_before(100.0)
    assert series.newest_timestamp is None
    assert evaluate_scalar(store, "count_over_time(m[60s])", 4.0) is None
    store.record("m", 7.0, 5.0)
    store.record("m", 2.0, 6.0)  # a counter reset right after the refill
    assert evaluate_scalar(store, "count_over_time(m[60s])", 6.0) == 2.0
    assert evaluate_scalar(store, "increase(m[60s])", 6.0) == 2.0
