"""Range functions through the shared plan vs the rescanning reference.

Checks ask their range queries through :func:`repro.metrics.planner_for`,
whose per-node memo is stamped ``(at, store.generation)``.  Random
interleavings of appends (through ``MetricStore.record``, so retention
trims run as on ingest) and reads at assorted instants and windows are
answered by the planner and must equal, bit for bit,
:func:`aggregate.rescan_value` over the same series: a memoized answer is
never served after a write, and sharing one node between several roots
never changes what any of them sees.
"""

from hypothesis import given, settings, strategies as st

from repro.metrics import MetricStore, planner_for
from repro.metrics import aggregate

FUNCTIONS = sorted(aggregate.RANGE_REFERENCE)
RETENTION = 20.0

deltas = st.floats(min_value=0.0, max_value=7.0, allow_nan=False)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
windows = st.sampled_from([3.0, 10.0, 25.0])

ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), deltas, values),
        # Read offset relative to the current write head; negative offsets
        # read behind the newest sample.
        st.tuples(st.just("read"), st.floats(min_value=-10.0, max_value=10.0)),
    ),
    min_size=1,
    max_size=50,
)


def _check_read(store, window, at):
    planner = planner_for(store)
    series = (store.select("m") or [None])[0]
    for function in FUNCTIONS:
        got = planner.evaluate_scalar(store, f"{function}(m[{window:g}s])", at)
        expected = (
            None
            if series is None
            else aggregate.rescan_value(series, function, window, at)
        )
        assert got == expected, (function, window, at, got, expected)


@settings(max_examples=200, deadline=None)
@given(ops_list=ops, window=windows)
def test_incremental_is_bitwise_exact_with_resum_interval_one(ops_list, window):
    store = MetricStore(retention=RETENTION)
    now = 0.0
    for op in ops_list:
        if op[0] == "append":
            now += op[1]
            store.record("m", op[2], now)
        else:
            _check_read(store, window, now + op[1])
    # Always finish with a read so every interleaving checks something.
    _check_read(store, window, now)


@settings(max_examples=200, deadline=None)
@given(
    values_list=st.lists(values, min_size=1, max_size=30),
    window=windows,
)
def test_incremental_is_close_with_default_interval(values_list, window):
    """Re-reading one instant after each write: the memo must not go stale.

    The read instant stays fixed while samples land at or before it, so
    only the store's generation tells the planner that its memoized answer
    is out of date.  Both roots share the range node; each answer must be
    exact, not merely close.
    """
    store = MetricStore(retention=RETENTION)
    planner = planner_for(store)
    at = float(len(values_list))
    for index, value in enumerate(values_list):
        store.record("m", value, float(index))
        series = (store.select("m") or [None])[0]
        for function in FUNCTIONS:
            query = f"{function}(m[{window:g}s])"
            expected = aggregate.rescan_value(series, function, window, at)
            assert planner.evaluate_scalar(store, query, at) == expected
            # A second root over the same node is answered from the memo.
            doubled = planner.evaluate_scalar(store, f"{query} * 2", at)
            assert doubled == (None if expected is None else expected * 2), (
                function,
                doubled,
                expected,
            )


@settings(max_examples=100, deadline=None)
@given(
    values_list=st.lists(values, min_size=2, max_size=40),
    window=windows,
)
def test_monotonic_reads_are_exact_even_without_forced_resums(values_list, window):
    """Time-ordered reads after every append: the scheduler's access pattern."""
    store = MetricStore(retention=RETENTION)
    for index, value in enumerate(values_list):
        store.record("m", value, float(index))
        _check_read(store, window, float(index))
