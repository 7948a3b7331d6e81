"""Property-based tests for the metrics substrate."""

from hypothesis import given, settings, strategies as st

from repro.loadgen import SummaryStats, percentile
from repro.metrics import MetricPoint, MetricStore, evaluate_scalar, render_exposition
from tests.metrics.exposition_reference import parse_exposition
from repro.analysis.timeseries import BoxplotStats

label_values = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N", "P", "Z"),
                           exclude_characters='\n\r'),
    max_size=20,
)
metric_names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,15}", fullmatch=True)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            metric_names,
            st.dictionaries(metric_names, label_values, max_size=3),
            st.floats(allow_nan=False, allow_infinity=True, width=32),
        ),
        max_size=10,
    )
)
def test_exposition_round_trip(points_data):
    points = [MetricPoint(name, labels, value) for name, labels, value in points_data]
    assert parse_exposition(render_exposition(points)) == points


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_monotone_samples_evaluate_consistently(values):
    """An instant query returns exactly the latest recorded value."""
    store = MetricStore()
    for t, value in enumerate(sorted(values)):
        store.record("m", value, float(t))
    assert evaluate_scalar(store, "m", at=float(len(values))) == sorted(values)[-1]


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_summary_stats_invariants(values):
    stats = SummaryStats.of(values)
    assert stats.count == len(values)
    # Allow for float summation error: mean([0.2]*3) > 0.2 by one ulp.
    epsilon = 1e-9 * max(1.0, abs(stats.maximum), abs(stats.minimum))
    assert stats.minimum - epsilon <= stats.mean <= stats.maximum + epsilon
    assert stats.minimum <= stats.median <= stats.maximum
    assert stats.sd >= 0.0


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    ),
    st.floats(min_value=0, max_value=100),
)
def test_percentile_is_an_element_within_bounds(values, q):
    result = percentile(values, q)
    assert result in values
    assert min(values) <= result <= max(values)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_boxplot_stats_ordering(values):
    box = BoxplotStats.of(values)
    assert box.minimum <= box.q1 <= box.median <= box.q3 <= box.maximum
    assert box.count == len(values)
