"""Property-based tests: yaml_lite round trip over arbitrary documents."""

from hypothesis import given, settings, strategies as st

from repro.dsl import dumps, loads

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet=st.characters(
            codec="ascii", categories=("L", "N", "P", "S", "Z"), exclude_characters="\r"
        ),
        max_size=40,
    ),
)

keys = st.text(
    alphabet=st.characters(
        codec="ascii", categories=("L", "N", "P", "S", "Z"), exclude_characters="\r"
    ),
    min_size=1,
    max_size=15,
)


def documents(depth=3):
    if depth == 0:
        return scalars
    return st.one_of(
        scalars,
        st.lists(
            st.one_of(scalars, st.dictionaries(keys, documents(depth - 1), max_size=3)),
            max_size=4,
        ),
        st.dictionaries(keys, documents(depth - 1), max_size=4),
    )


def normalize(value):
    """floats that are integral may round-trip as ints via repr? (they do
    not: repr keeps the .0) — but -0.0 loads as 0.0; normalize that."""
    if isinstance(value, float) and value == 0.0:
        return 0.0
    if isinstance(value, list):
        return [normalize(item) for item in value]
    if isinstance(value, dict):
        return {key: normalize(item) for key, item in value.items()}
    return value


@settings(max_examples=150)
@given(documents())
def test_dumps_loads_round_trip(document):
    assert normalize(loads(dumps(document))) == normalize(document)


@given(st.dictionaries(keys, scalars, min_size=1, max_size=8))
def test_flat_mapping_round_trip(mapping):
    assert normalize(loads(dumps(mapping))) == normalize(mapping)


@given(st.lists(scalars, min_size=1, max_size=10))
def test_scalar_list_round_trip(items):
    assert normalize(loads(dumps(items))) == normalize(items)
