"""Property-based tests for routing configs, the selection function η, and filters."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import RoutingConfig, TrafficSplit, stable_fraction
from repro.httpcore import Headers, Request
from repro.proxy import CLIENT_COOKIE, FilterChain
from tests.property.test_plan_equivalence import interpreted_bucket


def split_configs():
    """Valid traffic splits: 1-4 versions whose shares sum to 100."""

    @st.composite
    def build(draw):
        count = draw(st.integers(min_value=1, max_value=4))
        if count == 1:
            shares = [100.0]
        else:
            cuts = sorted(
                draw(
                    st.lists(
                        st.floats(min_value=0.5, max_value=99.5),
                        min_size=count - 1,
                        max_size=count - 1,
                        unique=True,
                    )
                )
            )
            bounds = [0.0] + cuts + [100.0]
            shares = [bounds[i + 1] - bounds[i] for i in range(count)]
        sticky = draw(st.booleans())
        return RoutingConfig(
            splits=[TrafficSplit(f"v{i}", share) for i, share in enumerate(shares)],
            sticky=sticky,
        )

    return build()


@given(split_configs())
def test_valid_configs_survive_wire_round_trip(config):
    config.validate()
    restored = RoutingConfig.from_wire(config.to_wire())
    assert [s.version for s in restored.splits] == [s.version for s in config.splits]
    assert restored.sticky == config.sticky


@given(split_configs(), st.text(min_size=1, max_size=30))
def test_assignment_always_yields_declared_version(config, user_id):
    version = FilterChain(config).plan.bucket(user_id)
    assert version in {split.version for split in config.splits}


@given(split_configs(), st.text(min_size=1, max_size=30))
def test_assignment_is_deterministic(config, user_id):
    first = FilterChain(config).plan.bucket(user_id)
    second = FilterChain(config).plan.bucket(user_id)
    assert first == second == interpreted_bucket(config, user_id)


@given(st.text(min_size=1, max_size=50), st.text(min_size=1, max_size=20))
def test_stable_fraction_in_unit_interval(user_id, seed):
    fraction = stable_fraction(user_id, seed)
    assert 0.0 <= fraction < 1.0


@settings(max_examples=50)
@given(split_configs(), st.lists(st.uuids(), min_size=1, max_size=20, unique=True))
def test_filter_chain_decisions_match_splits(config, client_ids):
    chain = FilterChain(config, rng=random.Random(0))
    for client_id in client_ids:
        request = Request(
            "GET", "/x", Headers([("Cookie", f"{CLIENT_COOKIE}={client_id}")])
        )
        decision = chain.decide(request)
        assert decision.version in {split.version for split in config.splits}
        assert decision.client_id == str(client_id)
        assert not decision.set_cookie  # cookie was supplied


@settings(max_examples=30)
@given(split_configs())
def test_sticky_chains_never_move_a_client(config):
    chain = FilterChain(config, rng=random.Random(1))
    request = Request(
        "GET", "/x", Headers([("Cookie", f"{CLIENT_COOKIE}=client-fixed")])
    )
    versions = {chain.decide(request).version for _ in range(10)}
    assert len(versions) == 1
