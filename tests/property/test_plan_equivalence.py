"""Property proof: the compiled RoutingPlan ≡ interpreting the config.

``FilterChain.decide()`` runs on the plan compiled at config-apply time.
``interpreted_decide`` below walks the configuration per request, the way
the proxy did before plans existed, and is the executable spec.  The chain
and the reference — with independent sticky stores and identically-seeded
RNGs — must make identical decisions for identical request streams,
shadows included.
"""

import random
import uuid

from hypothesis import given, settings, strategies as st

from repro.core import FilterKind, RoutingConfig, ShadowRoute, TrafficSplit
from repro.core.selection import stable_fraction
from repro.httpcore import Headers, Request
from repro.proxy import CLIENT_COOKIE, FilterChain, RoutingDecision, StickyStore

_CLIENT_POOL = [f"client-{i}" for i in range(6)]


def interpreted_bucket(config, client_id, seed="bifrost"):
    """The first split whose running share exceeds the client's point."""
    point = stable_fraction(client_id, seed) * 100.0
    cumulative = 0.0
    for split in config.splits:
        cumulative += split.percentage
        if point < cumulative:
            return split.version
    return config.splits[-1].version


def interpreted_decide(config, request, sticky_store, rng):
    """Header or cookie dispatch, the sticky memo, then shadow sampling."""
    known = [split.version for split in config.splits]
    client_id, issue_cookie = None, False
    if config.filter_kind is FilterKind.HEADER:
        group = request.headers.get(config.header_name)
        version = group if group in known else known[0]
    else:
        client_id = request.cookies.get(CLIENT_COOKIE)
        if not client_id:
            client_id, issue_cookie = str(uuid.uuid4()), True
        remembered = sticky_store.get(client_id) if config.sticky else None
        if remembered is not None and remembered in known:
            version = remembered
        else:
            version = interpreted_bucket(config, client_id)
            if config.sticky:
                sticky_store.assign(client_id, version)
    shadows = [
        shadow
        for shadow in config.shadows
        if shadow.source_version == version
        and (shadow.percentage >= 100.0 or rng.random() * 100.0 < shadow.percentage)
    ]
    return RoutingDecision(version, client_id, issue_cookie, shadows)


@st.composite
def routing_configs(draw):
    """Valid configs over 1-4 versions, optionally sticky/shadowed."""
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
    versions = [f"v{i}" for i in range(count)]
    shadows = [
        ShadowRoute(
            source_version=draw(st.sampled_from(versions)),
            target_version=draw(st.sampled_from(versions)),
            percentage=draw(
                st.one_of(
                    st.just(100.0),
                    st.floats(min_value=0.0, max_value=99.9),
                )
            ),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    return RoutingConfig(
        splits=[TrafficSplit(v, share) for v, share in zip(versions, shares)],
        shadows=shadows,
        sticky=draw(st.booleans()),
        filter_kind=draw(st.sampled_from([FilterKind.COOKIE, FilterKind.HEADER])),
    )


def _request_for(config, token):
    """One request per drawn token, shaped for the config's filter mode."""
    if config.filter_kind is FilterKind.HEADER:
        if token is None:
            return Request("GET", "/x")
        # Both known groups and an unknown one exercise the fallback.
        return Request("GET", "/x", Headers([(config.header_name, token)]))
    # Cookie mode: always supply the cookie — an absent cookie makes the
    # chain mint a fresh uuid4, which would trivially diverge between the
    # two chains for reasons unrelated to the plan.
    return Request("GET", "/x", Headers([("Cookie", f"{CLIENT_COOKIE}={token}")]))


@settings(max_examples=80, deadline=None)
@given(
    routing_configs(),
    st.lists(
        st.one_of(st.none(), st.sampled_from(_CLIENT_POOL + ["unknown-group"])),
        min_size=1,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=2**31),
)
def test_plan_decisions_match_interpreter(config, tokens, rng_seed):
    fast = FilterChain(
        config, sticky_store=StickyStore(), rng=random.Random(rng_seed)
    )
    sticky_store, rng = StickyStore(), random.Random(rng_seed)
    for token in tokens:
        if config.filter_kind is not FilterKind.HEADER and token is None:
            token = "client-none"
        planned = fast.decide(_request_for(config, token))
        interpreted = interpreted_decide(
            config, _request_for(config, token), sticky_store, rng
        )
        assert planned.version == interpreted.version
        assert planned.client_id == interpreted.client_id
        assert planned.set_cookie == interpreted.set_cookie
        assert planned.shadows == interpreted.shadows


@settings(max_examples=50, deadline=None)
@given(routing_configs(), st.sampled_from(_CLIENT_POOL))
def test_plan_bucket_matches_interpreted_bucket(config, client_id):
    chain = FilterChain(config)
    assert chain.plan.bucket(client_id) == interpreted_bucket(config, client_id)
