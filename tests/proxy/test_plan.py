"""Unit tests for the compiled routing plan and endpoint rings."""

import random

import pytest

from repro.core import RoutingConfig, RoutingError, ShadowRoute, TrafficSplit
from repro.proxy.plan import NO_SHADOWS, EndpointRing, RoutingPlan, parse_endpoint


def test_ring_parses_endpoints_once():
    ring = EndpointRing(["svc-a:8001", "bare-host"])
    assert ring.instances == (
        ("svc-a:8001", "svc-a", 8001),
        ("bare-host", "bare-host", 80),
    )


@pytest.mark.parametrize(
    "text, parsed",
    [
        ("h", ("h", 80)),
        ("h:80", ("h", 80)),
        ("h:1", ("h", 1)),
        ("h:65535", ("h", 65535)),
        ("h:00080", ("h", 80)),
        ("127.0.0.1:8080", ("127.0.0.1", 8080)),
        ("h:", None),
        ("h:+80", None),
        ("h: 80", None),
        ("h:80 ", None),
        ("h:8_0", None),
        ("h:-1", None),
        ("h:0", None),
        ("h:65536", None),
        ("h:000080", None),
        ("h:\u0668\u0660", None),
        ("h:http", None),
        ("h:80:81", None),
        (":80", None),
        ("", None),
    ],
)
def test_parse_endpoint(text, parsed):
    if parsed is None:
        with pytest.raises(ValueError):
            parse_endpoint(text)
    else:
        assert parse_endpoint(text) == parsed


def test_ring_round_robins():
    ring = EndpointRing(["a:1", "b:2", "c:3"])
    picked = [ring.next()[0] for _ in range(7)]
    assert picked == ["a:1", "b:2", "c:3", "a:1", "b:2", "c:3", "a:1"]


def test_single_instance_ring_short_circuits():
    ring = EndpointRing(["only:9"])
    assert ring.next() == ("only:9", "only", 9)
    assert ring.next() == ("only:9", "only", 9)


def _plan(*shares, shadows=(), sticky=False):
    return RoutingPlan(
        RoutingConfig(
            splits=[TrafficSplit(f"v{i}", s) for i, s in enumerate(shares)],
            shadows=list(shadows),
            sticky=sticky,
        )
    )


def test_plan_validates_config():
    with pytest.raises(RoutingError):
        _plan(50.0, 30.0)  # does not sum to 100


def test_single_version_bucket_short_circuits():
    plan = _plan(100.0)
    assert plan.bucket("anyone") == "v0"


def test_bucket_covers_every_version():
    plan = _plan(25.0, 25.0, 50.0)
    seen = {plan.bucket(f"client-{i}") for i in range(200)}
    assert seen == {"v0", "v1", "v2"}


def test_bucket_is_deterministic():
    plan = _plan(30.0, 70.0)
    again = _plan(30.0, 70.0)
    for i in range(50):
        assert plan.bucket(f"c{i}") == again.bucket(f"c{i}")


def test_version_for_group_dispatch():
    plan = _plan(60.0, 40.0)
    assert plan.version_for_group("v1") == "v1"
    assert plan.version_for_group("nope") == "v0"  # unknown -> default
    assert plan.version_for_group(None) == "v0"  # absent -> default


def test_known_versions_is_frozen():
    plan = _plan(60.0, 40.0)
    assert plan.known_versions == frozenset({"v0", "v1"})


def test_no_shadows_returns_shared_sentinel():
    plan = _plan(100.0)
    selected = plan.select_shadows("v0", random.Random(0))
    assert selected is NO_SHADOWS
    assert selected == []
    assert NO_SHADOWS == []  # the sentinel must never accrete entries


def test_full_percentage_shadow_always_fires():
    shadow = ShadowRoute("v0", "v1", 100.0)
    plan = _plan(100.0, 0.0, shadows=[shadow])
    for _ in range(5):
        assert plan.select_shadows("v0", random.Random(0)) == [shadow]
    assert plan.select_shadows("v1", random.Random(0)) is NO_SHADOWS


def test_sampled_shadow_respects_rng():
    shadow = ShadowRoute("v0", "v1", 50.0)
    plan = _plan(100.0, 0.0, shadows=[shadow])
    rng = random.Random(7)
    fired = sum(bool(plan.select_shadows("v0", rng)) for _ in range(400))
    assert 140 < fired < 260
