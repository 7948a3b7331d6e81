"""Tests for the user selection function η: ``RoutingPlan.bucket``.

The proxy's compiled plan is the one η in the product; each case checks
it against ``interpreted_bucket``, the configuration-walking oracle the
plan-equivalence property proof uses.
"""

import pytest

from repro.core import ab_split, canary_split, stable_fraction
from repro.httpcore import Headers, Request
from repro.proxy import CLIENT_COOKIE, FilterChain
from tests.property.test_plan_equivalence import interpreted_bucket

USERS = [f"user-{i}" for i in range(2000)]


def test_stable_fraction_deterministic_and_uniformish():
    values = [stable_fraction(user, "seed") for user in USERS]
    assert values == [stable_fraction(user, "seed") for user in USERS]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert 0.45 < mean < 0.55


def test_stable_fraction_differs_per_seed():
    assert stable_fraction("u", "a") != stable_fraction("u", "b")


def test_assigner_split_shares_converge():
    config = canary_split("search", "fastSearch", 5.0)
    bucket = FilterChain(config).plan.bucket
    versions = [bucket(user) for user in USERS]
    assert versions == [interpreted_bucket(config, user) for user in USERS]
    assert 100.0 * versions.count("search") / len(USERS) == pytest.approx(95.0, abs=2.0)
    assert 100.0 * versions.count("fastSearch") / len(USERS) == pytest.approx(5.0, abs=2.0)


def test_assigner_is_deterministic_without_sticky():
    config = canary_split("a", "b", 50.0)
    assert not config.sticky
    bucket = FilterChain(config).plan.bucket
    first = [bucket(user) for user in USERS[:100]]
    assert first == [bucket(user) for user in USERS[:100]]
    assert first == [interpreted_bucket(config, user) for user in USERS[:100]]


def test_assigner_sticky_memoizes():
    chain = FilterChain(ab_split("a", "b"))
    request = Request("GET", "/", Headers([("Cookie", f"{CLIENT_COOKIE}=user-1")]))
    version = chain.decide(request).version
    assert version == chain.plan.bucket("user-1")
    assert chain.sticky_store.get("user-1") == version
    assert chain.decide(request).version == version


def test_assigner_seed_changes_bucketing():
    config = canary_split("a", "b", 50.0)
    first = FilterChain(config, seed="s1").plan.bucket
    second = FilterChain(config, seed="s2").plan.bucket
    assignments_1 = [first(user) for user in USERS[:200]]
    assignments_2 = [second(user) for user in USERS[:200]]
    assert assignments_1 == [interpreted_bucket(config, user, "s1") for user in USERS[:200]]
    assert assignments_1 != assignments_2
