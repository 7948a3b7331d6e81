"""Tests for the sticky session store."""

import pytest

from repro.proxy import StickyStore


def test_assign_and_get():
    store = StickyStore()
    store.assign("client-1", "version-a")
    assert store.get("client-1") == "version-a"
    assert store.get("unknown") is None
    assert "client-1" in store
    assert len(store) == 1


def test_reassignment_overwrites():
    store = StickyStore()
    store.assign("c", "a")
    store.assign("c", "b")
    assert store.get("c") == "b"
    assert len(store) == 1


def test_lru_eviction():
    store = StickyStore(capacity=2)
    store.assign("c1", "a")
    store.assign("c2", "a")
    store.assign("c3", "a")  # evicts c1
    assert store.get("c1") is None
    assert store.get("c2") == "a"
    assert store.get("c3") == "a"


def test_get_refreshes_recency():
    store = StickyStore(capacity=2)
    store.assign("c1", "a")
    store.assign("c2", "a")
    store.get("c1")  # c1 becomes most recent
    store.assign("c3", "a")  # evicts c2, not c1
    assert store.get("c1") == "a"
    assert store.get("c2") is None


def test_clear():
    store = StickyStore()
    store.assign("c", "a")
    store.clear()
    assert len(store) == 0


def test_capacity_validation():
    with pytest.raises(ValueError):
        StickyStore(capacity=0)


def test_capacity_eviction_is_counted():
    store = StickyStore(capacity=2)
    for i in range(5):
        store.assign(f"c{i}", "a")
    assert len(store) == 2
    assert store.evictions == 3
