"""Unit tests for strategies, services, and versions."""

import pytest

from repro.core import (
    Automaton,
    ModelError,
    Service,
    ServiceVersion,
    State,
    Strategy,
    Transitions,
    canary_split,
)


def make_service():
    service = Service("search")
    service.add_version(ServiceVersion("search", "127.0.0.1:9001"))
    service.add_version(ServiceVersion("fastSearch", "127.0.0.1:9002"))
    return service


def test_version_requires_name_and_endpoint():
    with pytest.raises(ModelError):
        ServiceVersion("", "127.0.0.1:1")
    with pytest.raises(ModelError):
        ServiceVersion("v", "")


def test_service_version_lookup():
    service = make_service()
    assert service.version("fastSearch").endpoint == "127.0.0.1:9002"
    assert "search" in service
    assert "missing" not in service
    with pytest.raises(ModelError):
        service.version("missing")


def test_service_rejects_duplicate_versions():
    service = make_service()
    with pytest.raises(ModelError):
        service.add_version(ServiceVersion("search", "other:1"))


def test_strategy_service_registry():
    strategy = Strategy("s")
    strategy.add_service(make_service())
    assert strategy.service("search").name == "search"
    assert strategy.service("search").version("fastSearch").endpoint == "127.0.0.1:9002"
    with pytest.raises(ModelError):
        strategy.add_service(make_service())
    with pytest.raises(ModelError):
        strategy.service("other")


def test_validate_requires_automaton():
    strategy = Strategy("s")
    with pytest.raises(ModelError):
        strategy.validate()


def test_validate_catches_unknown_version_in_routing():
    strategy = Strategy("s")
    strategy.add_service(make_service())
    automaton = Automaton()
    automaton.add_state(
        State(
            name="a",
            routing={"search": canary_split("search", "unknownVersion", 5.0)},
            duration=1.0,
            transitions=Transitions.always("done"),
        )
    )
    automaton.add_state(State(name="done", final=True))
    strategy.automaton = automaton
    with pytest.raises(ModelError):
        strategy.validate()


def test_validate_catches_unknown_service_in_routing():
    strategy = Strategy("s")
    strategy.add_service(make_service())
    automaton = Automaton()
    automaton.add_state(
        State(
            name="a",
            routing={"ghost": canary_split("search", "fastSearch", 5.0)},
            duration=1.0,
            transitions=Transitions.always("done"),
        )
    )
    automaton.add_state(State(name="done", final=True))
    strategy.automaton = automaton
    with pytest.raises(ModelError):
        strategy.validate()


def test_validate_accepts_wellformed_strategy():
    strategy = Strategy("s")
    strategy.add_service(make_service())
    automaton = Automaton()
    automaton.add_state(
        State(
            name="a",
            routing={"search": canary_split("search", "fastSearch", 5.0)},
            duration=1.0,
            transitions=Transitions.always("done"),
        )
    )
    automaton.add_state(State(name="done", final=True))
    strategy.automaton = automaton
    strategy.validate()
