"""Tests for the fluent strategy builder."""

import pytest

from repro.core import (
    ModelError,
    StrategyBuilder,
    canary_split,
    simple_basic_check,
    single_version,
)


def test_builder_assembles_valid_strategy():
    builder = StrategyBuilder("rollout")
    builder.service(
        "search",
        {"search": "127.0.0.1:9001", "fastSearch": "127.0.0.1:9002"},
    )
    builder.state("canary").route(
        "search", canary_split("search", "fastSearch", 5.0)
    ).check(simple_basic_check("errors", "q", "<5", 1, 3)).transitions(
        [0], ["rollback", "done"]
    )
    builder.state("done").route("search", single_version("fastSearch")).final()
    builder.state("rollback").route("search", single_version("search")).final(
        rollback=True
    )
    strategy = builder.build()
    assert strategy.automaton.start == "canary"
    assert strategy.automaton.final_states == {"done", "rollback"}
    assert strategy.automaton.state("rollback").rollback


def test_builder_first_state_is_start_unless_overridden():
    builder = StrategyBuilder("s")
    builder.service("svc", {"v": "h:1"})
    builder.state("first").dwell(1).goto("later")
    builder.state("later").dwell(1).goto("done")
    builder.state("done").final()
    strategy = builder.build()
    assert strategy.automaton.start == "first"


def test_builder_goto_and_dwell():
    builder = StrategyBuilder("s")
    builder.service("svc", {"v": "h:1"})
    builder.state("a").dwell(30).goto("done")
    builder.state("done").final()
    strategy = builder.build()
    state = strategy.automaton.state("a")
    assert state.duration == 30
    assert state.transitions.next_state(0) == "done"


def test_builder_check_weights():
    builder = StrategyBuilder("s")
    builder.service("svc", {"v": "h:1"})
    builder.state("a").check(
        simple_basic_check("c1", "q", "<5", 1, 1), weight=2.0
    ).check(simple_basic_check("c2", "q", "<5", 1, 1)).goto("done")
    builder.state("done").final()
    strategy = builder.build()
    assert strategy.automaton.state("a").weights == [2.0, 1.0]


def test_builder_rejects_duplicate_service():
    builder = StrategyBuilder("s")
    builder.service("svc", {"v": "h:1"})
    with pytest.raises(ModelError):
        builder.service("svc", {"v": "h:1"})


def test_builder_rejects_duplicate_route_in_state():
    builder = StrategyBuilder("s")
    builder.service("svc", {"v": "h:1"})
    state = builder.state("a").route("svc", single_version("v"))
    with pytest.raises(ModelError):
        state.route("svc", single_version("v"))


def test_build_validates_whole_strategy():
    builder = StrategyBuilder("s")
    builder.service("svc", {"v": "h:1"})
    builder.state("a").dwell(1).goto("ghost")
    builder.state("done").final()
    with pytest.raises(ModelError):
        builder.build()
