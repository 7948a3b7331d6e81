"""Tests for probabilistic rollout forecasting (absorbing Markov chain)."""

import pytest

from repro.core import (
    ModelError,
    StrategyBuilder,
    forecast_rollout,
    optimistic_probabilities,
    single_version,
)
from repro.core.automaton import Automaton, State


def linear_strategy():
    """a(10s) -> b(20s) -> done: deterministic, duration 30s."""
    builder = StrategyBuilder("linear")
    builder.service("svc", {"v": "h:1"})
    builder.state("a").dwell(10).goto("b")
    builder.state("b").dwell(20).goto("done")
    builder.state("done").final()
    return builder.build()


def branching_strategy():
    """canary either proceeds (p) or rolls back (1-p)."""
    builder = StrategyBuilder("branching")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("canary").route("svc", single_version("canary")).dwell(60).transitions(
        [0], ["rollback", "rollout"]
    )
    builder.state("rollout").dwell(40).goto("done")
    builder.state("done").final()
    builder.state("rollback").final(rollback=True)
    return builder.build()


def looping_strategy():
    """A state that may re-execute itself (outcome inconclusive)."""
    builder = StrategyBuilder("looping")
    builder.service("svc", {"v": "h:1"})
    builder.state("test").dwell(10).transitions([0], ["test", "done"])
    builder.state("done").final()
    return builder.build()


def test_linear_expected_duration_is_exact():
    forecast = forecast_rollout(linear_strategy())
    assert forecast.expected_duration == pytest.approx(30.0)
    assert forecast.expected_visits == pytest.approx({"a": 1.0, "b": 1.0})
    assert forecast.absorption_probabilities == pytest.approx({"done": 1.0})
    assert forecast.rollback_probability == 0.0


def test_branching_with_explicit_probabilities():
    strategy = branching_strategy()
    probabilities = {
        "canary": {"rollback": 0.2, "rollout": 0.8},
        "rollout": {"done": 1.0},
    }
    forecast = forecast_rollout(strategy, probabilities)
    # E[T] = 60 (canary always) + 0.8 * 40 (rollout).
    assert forecast.expected_duration == pytest.approx(60 + 0.8 * 40)
    assert forecast.absorption_probabilities["rollback"] == pytest.approx(0.2)
    assert forecast.absorption_probabilities["done"] == pytest.approx(0.8)
    assert forecast.rollback_probability == pytest.approx(0.2)


def test_self_loop_geometric_visits():
    strategy = looping_strategy()
    # Stay with p=0.5: expected visits = 1 / (1 - 0.5) = 2.
    forecast = forecast_rollout(strategy, {"test": {"test": 0.5, "done": 0.5}})
    assert forecast.expected_visits["test"] == pytest.approx(2.0)
    assert forecast.expected_duration == pytest.approx(20.0)


def test_uniform_probabilities_split_equally():
    # With two ranges, a success share of one half is the uniform split.
    strategy = branching_strategy()
    probabilities = optimistic_probabilities(strategy.automaton, success=0.5)
    assert probabilities["canary"] == {"rollback": 0.5, "rollout": 0.5}
    forecast = forecast_rollout(strategy, probabilities)
    assert forecast.rollback_probability == pytest.approx(0.5)


def test_optimistic_probabilities_favor_last_range():
    strategy = branching_strategy()
    probabilities = optimistic_probabilities(strategy.automaton, success=0.9)
    assert probabilities["canary"]["rollout"] == pytest.approx(0.9)
    assert probabilities["canary"]["rollback"] == pytest.approx(0.1)
    forecast = forecast_rollout(strategy)  # default optimistic
    assert forecast.rollback_probability == pytest.approx(0.1)


def test_optimistic_probability_bounds():
    with pytest.raises(ModelError):
        optimistic_probabilities(branching_strategy().automaton, success=0.0)


def test_forecast_running_example_shape():
    """The paper's Figure-2 automaton: forecast respects the slow path."""
    builder = StrategyBuilder("fig2")
    builder.service("search", {"search": "h:1", "fastSearch": "h:2"})
    builder.state("a").dwell(1 * 86400).transitions([3], ["g", "b"])
    builder.state("b").dwell(1 * 86400).transitions([3, 4], ["g", "c", "d"])
    builder.state("c").dwell(1 * 86400).transitions([3], ["g", "d"])
    builder.state("d").dwell(1 * 86400).transitions([3], ["g", "e"])
    builder.state("e").dwell(5 * 86400).transitions([14], ["g", "f"])
    builder.state("f").final()
    builder.state("g").final(rollback=True)
    strategy = builder.build()

    certain_success = {
        "a": {"b": 1.0},
        "b": {"d": 0.5, "c": 0.5},  # half the time the slow path via c
        "c": {"d": 1.0},
        "d": {"e": 1.0},
        "e": {"f": 1.0},
    }
    forecast = forecast_rollout(strategy, certain_success)
    # 1 + 1 + 0.5 + 1 + 5 days = 8.5 days expected.
    assert forecast.expected_duration == pytest.approx(8.5 * 86400)
    assert forecast.absorption_probabilities["f"] == pytest.approx(1.0)


def test_probabilities_must_sum_to_one():
    with pytest.raises(ModelError):
        forecast_rollout(
            branching_strategy(),
            {"canary": {"rollback": 0.5}, "rollout": {"done": 1.0}},
        )


def test_probabilities_must_follow_existing_edges():
    with pytest.raises(ModelError):
        forecast_rollout(
            branching_strategy(),
            {"canary": {"done": 1.0}, "rollout": {"done": 1.0}},
        )


def test_missing_state_probabilities_rejected():
    with pytest.raises(ModelError):
        forecast_rollout(branching_strategy(), {"rollout": {"done": 1.0}})


def test_negative_probability_rejected():
    with pytest.raises(ModelError):
        forecast_rollout(
            looping_strategy(), {"test": {"test": -0.5, "done": 1.5}}
        )


def test_never_absorbing_chain_rejected():
    with pytest.raises(ModelError):
        forecast_rollout(looping_strategy(), {"test": {"test": 1.0, "done": 0.0}})


@pytest.mark.parametrize("rollback", [False, True])
def test_final_start_state_is_the_trivial_forecast(rollback):
    automaton = Automaton()
    automaton.add_state(State(name="done", final=True, rollback=rollback))
    forecast = forecast_rollout(automaton)
    assert forecast.expected_duration == 0.0
    assert forecast.expected_visits == {}
    assert forecast.absorption_probabilities == {"done": 1.0}
    assert forecast.rollback_states == (frozenset({"done"}) if rollback else frozenset())
    assert forecast.rollback_probability == (1.0 if rollback else 0.0)
