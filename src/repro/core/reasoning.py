"""Probabilistic reasoning about strategies.

The paper argues that formalizing release strategies "fosters formally or
probabilistically reasoning about the strategy, e.g., in terms of
expected rollout time" (section 1).  This module delivers that analysis:
given per-state transition probabilities, the automaton becomes an
absorbing Markov chain whose fundamental matrix yields

* the expected number of visits to each state,
* the expected total rollout time (visits weighted by nominal state
  durations),
* the absorption probability of each final state (e.g. the chance the
  rollout ends in a rollback).

Transition probabilities can be supplied per state (range target →
probability) or estimated uniformly/optimistically by helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automaton import Automaton
from .model import ModelError, Strategy

#: state name -> (successor name -> probability).
TransitionProbabilities = dict[str, dict[str, float]]


@dataclass(frozen=True)
class RolloutForecast:
    """The analysis result for one strategy + probability assignment."""

    expected_duration: float
    expected_visits: dict[str, float]
    absorption_probabilities: dict[str, float]
    rollback_states: frozenset[str] = frozenset()

    @property
    def rollback_probability(self) -> float:
        """Mass absorbed by rollback-flagged final states (0 if none)."""
        return sum(
            probability
            for name, probability in self.absorption_probabilities.items()
            if name in self.rollback_states
        )


def optimistic_probabilities(
    automaton: Automaton, success: float = 0.9
) -> TransitionProbabilities:
    """The *last* outcome range (best outcome) gets probability *success*;
    the remaining mass is spread uniformly over the other ranges.

    Matches the common reading of Figure 2, where the highest outcome
    range is the "everything fine, keep rolling out" edge.
    """
    if not 0.0 < success <= 1.0:
        raise ModelError(f"success probability must be in (0, 1], got {success}")
    probabilities: TransitionProbabilities = {}
    for name, state in automaton.states.items():
        if state.transitions is None:
            continue
        targets = state.transitions.targets
        merged: dict[str, float] = {}
        if len(targets) == 1:
            merged[targets[0]] = 1.0
        else:
            rest = (1.0 - success) / (len(targets) - 1)
            for index, target in enumerate(targets):
                share = success if index == len(targets) - 1 else rest
                merged[target] = merged.get(target, 0.0) + share
        probabilities[name] = merged
    return probabilities


def forecast_rollout(
    strategy: Strategy | Automaton,
    probabilities: TransitionProbabilities | None = None,
) -> RolloutForecast:
    """Solve the absorbing Markov chain for *strategy*.

    With ``probabilities=None``, :func:`optimistic_probabilities` is used.
    Raises :class:`ModelError` if the assignment leaks probability mass,
    references unknown successors, or gives some transient state no path
    to absorption (expected rollout time would be infinite).
    """
    import numpy  # only this analysis needs it: the engine must import without

    automaton = strategy.automaton if isinstance(strategy, Strategy) else strategy
    if automaton is None:
        raise ModelError("strategy has no automaton")
    automaton.validate()
    if probabilities is None:
        probabilities = optimistic_probabilities(automaton)

    transient = [n for n, s in automaton.states.items() if not s.final]
    absorbing = [n for n, s in automaton.states.items() if s.final]
    rollback_states = frozenset(
        name for name in absorbing if automaton.states[name].rollback
    )
    if automaton.states[automaton.start].final:
        # Absorbed before the first step: nothing runs, nothing to solve.
        return RolloutForecast(
            expected_duration=0.0,
            expected_visits={},
            absorption_probabilities={automaton.start: 1.0},
            rollback_states=rollback_states,
        )
    t_index = {name: i for i, name in enumerate(transient)}
    a_index = {name: i for i, name in enumerate(absorbing)}

    Q = numpy.zeros((len(transient), len(transient)))
    R = numpy.zeros((len(transient), len(absorbing)))
    for name in transient:
        edges = probabilities.get(name)
        if not edges:
            raise ModelError(f"no transition probabilities for state {name!r}")
        total = sum(edges.values())
        if abs(total - 1.0) > 1e-9:
            raise ModelError(
                f"probabilities out of state {name!r} sum to {total}, not 1"
            )
        allowed = automaton.states[name].successors
        for target, probability in edges.items():
            if probability < 0:
                raise ModelError(f"negative probability on {name!r} -> {target!r}")
            if target not in allowed:
                raise ModelError(
                    f"state {name!r} has no edge to {target!r}; allowed: "
                    f"{sorted(allowed)}"
                )
            if target in t_index:
                Q[t_index[name], t_index[target]] += probability
            else:
                R[t_index[name], a_index[target]] += probability

    identity = numpy.eye(len(transient))
    try:
        fundamental = numpy.linalg.inv(identity - Q)
    except numpy.linalg.LinAlgError as exc:
        raise ModelError(
            "the chain cannot reach absorption from some state "
            "(expected rollout time is infinite)"
        ) from exc
    if numpy.any(fundamental < -1e-9):
        raise ModelError("ill-conditioned probability assignment")

    start_row = fundamental[t_index[automaton.start]]
    durations = numpy.array(
        [automaton.states[name].nominal_duration for name in transient]
    )
    expected_duration = float(start_row @ durations)
    expected_visits = {
        name: float(start_row[t_index[name]]) for name in transient
    }
    absorption = start_row @ R
    absorption_probabilities = {
        name: float(absorption[a_index[name]]) for name in absorbing
    }
    return RolloutForecast(
        expected_duration=expected_duration,
        expected_visits=expected_visits,
        absorption_probabilities=absorption_probabilities,
        rollback_states=rollback_states,
    )
