"""The execution automaton A = ⟨Ω, S, s1, δ, F⟩.

States s_i = ⟨C, T, W, Φ, η⟩ carry checks, thresholds, weights, routing
configurations, and (implicitly, via the routing configs and proxies) the
user selection function η.  The transition function δ : S × Z → S is
encoded per state as a :class:`Transitions` record: ordered thresholds
forming ranges, and one target state per range.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .checks import Check
from .model import ModelError
from .outcome import ThresholdRanges
from .routing import RoutingConfig


@dataclass(frozen=True)
class Transitions:
    """δ restricted to one state: outcome ranges → successor state names.

    Thresholds ⟨t1..tn⟩ form n+1 ranges; ``targets[i]`` is the successor
    when the state's outcome falls into range i.  A target may equal the
    state itself, modeling re-execution with timers and thresholds reset.
    """

    ranges: ThresholdRanges
    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.targets) != self.ranges.range_count:
            raise ModelError(
                f"{len(self.ranges.thresholds)} thresholds form "
                f"{self.ranges.range_count} outcome ranges but "
                f"{len(self.targets)} targets are given"
            )

    @classmethod
    def build(cls, thresholds: Sequence[float], targets: Sequence[str]) -> "Transitions":
        return cls(ThresholdRanges(tuple(thresholds)), tuple(targets))

    @classmethod
    def always(cls, target: str) -> "Transitions":
        """A single unconditional transition (states without checks)."""
        return cls(ThresholdRanges(()), (target,))

    def next_state(self, outcome: float) -> str:
        return self.targets[self.ranges.index_of(outcome)]


@dataclass
class State:
    """One phase of a live testing strategy.

    * ``checks`` C with parallel ``weights`` W,
    * ``routing`` Φ: the dynamic routing configuration per affected service,
    * ``transitions`` δ|s, or ``None`` for final states,
    * ``duration``: explicit dwell time for states whose length is not
      implied by check timers (e.g. dark launch with no checks).

    The state's nominal duration is the longest of the explicit duration
    and every check timer's span — the state ends when all checks finished.
    """

    name: str
    checks: list[Check] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)
    routing: dict[str, RoutingConfig] = field(default_factory=dict)
    transitions: Transitions | None = None
    duration: float | None = None
    final: bool = False
    #: Marks a final state as a rollback target (terminal-status reporting).
    rollback: bool = False

    def __post_init__(self) -> None:
        if self.checks and not self.weights:
            self.weights = [1.0] * len(self.checks)

    def validate(self) -> None:
        if len(self.weights) != len(self.checks):
            raise ModelError(
                f"state {self.name!r}: {len(self.checks)} checks but "
                f"{len(self.weights)} weights"
            )
        if self.final and self.transitions is not None:
            raise ModelError(f"final state {self.name!r} must not have transitions")
        if not self.final and self.transitions is None:
            raise ModelError(f"non-final state {self.name!r} needs transitions")
        if not self.final and not self.checks and self.duration is None:
            raise ModelError(
                f"state {self.name!r} has neither checks nor an explicit "
                "duration; it would complete instantly"
            )
        for service_name, config in self.routing.items():
            try:
                config.validate()
            except Exception as exc:
                raise ModelError(
                    f"state {self.name!r}, service {service_name!r}: {exc}"
                ) from exc

    @property
    def nominal_duration(self) -> float:
        """The specified execution time of this state in seconds."""
        spans = [check.timer.duration for check in self.checks]
        if self.duration is not None:
            spans.append(self.duration)
        return max(spans, default=0.0)


@dataclass
class Automaton:
    """A deterministic finite automaton over live-testing states."""

    states: dict[str, State] = field(default_factory=dict)
    start: str = ""

    def add_state(self, state: State) -> State:
        if state.name in self.states:
            raise ModelError(f"duplicate state name {state.name!r}")
        self.states[state.name] = state
        if not self.start:
            self.start = state.name
        return state

    def state(self, name: str) -> State:
        try:
            return self.states[name]
        except KeyError:
            raise ModelError(
                f"automaton has no state {name!r}; known: {sorted(self.states)}"
            ) from None

    @property
    def final_states(self) -> set[str]:
        """F ⊆ S."""
        return {name for name, state in self.states.items() if state.final}

    def validate(self) -> None:
        """Structural validation: references, reachability, termination."""
        if not self.states:
            raise ModelError("automaton has no states")
        if self.start not in self.states:
            raise ModelError(f"start state {self.start!r} does not exist")
        if not self.final_states:
            raise ModelError("automaton has no final states; it cannot terminate")

        for state in self.states.values():
            state.validate()
            targets: list[str] = []
            if state.transitions is not None:
                targets.extend(state.transitions.targets)
            for check in state.checks:
                fallback = getattr(check, "fallback_state", None)
                if fallback is not None:
                    targets.append(fallback)
            for target in targets:
                if target not in self.states:
                    raise ModelError(
                        f"state {state.name!r} references unknown state {target!r}"
                    )

        unreachable = set(self.states) - self._reachable_from_start()
        if unreachable:
            raise ModelError(f"unreachable states: {sorted(unreachable)}")

    def _reachable_from_start(self) -> set[str]:
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            state = self.states[queue.popleft()]
            successors: list[str] = []
            if state.transitions is not None:
                successors.extend(state.transitions.targets)
            for check in state.checks:
                fallback = getattr(check, "fallback_state", None)
                if fallback is not None:
                    successors.append(fallback)
            for name in successors:
                if name in self.states and name not in seen:
                    seen.add(name)
                    queue.append(name)
        return seen

    def nominal_path_duration(self, path: Sequence[str]) -> float:
        """Sum of nominal durations along a state-name path (planning aid)."""
        return sum(self.state(name).nominal_duration for name in path)
