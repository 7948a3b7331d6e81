"""The paper's primary contribution: the live testing model and engine.

Formal model (section 3): strategies S = ⟨B, A⟩, services and versions,
dynamic routing configurations, checks with timers, threshold ranges,
output mappings, weighted outcomes, and the execution automaton.

Engine (section 4): enacts strategies by walking the automaton, running
timed checks against metric providers, and reconfiguring proxies on state
changes.
"""

from .automaton import Automaton, State, Transitions
from .builder import StateBuilder, StrategyBuilder
from .checks import (
    BasicCheck,
    Check,
    CheckError,
    Comparison,
    CheckProgress,
    CheckResult,
    ConditionEvaluation,
    ExceptionCheck,
    ExceptionTriggered,
    Execution,
    MetricCondition,
    MetricQuery,
    ProviderErrorPolicy,
    Timer,
    simple_basic_check,
)
from .engine import (
    Engine,
    ExecutionReport,
    ExecutionStatus,
    ProxyController,
    RecordingController,
    ServiceClaimedError,
    StateVisit,
    StrategyExecution,
    StrategyRejectedError,
)
from .events import Event, EventBus, EventKind, JsonlEventWriter
from .scheduler import CheckScheduler
from .model import ModelError, Service, ServiceVersion, Strategy
from .outcome import (
    OutcomeError,
    OutputMapping,
    ThresholdRanges,
    Validator,
    weighted_outcome,
)
from .reasoning import (
    RolloutForecast,
    forecast_rollout,
    optimistic_probabilities,
    uniform_probabilities,
)
from .routing import (
    FilterKind,
    RoutingConfig,
    RoutingError,
    ShadowRoute,
    TrafficSplit,
    UserMapping,
    ab_split,
    canary_split,
    single_version,
)
from .selection import stable_fraction

__all__ = [
    "ab_split",
    "Automaton",
    "BasicCheck",
    "canary_split",
    "Check",
    "CheckError",
    "CheckProgress",
    "CheckResult",
    "CheckScheduler",
    "Comparison",
    "ConditionEvaluation",
    "ProviderErrorPolicy",
    "Engine",
    "Event",
    "forecast_rollout",
    "EventBus",
    "EventKind",
    "JsonlEventWriter",
    "ExceptionCheck",
    "ExceptionTriggered",
    "Execution",
    "ExecutionReport",
    "ExecutionStatus",
    "FilterKind",
    "MetricCondition",
    "MetricQuery",
    "ModelError",
    "OutcomeError",
    "OutputMapping",
    "ProxyController",
    "RecordingController",
    "RolloutForecast",
    "RoutingConfig",
    "RoutingError",
    "Service",
    "ServiceClaimedError",
    "StrategyRejectedError",
    "ServiceVersion",
    "ShadowRoute",
    "simple_basic_check",
    "single_version",
    "stable_fraction",
    "State",
    "StateBuilder",
    "StateVisit",
    "Strategy",
    "StrategyBuilder",
    "StrategyExecution",
    "ThresholdRanges",
    "Timer",
    "TrafficSplit",
    "Transitions",
    "uniform_probabilities",
    "optimistic_probabilities",
    "UserMapping",
    "Validator",
    "weighted_outcome",
]
