"""Resilience layer: policies, wrappers, fault injection, and chaos.

The engine survives flaky dependencies instead of equating them with bad
releases: see :mod:`repro.resilience.policy` for the building blocks,
:mod:`repro.resilience.wrappers` for the provider decorator,
:mod:`repro.resilience.faults` for the deterministic fault-injection
toolkit, :mod:`repro.resilience.chaos` for declared chaos campaigns
enacted alongside strategies, and :mod:`repro.resilience.corpus` for the
seeded generative soak suite that stresses all of it under VirtualClock.
"""

from .chaos import (
    ChaosCampaign,
    ChaosController,
    ChaosError,
    FaultSpec,
    GameDayReport,
    Injection,
    parse_target,
    run_game_day,
)
from .faults import (
    ErrorFault,
    Fault,
    FaultSchedule,
    FaultScheduleError,
    FaultyController,
    FaultyProvider,
    FaultyUpstream,
    HangFault,
    LatencyFault,
)
from .policy import (
    BreakerState,
    CircuitBreaker,
    ResilienceError,
    RetryPolicy,
    Timeout,
    TimeoutExceeded,
)
from .wrappers import ResilientProvider

__all__ = [
    "BreakerState",
    "ChaosCampaign",
    "ChaosController",
    "ChaosError",
    "CircuitBreaker",
    "ErrorFault",
    "Fault",
    "FaultSchedule",
    "FaultScheduleError",
    "FaultSpec",
    "FaultyController",
    "FaultyProvider",
    "FaultyUpstream",
    "GameDayReport",
    "HangFault",
    "Injection",
    "LatencyFault",
    "ResilienceError",
    "ResilientProvider",
    "RetryPolicy",
    "Timeout",
    "TimeoutExceeded",
    "parse_target",
    "run_game_day",
]
