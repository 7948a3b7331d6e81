"""Fault injection and chaos campaigns.

A provider that fails is answered by the check that asked it: its
``onProviderError`` policy (hold, tolerate, trigger) decides the phase.
This package injects the failures that policy has to answer:
:mod:`repro.resilience.faults` is the deterministic fault-injection
toolkit and :mod:`repro.resilience.chaos` the declared chaos campaigns
enacted alongside strategies.
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

__all__ = [
    "ChaosCampaign",
    "ChaosController",
    "ChaosError",
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
    "parse_target",
    "run_game_day",
]
