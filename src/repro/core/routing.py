"""Dynamic routing configuration: dc_i = ⟨M, Γ⟩.

The paper models a service's dynamic routing state as user mappings M
(⟨u_k, v_j, sticky⟩ triples) plus dark-launch duplication rules Γ
(⟨v_i,j, v_k,l, p⟩ triples).  In the running system the *aggregate* of the
user mappings is what a proxy enforces — "assign 5% of users to the
fastSearch canary" — so the proxy-facing configuration is expressed as
traffic splits; individual sticky assignments materialize at the proxy as
users arrive (cookie routing) or are made by an external component (header
routing).

This module defines both views:

* :class:`UserMapping` / :class:`ShadowRoute` — the formal tuples,
* :class:`TrafficSplit` / :class:`RoutingConfig` — the enforcement view the
  engine ships to proxies, plus (de)serialization for the engine→proxy API.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class RoutingError(Exception):
    """A routing configuration is invalid."""


class FilterKind(enum.Enum):
    """How the proxy decides which version serves a request.

    ``COOKIE``: the proxy assigns buckets itself and persists them via a
    UUID cookie (optionally sticky).  ``HEADER``: an upstream component
    (e.g. the auth service at login) injects a header naming the version
    group; the proxy only dispatches on it.
    """

    COOKIE = "cookie"
    HEADER = "header"


@dataclass(frozen=True)
class UserMapping:
    """⟨u_k, v_j, sticky⟩ — one user's current version assignment."""

    user: str
    version: str
    sticky: bool = False


@dataclass(frozen=True)
class ShadowRoute:
    """⟨v_i,j, v_k,l, p⟩ — duplicate p% of source-version traffic to target.

    Dark launches duplicate rather than reroute: the response from the
    shadow target is discarded and the user only ever sees the source
    version's reply.
    """

    source_version: str
    target_version: str
    percentage: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.percentage <= 100.0:
            raise RoutingError(
                f"shadow percentage must be in [0, 100], got {self.percentage}"
            )


@dataclass(frozen=True)
class TrafficSplit:
    """One version's share of live (non-shadow) traffic, in percent."""

    version: str
    percentage: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.percentage <= 100.0:
            raise RoutingError(
                f"traffic percentage must be in [0, 100], got {self.percentage}"
            )


@dataclass
class RoutingConfig:
    """Everything one proxy needs to enforce a state's routing.

    ``splits`` must sum to 100%.  ``sticky`` requests that a user stay on
    the version first assigned (A/B tests); ``filter_kind`` selects cookie-
    vs header-based decision making; ``header_name`` names the inspected
    header in header mode.
    """

    splits: list[TrafficSplit] = field(default_factory=list)
    shadows: list[ShadowRoute] = field(default_factory=list)
    sticky: bool = False
    filter_kind: FilterKind = FilterKind.COOKIE
    header_name: str = "X-Bifrost-Group"

    def validate(self) -> None:
        if not self.splits:
            raise RoutingError("routing config needs at least one traffic split")
        total = sum(split.percentage for split in self.splits)
        if abs(total - 100.0) > 1e-6:
            raise RoutingError(f"traffic splits must sum to 100%, got {total}")
        seen: set[str] = set()
        for split in self.splits:
            if split.version in seen:
                raise RoutingError(f"duplicate split for version {split.version!r}")
            seen.add(split.version)

    def to_wire(self) -> dict[str, Any]:
        """Serialize for the engine→proxy admin API."""
        return {
            "splits": [
                {"version": s.version, "percentage": s.percentage} for s in self.splits
            ],
            "shadows": [
                {
                    "source": s.source_version,
                    "target": s.target_version,
                    "percentage": s.percentage,
                }
                for s in self.shadows
            ],
            "sticky": self.sticky,
            "filter": self.filter_kind.value,
            "header": self.header_name,
        }

    @classmethod
    def from_wire(cls, payload: dict[str, Any]) -> "RoutingConfig":
        """Parse the admin-API payload; raises RoutingError on bad input.

        Names must be strings, percentages numbers (a bool is not one) and
        ``sticky`` a bool: a wrongly typed field is refused, not coerced
        into some other routing.
        """
        try:
            config = cls(
                splits=[
                    TrafficSplit(
                        _typed(item, "version", str), float(_typed(item, "percentage", _NUMBER))
                    )
                    for item in payload.get("splits", [])
                ],
                shadows=[
                    ShadowRoute(
                        _typed(item, "source", str),
                        _typed(item, "target", str),
                        float(_typed(item, "percentage", _NUMBER, 100.0)),
                    )
                    for item in payload.get("shadows", [])
                ],
                sticky=_typed(payload, "sticky", bool, False),
                filter_kind=FilterKind(payload.get("filter", "cookie")),
                header_name=_typed(payload, "header", str, "X-Bifrost-Group"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RoutingError(f"bad routing payload: {exc}") from exc
        config.validate()
        return config


_REQUIRED = object()
_NUMBER = (int, float)


def _typed(item: dict[str, Any], key: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """``item[key]`` (or *default* when absent), which must be a *kind*."""
    value = item[key] if default is _REQUIRED else item.get(key, default)
    # JSON true is an int to isinstance: only a bool field takes a bool.
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise TypeError(f"{key} has the wrong type: {value!r}")
    return value


def single_version(version: str) -> RoutingConfig:
    """Convenience: route 100% of traffic to one version."""
    return RoutingConfig(splits=[TrafficSplit(version, 100.0)])


def canary_split(stable: str, canary: str, canary_percentage: float) -> RoutingConfig:
    """Convenience: a stable/canary split used by canaries and rollouts."""
    return RoutingConfig(
        splits=[
            TrafficSplit(stable, 100.0 - canary_percentage),
            TrafficSplit(canary, canary_percentage),
        ]
    )


def ab_split(version_a: str, version_b: str) -> RoutingConfig:
    """Convenience: a sticky 50/50 A/B test split."""
    return RoutingConfig(
        splits=[TrafficSplit(version_a, 50.0), TrafficSplit(version_b, 50.0)],
        sticky=True,
    )
