"""Compiled routing plans: the proxy data-plane fast path.

Interpreting a routing configuration per request re-derives config-shaped
structures on every request: the known-version set is rebuilt per header
decision, the cumulative split thresholds are re-summed per bucket lookup,
and shadow rules are re-filtered per request.  At "millions of users"
scale that is pure per-request garbage.  The interpreted form survives
only as the reference in ``tests/property/test_plan_equivalence.py``.

A :class:`RoutingPlan` is compiled **once** when a configuration is
applied (``apply_config`` / ``FilterChain.__init__``) and is immutable
afterwards:

* the known-version set is a ``frozenset`` (header dispatch is one hash
  probe),
* the traffic splits become cumulative thresholds consulted with
  :func:`bisect.bisect_right` (identical floats to the interpreted
  running sum, so decisions are observationally equivalent),
* shadow rules are pre-grouped by source version with their sampling
  thresholds pre-extracted, and versions with no shadows short-circuit to
  a shared empty list,
* endpoints are pre-parsed into :class:`EndpointRing` round-robin rings
  (``host``/``port`` split once per config, not once per request).

``decide()`` therefore allocates nothing config-derived: one
:class:`~repro.proxy.filters.RoutingDecision` per request, and a shadow
list only when a shadow actually fires.
"""

from __future__ import annotations

import random
from bisect import bisect_right

from ..core.routing import RoutingConfig, RoutingError, ShadowRoute
from ..core.selection import stable_fraction

#: Shared result for "no shadows fire for this version" — never mutated.
NO_SHADOWS: list[ShadowRoute] = []


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split one ``host[:port]`` endpoint into ``(host, port)``.

    **The** endpoint parser for the data plane: endpoint rings and the
    shadower both route through it, so the proxy and a shadow dispatch
    can never disagree on what a configured target means.  A missing
    port defaults to 80, matching the URL convention in
    :func:`repro.httpcore.client._split_url`.
    """
    host, colon, port = endpoint.partition(":")
    if not host:
        raise ValueError(f"endpoint has no host: {endpoint!r}")
    if not colon:
        return host, 80
    # 1-5 ASCII digits, not every spelling int() takes ("+80", " 80",
    # "8_0").  Outside 1-65535 a connect raises OverflowError, not an
    # OSError the data plane answers with 502.
    if not (len(port) <= 5 and port.isascii() and port.isdigit() and 0 < int(port) < 65536):
        raise ValueError(f"endpoint has a bad port: {endpoint!r}")
    return host, int(port)


def normalize_endpoints(
    config: RoutingConfig, endpoints: dict[str, str | list[str]]
) -> dict[str, list[str]]:
    """Validate and normalize version → endpoint(s) against *config*.

    An endpoint value may be a single ``host:port`` or a list of them:
    "a service acting behind a proxy may run in multiple instances and
    multiple versions at the same time" (paper section 4.1).  Every
    version the config references (splits and shadows) must have at
    least one non-empty endpoint, and every endpoint must parse.
    """
    normalized: dict[str, list[str]] = {}
    for version, value in endpoints.items():
        instances = [value] if isinstance(value, str) else list(value)
        if not instances or not all(isinstance(i, str) and i for i in instances):
            raise RoutingError(
                f"version {version!r} needs at least one non-empty endpoint"
            )
        for instance in instances:
            try:
                parse_endpoint(instance)
            except ValueError as exc:
                raise RoutingError(str(exc)) from None
        normalized[version] = instances
    referenced = {split.version for split in config.splits}
    for shadow in config.shadows:
        referenced.add(shadow.source_version)
        referenced.add(shadow.target_version)
    missing = referenced - set(normalized)
    if missing:
        raise RoutingError(
            f"config references versions without endpoints: {sorted(missing)}"
        )
    return normalized


class EndpointRing:
    """Round-robin cursor over one version's pre-parsed instances.

    Each entry is ``(endpoint, host, port)`` — the ``host:port`` split and
    ``int()`` parse happen at compile time, so picking an instance on the
    hot path is an index bump.
    """

    __slots__ = ("instances", "_cursor", "_count")

    def __init__(self, instances: list[str] | tuple[str, ...]):
        parsed = []
        for endpoint in instances:
            host, port = parse_endpoint(endpoint)
            parsed.append((endpoint, host, port))
        self.instances: tuple[tuple[str, str, int], ...] = tuple(parsed)
        self._count = len(self.instances)
        self._cursor = 0

    def next(self) -> tuple[str, str, int]:
        """The next ``(endpoint, host, port)`` triple, round-robin."""
        if self._count == 1:
            return self.instances[0]
        cursor = self._cursor
        self._cursor = cursor + 1
        return self.instances[cursor % self._count]


class RoutingPlan:
    """An immutable, pre-resolved form of one :class:`RoutingConfig`."""

    __slots__ = (
        "config",
        "seed",
        "sticky",
        "header_name",
        "default_version",
        "known_versions",
        "_bounds",
        "_versions",
        "_single_version",
        "_shadows_by_source",
    )

    def __init__(self, config: RoutingConfig, seed: str = "bifrost"):
        config.validate()
        self.config = config
        self.seed = seed
        self.sticky = config.sticky
        self.header_name = config.header_name
        self.default_version = config.splits[0].version
        self.known_versions = frozenset(split.version for split in config.splits)

        # Cumulative thresholds, accumulated exactly like the interpreted
        # loop (running += in split order) so the floats are bit-identical.
        bounds: list[float] = []
        versions: list[str] = []
        cumulative = 0.0
        for split in config.splits:
            cumulative += split.percentage
            bounds.append(cumulative)
            versions.append(split.version)
        self._bounds = bounds
        self._versions = tuple(versions)
        self._single_version = versions[0] if len(versions) == 1 else None

        shadows: dict[str, list[tuple[float, ShadowRoute]]] = {}
        for shadow in config.shadows:
            shadows.setdefault(shadow.source_version, []).append(
                (shadow.percentage, shadow)
            )
        self._shadows_by_source = {
            source: tuple(rules) for source, rules in shadows.items()
        }

    # -- decisions --------------------------------------------------------

    def version_for_group(self, group: str | None) -> str:
        """Header dispatch: the named group, or the default split."""
        if group is not None and group in self.known_versions:
            return group
        return self.default_version

    def bucket(self, client_id: str) -> str:
        """Hash *client_id* against the cumulative split thresholds.

        Equivalent to the interpreted scan (first split whose cumulative
        share strictly exceeds the client's point): ``bisect_right``
        returns the first index whose bound is greater than the point,
        clamped to the last split for points at or beyond 100%.
        """
        if self._single_version is not None:
            return self._single_version
        point = stable_fraction(client_id, self.seed) * 100.0
        index = bisect_right(self._bounds, point)
        if index >= len(self._versions):
            index = -1
        return self._versions[index]

    def select_shadows(self, version: str, rng: random.Random) -> list[ShadowRoute]:
        """Shadow routes firing for a request served by *version*.

        Draws from *rng* exactly as the interpreted path does — once per
        sampled (sub-100%) rule whose source matches — so a seeded RNG
        produces identical shadow selections on either path.
        """
        rules = self._shadows_by_source.get(version)
        if rules is None:
            return NO_SHADOWS
        selected = None
        for threshold, shadow in rules:
            if threshold >= 100.0 or rng.random() * 100.0 < threshold:
                if selected is None:
                    selected = [shadow]
                else:
                    selected.append(shadow)
        return selected if selected is not None else NO_SHADOWS
