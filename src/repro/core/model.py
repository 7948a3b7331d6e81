"""Static structure of a live testing strategy: S = ⟨B, A⟩.

The paper models a strategy as a 2-tuple of services B and an automaton A
(section 3.2).  This module holds the *static* half:

* :class:`ServiceVersion` — one version v_i of a service with its static
  configuration sc_i (endpoint information),
* :class:`Service` — an atomic architectural component b_i with its tuple of
  versions,
* :class:`Strategy` — the services plus the automaton.

The *dynamic* routing state (user mappings, dark-launch duplication) lives
in :mod:`repro.core.routing`, and the automaton in
:mod:`repro.core.automaton`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .automaton import Automaton


class ModelError(Exception):
    """A strategy, service, or automaton is structurally invalid."""


@dataclass(frozen=True)
class ServiceVersion:
    """One version v_i of a service, with static configuration sc_i.

    ``endpoint`` is the version's host:port — where its instances can be
    reached.  The paper's sc_i "holds a version's endpoint information
    (e.g., host name, IP address, and port)".
    """

    name: str  # e.g. "fastSearch" or "product_a"
    endpoint: str  # e.g. "127.0.0.1:8081"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("service version needs a name")
        if not self.endpoint:
            raise ModelError(f"version {self.name!r} needs an endpoint")


@dataclass
class Service:
    """An atomic architectural component b_i, available in versions ⟨v1..vn⟩."""

    name: str
    versions: dict[str, ServiceVersion] = field(default_factory=dict)

    def add_version(self, version: ServiceVersion) -> None:
        if version.name in self.versions:
            raise ModelError(
                f"service {self.name!r} already has version {version.name!r}"
            )
        self.versions[version.name] = version

    def version(self, name: str) -> ServiceVersion:
        try:
            return self.versions[name]
        except KeyError:
            raise ModelError(
                f"service {self.name!r} has no version {name!r}; "
                f"known: {sorted(self.versions)}"
            ) from None


@dataclass
class Strategy:
    """A live testing strategy S : ⟨B, A⟩."""

    name: str
    services: dict[str, Service] = field(default_factory=dict)
    automaton: "Automaton | None" = None

    def add_service(self, service: Service) -> None:
        if service.name in self.services:
            raise ModelError(f"strategy already has service {service.name!r}")
        self.services[service.name] = service

    def service(self, name: str) -> Service:
        try:
            return self.services[name]
        except KeyError:
            raise ModelError(
                f"strategy {self.name!r} has no service {name!r}; "
                f"known: {sorted(self.services)}"
            ) from None

    def validate(self) -> None:
        """Check cross-references; raises :class:`ModelError` on problems.

        Verifies that the automaton exists, that every state's routing
        references known services and versions, and that the automaton
        itself is well-formed (see :meth:`Automaton.validate`).
        """
        if self.automaton is None:
            raise ModelError(f"strategy {self.name!r} has no automaton")
        self.automaton.validate()
        for state in self.automaton.states.values():
            for service_name, config in state.routing.items():
                service = self.service(service_name)
                for split in config.splits:
                    service.version(split.version)
                for shadow in config.shadows:
                    service.version(shadow.source_version)
                    service.version(shadow.target_version)
